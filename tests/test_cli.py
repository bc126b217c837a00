import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modcover

CLI = [sys.executable, "-m", "modcover.cli"]

# Subprocesses import the same modcover as this process, whether it is installed
# or on a relative PYTHONPATH entry that would not resolve from another cwd.
_PACKAGE_ROOT = str(Path(modcover.__file__).resolve().parents[1])
_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")])),
}


def run_cli(*args, cwd=None, stdin=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, cwd=cwd, input=stdin, env=_ENV, timeout=600
    )


def assert_ok(result):
    assert result.returncode == 0, result.stderr
    return result


def test_construct_simplex_alpha(tmp_path):
    result = run_cli("construct", "simplex-alpha", "--k", "1", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    matrix = (tmp_path / "simplex-alpha-k1.mat").read_text()
    assert matrix == "2 4\n0 1 2 3\n"
    meta = json.loads((tmp_path / "simplex-alpha-k1.json").read_text())
    assert meta["length"] == 4 and meta["two_dimension"] == 2
    assert meta["audited_parameters"]["audited"] is True


def test_construct_macdonald_alpha_length(tmp_path):
    result = run_cli(
        "construct", "macdonald-alpha", "--k", "2", "--u", "1", "--format", "json", cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["length"] == 12
    header = (tmp_path / "macdonald-alpha-k2-u1.mat").read_text().splitlines()[0]
    assert header == "2 12"


def test_construct_rejects_bad_parameters(tmp_path):
    result = run_cli("construct", "repetition-beta", "--n", "0", cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr.strip()


def test_construct_dual(tmp_path):
    result = run_cli("construct", "simplex-beta", "--k", "2", "--dual", "--format", "json", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["two_dimension"] == 8


def test_radius_json_output(tmp_path):
    assert_ok(run_cli("construct", "repetition-alpha", "--n", "3", cwd=tmp_path))
    result = run_cli(
        "radius", "--matrix", "repetition-alpha-n3.mat", "--metric", "euclidean", cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["value"] == 5
    assert payload["metric"] == "euclidean"
    assert payload["stats"]["visited"] > 0


def test_radius_zero_code(tmp_path):
    (tmp_path / "zero.mat").write_text("2 1\n0\n")
    result = run_cli("radius", "--matrix", "zero.mat", "--metric", "lee", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["value"] == 2
    assert payload["stats"]["deep_cosets"] == 1  # of the cosets of weight 0, 1, 2, 1
    assert payload["stats"]["witness_seconds"] >= 0


def test_radius_budget_exhaustion_yields_interval(tmp_path):
    assert_ok(run_cli("construct", "repetition-beta", "--n", "6", cwd=tmp_path))
    result = run_cli(
        "radius",
        "--matrix", "repetition-beta-n6.mat",
        "--method", "direct",
        "--budget", "10",
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert "interval" in payload and "value" not in payload


def test_radius_bad_matrix_file(tmp_path):
    (tmp_path / "bad.mat").write_text("2 2\n5 0\n")
    result = run_cli("radius", "--matrix", "bad.mat", cwd=tmp_path)
    assert result.returncode == 2


def test_radius_simplex_beta_lee(tmp_path):
    assert_ok(run_cli("construct", "simplex-beta", "--k", "2", cwd=tmp_path))
    result = run_cli("radius", "--matrix", "simplex-beta-k2.mat", "--metric", "lee", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["value"] == 5


def test_bounds_command(tmp_path):
    assert_ok(run_cli("construct", "simplex-alpha", "--k", "1", cwd=tmp_path))
    result = run_cli("bounds", "--matrix", "simplex-alpha-k1.mat", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["sphere_covering_lb"] == 3
    assert payload["delsarte_ub"] == 8


def test_bounds_mattson_decomposition(tmp_path):
    (tmp_path / "stack.mat").write_text("2 2\n0 2\n2 0\n")
    result = run_cli("bounds", "--matrix", "stack.mat", "--metric", "lee", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["mattson_ub"] == 2
    assert payload["mattson_decomposition"]["split_column"] == 1


def test_gray_round_trip(tmp_path):
    result = run_cli("gray", stdin="0 1 2 3\n2 0\n")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 0 0 1 1 1 1 0\n1 1 0 0\n"
    result = run_cli("gray", stdin="0 4\n")
    assert result.returncode == 2


def test_verify_single_check_table():
    result = run_cli("verify", "rep-lee-alpha")
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("MATCH") == 6


def test_verify_json_round_trips():
    result = run_cli("verify", "rep-euclid-beta", "brep2n-lee", "--format", "json")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert {r["check"] for r in payload["results"]} == {"rep-euclid-beta", "brep2n-lee"}
    assert payload["summary"]["MATCH"] >= 2


def test_verify_unknown_check():
    result = run_cli("verify", "bogus")
    assert result.returncode == 2


def test_verify_list():
    result = run_cli("verify", "--list")
    assert result.returncode == 0, result.stderr
    assert "simplex-alpha-lee" in result.stdout


def test_radius_rejects_huge_ring_exponent(tmp_path, monkeypatch, capsys):
    # in-process, with the engine stubbed out, so a regression cannot allocate
    from modcover import cli

    def engine_must_not_run(*args, **kwargs):
        raise AssertionError("the engine ran on a rejected matrix")

    monkeypatch.setattr(cli, "covering_radius", engine_must_not_run)
    (tmp_path / "huge.mat").write_text("40 1\n0\n")
    assert cli.main(["radius", "--matrix", str(tmp_path / "huge.mat")]) == 2
    assert "exceeds the supported maximum" in capsys.readouterr().err


def test_radius_rejects_huge_length_before_allocating(tmp_path, monkeypatch, capsys):
    import tracemalloc

    from modcover import cli

    def engine_must_not_run(*args, **kwargs):
        raise AssertionError("the engine ran on a rejected matrix")

    monkeypatch.setattr(cli, "covering_radius", engine_must_not_run)
    (tmp_path / "long.mat").write_text("2 100000000\n")
    tracemalloc.start()
    try:
        code = cli.main(["radius", "--matrix", str(tmp_path / "long.mat")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "outside the supported range" in capsys.readouterr().err
    assert peak < 1 << 20
