from pathlib import Path

import pytest

from modcover.families import FamilySpec
from modcover.ring import WeightMetric
from modcover.verify import (
    BOUND_HOLDS,
    CHECKS,
    FLAGGED,
    MATCH,
    MISMATCH,
    SKIPPED,
    has_mismatch,
    load_errata,
    run_checks,
)


def by_id(results, check_id):
    return [r for r in results if r.check == check_id]


def test_registry_ids():
    for expected in (
        "rep-lee-alpha",
        "rep-euclid-beta",
        "brep3n-lee",
        "simplex-alpha-lee",
        "dual-beta-lee",
        "macdonald-alpha-lee",
        "field-repetition",
    ):
        assert expected in CHECKS


def test_unknown_id_rejected():
    with pytest.raises(KeyError):
        run_checks(["no-such-check"])


def test_rep_lee_alpha_all_match():
    results = run_checks(["rep-lee-alpha"])
    assert [r.status for r in results] == [MATCH] * 6
    assert [r.exact for r in results] == list(range(1, 7))


def test_rep_euclid_alpha_flags_odd_lengths():
    results = run_checks(["rep-euclid-alpha"])
    statuses = {r.params["n"]: r.status for r in results}
    assert statuses == {1: FLAGGED, 2: MATCH, 3: FLAGGED, 4: MATCH, 5: FLAGGED, 6: MATCH}
    assert not has_mismatch(results)


def test_rep_euclid_beta_matches_only_multiples_of_four():
    results = run_checks(["rep-euclid-beta"])
    statuses = {r.params["n"]: r.status for r in results}
    assert statuses[4] == MATCH
    assert all(status == FLAGGED for n, status in statuses.items() if n != 4)


def test_simplex_base_cases_are_flagged_discrepancies():
    results = run_checks(["simplex-alpha-lee", "simplex-alpha-euclid", "simplex-beta-lee"])
    assert [r.status for r in results] == [FLAGGED] * 3
    assert by_id(results, "simplex-alpha-lee")[0].exact == 5
    assert by_id(results, "simplex-alpha-euclid")[0].exact == 8
    assert by_id(results, "simplex-beta-lee")[0].exact == 5


def test_dual_checks_match():
    results = run_checks(["dual-alpha-lee", "dual-beta-lee", "dual-alpha-euclid", "dual-beta-euclid"])
    assert all(r.status in (MATCH, BOUND_HOLDS) for r in results)
    assert {r.exact for r in by_id(results, "dual-alpha-lee")} == {1}
    assert {r.exact for r in by_id(results, "dual-beta-lee")} == {2}


def test_macdonald_skipped_rows_record_bounds():
    results = run_checks(["macdonald-alpha-lee"])
    in_budget = [r for r in results if r.params["k"] == 2][0]
    skipped = [r for r in results if r.params["k"] == 3][0]
    assert in_budget.status == BOUND_HOLDS and in_budget.exact == 12
    assert skipped.status == SKIPPED and skipped.exact is None
    assert skipped.formula == "60"


def test_every_flag_is_listed_in_errata():
    results = run_checks()
    errata = load_errata()
    listed = {(e["check"], tuple(sorted(e["params"].items()))) for e in errata}
    for r in results:
        if r.status == FLAGGED:
            assert (r.check, tuple(sorted(r.params.items()))) in listed
    assert not has_mismatch(results)


def test_unlisted_discrepancy_is_mismatch(monkeypatch):
    import modcover.verify as verify

    monkeypatch.setattr(verify, "load_errata", lambda: [])
    results = verify.run_checks(["simplex-alpha-lee"])
    assert results[0].status == MISMATCH
    assert has_mismatch(results)


def test_listed_discrepancy_with_wrong_computed_is_mismatch(monkeypatch):
    import modcover.verify as verify

    errata = [dict(e) for e in load_errata()]
    entry = verify.find_erratum(errata, "simplex-alpha-lee", {"k": 1})
    entry["computed"] += 1
    monkeypatch.setattr(verify, "load_errata", lambda: errata)
    results = verify.run_checks(["simplex-alpha-lee"])
    assert results[0].status == MISMATCH
    assert has_mismatch(results)


def test_stale_errata_entry_is_mismatch(monkeypatch, capsys):
    # r_L(C_alpha) = n holds at n = 2, so an entry listing it is stale
    import modcover.verify as verify
    from modcover import cli

    errata = load_errata() + [
        {"check": "rep-lee-alpha", "params": {"n": 2}, "computed": 2, "reason": "injected"}
    ]
    monkeypatch.setattr(verify, "load_errata", lambda: errata)
    results = verify.run_checks(["rep-lee-alpha"])
    stale = [r for r in results if r.params == {"n": 2}][0]
    assert stale.status == MISMATCH and "errata entry is stale" in stale.note
    assert [r.status for r in results if r.params != {"n": 2}] == [MATCH] * 5
    assert cli.main(["verify", "rep-lee-alpha"]) == 1
    assert "errata entry is stale" in capsys.readouterr().out


GOLDEN = Path(__file__).parent / "data" / "verify.json"


def test_verify_json_is_golden(capsys):
    # every row's exact value, formula, status and note, byte for byte
    from modcover import cli

    assert cli.main(["verify", "--format", "json"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == GOLDEN.read_bytes()


def test_full_run_calls_engine_once_per_instance(monkeypatch):
    import modcover.verify as verify

    engine, calls = verify.covering_radius, []

    def counted(code, metric, method="auto", **kwargs):
        calls.append((code.ring.s, code.n, code.rows.tobytes(), metric, kwargs.get("r_cap")))
        return engine(code, metric, method, **kwargs)

    monkeypatch.setattr(verify, "covering_radius", counted)
    verify.run_checks()
    assert len(calls) == len(set(calls))
    # 64 rows less 6: BRep(2,2,0) serves brep2n and brep-mn in both metrics,
    # and each MacDonald base M_2,1 is its row's k = 2 instance (k = 3 has no
    # exact side)
    assert len(calls) == 58


def test_radius_memo_keeps_caps_apart():
    import modcover.verify as verify

    ctx = verify._Context(verify.DEFAULT_BUDGET)
    dual = FamilySpec("simplex-alpha", {"k": 1}, dual=True)
    assert ctx.radius(dual, WeightMetric.LEE, r_cap=0) is None
    assert ctx.radius(dual, WeightMetric.LEE) == 1
