"""Command-line front end: construct codes, compute radii and bounds, verify claims."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .covering import (
    SearchBudget,
    BudgetExceededError,
    _bound_only,
    bound_report,
    covering_radius,
)
from .families import FAMILY_NAMES, FamilySpec, build_family
from .linalg import format_generator_file, parse_generator_file
from .ring import WeightMetric, Z4, format_vector, gray_map, parse_vector
from .verify import CHECKS, has_mismatch, run_checks

USAGE_ERROR = 2


def _add_common(parser: argparse.ArgumentParser, *, budgets: bool = True) -> None:
    parser.add_argument("--format", choices=("json", "table"), default=None, help="output format")
    if budgets:
        parser.add_argument("--budget-vectors", type=int, default=None, help="max distance evaluations of the direct scan")
        parser.add_argument("--budget-memory", type=int, default=None, help="max bytes of the coset DP's working set")


def _budget_from(args) -> SearchBudget:
    kw = {}
    for name in ("budget_vectors", "budget"):
        if getattr(args, name, None):
            kw["direct_evals"] = getattr(args, name)
    if getattr(args, "budget_memory", None):
        kw["table_bytes"] = args.budget_memory
    return SearchBudget(**kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code family instance, writing matrix + metadata files")
    p.add_argument("family", choices=FAMILY_NAMES)
    p.add_argument("--n", type=int, help="length parameter")
    p.add_argument("--k", type=int, help="family parameter k")
    p.add_argument("--u", type=int, help="MacDonald deletion parameter u")
    p.add_argument("--m", type=int, help="size of the ones block")
    p.add_argument("--n2", type=int, default=0, help="size of the twos block")
    p.add_argument("--n3", type=int, default=0, help="size of the threes block")
    p.add_argument("--dual", action="store_true", help="emit the dual of the constructed code")
    p.add_argument("--allow-u1", action="store_true", help="opt in to the unpublished u=1 beta base case")
    p.add_argument("--output", help="output basename (writes BASE.mat and BASE.json)")
    _add_common(p, budgets=False)

    p = sub.add_parser("radius", help="covering radius of a code given by a generator matrix file")
    p.add_argument("--matrix", required=True, help="generator matrix file")
    p.add_argument("--metric", default="lee", help="hamming, lee, homogeneous or euclidean")
    p.add_argument("--method", choices=("auto", "direct", "syndrome", "bfs"), default="auto")
    p.add_argument("--r-cap", type=int, default=None, help="bfs method: report [r_cap+1, inf] if the radius exceeds it")
    p.add_argument("--budget", type=int, default=None, help="alias for --budget-vectors")
    p.add_argument("--no-witness", action="store_true", help="skip the deep-hole witness pass")
    _add_common(p)

    p = sub.add_parser("bounds", help="sphere-covering / Delsarte / Mattson bounds for a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--metric", default="homogeneous", help="metric for the Mattson part")
    _add_common(p)

    p = sub.add_parser("gray", help="map Z4 vectors (one per line) through the Gray isometry")
    p.add_argument("--input", help="input file (default: standard input)")
    p.add_argument("--output", help="output file (default: standard output)")

    p = sub.add_parser("verify", help="run the claim-verification matrix")
    p.add_argument("checks", nargs="*", default=[], help="check ids (default: all)")
    p.add_argument("--list", action="store_true", help="list available check ids")
    p.add_argument("--extended", action="store_true", help="include the long-running instances")
    _add_common(p)
    return parser


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False))


def _cmd_construct(args) -> int:
    params = {}
    for key in ("n", "k", "u", "m"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    if args.family == "block-repetition":
        params["n2"] = args.n2
        params["n3"] = args.n3
    if args.allow_u1:
        params["allow_u1"] = True
    try:
        code = build_family(FamilySpec(args.family, params, dual=args.dual))
    except (ValueError, KeyError, TypeError) as exc:
        print(f"modcover construct: {exc}", file=sys.stderr)
        return USAGE_ERROR
    info = code.family_info
    slug = args.output or "-".join(
        [info.family] + [f"{k}{v}" for k, v in sorted(info.params.items()) if k != "allow_u1"]
    )
    matrix_path = Path(f"{slug}.mat")
    meta_path = Path(f"{slug}.json")
    matrix_path.write_text(format_generator_file(code), encoding="utf-8")
    metadata = {
        "family": info.family,
        "params": {k: v for k, v in info.params.items()},
        "length": code.n,
        "two_dimension": code.two_dimension,
        "audited_parameters": {
            "audited": info.audited,
            "declared": info.declared,
            "measured": info.measured,
        },
    }
    meta_path.write_text(json.dumps(metadata, indent=2) + "\n", encoding="utf-8")
    if args.format == "json":
        _print_json({"matrix_file": str(matrix_path), "metadata_file": str(meta_path), **metadata})
    else:
        print(f"wrote {matrix_path} and {meta_path} ({code.n} columns, 2-dimension {code.two_dimension})")
    return 0


def _load_code(path: str):
    try:
        return parse_generator_file(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"modcover: cannot read {path}: {exc}", file=sys.stderr)
        return None
    except ValueError as exc:
        print(f"modcover: bad matrix file {path}: {exc}", file=sys.stderr)
        return None


def _cmd_radius(args) -> int:
    code = _load_code(args.matrix)
    if code is None:
        return USAGE_ERROR
    try:
        metric = WeightMetric.parse(args.metric)
        metric.check_ring(code.ring)
    except ValueError as exc:
        print(f"modcover: {exc}", file=sys.stderr)
        return USAGE_ERROR
    budget = _budget_from(args)
    try:
        report = covering_radius(
            code,
            metric,
            args.method,
            r_cap=args.r_cap,
            budget=budget,
            witness=not args.no_witness,
        )
    except BudgetExceededError:
        report = _bound_only(code, metric)
    payload = report.to_dict()
    if args.format == "table":
        value = report.value if report.exact else f"[{report.lo}, {report.hi if report.hi is not None else 'inf'}]"
        print(f"metric={report.metric} method={report.method} radius={value} "
              f"witness={report.witness} visited={report.visited}")
    else:
        _print_json(payload)
    return 0


def _cmd_bounds(args) -> int:
    code = _load_code(args.matrix)
    if code is None:
        return USAGE_ERROR
    try:
        metric = WeightMetric.parse(args.metric)
    except ValueError as exc:
        print(f"modcover: {exc}", file=sys.stderr)
        return USAGE_ERROR
    report = bound_report(code, metric=metric, budget=_budget_from(args))
    if args.format == "table":
        print(f"sphere_covering_lb={report.sphere_covering_lb} delsarte_ub={report.delsarte_ub} "
              f"mattson_ub={report.mattson_ub}")
    else:
        _print_json(report.to_dict())
    return 0


def _cmd_gray(args) -> int:
    source = Path(args.input).read_text(encoding="utf-8").splitlines() if args.input else sys.stdin
    out_lines = []
    for line in source:
        if not line.strip():
            continue
        try:
            v = parse_vector(line, Z4)
        except ValueError as exc:
            print(f"modcover gray: {exc}", file=sys.stderr)
            return USAGE_ERROR
        out_lines.append(format_vector(gray_map(v)))
    text = "\n".join(out_lines) + ("\n" if out_lines else "")
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        for check_id, check in CHECKS.items():
            print(f"{check_id}: {check.claim}")
        return 0
    ids = None
    if args.checks and args.checks != ["all"]:
        ids = args.checks
    try:
        results = run_checks(ids, extended=args.extended, budget=_budget_from(args))
    except KeyError as exc:
        print(f"modcover verify: {exc.args[0]}", file=sys.stderr)
        return USAGE_ERROR
    if args.format == "json":
        summary: dict[str, int] = {}
        for r in results:
            summary[r.status] = summary.get(r.status, 0) + 1
        _print_json({"results": [r.to_dict() for r in results], "summary": summary})
    else:
        width = max(len(r.check) for r in results)
        for r in results:
            inst = ",".join(f"{k}={v}" for k, v in r.params.items())
            exact = "-" if r.exact is None else str(r.exact)
            line = f"{r.check:<{width}}  {inst:<12} exact={exact:<5} formula={r.formula:<12} {r.status}"
            if r.note:
                line += f"  ({r.note})"
            print(line)
    return 1 if has_mismatch(results) else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "construct": _cmd_construct,
        "radius": _cmd_radius,
        "bounds": _cmd_bounds,
        "gray": _cmd_gray,
        "verify": _cmd_verify,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
