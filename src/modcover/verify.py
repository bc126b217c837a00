"""Verification matrix: exact engine values against the closed-form claims.

Each check pins a claimed formula or bound for one code family, evaluates it on
a curated parameter grid, and compares with the exact radius computed by the
engines.  A discrepancy listed in the shipped errata file with the same
computed value is reported as FLAGGED; an unlisted discrepancy, one whose
listed value differs from the exact value, and a listed entry whose claim
holds (a stale entry) are each a MISMATCH and fail the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable

from .covering import (
    SearchBudget,
    DEFAULT_BUDGET,
    covering_radius,
    covering_radius_bfs,
    sphere_covering_lower_bound,
)
from .families import (
    block_repetition,
    field_repetition_radius_formula,
    macdonald_alpha,
    macdonald_beta,
    repetition_alpha,
    repetition_beta,
    simplex_alpha,
    simplex_beta,
)
from .linalg import LinearCode
from .ring import WeightMetric, Z2

MATCH = "MATCH"
BOUND_HOLDS = "BOUND-HOLDS"
FLAGGED = "FLAGGED"
SKIPPED = "SKIPPED-BUDGET"
MISMATCH = "MISMATCH"

_LEE = WeightMetric.LEE
_EUC = WeightMetric.EUCLIDEAN


@dataclass(frozen=True)
class CheckResult:
    check: str
    claim: str
    params: dict
    exact: int | None
    formula: str
    status: str
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "claim": self.claim,
            "instance": self.params,
            "exact": self.exact,
            "formula": self.formula,
            "status": self.status,
            "note": self.note,
        }


@dataclass(frozen=True)
class TheoremCheck:
    """One claimed formula with its parameter grid and an evaluation hook.

    The hook returns (exact value or None, comparison spec, note); comparison
    specs are ("eq", value), ("le", bound) or ("between", lo, hi) with Fraction
    values, or ("record", value) for bounds that are recorded without an exact
    side to compare.
    """

    id: str
    claim: str
    grid: tuple[dict, ...]
    run: Callable
    extended_grid: tuple[dict, ...] = ()


class _Context:
    def __init__(self, budget: SearchBudget, threads: int):
        self.budget = budget
        self.threads = threads
        self._memo: dict = {}

    def radius(self, key, code, metric, method="auto", r_cap=None) -> int:
        if key not in self._memo:
            report = covering_radius(
                code, metric, method, r_cap=r_cap, budget=self.budget, threads=self.threads
            )
            if not report.exact:
                raise AssertionError(f"engine returned interval for in-budget instance {key}")
            self._memo[key] = report.value
        return self._memo[key]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _render(value) -> str:
    if isinstance(value, tuple):
        return f"[{_render(value[0])}, {_render(value[1])}]"
    f = _frac(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# --- check runners ---------------------------------------------------------

def _rep_alpha(metric, formula):
    def run(p, ctx):
        exact = ctx.radius(("rep-a", p["n"], metric), repetition_alpha(p["n"]), metric)
        return exact, ("eq", formula(p["n"])), ""

    return run


def _rep_beta(metric, formula):
    def run(p, ctx):
        exact = ctx.radius(("rep-b", p["n"], metric), repetition_beta(p["n"]), metric)
        return exact, ("eq", formula(p["n"])), ""

    return run


def _brep(blocks, metric, spec):
    def run(p, ctx):
        m, n2, n3 = blocks(p)
        code = block_repetition(m, n2, n3)
        exact = ctx.radius(("brep", m, n2, n3, metric), code, metric)
        return exact, spec(p), ""

    return run


def _simplex(builder, tag, metric, spec):
    def run(p, ctx):
        exact = ctx.radius((tag, p["k"], metric), builder(p["k"]), metric)
        return exact, spec(p), ""

    return run


def _dual_simplex(builder, tag, metric, r_cap, spec):
    def run(p, ctx):
        key = (tag, p["k"], metric, "dual")
        if key not in ctx._memo:
            report = covering_radius_bfs(builder(p["k"]).dual(), metric, r_cap, budget=ctx.budget)
            ctx._memo[key] = report.value  # None when the cap was insufficient
        exact = ctx._memo[key]
        if exact is None:
            return None, spec(p), f"not covered within weight {r_cap}"
        return exact, spec(p), ""

    return run


def _macdonald(builder, tag, metric, chain_term, in_budget):
    """Recursive-bound check r(M_k,u) <= chain(k, r) + r(M_r,u) with the sphere
    bound asserted on every exact value."""

    def run(p, ctx):
        k, u, r = p["k"], p["u"], p["r"]
        base_code = builder(r, u)
        base = ctx.radius((tag, r, u, metric), base_code, metric)
        bound = _frac(chain_term(k, r)) + base
        if not in_budget(k):
            return None, ("record", bound), "exact side out of budget; bound recorded"
        code = builder(k, u)
        exact = ctx.radius((tag, k, u, metric), code, metric)
        lb = sphere_covering_lower_bound(code.n, code.size, code.ring.s)
        return exact, ("between", Fraction(lb), bound), f"sphere lower bound {lb}"

    return run


def _field_repetition(p, ctx):
    n = p["n"]
    code = LinearCode(Z2, n, [[1] * n])
    exact = ctx.radius(("field-rep", n), code, WeightMetric.HAMMING)
    return exact, ("eq", field_repetition_radius_formula(n, 2)), "binary engine at s=1"


def _beta_mac(r, u):
    return macdonald_beta(r, u, allow_u1=True)


CHECKS: dict[str, TheoremCheck] = {
    c.id: c
    for c in [
        TheoremCheck(
            "field-repetition",
            "r_H of the q-ary repetition code = ceil(n(q-1)/q), cross-checked at q = 2",
            tuple({"n": n} for n in range(1, 7)),
            _field_repetition,
        ),
        TheoremCheck(
            "rep-lee-alpha",
            "r_L(C_alpha) = n",
            tuple({"n": n} for n in range(1, 7)),
            _rep_alpha(_LEE, lambda n: n),
        ),
        TheoremCheck(
            "rep-euclid-alpha",
            "r_E(C_alpha) = 2n",
            tuple({"n": n} for n in range(1, 7)),
            _rep_alpha(_EUC, lambda n: 2 * n),
        ),
        TheoremCheck(
            "rep-lee-beta",
            "r_L(C_beta) = n",
            tuple({"n": n} for n in range(1, 7)),
            _rep_beta(_LEE, lambda n: n),
        ),
        TheoremCheck(
            "rep-euclid-beta",
            "r_E(C_beta) = 3n/2",
            tuple({"n": n} for n in range(1, 7)),
            _rep_beta(_EUC, lambda n: Fraction(3 * n, 2)),
        ),
        TheoremCheck(
            "brep3n-lee",
            "r_L(BRep^3n) = 3n",
            ({"n": 1}, {"n": 2}),
            _brep(lambda p: (p["n"],) * 3, _LEE, lambda p: ("eq", 3 * p["n"])),
        ),
        TheoremCheck(
            "brep3n-euclid",
            "5n <= r_E(BRep^3n) <= 11n/2",
            ({"n": 1}, {"n": 2}),
            _brep(
                lambda p: (p["n"],) * 3,
                _EUC,
                lambda p: ("between", Fraction(5 * p["n"]), Fraction(11 * p["n"], 2)),
            ),
        ),
        TheoremCheck(
            "brep2n-lee",
            "r_L(BRep^2n) = 2n",
            ({"n": 2}, {"n": 4}),
            _brep(lambda p: (p["n"], p["n"], 0), _LEE, lambda p: ("eq", 2 * p["n"])),
        ),
        TheoremCheck(
            "brep2n-euclid",
            "r_E(BRep^2n) = 7n/2",
            ({"n": 2}, {"n": 4}),
            _brep(lambda p: (p["n"], p["n"], 0), _EUC, lambda p: ("eq", Fraction(7 * p["n"], 2))),
        ),
        TheoremCheck(
            "brep-mn-lee",
            "r_L(BRep^(m+n)) = m + n",
            ({"m": 2, "n": 1}, {"m": 2, "n": 2}, {"m": 4, "n": 1}),
            _brep(lambda p: (p["m"], p["n"], 0), _LEE, lambda p: ("eq", p["m"] + p["n"])),
        ),
        TheoremCheck(
            "brep-mn-euclid",
            "r_E(BRep^(m+n)) = 2n + 3m/2",
            ({"m": 2, "n": 1}, {"m": 2, "n": 2}, {"m": 4, "n": 1}),
            _brep(
                lambda p: (p["m"], p["n"], 0),
                _EUC,
                lambda p: ("eq", 2 * p["n"] + Fraction(3 * p["m"], 2)),
            ),
        ),
        TheoremCheck(
            "simplex-alpha-lee",
            "r_L(S_k^alpha) = 4^k",
            ({"k": 1},),
            _simplex(simplex_alpha, "sa", _LEE, lambda p: ("eq", 4 ** p["k"])),
            extended_grid=({"k": 2},),
        ),
        TheoremCheck(
            "simplex-alpha-euclid",
            "r_E(S_k^alpha) <= (11(4^k - 1) + 9)/6",
            ({"k": 1},),
            _simplex(
                simplex_alpha, "sa", _EUC, lambda p: ("le", Fraction(11 * (4 ** p["k"] - 1) + 9, 6))
            ),
        ),
        TheoremCheck(
            "simplex-beta-lee",
            "r_L(S_k^beta) <= 2^(k-1)(2^k - 1) - 2",
            ({"k": 2},),
            _simplex(
                simplex_beta,
                "sb",
                _LEE,
                lambda p: ("le", (1 << (p["k"] - 1)) * ((1 << p["k"]) - 1) - 2),
            ),
        ),
        TheoremCheck(
            "simplex-beta-euclid",
            "r_E(S_k^beta) <= 2^k(2^(k+1) - 1) + (4^k - 1)/3 - 147/2",
            ({"k": 2},),
            _simplex(
                simplex_beta,
                "sb",
                _EUC,
                lambda p: (
                    "le",
                    (1 << p["k"]) * ((1 << (p["k"] + 1)) - 1)
                    + Fraction(4 ** p["k"] - 1, 3)
                    - Fraction(147, 2),
                ),
            ),
        ),
        TheoremCheck(
            "dual-alpha-lee",
            "r_L(dual of S_k^alpha) = 1",
            ({"k": 1}, {"k": 2}),
            _dual_simplex(simplex_alpha, "sa", _LEE, 3, lambda p: ("eq", 1)),
        ),
        TheoremCheck(
            "dual-beta-lee",
            "r_L(dual of S_k^beta) = 2",
            ({"k": 2}, {"k": 3}),
            _dual_simplex(simplex_beta, "sb", _LEE, 3, lambda p: ("eq", 2)),
        ),
        TheoremCheck(
            "dual-alpha-euclid",
            "r_E(dual of S_k^alpha) <= 4",
            ({"k": 1}, {"k": 2}),
            _dual_simplex(simplex_alpha, "sa", _EUC, 4, lambda p: ("le", 4)),
        ),
        TheoremCheck(
            "dual-beta-euclid",
            "r_E(dual of S_k^beta) <= 4",
            ({"k": 2}, {"k": 3}),
            _dual_simplex(simplex_beta, "sb", _EUC, 4, lambda p: ("le", 4)),
        ),
        TheoremCheck(
            "macdonald-alpha-lee",
            "r_L(M_k,u^alpha) <= 4^k - 4^r + r_L(M_r,u^alpha), with the sphere bound below",
            ({"k": 2, "u": 1, "r": 2}, {"k": 3, "u": 1, "r": 2}),
            _macdonald(macdonald_alpha, "ma", _LEE, lambda k, r: 4**k - 4**r, lambda k: k <= 2),
        ),
        TheoremCheck(
            "macdonald-alpha-euclid",
            "r_E(M_k,u^alpha) <= 11/6 (4^k - 4^r) + r_E(M_r,u^alpha), with the sphere bound below",
            ({"k": 2, "u": 1, "r": 2}, {"k": 3, "u": 1, "r": 2}),
            _macdonald(
                macdonald_alpha,
                "ma",
                _EUC,
                lambda k, r: Fraction(11, 6) * (4**k - 4**r),
                lambda k: k <= 2,
            ),
        ),
        TheoremCheck(
            "macdonald-beta-lee",
            "r_L(M_k,u^beta) <= 2^(k-1)(2^k - 1) - 2^(r-1)(2^r - 1) + r_L(M_r,u^beta)",
            ({"k": 2, "u": 1, "r": 2}, {"k": 3, "u": 1, "r": 2}),
            _macdonald(
                _beta_mac,
                "mb",
                _LEE,
                lambda k, r: (1 << (k - 1)) * ((1 << k) - 1) - (1 << (r - 1)) * ((1 << r) - 1),
                lambda k: k <= 2,
            ),
        ),
        TheoremCheck(
            "macdonald-beta-euclid",
            "r_E(M_k,u^beta) <= 2^(2r-1)/3 (4^(k-r+1) - 1) + 4^(r-1)(4^(k-r) - 1) - 3 2^(r-2)(2^(k-r) - 1) + r_E(M_r,u^beta)",
            ({"k": 2, "u": 1, "r": 2}, {"k": 3, "u": 1, "r": 2}),
            _macdonald(
                _beta_mac,
                "mb",
                _EUC,
                lambda k, r: Fraction(1 << (2 * r - 1), 3) * (4 ** (k - r + 1) - 1)
                + 4 ** (r - 1) * (4 ** (k - r) - 1)
                - 3 * (1 << (r - 2)) * ((1 << (k - r)) - 1),
                lambda k: k <= 2,
            ),
        ),
    ]
}


def load_errata() -> list[dict]:
    with resources.files("modcover").joinpath("errata.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def find_erratum(errata: list[dict], check_id: str, params: dict) -> dict | None:
    """The errata entry listed for one check instance, or None."""
    for entry in errata:
        if entry["check"] == check_id and entry["params"] == params:
            return entry
    return None


def _judge(exact: int | None, spec: tuple) -> tuple[bool, str]:
    kind = spec[0]
    if kind == "record":
        return True, SKIPPED
    if exact is None:
        # an in-budget engine failed to pin the value down: a real discrepancy
        return False, BOUND_HOLDS
    if kind == "eq":
        return (exact == _frac(spec[1])), MATCH
    if kind == "le":
        return (exact <= _frac(spec[1])), BOUND_HOLDS
    if kind == "between":
        return (_frac(spec[1]) <= exact <= _frac(spec[2])), BOUND_HOLDS
    raise ValueError(f"unknown comparison {kind!r}")


def run_checks(
    ids: list[str] | None = None,
    *,
    extended: bool = False,
    budget: SearchBudget = DEFAULT_BUDGET,
    threads: int = 1,
) -> list[CheckResult]:
    """Run the selected checks (all by default) and return one result per instance."""
    selected = list(CHECKS) if not ids else ids
    for check_id in selected:
        if check_id not in CHECKS:
            raise KeyError(f"unknown check id {check_id!r}")
    errata = load_errata()
    ctx = _Context(budget, threads)
    results: list[CheckResult] = []
    for check_id in selected:
        check = CHECKS[check_id]
        grid = check.grid + (check.extended_grid if extended else ())
        for params in grid:
            exact, spec, note = check.run(params, ctx)
            ok, good_status = _judge(exact, spec)
            formula = _render(spec[1] if len(spec) == 2 else (spec[1], spec[2]))
            entry = find_erratum(errata, check_id, params)
            reason = None
            if ok:
                status = good_status
                if entry is not None and spec[0] != "record":
                    status, reason = MISMATCH, "errata entry is stale: the claim holds"
            elif entry is None:
                status, reason = MISMATCH, "unpredicted discrepancy"
            elif entry["computed"] != exact:
                status, reason = MISMATCH, f"errata lists computed {entry['computed']}, not {exact}"
            else:
                status, reason = FLAGGED, entry["reason"]
            if reason:
                note = (note + "; " if note else "") + reason
            results.append(CheckResult(check_id, check.claim, params, exact, formula, status, note))
    return results


def has_mismatch(results: list[CheckResult]) -> bool:
    return any(r.status == MISMATCH for r in results)
