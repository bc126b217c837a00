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

from .covering import DEFAULT_BUDGET, SearchBudget, covering_radius, sphere_covering_lower_bound
from .families import FamilySpec, build_family, field_repetition_radius_formula
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
    """One claimed formula over a parameter grid, stated as data.

    ``instance(p)`` names the code of grid point ``p`` (a FamilySpec, or a
    LinearCode outside the families); its exact radius under ``metric`` is
    compared with ``spec(p, radius)``, which may ask ``radius(other)`` for
    another instance's radius under the same metric.  Specs are ("eq", value),
    ("le", bound) or ("between", lo, hi) with Fraction values.  With ``cap``
    the radius is searched only up to that weight; ``sphere_below`` adds the
    sphere-covering bound as the lower side; a point outside ``in_budget``
    records its bound without an exact side.
    """

    id: str
    claim: str
    grid: tuple[dict, ...]
    instance: Callable[[dict], FamilySpec | LinearCode]
    metric: WeightMetric
    spec: Callable
    cap: int | None = None
    in_budget: Callable[[dict], bool] = lambda p: True
    sphere_below: bool = False
    note: str = ""
    extended_grid: tuple[dict, ...] = ()


def _build(instance) -> LinearCode:
    return instance if isinstance(instance, LinearCode) else build_family(instance)


class _Context:
    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self._memo: dict = {}

    def radius(self, instance, metric: WeightMetric, r_cap: int | None = None) -> int | None:
        """Exact radius of ``instance``, or None when it exceeds ``r_cap``;
        computed once per code content, metric and cap."""
        code = _build(instance)
        key = (code.ring.s, code.n, code.rows.tobytes(), metric, r_cap)
        if key not in self._memo:
            method = "auto" if r_cap is None else "bfs"
            report = covering_radius(code, metric, method, r_cap=r_cap, budget=self.budget)
            if r_cap is None and not report.exact:
                raise AssertionError(f"engine returned interval for in-budget instance {instance}")
            self._memo[key] = report.value
        return self._memo[key]


def _run(check: TheoremCheck, p: dict, ctx: _Context) -> tuple[int | None, tuple, str]:
    """(exact value or None, comparison spec, note) for one grid point."""
    spec = check.spec(p, lambda other: ctx.radius(other, check.metric))
    if not check.in_budget(p):
        return None, ("record", spec[-1]), "exact side out of budget; bound recorded"
    code = _build(check.instance(p))
    exact = ctx.radius(code, check.metric, check.cap)
    if exact is None:
        return None, spec, f"not covered within weight {check.cap}"
    if check.sphere_below:
        lb = sphere_covering_lower_bound(code.n, code.size, code.ring.s)
        return exact, ("between", Fraction(lb), spec[1]), f"sphere lower bound {lb}"
    return exact, spec, check.note


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _render(value) -> str:
    if isinstance(value, tuple):
        return f"[{_render(value[0])}, {_render(value[1])}]"
    f = _frac(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# --- the claim matrix --------------------------------------------------------

def _family(name, dual=False):
    return lambda p: FamilySpec(name, p, dual)


def _brep(blocks):
    return lambda p: FamilySpec("block-repetition", dict(zip(("m", "n2", "n3"), blocks(p))))


def _mac(family, k="k"):
    """M_k,u at the grid point, or with ``k="r"`` the base M_r,u of its recursion."""
    extra = {"allow_u1": True} if family == "macdonald-beta" else {}
    return lambda p: FamilySpec(family, {"k": p[k], "u": p["u"], **extra})


def _recursion(family, chain):
    """r(M_k,u) <= chain(k, r) + r(M_r,u)."""
    base = _mac(family, "r")
    return lambda p, radius: ("le", _frac(chain(p["k"], p["r"])) + radius(base(p)))


# (grid, instance) pairs, each shared by a claim's Lee and Euclidean rows
_N = tuple({"n": n} for n in range(1, 7))
_REP_ALPHA = (_N, _family("repetition-alpha"))
_REP_BETA = (_N, _family("repetition-beta"))
_BREP3N = (({"n": 1}, {"n": 2}), _brep(lambda p: (p["n"],) * 3))
_BREP2N = (({"n": 2}, {"n": 4}), _brep(lambda p: (p["n"], p["n"], 0)))
_BREPMN = (({"m": 2, "n": 1}, {"m": 2, "n": 2}, {"m": 4, "n": 1}), _brep(lambda p: (p["m"], p["n"], 0)))
_SIMPLEX_ALPHA = (({"k": 1},), _family("simplex-alpha"))
_SIMPLEX_BETA = (({"k": 2},), _family("simplex-beta"))
_DUAL_ALPHA = (({"k": 1}, {"k": 2}), _family("simplex-alpha", dual=True))
_DUAL_BETA = (({"k": 2}, {"k": 3}), _family("simplex-beta", dual=True))
_MAC = ({"k": 2, "u": 1, "r": 2}, {"k": 3, "u": 1, "r": 2})
_MAC_ALPHA = (_MAC, _mac("macdonald-alpha"))
_MAC_BETA = (_MAC, _mac("macdonald-beta"))
_MAC_ROW = {"in_budget": lambda p: p["k"] <= 2, "sphere_below": True}

CHECKS: dict[str, TheoremCheck] = {
    c.id: c
    for c in [
        TheoremCheck(
            "field-repetition",
            "r_H of the q-ary repetition code = ceil(n(q-1)/q), cross-checked at q = 2",
            _N,
            lambda p: LinearCode(Z2, p["n"], [[1] * p["n"]]),
            WeightMetric.HAMMING,
            lambda p, _: ("eq", field_repetition_radius_formula(p["n"], 2)),
            note="binary engine at s=1",
        ),
        TheoremCheck("rep-lee-alpha", "r_L(C_alpha) = n", *_REP_ALPHA, _LEE, lambda p, _: ("eq", p["n"])),
        TheoremCheck("rep-euclid-alpha", "r_E(C_alpha) = 2n", *_REP_ALPHA, _EUC, lambda p, _: ("eq", 2 * p["n"])),
        TheoremCheck("rep-lee-beta", "r_L(C_beta) = n", *_REP_BETA, _LEE, lambda p, _: ("eq", p["n"])),
        TheoremCheck(
            "rep-euclid-beta", "r_E(C_beta) = 3n/2", *_REP_BETA, _EUC, lambda p, _: ("eq", Fraction(3 * p["n"], 2))
        ),
        TheoremCheck("brep3n-lee", "r_L(BRep^3n) = 3n", *_BREP3N, _LEE, lambda p, _: ("eq", 3 * p["n"])),
        TheoremCheck(
            "brep3n-euclid",
            "5n <= r_E(BRep^3n) <= 11n/2",
            *_BREP3N,
            _EUC,
            lambda p, _: ("between", Fraction(5 * p["n"]), Fraction(11 * p["n"], 2)),
        ),
        TheoremCheck("brep2n-lee", "r_L(BRep^2n) = 2n", *_BREP2N, _LEE, lambda p, _: ("eq", 2 * p["n"])),
        TheoremCheck(
            "brep2n-euclid", "r_E(BRep^2n) = 7n/2", *_BREP2N, _EUC, lambda p, _: ("eq", Fraction(7 * p["n"], 2))
        ),
        TheoremCheck("brep-mn-lee", "r_L(BRep^(m+n)) = m + n", *_BREPMN, _LEE, lambda p, _: ("eq", p["m"] + p["n"])),
        TheoremCheck(
            "brep-mn-euclid",
            "r_E(BRep^(m+n)) = 2n + 3m/2",
            *_BREPMN,
            _EUC,
            lambda p, _: ("eq", 2 * p["n"] + Fraction(3 * p["m"], 2)),
        ),
        TheoremCheck(
            "simplex-alpha-lee",
            "r_L(S_k^alpha) = 4^k",
            *_SIMPLEX_ALPHA,
            _LEE,
            lambda p, _: ("eq", 4 ** p["k"]),
            extended_grid=({"k": 2},),
        ),
        TheoremCheck(
            "simplex-alpha-euclid",
            "r_E(S_k^alpha) <= (11(4^k - 1) + 9)/6",
            *_SIMPLEX_ALPHA,
            _EUC,
            lambda p, _: ("le", Fraction(11 * (4 ** p["k"] - 1) + 9, 6)),
        ),
        TheoremCheck(
            "simplex-beta-lee",
            "r_L(S_k^beta) <= 2^(k-1)(2^k - 1) - 2",
            *_SIMPLEX_BETA,
            _LEE,
            lambda p, _: ("le", (1 << (p["k"] - 1)) * ((1 << p["k"]) - 1) - 2),
        ),
        TheoremCheck(
            "simplex-beta-euclid",
            "r_E(S_k^beta) <= 2^k(2^(k+1) - 1) + (4^k - 1)/3 - 147/2",
            *_SIMPLEX_BETA,
            _EUC,
            lambda p, _: (
                "le",
                (1 << p["k"]) * ((1 << (p["k"] + 1)) - 1) + Fraction(4 ** p["k"] - 1, 3) - Fraction(147, 2),
            ),
        ),
        TheoremCheck("dual-alpha-lee", "r_L(dual of S_k^alpha) = 1", *_DUAL_ALPHA, _LEE, lambda p, _: ("eq", 1), cap=3),
        TheoremCheck("dual-beta-lee", "r_L(dual of S_k^beta) = 2", *_DUAL_BETA, _LEE, lambda p, _: ("eq", 2), cap=3),
        TheoremCheck(
            "dual-alpha-euclid", "r_E(dual of S_k^alpha) <= 4", *_DUAL_ALPHA, _EUC, lambda p, _: ("le", 4), cap=4
        ),
        TheoremCheck(
            "dual-beta-euclid", "r_E(dual of S_k^beta) <= 4", *_DUAL_BETA, _EUC, lambda p, _: ("le", 4), cap=4
        ),
        TheoremCheck(
            "macdonald-alpha-lee",
            "r_L(M_k,u^alpha) <= 4^k - 4^r + r_L(M_r,u^alpha), with the sphere bound below",
            *_MAC_ALPHA,
            _LEE,
            _recursion("macdonald-alpha", lambda k, r: 4**k - 4**r),
            **_MAC_ROW,
        ),
        TheoremCheck(
            "macdonald-alpha-euclid",
            "r_E(M_k,u^alpha) <= 11/6 (4^k - 4^r) + r_E(M_r,u^alpha), with the sphere bound below",
            *_MAC_ALPHA,
            _EUC,
            _recursion("macdonald-alpha", lambda k, r: Fraction(11, 6) * (4**k - 4**r)),
            **_MAC_ROW,
        ),
        TheoremCheck(
            "macdonald-beta-lee",
            "r_L(M_k,u^beta) <= 2^(k-1)(2^k - 1) - 2^(r-1)(2^r - 1) + r_L(M_r,u^beta)",
            *_MAC_BETA,
            _LEE,
            _recursion(
                "macdonald-beta", lambda k, r: (1 << (k - 1)) * ((1 << k) - 1) - (1 << (r - 1)) * ((1 << r) - 1)
            ),
            **_MAC_ROW,
        ),
        TheoremCheck(
            "macdonald-beta-euclid",
            "r_E(M_k,u^beta) <= 2^(2r-1)/3 (4^(k-r+1) - 1) + 4^(r-1)(4^(k-r) - 1) - 3 2^(r-2)(2^(k-r) - 1) + r_E(M_r,u^beta)",
            *_MAC_BETA,
            _EUC,
            _recursion(
                "macdonald-beta",
                lambda k, r: Fraction(1 << (2 * r - 1), 3) * (4 ** (k - r + 1) - 1)
                + 4 ** (r - 1) * (4 ** (k - r) - 1)
                - 3 * (1 << (r - 2)) * ((1 << (k - r)) - 1),
            ),
            **_MAC_ROW,
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
) -> list[CheckResult]:
    """Run the selected checks (all by default) and return one result per instance."""
    selected = list(CHECKS) if not ids else ids
    for check_id in selected:
        if check_id not in CHECKS:
            raise KeyError(f"unknown check id {check_id!r}")
    errata = load_errata()
    ctx = _Context(budget)
    results: list[CheckResult] = []
    for check_id in selected:
        check = CHECKS[check_id]
        grid = check.grid + (check.extended_grid if extended else ())
        for params in grid:
            exact, spec, note = _run(check, params, ctx)
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
