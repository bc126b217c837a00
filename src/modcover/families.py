"""Constructors for the quaternary code families, with parameter auditing.

Every constructor returns a LinearCode over Z4 whose declared parameter tuple
(length, 2-dimension, minimum weights) is checked against the enumerated code
whenever the instance is small enough; the audit outcome is recorded on the
returned code's ``family_info``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import LinearCode, enumerate_codewords
from .ring import WeightMetric, Z4

SIMPLEX_BUILD_BUDGET_K = 4
AUDIT_BUDGET_K = 3

_METRIC_KEYS = {
    "d_hamming": WeightMetric.HAMMING,
    "d_lee": WeightMetric.LEE,
    "d_euclidean": WeightMetric.EUCLIDEAN,
}


class ParameterAuditError(AssertionError):
    """Enumerated parameters disagree with the declared tuple."""


@dataclass(frozen=True)
class FamilyInfo:
    family: str
    params: dict
    declared: dict
    audited: bool
    measured: dict | None = field(default=None)


def _measure(code: LinearCode) -> dict:
    words = enumerate_codewords(code).words
    nonzero = words[np.any(words != 0, axis=1)]
    out = {"length": code.n, "two_dimension": code.two_dimension}
    for key, metric in _METRIC_KEYS.items():
        table = metric.element_weights(code.ring)
        out[key] = int(table[nonzero].sum(axis=1).min()) if len(nonzero) else 0
    return out


def _finish(code: LinearCode, family: str, params: dict, declared: dict, audit: bool) -> LinearCode:
    measured = None
    if audit:
        measured = _measure(code)
        for key, want in declared.items():
            if want is not None and measured[key] != want:
                raise ParameterAuditError(
                    f"{family}{params}: declared {key}={want} but enumeration gives {measured[key]}"
                )
    else:
        if code.n != declared["length"] or code.two_dimension != declared["two_dimension"]:
            raise ParameterAuditError(f"{family}{params}: length/2-dimension mismatch")
    code.family_info = FamilyInfo(family, params, declared, audit, measured)
    return code


def repetition_alpha(n: int) -> LinearCode:
    """Zero-divisor repetition code, generated by the all-twos row."""
    if n < 1:
        raise ValueError("length must be >= 1")
    declared = {"length": n, "two_dimension": 1, "d_hamming": n, "d_lee": 2 * n, "d_euclidean": 4 * n}
    return _finish(LinearCode(Z4, n, [[2] * n]), "repetition-alpha", {"n": n}, declared, audit=True)


def repetition_beta(n: int) -> LinearCode:
    """Unit repetition code, generated by the all-ones row."""
    if n < 1:
        raise ValueError("length must be >= 1")
    declared = {"length": n, "two_dimension": 2, "d_hamming": n, "d_lee": n, "d_euclidean": n}
    return _finish(LinearCode(Z4, n, [[1] * n]), "repetition-beta", {"n": n}, declared, audit=True)


def block_repetition(m: int, n2: int = 0, n3: int = 0) -> LinearCode:
    """Single-row block repetition code (1..1 | 2..2 | 3..3) with the given block sizes.

    The minimum weights follow from the three nonzero codewords: the generator,
    its double and its negative.
    """
    if m < 1:
        raise ValueError("the 1-block must be non-empty")
    if n2 < 0 or n3 < 0:
        raise ValueError("block sizes must be non-negative")
    n = m + n2 + n3
    declared = {
        "length": n,
        "two_dimension": 2,
        "d_hamming": min(m + n2 + n3, m + n3),
        "d_lee": min(m + 2 * n2 + n3, 2 * m + 2 * n3),
        "d_euclidean": min(m + 4 * n2 + n3, 4 * m + 4 * n3),
    }
    row = [1] * m + [2] * n2 + [3] * n3
    return _finish(
        LinearCode(Z4, n, [row]), "block-repetition", {"m": m, "n2": n2, "n3": n3}, declared, audit=True
    )


def simplex_alpha_matrix(k: int) -> np.ndarray:
    """Inductive generator matrix: top row 0..0|1..1|2..2|3..3 over four copies."""
    g = np.array([[0, 1, 2, 3]], dtype=np.int64)
    for _ in range(k - 1):
        w = g.shape[1]
        top = np.repeat(np.arange(4, dtype=np.int64), w)
        g = np.vstack([top, np.tile(g, 4)])
    return g


def simplex_alpha(k: int, max_k: int = SIMPLEX_BUILD_BUDGET_K) -> LinearCode:
    """Type-alpha quaternary simplex code of parameter k (length 4^k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > max_k:
        raise ValueError(f"k={k} exceeds the construction budget {max_k}")
    declared = {
        "length": 4**k,
        "two_dimension": 2 * k,
        "d_hamming": 1 << (2 * k - 1),
        "d_lee": 4**k,
        "d_euclidean": 3 << (2 * k - 1),
    }
    code = LinearCode(Z4, 4**k, simplex_alpha_matrix(k))
    return _finish(code, "simplex-alpha", {"k": k}, declared, audit=k <= AUDIT_BUDGET_K)


def simplex_beta_matrix(k: int) -> np.ndarray:
    """Inductive generator matrix of the punctured (type-beta) simplex code.

    k = 1 is the single column [1]; it is not a published base case but is the
    unique choice matching the type-beta parameter formulas at k = 1, and is
    used only for the MacDonald beta deletion with u = 1.
    """
    if k == 1:
        return np.array([[1]], dtype=np.int64)
    if k == 2:
        return np.array([[1, 1, 1, 1, 0, 2], [0, 1, 2, 3, 1, 1]], dtype=np.int64)
    a = simplex_alpha_matrix(k - 1)
    b = simplex_beta_matrix(k - 1)
    top = np.concatenate([np.ones(a.shape[1], dtype=np.int64), np.zeros(b.shape[1], dtype=np.int64), np.full(b.shape[1], 2, dtype=np.int64)])
    body = np.hstack([a, b, b])
    return np.vstack([top, body])


def simplex_beta(k: int, max_k: int = SIMPLEX_BUILD_BUDGET_K) -> LinearCode:
    """Type-beta quaternary simplex code of parameter k (length 2^(k-1)(2^k - 1))."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > max_k:
        raise ValueError(f"k={k} exceeds the construction budget {max_k}")
    length = (1 << (k - 1)) * ((1 << k) - 1)
    declared = {
        "length": length,
        "two_dimension": 2 * k,
        "d_hamming": 4 ** (k - 1),
        "d_lee": length,
        "d_euclidean": (1 << k) * (3 * (1 << (k - 2)) - 1),
    }
    code = LinearCode(Z4, length, simplex_beta_matrix(k))
    return _finish(code, "simplex-beta", {"k": k}, declared, audit=k <= AUDIT_BUDGET_K)


def _delete_columns(matrix: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Delete, for each column of ``block`` taken left to right, the last matching
    column of ``matrix``.  Fails if some column has no match left."""
    cols = [tuple(int(x) for x in c) for c in matrix.T]
    for target in (tuple(int(x) for x in c) for c in block.T):
        for idx in range(len(cols) - 1, -1, -1):
            if cols[idx] == target:
                del cols[idx]
                break
        else:
            raise ValueError(f"column {target} not present; deletion block does not embed")
    return np.array(cols, dtype=np.int64).T


def _macdonald(k: int, u: int, max_k: int, base_matrix) -> np.ndarray:
    if not 1 <= u <= k - 1:
        raise ValueError(f"need 1 <= u <= k-1, got k={k}, u={u}")
    if k > max_k:
        raise ValueError(f"k={k} exceeds the construction budget {max_k}")
    big = base_matrix(k)
    small = base_matrix(u)
    block = np.vstack([np.zeros((k - u, small.shape[1]), dtype=np.int64), small])
    return _delete_columns(big, block)


def macdonald_alpha(k: int, u: int, max_k: int = SIMPLEX_BUILD_BUDGET_K) -> LinearCode:
    """Type-alpha MacDonald code: the alpha simplex matrix with a [0; G_u] column
    block deleted, of length 4^k - 4^u."""
    rows = _macdonald(k, u, max_k, simplex_alpha_matrix)
    declared = {"length": 4**k - 4**u, "two_dimension": 2 * k}
    code = LinearCode(Z4, rows.shape[1], rows)
    return _finish(code, "macdonald-alpha", {"k": k, "u": u}, declared, audit=k <= AUDIT_BUDGET_K)


def macdonald_beta(k: int, u: int, allow_u1: bool = False, max_k: int = SIMPLEX_BUILD_BUDGET_K) -> LinearCode:
    """Type-beta MacDonald code, length (2^(k-1) - 2^(u-1))(2^k + 2^u - 1).

    The u = 1 deletion block needs the k = 1 beta base case, which is an
    extension of the published family; it must be requested explicitly.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if u == 1 and not allow_u1:
        raise ValueError("u=1 needs the unpublished k=1 beta base case; pass allow_u1=True to opt in")
    rows = _macdonald(k, u, max_k, simplex_beta_matrix)
    length = ((1 << (k - 1)) - (1 << (u - 1))) * ((1 << k) + (1 << u) - 1)
    declared = {"length": length, "two_dimension": 2 * k}
    code = LinearCode(Z4, rows.shape[1], rows)
    return _finish(code, "macdonald-beta", {"k": k, "u": u}, declared, audit=k <= AUDIT_BUDGET_K)


def field_repetition_radius_formula(n: int, q: int) -> int:
    """Closed-form ceil(n(q-1)/q) for the covering radius of a q-ary repetition
    code over a field, kept as a pure cross-check formula."""
    return -((-n * (q - 1)) // q)


@dataclass(frozen=True)
class FamilySpec:
    """A requested family instance; ``dual`` asks for the dual of the constructed code."""

    family: str
    params: dict
    dual: bool = False


_BUILDERS = {
    "repetition-alpha": lambda p: repetition_alpha(p["n"]),
    "repetition-beta": lambda p: repetition_beta(p["n"]),
    "block-repetition": lambda p: block_repetition(p["m"], p.get("n2", 0), p.get("n3", 0)),
    "simplex-alpha": lambda p: simplex_alpha(p["k"]),
    "simplex-beta": lambda p: simplex_beta(p["k"]),
    "macdonald-alpha": lambda p: macdonald_alpha(p["k"], p["u"]),
    "macdonald-beta": lambda p: macdonald_beta(p["k"], p["u"], allow_u1=p.get("allow_u1", False)),
}

FAMILY_NAMES = tuple(_BUILDERS)


def build_family(spec: FamilySpec) -> LinearCode:
    if spec.family not in _BUILDERS:
        raise ValueError(f"unknown family {spec.family!r}; expected one of {', '.join(FAMILY_NAMES)}")
    code = _BUILDERS[spec.family](spec.params)
    if spec.dual:
        info = code.family_info
        code = code.dual()
        code.family_info = FamilyInfo(f"dual-of-{info.family}", info.params, {}, False, None)
    return code
