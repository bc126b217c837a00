"""Generator-matrix algebra over Z_{2^s}: standard form, 2-basis, duals, derived binary codes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ring import BudgetExceededError, RingSpec, Z2, ZqVector

DEFAULT_ENUM_BUDGET_K = 26
MAX_RING_EXPONENT = 16  # per-element weight tables hold 2^s entries


@dataclass(frozen=True)
class StandardForm:
    """Block-triangular standard form of a generator matrix.

    ``matrix`` has one row per pivot, columns permuted so that the level-v pivot
    block 2^v * I sits on the diagonal; ``perm[j]`` is the original index of
    column j; ``block_sizes[v]`` counts pivots whose entry is a unit times 2^v;
    ``levels`` gives each row's block.
    """

    matrix: np.ndarray
    perm: tuple[int, ...]
    block_sizes: tuple[int, ...]
    levels: tuple[int, ...]


def standard_form(matrix: np.ndarray | Sequence[Sequence[int]], s: int) -> StandardForm:
    """Reduce a generator matrix over Z_{2^s} to standard form.

    Greedy pivot selection per valuation level: scan columns left to right for
    an entry that is a unit times 2^v, swap it onto the diagonal, normalise the
    pivot to exactly 2^v, clear the column below and reduce it above.  Row
    operations are invertible, so the row space is preserved up to the returned
    column permutation.  Rows that reduce to zero are dropped.
    """
    m = 1 << s
    work = np.array(matrix, dtype=np.int64) % m
    if work.ndim != 2:
        raise ValueError("generator matrix must be two-dimensional")
    nrows, n = work.shape
    perm = list(range(n))
    block_sizes = [0] * s
    levels: list[int] = []
    r = 0
    for v in range(s):
        c = r
        while c < n and r < nrows:
            pivot_row = -1
            for i in range(r, nrows):
                x = int(work[i, c])
                if x and (x >> v) & 1 and x % (1 << v) == 0:
                    pivot_row = i
                    break
            if pivot_row < 0:
                c += 1
                continue
            if pivot_row != r:
                work[[r, pivot_row]] = work[[pivot_row, r]]
            if c != r:
                work[:, [r, c]] = work[:, [c, r]]
                perm[r], perm[c] = perm[c], perm[r]
            unit = int(work[r, r]) >> v
            work[r] = (work[r] * pow(unit, -1, m)) % m
            for i in range(nrows):
                if i != r and (q := int(work[i, r]) >> v):
                    work[i] = (work[i] - q * work[r]) % m
            block_sizes[v] += 1
            levels.append(v)
            r += 1
            c += 1
    if np.any(work[r:]):
        raise AssertionError("non-zero residue after standard-form reduction")
    return StandardForm(work[:r], tuple(perm), tuple(block_sizes), tuple(levels))


class LinearCode:
    """A linear code over Z_{2^s}, held as a generator matrix.

    The standard form is computed eagerly at construction and the value is
    immutable afterwards, so instances can be shared freely between workers.
    """

    def __init__(self, ring: RingSpec, length: int, rows: Iterable[Sequence[int]] | np.ndarray):
        self.ring = ring
        self.n = int(length)
        rows = np.array(list(rows) if not isinstance(rows, np.ndarray) else rows, dtype=np.int64)
        if rows.size == 0:
            rows = rows.reshape(0, self.n)
        if rows.shape[1] != self.n:
            raise ValueError(f"generator rows must have length {self.n}")
        if np.any(rows < 0) or np.any(rows >= ring.modulus):
            raise ValueError(f"generator entries out of range for Z_{ring.modulus}")
        self.rows = rows
        self.rows.setflags(write=False)
        self._std = standard_form(rows, ring.s)
        self._std.matrix.setflags(write=False)
        self._dual: LinearCode | None = None
        self.family_info = None

    @classmethod
    def from_vectors(cls, vectors: Sequence[ZqVector]) -> "LinearCode":
        if not vectors:
            raise ValueError("need at least one generator vector")
        ring = vectors[0].ring
        return cls(ring, len(vectors[0]), [v.coords for v in vectors])

    @property
    def std(self) -> StandardForm:
        return self._std

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return self._std.block_sizes

    @property
    def two_dimension(self) -> int:
        s = self.ring.s
        return sum((s - v) * k for v, k in enumerate(self._std.block_sizes))

    @property
    def size(self) -> int:
        return 1 << self.two_dimension

    def std_rows_unpermuted(self) -> np.ndarray:
        """Standard-form rows mapped back to the original column order."""
        out = np.zeros_like(self._std.matrix)
        out[:, list(self._std.perm)] = self._std.matrix
        return out

    def std_unit_rows_unpermuted(self) -> np.ndarray:
        """Standard-form rows divided by their 2^level multiplier, original column order."""
        lv = np.array(self._std.levels, dtype=np.int64).reshape(-1, 1)
        return self.std_rows_unpermuted() >> lv

    def contains(self, coords: Sequence[int]) -> bool:
        """Membership test via the dual: a vector lies in the code iff it is
        orthogonal to every dual generator."""
        v = np.asarray(coords, dtype=np.int64)
        d = self.dual()
        return not np.any((d.rows @ v) % self.ring.modulus) if len(d.rows) else True

    def dual(self) -> "LinearCode":
        if self._dual is None:
            self._dual = dual_code(self)
        return self._dual

    def __repr__(self) -> str:
        return f"LinearCode(Z{self.ring.modulus}, n={self.n}, 2dim={self.two_dimension})"


def two_basis(code: LinearCode) -> np.ndarray:
    """A 2-basis for the code: rows whose Z2-combinations hit every codeword once.

    Built from the standard form by stacking, for j = 0..s-1, the level-v rows
    multiplied by 2^(j-v) for every v <= j.  Doubling any row lands in the span
    of the later rows, and the row count is the 2-dimension.
    """
    s = code.ring.s
    m = code.ring.modulus
    rows = code.std_rows_unpermuted()
    levels = code.std.levels
    out = []
    for j in range(s):
        for row, v in zip(rows, levels):
            if v <= j:
                out.append((row << (j - v)) % m)
    if not out:
        return np.zeros((0, code.n), dtype=np.int64)
    return np.array(out, dtype=np.int64)


@dataclass(frozen=True)
class CodewordSet:
    """All codewords of a small code, materialised as an array."""

    code: LinearCode
    words: np.ndarray

    def as_tuples(self) -> set[tuple[int, ...]]:
        return {tuple(int(x) for x in w) for w in self.words}


def enumerate_codewords(code: LinearCode, budget_k: int = DEFAULT_ENUM_BUDGET_K) -> CodewordSet:
    """Materialise all 2^k codewords by running Z2 coefficients over the 2-basis."""
    k = code.two_dimension
    if k > budget_k:
        raise BudgetExceededError(f"2-dimension {k} exceeds enumeration budget {budget_k}")
    basis = two_basis(code)
    m = code.ring.modulus
    total = 1 << k
    words = np.zeros((total, code.n), dtype=np.min_scalar_type(m - 1))
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = (idx[:, None] >> np.arange(k)) & 1
        words[start : start + len(idx)] = (bits @ basis) % m
    return CodewordSet(code, words)


def dual_code(code: LinearCode) -> LinearCode:
    """The dual code under the standard inner product mod 2^s.

    Solves the triangular orthogonality system of the standard form from the
    bottom up: one generator per free column, plus one torsion generator
    2^(s-v) * e_i per level-v pivot row with v >= 1.  The construction is
    validated on the spot: every generator must be orthogonal to every row of
    the input, and the 2-dimensions must add up to s*n.
    """
    s = code.ring.s
    m = code.ring.modulus
    n = code.n
    std = code.std
    levels = std.levels
    K = len(levels)
    units = std.matrix >> np.array(levels, dtype=np.int64).reshape(-1, 1) if K else np.zeros((0, n), dtype=np.int64)
    res_mods = [1 << (s - v) for v in levels]

    def back_substitute(x: np.ndarray, top_row: int) -> None:
        for i in range(top_row, -1, -1):
            acc = int(units[i, i + 1 :] @ x[i + 1 :])
            x[i] = (-acc) % res_mods[i]

    gens = []
    for f in range(K, n):
        x = np.zeros(n, dtype=np.int64)
        x[f] = 1
        back_substitute(x, K - 1)
        gens.append(x)
    for i in range(K):
        if levels[i] >= 1:
            x = np.zeros(n, dtype=np.int64)
            x[i] = 1 << (s - levels[i])
            back_substitute(x, i - 1)
            gens.append(x)

    unpermuted = np.zeros((len(gens), n), dtype=np.int64)
    if gens:
        unpermuted[:, list(std.perm)] = np.array(gens, dtype=np.int64)
    dual = LinearCode(code.ring, n, unpermuted)
    if len(code.rows) and len(dual.rows) and np.any((dual.rows @ code.rows.T) % m):
        raise AssertionError("dual construction produced a non-orthogonal generator")
    if dual.two_dimension + code.two_dimension != s * n:
        raise AssertionError("dual 2-dimension does not complement the code")
    dual._dual = code
    return dual


def residue_code(code: LinearCode) -> LinearCode:
    """Binary code of mod-2 reductions of the codewords (Z4 codes only)."""
    if code.ring.s != 2:
        raise ValueError("residue code is defined for Z4 codes")
    return LinearCode(Z2, code.n, code.rows % 2)


def torsion_code(code: LinearCode) -> LinearCode:
    """Binary code of vectors c with 2c in the code (Z4 codes only)."""
    if code.ring.s != 2:
        raise ValueError("torsion code is defined for Z4 codes")
    return LinearCode(Z2, code.n, code.std_unit_rows_unpermuted() % 2)


def is_self_orthogonal(code: LinearCode) -> bool:
    """True iff every pair of codewords has zero inner product.

    Bilinearity makes the generator-pair check equivalent to the full one.
    """
    if not len(code.rows):
        return True
    return not np.any((code.rows @ code.rows.T) % code.ring.modulus)


def format_generator_file(code: LinearCode) -> str:
    """Generator matrix text format: a header line "s n" then one row per line."""
    lines = [f"{code.ring.s} {code.n}"]
    for row in code.rows:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_generator_file(text: str) -> LinearCode:
    """Parse the generator matrix text format, rejecting malformed input."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty generator file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"malformed header {lines[0]!r}; expected 's n'")
    try:
        s, n = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"malformed header {lines[0]!r}; expected integers") from None
    if s > MAX_RING_EXPONENT:
        raise ValueError(f"ring exponent {s} exceeds the supported maximum {MAX_RING_EXPONENT}")
    ring = RingSpec(s)
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n:
            raise ValueError(f"row {ln!r} does not have {n} entries")
        try:
            row = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"malformed row {ln!r}") from None
        for x in row:
            if not 0 <= x < ring.modulus:
                raise ValueError(f"entry {x} out of range for Z_{ring.modulus}")
        rows.append(row)
    return LinearCode(ring, n, rows)
