"""Generator-matrix algebra over Z_{2^s}: standard form, 2-basis, duals, derived binary codes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ring import BudgetExceededError, RingSpec, Z2

DEFAULT_ENUM_BUDGET_K = 26
MAX_RING_EXPONENT = 16  # per-element weight tables hold 2^s entries
MAX_LENGTH = 4096  # an n x n int64 dual generator array of this length is 128 MiB


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
    immutable afterwards.  A dual built by ``dual_code`` takes its standard
    form from the triangular solve that produced its generators, so it is not
    reduced a second time.
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
        self._set(rows, standard_form(rows, ring.s))

    @classmethod
    def _with_standard_form(cls, ring: RingSpec, rows: np.ndarray, std: StandardForm) -> "LinearCode":
        """A code whose generators and standard form the caller has already built."""
        code = cls.__new__(cls)
        code.ring = ring
        code.n = rows.shape[1]
        code._set(rows, std)
        return code

    def _set(self, rows: np.ndarray, std: StandardForm) -> None:
        self.rows = rows
        self.rows.setflags(write=False)
        self._std = std
        self._std.matrix.setflags(write=False)
        self._dual: LinearCode | None = None
        self._syndromes = None  # the coset DP's key layout, built by covering on first use
        self.family_info = None

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
    bottom up, all generators at once: one per free column f (e_f plus
    entries on the pivot columns), plus one torsion generator per level-v
    pivot i with v >= 1 (2^(s-v) * e_i plus entries on columns < i, all
    multiples of 2^(s-v)).  Every entry on pivot column i' is reduced mod
    2^(s-v_i'), so these generators already are the dual's standard form:
    rows [free, torsion by descending i] and columns [free, torsion pivots by
    descending i, level-0 pivots] of the code's permuted coordinates, levels
    (0, ..., 0, s-v_i, ...).  The dual takes that form without a second
    reduction.  ``dual.rows`` holds the free generators, then the torsion
    ones by ascending i, in the original column order.

    The construction is validated on the spot: every generator must be
    orthogonal to every row of the input, the 2-dimensions must add up to
    s*n, and the form must be triangular with pivots 2^level and every entry
    above a pivot below it.
    """
    s = code.ring.s
    m = code.ring.modulus
    n = code.n
    std = code.std
    levels = std.levels
    K = len(levels)
    k0 = std.block_sizes[0]  # levels are nondecreasing, so pivots k0..K-1 are the torsion ones
    nfree = n - K
    cols = [*range(K, n), *range(K - 1, k0 - 1, -1), *range(k0)]
    dual_levels = (0,) * nfree + tuple(s - v for v in reversed(levels[k0:]))
    R = len(dual_levels)

    # Generators in the dual's own row and column order, starting from their
    # pivots; the solve fills in the code's pivot columns, the last first.
    # The full-row product is safe: the code's row i is zero left of pivot i,
    # and pivot i's own torsion entry 2^(s-v_i) adds 0 mod 2^(s-v_i).
    gens = np.zeros((R, n), dtype=np.int64)
    gens[range(R), range(R)] = [1 << v for v in dual_levels]
    neg_units = -(std.matrix >> np.array(levels, dtype=np.int64).reshape(-1, 1))[:, cols]
    where = {c: j for j, c in enumerate(cols)}
    for i in range(K - 1, -1, -1):
        gens[:, where[i]] += (gens @ neg_units[i]) % (1 << (s - levels[i]))

    perm = tuple(std.perm[c] for c in cols)
    dual_std = StandardForm(gens, perm, tuple(dual_levels.count(v) for v in range(s)), dual_levels)
    rows = np.zeros_like(gens)  # free generators, then torsion ones by ascending pivot
    rows[np.ix_([*range(nfree), *range(R - 1, nfree - 1, -1)], perm)] = gens
    _check_triangular(dual_std)
    dual = LinearCode._with_standard_form(code.ring, rows, dual_std)
    if len(code.rows) and len(dual.rows) and np.any((dual.rows @ code.rows.T) % m):
        raise AssertionError("dual construction produced a non-orthogonal generator")
    if dual.two_dimension + code.two_dimension != s * n:
        raise AssertionError("dual 2-dimension does not complement the code")
    dual._dual = code
    return dual


def _check_triangular(std: StandardForm) -> None:
    """Raise unless the levels are nondecreasing, row r is a multiple of
    2^level_r, pivot j is 2^level_j and every other entry of pivot column j
    lies in [0, 2^level_j).  Together these also put zeros below the pivots."""
    scale = 1 << np.array(std.levels, dtype=np.int64)
    pivots = std.matrix[:, : len(scale)]
    if (
        list(std.levels) != sorted(std.levels)
        or not np.array_equal(np.diagonal(pivots), scale)
        or np.any(pivots < 0)
        or np.count_nonzero(pivots >= scale) != len(scale)
        or np.any(std.matrix % scale[:, None])
    ):
        raise AssertionError("dual standard form is not triangular")


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
    """Parse the generator matrix text format, rejecting malformed input.

    The header alone rejects ``s > MAX_RING_EXPONENT`` and ``n > MAX_LENGTH``,
    and more than ``MAX_LENGTH`` rows are rejected before any is parsed, so a
    hostile file fails before a 2^s table or an n x n dual is allocated."""
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
    if not 0 <= n <= MAX_LENGTH:
        raise ValueError(f"length {n} outside the supported range 0..{MAX_LENGTH}")
    if len(lines) - 1 > MAX_LENGTH:
        raise ValueError(f"{len(lines) - 1} rows exceed the supported maximum {MAX_LENGTH}")
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
