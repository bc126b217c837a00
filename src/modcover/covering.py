"""Exact covering-radius engines, bounds, and coset-leader tables.

The covering radius of a linear code is the largest minimum weight over its
cosets.  One dynamic programme over the syndrome group finds every coset's
minimum weight, one coordinate at a time (the syndrome trellis of Wolf, IEEE
Trans. IT 24(1), 1978):

    T_{j+1}[g] = min_a T_j[g - a h_j] + w(a),

where h_j is coordinate j's syndrome.  It costs n * 2^s * #cosets, whatever the
ambient size 2^(sn).  ``coset_leader_table``, ``coset_weight_distribution``,
``covering_radius_syndrome`` and ``covering_radius_bfs`` are views of its
table.  The lexicographically first deep hole is the least canonical coset
representative over the cosets of largest weight; the representatives are
read off the dual's Howell form, one triangular solve per deep coset.
``covering_radius_of_set`` (the direct engine) scans every ambient vector
against every word, so it also serves non-linear sets such as Gray images.  A budget that does not fit raises
``BudgetExceededError`` before the work is allocated; ``covering_radius`` then
falls back to the direct scan and then to a bounds-only interval, never to a
wrong exact value.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import LinearCode, enumerate_codewords
from .ring import BudgetExceededError, RingSpec, WeightMetric

# Cells (keys times digits) per gather of the coset DP.  Each int64 temporary
# stays under 128 KiB, the allocator's default mmap threshold, so the blocks
# of a first call are not page-faulted in afresh one by one.
_BLOCK = 1 << 14
_BLOCK_BYTES = 48  # bytes of temporaries per cell of a gather
_DIRECT_CHUNK = 1 << 12  # ambient vectors per step of the direct scan


@dataclass(frozen=True)
class SearchBudget:
    """Engine budgets; exceeding one degrades to an interval, never a wrong exact.

    ``direct_evals`` caps the direct scan's distance evaluations (ambient
    vectors times words).  ``table_bytes`` caps the coset DP's working set:
    its two weight tables and the block buffers of the DP and of the witness
    pass.  The default fits ``simplex_alpha(2)`` (2^28 cosets, n = 16).
    """

    direct_evals: int = 1 << 34
    table_bytes: int = 2 << 30


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class RadiusReport:
    """Outcome of a covering-radius computation: an exact value or an interval."""

    metric: str
    method: str
    lo: int
    hi: int | None
    value: int | None = None
    witness: tuple[int, ...] | None = None
    visited: int = 0
    seconds: float = 0.0
    deep_cosets: int = 0  # deep cosets the witness pass ranked
    witness_seconds: float = 0.0

    @property
    def exact(self) -> bool:
        return self.value is not None

    def to_dict(self) -> dict:
        out: dict = {"metric": self.metric, "method": self.method}
        if self.exact:
            out["value"] = self.value
        else:
            out["interval"] = [self.lo, self.hi]
        out["witness"] = list(self.witness) if self.witness is not None else None
        out["stats"] = {
            "visited": self.visited,
            "seconds": round(self.seconds, 6),
            "deep_cosets": self.deep_cosets,
            "witness_seconds": round(self.witness_seconds, 6),
        }
        return out


@dataclass(frozen=True)
class BoundReport:
    sphere_covering_lb: int
    delsarte_ub: int | None
    mattson_ub: int | None = None
    mattson_decomposition: dict | None = None

    def to_dict(self) -> dict:
        return {
            "sphere_covering_lb": self.sphere_covering_lb,
            "delsarte_ub": self.delsarte_ub,
            "mattson_ub": self.mattson_ub,
            "mattson_decomposition": self.mattson_decomposition,
        }


def _exact_report(metric, method, value, witness, visited, seconds, deep_cosets=0, witness_seconds=0.0):
    return RadiusReport(
        metric.value, method, value, value, value, witness, visited, seconds, deep_cosets, witness_seconds
    )


def _digits_of_range(start: int, stop: int, n: int, s: int) -> np.ndarray:
    """Vectors with lexicographic indices [start, stop) as base-2^s digit rows."""
    idx = np.arange(start, stop, dtype=np.int64)
    shifts = (s * (n - 1 - np.arange(n, dtype=np.int64)))[None, :]
    return ((idx[:, None] >> shifts) & ((1 << s) - 1)).astype(np.min_scalar_type((1 << s) - 1))


# ---------------------------------------------------------------------------
# coset DP

class _SyndromeMap:
    """Packs the mixed-radix syndrome of a vector into a dense integer key.

    Row i of the dual's standard form is 2^v * u_i; the residue x.u_i mod
    2^(s-v) is a coset invariant with exactly one value per coset, so the packed
    keys enumerate the cosets with no gaps.  Field i holds s - v bits and
    ``top`` has each field's high bit set, so two keys add field-wise as
    ``((g & low) + (c & low)) ^ ((g ^ c) & top)``.  ``minus_low[j]`` and
    ``minus_top[j]`` hold the keys c of -a * e_j, a = 1..2^s - 1, split so.
    Blocks of ``block`` keys, at least 8, gather all 2^s - 1 digits in about
    ``_BLOCK`` cells.  A code keeps its map (see ``_syndrome_map``), so the
    map holds nothing whose size grows with the number of cosets.
    """

    def __init__(self, code: LinearCode):
        dual = code.dual()
        self.s = code.ring.s
        self.n = code.n
        self.units = dual.std_unit_rows_unpermuted()
        self.levels = dual.std.levels
        bits = [self.s - v for v in self.levels]
        shifts = [sum(bits[:i]) for i in range(len(bits))]
        self.masks = np.array([(1 << b) - 1 for b in bits], dtype=np.int64)
        self.shifts = np.array(shifts, dtype=np.int64)
        self.total_bits = sum(bits)
        if self.total_bits > 62:
            raise BudgetExceededError(f"coset key needs {self.total_bits} bits; table is infeasible")
        self.n_cosets = 1 << self.total_bits
        self.top = sum(1 << (sh + b - 1) for sh, b in zip(shifts, bits))
        self.low = (self.n_cosets - 1) ^ self.top
        digits = np.arange(1 << self.s, dtype=np.int64)
        columns = np.zeros((self.n, 1 << self.s), dtype=np.int64)  # columns[j, a]: the key of a * e_j
        for unit, mask, shift in zip(self.units, self.masks, shifts):
            columns += ((unit[:, None] * digits) & mask) << shift
        minus = columns[:, :0:-1]
        self.minus_low, self.minus_top = minus & self.low, minus & self.top
        self.block = min(max(8, _BLOCK >> self.s), self.n_cosets)

    @functools.cached_property
    def canonical(self) -> "_CanonicalCosets":
        return _CanonicalCosets(self)

    def keys_of(self, digits: np.ndarray) -> np.ndarray:
        syn = np.asarray(digits, dtype=np.int64) @ self.units.T
        return ((syn & self.masks) << self.shifts).sum(axis=-1)

    def key_of(self, coords: Sequence[int]) -> int:
        return int(self.keys_of(np.asarray(coords)[None, :])[0])

    def add(self, low_part, top_part, c_low, c_top):
        """Keys g + c, for g and c given as (x & low, x & top); broadcasting arrays."""
        out = low_part + c_low
        out ^= top_part ^ c_top
        return out

    def first_block(self):
        """(g & low, g & top) for the keys g of the first block."""
        first = np.arange(self.block, dtype=np.int64)
        return first & self.low, first & self.top

    def blocks(self, first):
        """(first key, g & low, g & top) for consecutive blocks of keys g.

        A block starts at a multiple of its power-of-two size, so its keys are
        the keys of ``first_block()`` with the start's bits or-ed in."""
        low, top = first
        yield 0, low, top
        for lo in range(self.block, self.n_cosets, self.block):
            yield lo, low | (lo & self.low), top | (lo & self.top)


def _syndrome_map(code: LinearCode) -> _SyndromeMap:
    """The code's key layout, built on first use and kept on the code, as its
    dual is, so the metrics of one code share it and its canonical cosets."""
    if code._syndromes is None:
        code._syndromes = _SyndromeMap(code)
    return code._syndromes


def _valuation(x: int) -> int:
    return (x & -x).bit_length() - 1


def _trimmed(row: list[int]) -> list[int]:
    while row and not row[-1]:
        row.pop()
    return row


class _CanonicalCosets:
    """The lexicographically least vector of every coset, from the dual's Howell form.

    The dual's rows are reduced from the right.  At the last column j where a
    row is nonzero, the row whose entry there has the least 2-adic valuation
    w is scaled so that entry is 2^w, cleared out of the other rows and
    retired as the pivot of j; 2^(s-w) times it, zero at j, joins the rows.
    Afterwards the pivot rows that end at or before j span the dual words
    that vanish after j, so the syndromes of coordinates j..n-1 form a group
    S_j with |S_j / S_(j+1)| = 2^(e_j): e_j = s - w at a pivot, 0 elsewhere.
    The lex-min vector of a coset therefore takes at column j the least digit
    below 2^(e_j) that leaves the rest of the syndrome in S_(j+1).  It is zero
    off the pivot columns J, and the pivots' digits, in ascending column
    order, solve the triangular system x . d_q = sigma_q:

        x_q = ((sigma_q - sum_(q' < q) d_q[j_q'] x_q') mod 2^s) >> w_q.

    Each pivot row is carried as coefficients lam over the dual's unit rows
    u_i, and lam_qi is a multiple of 2^(v_i), so sigma_q = sum_i lam_qi
    field_i(key) mod 2^s comes from the packed key alone.  Rows are lists of
    Python ints, each cut after its last nonzero entry, so the loop runs
    once per pivot, at most once per key bit.
    """

    def __init__(self, smap: _SyndromeMap):
        s = smap.s
        m = 1 << s
        width = len(smap.levels)
        rows = []  # (entries up to the last nonzero one, coefficients over the unit rows)
        for i, (unit, v) in enumerate(zip(smap.units.tolist(), smap.levels)):
            lam = [0] * width
            lam[i] = 1 << v
            rows.append((_trimmed([x << v for x in unit] if v else unit), lam))
        pivots = []  # (column, w, entries, coefficients), by descending column
        while rows:
            # the longest row, and among those the least valuation at its end
            p = min(range(len(rows)), key=lambda k: (-len(rows[k][0]), _valuation(rows[k][0][-1])))
            row, lam = rows.pop(p)
            j, w = len(row) - 1, _valuation(row[-1])
            if (inv := pow(row[j] >> w, -1, m)) != 1:
                row = [x * inv % m for x in row]
                lam = [c * inv % m for c in lam]
            kept = []
            for other, coeffs in rows:
                if len(other) == j + 1:
                    q = other[j] >> w
                    other = _trimmed([(a - q * b) % m for a, b in zip(other, row)])
                    coeffs = [(a - q * b) % m for a, b in zip(coeffs, lam)]
                if other:
                    kept.append((other, coeffs))
            t = 1 << (s - w)
            if w and (shifted := _trimmed([x * t % m for x in row])):
                kept.append((shifted, [c * t % m for c in lam]))
            rows = kept
            pivots.append((j, w, row, lam))
        pivots.reverse()
        self.n, self.mask = smap.n, m - 1
        self.shifts, self.masks = smap.shifts[:, None], smap.masks[:, None]
        self.columns = tuple(j for j, *_ in pivots)
        valuations = [w for _, w, *_ in pivots]
        self.exponents = tuple(s - w for w in valuations)
        self.offsets = tuple(sum(self.exponents[q + 1 :]) for q in range(len(pivots)))
        self.place = np.array([1 << offset for offset in self.offsets], dtype=np.int64)
        self.lam = np.array([lam for *_, lam in pivots], dtype=np.int64).reshape(len(pivots), width)
        # d[q', q] = d_q'[j_q], the pivot rows on the pivot columns: lower triangular
        d = np.array(
            [[row[j] if j < len(row) else 0 for j in self.columns] for _, _, row, _ in pivots], dtype=np.int64
        ).reshape(len(pivots), len(pivots))
        self.steps = [(w, d[q + 1 :, q, None]) for q, w in enumerate(valuations)]
        # keys per call of ``rank``: its int64 temporaries stay within _BLOCK * _BLOCK_BYTES
        self.block = max(1, _BLOCK * _BLOCK_BYTES // (8 * (width + 3 * len(pivots) + 1)))

    def rank(self, keys: np.ndarray) -> np.ndarray:
        """The pivot digits of each key's canonical vector, packed with the
        earliest pivot most significant, which orders the vectors
        lexicographically."""
        fields = keys[None, :] >> self.shifts
        fields &= self.masks
        sigma = self.lam @ fields
        digits = np.empty_like(sigma)
        for q, (w, later) in enumerate(self.steps):
            x = np.bitwise_and(sigma[q], self.mask, out=digits[q])
            if w:
                x >>= w
            if len(later):
                sigma[q + 1 :] -= later * x
        return self.place @ digits

    def vector(self, rank: int) -> tuple[int, ...]:
        out = [0] * self.n
        for j, e, offset in zip(self.columns, self.exponents, self.offsets):
            out[j] = (rank >> offset) & ((1 << e) - 1)
        return tuple(out)


def _min_weight_dtype(max_weight: int):
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if max_weight <= np.iinfo(dtype).max:
            return dtype
    raise BudgetExceededError(f"coset weights up to {max_weight} do not fit a 64-bit table")


def _table_dtype(n: int, wtable: np.ndarray):
    """The weight table's dtype and its value for a coset not yet reached,
    which exceeds every real weight and survives adding one more digit."""
    wmax = int(wtable.max())
    unreached = n * wmax + 1
    return _min_weight_dtype(unreached + wmax), unreached


def _working_set_bytes(code: LinearCode, wtable: np.ndarray) -> int:
    """Peak bytes of the coset DP and its witness pass, by arithmetic on the
    code's parameters and the metric's weight table.

    Both passes hold one weight table and the column keys: three n x 2^s
    int64 arrays while they are built, two afterwards.  The DP adds the second table and a
    block of max(_BLOCK, 8 * 2^s) gathered cells of _BLOCK_BYTES each.  The
    witness pass adds a scan of _BLOCK keys (a mask byte and an int64 index
    each), _BLOCK * _BLOCK_BYTES of temporaries while it ranks the deep keys,
    and, while the dual's Howell form is built, at most twice the key bits of
    rows and coefficient lists of Python ints (a list slot and an int object,
    40 bytes, per entry).
    """
    s, n = code.ring.s, code.n
    bits = s * n - code.two_dimension
    dtype, _ = _table_dtype(n, wtable)
    table = (1 << bits) * np.dtype(dtype).itemsize
    dp = table + max(_BLOCK, 8 << s) * _BLOCK_BYTES
    witness = _BLOCK * (9 + _BLOCK_BYTES) + 2 * bits * (n + bits) * 40
    return table + max(dp, witness) + (3 * 8 * n << s)


def _check_table_bytes(code: LinearCode, wtable: np.ndarray, budget: SearchBudget) -> None:
    need = _working_set_bytes(code, wtable)
    if need > budget.table_bytes:
        raise BudgetExceededError(
            f"the coset DP needs {need} bytes, over the table budget of {budget.table_bytes}"
        )


@dataclass
class CosetLeaderTable:
    """Minimum weight of every coset, keyed by packed syndrome.

    ``visited`` counts the DP's cell updates, n * (2^s - 1) * #cosets.
    """

    code: LinearCode
    metric: WeightMetric
    syndromes: _SyndromeMap
    weights: np.ndarray
    visited: int

    def weight_of_coset(self, coords: Sequence[int]) -> int:
        return int(self.weights[self.syndromes.key_of(coords)])

    def distribution(self) -> dict[int, int]:
        if self.weights.dtype.itemsize <= 2:  # weights below 2^16: count by value
            counts = np.bincount(self.weights)
            return {int(w): int(c) for w, c in enumerate(counts) if c}
        values, counts = np.unique(self.weights, return_counts=True)
        return {int(w): int(c) for w, c in zip(values, counts)}


def coset_leader_table(
    code: LinearCode,
    metric: WeightMetric,
    *,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> CosetLeaderTable:
    """Minimum weight of every coset, by the coset DP.

    table[g] starts at 0 for the zero key and unreached elsewhere; coordinate j
    then takes the minimum over its digits a of table[g - a h_j] + w(a), with
    one gather of all digits per block of keys.
    """
    wtable = metric.element_weights(code.ring)
    _check_table_bytes(code, wtable, budget)
    smap = _syndrome_map(code)
    dtype, unreached = _table_dtype(code.n, wtable)
    m = 1 << smap.s
    weights = wtable[1:].astype(dtype)[:, None]
    table = np.full(smap.n_cosets, unreached, dtype=dtype)
    table[0] = 0
    nxt = np.empty_like(table)
    first = smap.first_block()
    for j in range(smap.n):
        minus_low, minus_top = smap.minus_low[j, :, None], smap.minus_top[j, :, None]
        for lo, low, top in smap.blocks(first):
            gathered = table[smap.add(low, top, minus_low, minus_top)]
            gathered += weights
            hi = lo + len(low)
            np.minimum(table[lo:hi], gathered.min(axis=0), out=nxt[lo:hi])
        table, nxt = nxt, table
    if int(table.max()) >= unreached:
        raise AssertionError("incomplete coset table: some coset was never reached")
    return CosetLeaderTable(code, metric, smap, table, smap.n * (m - 1) * smap.n_cosets)


def _canonical_deep_hole(table: CosetLeaderTable, radius: int) -> tuple[tuple[int, ...], int]:
    """Lexicographically first vector whose coset minimum equals ``radius``,
    and the number of such deep cosets.

    Every vector of a deep coset is a deep hole, so the first one is the least
    canonical vector over the deep cosets.  The table is scanned _BLOCK keys
    at a time, and the deep keys are ranked in blocks under a running minimum.
    """
    canon = table.syndromes.canonical
    best, deep = None, 0
    for lo in range(0, len(table.weights), _BLOCK):
        keys = np.flatnonzero(table.weights[lo : lo + _BLOCK] == radius)
        keys += lo
        deep += len(keys)
        for i in range(0, len(keys), canon.block):
            least = int(canon.rank(keys[i : i + canon.block]).min())
            best = least if best is None else min(best, least)
    return canon.vector(best), deep


def coset_weight_distribution(
    code: LinearCode,
    metric: WeightMetric,
    *,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> dict[int, int]:
    """Histogram coset-leader weight -> number of cosets; its largest key is the
    covering radius."""
    return coset_leader_table(code, metric, budget=budget).distribution()


def _dp_radius(code, metric, budget, witness, r_cap=None) -> RadiusReport:
    t0 = time.perf_counter()
    table = coset_leader_table(code, metric, budget=budget)
    radius = int(table.weights.max())
    if r_cap is not None and radius > r_cap:
        return RadiusReport(
            metric.value, "syndrome_table", r_cap + 1, None, None, None, table.visited, time.perf_counter() - t0
        )
    t1 = time.perf_counter()
    hole, deep = _canonical_deep_hole(table, radius) if witness else (None, 0)
    t2 = time.perf_counter()
    return _exact_report(metric, "syndrome_table", radius, hole, table.visited, t2 - t0, deep, t2 - t1)


def covering_radius_syndrome(
    code: LinearCode,
    metric: WeightMetric,
    *,
    budget: SearchBudget = DEFAULT_BUDGET,
    witness: bool = True,
) -> RadiusReport:
    """Exact radius as the largest minimum weight in the coset DP's table, with
    the lexicographically first deep hole as witness."""
    return _dp_radius(code, metric, budget, witness)


def covering_radius_bfs(
    code: LinearCode,
    metric: WeightMetric,
    r_cap: int,
    *,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> RadiusReport:
    """The coset DP's exact radius when it is at most ``r_cap``; otherwise the
    interval [r_cap + 1, infinity), what a search capped at weight r_cap knows."""
    return _dp_radius(code, metric, budget, True, r_cap)


# ---------------------------------------------------------------------------
# direct engine

def covering_radius_of_set(
    words: np.ndarray,
    ring: RingSpec,
    metric: WeightMetric,
    *,
    budget: SearchBudget = DEFAULT_BUDGET,
    threads: int = 1,
) -> RadiusReport:
    """Exact covering radius of an arbitrary (possibly non-linear) set of words,
    with the lexicographically first deep hole.  ``threads`` is accepted for
    compatibility and unused."""
    metric.check_ring(ring)
    words = np.asarray(words, dtype=np.min_scalar_type(ring.modulus - 1))
    if words.ndim != 2 or not len(words):
        raise ValueError("need a non-empty 2d array of words")
    n = words.shape[1]
    s = ring.s
    total = 1 << (s * n)
    if total * len(words) > budget.direct_evals:
        raise BudgetExceededError(
            f"{total} x {len(words)} distance evaluations exceed the budget "
            f"{budget.direct_evals}; the syndrome engine may still fit"
        )
    wtable = metric.element_weights(ring)
    acc = np.int32 if n * int(wtable.max()) < 1 << 31 else np.int64  # distance sums must not wrap
    wtable = wtable.astype(acc)
    t0 = time.perf_counter()
    best, best_idx = -1, -1
    for lo in range(0, total, _DIRECT_CHUNK):
        digits = _digits_of_range(lo, min(lo + _DIRECT_CHUNK, total), n, s)
        diffs = (digits[:, None, :] - words[None, :, :]) & ((1 << s) - 1)
        dmin = wtable[diffs].sum(axis=2, dtype=acc).min(axis=1)
        local = int(dmin.max())
        if local > best:
            best, best_idx = local, lo + int(np.argmax(dmin))
    witness = tuple(int(x) for x in _digits_of_range(best_idx, best_idx + 1, n, s)[0])
    return _exact_report(metric, "direct", best, witness, total, time.perf_counter() - t0)


def covering_radius_direct(
    code: LinearCode,
    metric: WeightMetric,
    *,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> RadiusReport:
    """Exact radius by scanning all ambient vectors against all codewords."""
    words = enumerate_codewords(code).words
    return covering_radius_of_set(words, code.ring, metric, budget=budget)


# ---------------------------------------------------------------------------
# bounds

def sphere_covering_lower_bound(n: int, code_size: int, s: int) -> int:
    """Smallest r with |C| * sum_{i<=r} C(2^(s-1) n, i) >= 2^(sn): a lower bound
    on the homogeneous covering radius.

    The generalized Gray map (Carlet, IEEE Trans. IT 44(4), 1998) sends
    Z_{2^s}^n injectively into binary words of length 2^(s-1) n and carries
    the homogeneous weight to the Hamming weight, so a ball of radius r holds
    at most sum_{i<=r} C(2^(s-1) n, i) vectors, and |C| balls must cover all
    2^(sn) of them.  Exact integer arithmetic throughout."""
    if n < 1 or code_size < 1:
        raise ValueError("need n >= 1 and a positive code size")
    big_n = (1 << (s - 1)) * n
    need = 1 << (s * n)
    acc, term = 0, 1  # term = C(big_n, r), updated exactly
    for r in range(big_n + 1):
        acc += term
        if acc * code_size >= need:
            return r
        term = term * (big_n - r) // (r + 1)
    return big_n


def delsarte_bound(code: LinearCode, *, budget_k: int = 26) -> int | None:
    """Number of distinct nonzero homogeneous weights in the dual code, an upper
    bound on the homogeneous covering radius over Z2 and Z4.

    Over Z_{2^s} with s >= 3 the count does not bound the radius in weight
    units (the zero code of length 2 over Z8 has radius 8 and four nonzero
    dual weights, 2, 4, 6 and 8), so the result there is None.  The dual is streamed through its
    2-basis in chunks, so only the set of distinct weights is ever held."""
    from .linalg import two_basis

    if code.ring.s >= 3:
        return None
    dual = code.dual()
    k = dual.two_dimension
    if k > budget_k:
        raise BudgetExceededError(f"dual 2-dimension {k} exceeds enumeration budget {budget_k}")
    basis = two_basis(dual)
    table = WeightMetric.HOMOGENEOUS.element_weights(code.ring).astype(np.int64)
    m = code.ring.modulus
    seen: set[int] = set()
    chunk = 1 << 16
    for start in range(0, 1 << k, chunk):
        idx = np.arange(start, min(start + chunk, 1 << k), dtype=np.int64)
        bits = (idx[:, None] >> np.arange(k)) & 1
        words = (bits @ basis) % m
        seen.update(int(w) for w in np.unique(table[words].sum(axis=1)))
    seen.discard(0)
    return len(seen)


def _bound_only(code: LinearCode, metric: WeightMetric) -> RadiusReport:
    """The interval [sphere bound, Delsarte bound] for an instance no exact
    engine fits.  Both bound the homogeneous radius, so the lower one is kept
    only for a metric weighing every element at least as much, and the upper
    one only for a metric weighing every element at most as much."""
    weights = metric.element_weights(code.ring)
    homogeneous = WeightMetric.HOMOGENEOUS.element_weights(code.ring)
    lo = 0
    if np.all(weights >= homogeneous):
        lo = sphere_covering_lower_bound(code.n, code.size, code.ring.s)
    hi = None
    if np.all(weights <= homogeneous):
        try:
            hi = delsarte_bound(code, budget_k=20)
        except BudgetExceededError:
            pass
    return RadiusReport(metric.value, "bound_only", lo, hi)


def mattson_stack(c0: LinearCode, c1: LinearCode, connect: np.ndarray | Sequence[Sequence[int]]) -> LinearCode:
    """Code generated by [[0, G1], [G0, A]]; its radius is at most r(C0) + r(C1)
    in every translation-invariant metric."""
    if c0.ring != c1.ring:
        raise ValueError("component codes must share a ring")
    a = np.array(connect, dtype=np.int64)
    if a.size == 0:
        a = a.reshape(len(c0.rows), c1.n if a.ndim < 2 else a.shape[1])
    if a.shape != (len(c0.rows), c1.n):
        raise ValueError(f"connecting matrix must be {len(c0.rows)} x {c1.n}, got {a.shape}")
    top = np.hstack([np.zeros((len(c1.rows), c0.n), dtype=np.int64), c1.rows])
    bottom = np.hstack([c0.rows, a % c0.ring.modulus])
    return LinearCode(c0.ring, c0.n + c1.n, np.vstack([top, bottom]))


def bound_report(
    code: LinearCode,
    *,
    metric: WeightMetric = WeightMetric.HOMOGENEOUS,
    budget: SearchBudget = DEFAULT_BUDGET,
    threads: int = 1,
) -> BoundReport:
    """Sphere-covering and Delsarte bounds, plus a Mattson bound when the
    generator matrix visibly splits as [[0, G1], [G0, A]].  ``threads`` is
    accepted for compatibility and unused."""
    lb = sphere_covering_lower_bound(code.n, code.size, code.ring.s)
    try:
        ub = delsarte_bound(code)
    except BudgetExceededError:
        ub = None
    mattson_ub = None
    decomposition = None
    split = _find_stack_split(code)
    if split is not None:
        j, c0, c1 = split
        try:
            r0 = covering_radius(c0, metric, budget=budget).value
            r1 = covering_radius(c1, metric, budget=budget).value
            if r0 is not None and r1 is not None:
                mattson_ub = r0 + r1
                decomposition = {"split_column": j, "left_radius": r0, "right_radius": r1}
        except BudgetExceededError:
            pass
    return BoundReport(lb, ub, mattson_ub, decomposition)


def _find_stack_split(code: LinearCode):
    rows = code.rows
    if len(rows) < 2:
        return None
    for j in range(1, code.n):
        zero_left = ~np.any(rows[:, :j], axis=1)
        if zero_left.any() and (~zero_left).any():
            c1 = LinearCode(code.ring, code.n - j, rows[zero_left][:, j:])
            c0 = LinearCode(code.ring, j, rows[~zero_left][:, :j])
            return j, c0, c1
    return None


# ---------------------------------------------------------------------------
# dispatcher

def covering_radius(
    code: LinearCode,
    metric: WeightMetric,
    method: str = "auto",
    *,
    r_cap: int | None = None,
    budget: SearchBudget = DEFAULT_BUDGET,
    threads: int = 1,
    witness: bool = True,
) -> RadiusReport:
    """Compute the covering radius by the requested engine.

    ``auto`` runs the coset DP; when its working set exceeds
    ``budget.table_bytes`` it runs the direct scan, and when that exceeds
    ``budget.direct_evals`` too it returns a bounds-only interval.  ``r_cap``
    applies to the ``bfs`` method only; ``threads`` is accepted for
    compatibility and unused.
    """
    metric.check_ring(code.ring)
    if method == "direct":
        return covering_radius_direct(code, metric, budget=budget)
    if method == "syndrome":
        return covering_radius_syndrome(code, metric, budget=budget, witness=witness)
    if method == "bfs":
        cap = int(metric.element_weights(code.ring).max()) * code.n if r_cap is None else r_cap
        return covering_radius_bfs(code, metric, cap, budget=budget)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    try:
        return covering_radius_syndrome(code, metric, budget=budget, witness=witness)
    except BudgetExceededError:
        pass
    if (1 << (code.ring.s * code.n)) * code.size <= budget.direct_evals:
        return covering_radius_direct(code, metric, budget=budget)
    return _bound_only(code, metric)
