"""Exact covering-radius engines, bounds, and coset-leader tables.

The covering radius of a linear code is the largest minimum weight over its
cosets.  One dynamic programme over the syndrome group finds every coset's
minimum weight, one coordinate at a time (the syndrome trellis of Wolf, IEEE
Trans. IT 24(1), 1978):

    T_{j+1}[g] = min_a T_j[g - a h_j] + w(a),

where h_j is coordinate j's syndrome.  It costs n * 2^s * #cosets, whatever the
ambient size 2^(sn).  ``coset_leader_table``, ``coset_weight_distribution``,
``covering_radius_syndrome`` and ``covering_radius_bfs`` are views of its
table; the lexicographically first deep hole comes from a backward
reachability pass over the same keys.  ``covering_radius_of_set`` (the direct
engine) scans every ambient vector against every word, so it also serves
non-linear sets such as Gray images.  A budget that does not fit raises
``BudgetExceededError`` before the work is allocated; ``covering_radius`` then
falls back to the direct scan and then to a bounds-only interval, never to a
wrong exact value.
"""

from __future__ import annotations

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
    its two weight tables, the witness pass's bit tables and its block
    buffers.  The default fits ``simplex_alpha(2)`` (2^28 cosets, n = 16).
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
        out["stats"] = {"visited": self.visited, "seconds": round(self.seconds, 6)}
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


def _exact_report(metric, method, value, witness, visited, seconds) -> RadiusReport:
    return RadiusReport(metric.value, method, value, value, value, witness, visited, seconds)


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
    ``((g & low) + (c & low)) ^ ((g ^ c) & top)``.  ``columns[j, a]`` is the
    key of a * e_j.  Blocks of ``block`` keys, a multiple of 8, gather all
    2^s digits in ``_BLOCK`` cells and line up with the bytes of a bit table.
    """

    def __init__(self, code: LinearCode):
        dual = code.dual()
        self.s = code.ring.s
        self.n = code.n
        self.units = dual.std_unit_rows_unpermuted()
        bits = [self.s - v for v in dual.std.levels]
        self.masks = np.array([(1 << b) - 1 for b in bits], dtype=np.int64)
        self.shifts = np.array([sum(bits[:i]) for i in range(len(bits))], dtype=np.int64)
        self.total_bits = sum(bits)
        if self.total_bits > 62:
            raise BudgetExceededError(f"coset key needs {self.total_bits} bits; table is infeasible")
        self.n_cosets = 1 << self.total_bits
        self.top = sum(1 << (int(sh) + b - 1) for sh, b in zip(self.shifts, bits))
        self.low = (self.n_cosets - 1) ^ self.top
        digits = np.arange(1 << self.s, dtype=np.int64)
        self.columns = np.zeros((self.n, 1 << self.s), dtype=np.int64)
        for unit, mask, shift in zip(self.units, self.masks, self.shifts):
            self.columns += ((unit[:, None] * digits) & mask) << shift
        self.block = min(max(8, _BLOCK >> self.s), self.n_cosets)
        first = np.arange(self.block, dtype=np.int64)
        self._first = (first & self.low, first & self.top)

    def keys_of(self, digits: np.ndarray) -> np.ndarray:
        syn = np.asarray(digits, dtype=np.int64) @ self.units.T
        return ((syn & self.masks) << self.shifts).sum(axis=-1)

    def key_of(self, coords: Sequence[int]) -> int:
        return int(self.keys_of(np.asarray(coords)[None, :])[0])

    def add(self, low_part, top_part, c):
        """Keys g + c, for g given as (g & low, g & top); ints or broadcasting arrays."""
        out = low_part + (c & self.low)
        out ^= top_part ^ (c & self.top)
        return out

    def blocks(self):
        """(first key, g & low, g & top) for consecutive blocks of keys g.

        A block starts at a multiple of its power-of-two size, so its keys are
        the first block's keys with the start's bits or-ed in."""
        low, top = self._first
        yield 0, low, top
        for lo in range(self.block, self.n_cosets, self.block):
            yield lo, low | (lo & self.low), top | (lo & self.top)


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


def _working_set_bytes(code: LinearCode, metric: WeightMetric, witness: bool) -> int:
    """Peak bytes of the coset DP, by arithmetic on the code's parameters.

    Two weight tables, the block buffers and the n x 2^s column keys with two
    temporaries; with the witness pass, at most min(n, key bits) + 2 bit
    tables and one byte per coset (see ``_lex_first_deep_hole``).
    """
    bits = code.ring.s * code.n - code.two_dimension
    cosets = 1 << bits
    dtype, _ = _table_dtype(code.n, metric.element_weights(code.ring))
    need = 2 * cosets * np.dtype(dtype).itemsize + max(_BLOCK, 8 << code.ring.s) * _BLOCK_BYTES
    need += 3 * 8 * code.n << code.ring.s
    if witness:
        need += (min(code.n, bits) + 2) * ((cosets + 7) // 8) + cosets
    return need


def _check_table_bytes(code: LinearCode, metric: WeightMetric, budget: SearchBudget, witness: bool) -> None:
    need = _working_set_bytes(code, metric, witness)
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
    metric.check_ring(code.ring)
    _check_table_bytes(code, metric, budget, witness=False)
    smap = _SyndromeMap(code)
    wtable = metric.element_weights(code.ring)
    dtype, unreached = _table_dtype(code.n, wtable)
    m = 1 << smap.s
    digits = np.arange(1, m)
    weights = wtable[digits].astype(dtype)[:, None]
    table = np.full(smap.n_cosets, unreached, dtype=dtype)
    table[0] = 0
    nxt = np.empty_like(table)
    for j in range(smap.n):
        minus = smap.columns[j, m - digits][:, None]  # keys of -a * e_j
        for lo, low, top in smap.blocks():
            gathered = table[smap.add(low, top, minus)]
            gathered += weights
            hi = lo + len(low)
            np.minimum(table[lo:hi], gathered.min(axis=0), out=nxt[lo:hi])
        table, nxt = nxt, table
    if int(table.max()) >= unreached:
        raise AssertionError("incomplete coset table: some coset was never reached")
    return CosetLeaderTable(code, metric, smap, table, smap.n * (m - 1) * smap.n_cosets)


def _lex_first_deep_hole(table: CosetLeaderTable, radius: int) -> tuple[int, ...]:
    """Lexicographically first vector whose coset minimum equals ``radius``.

    The backward pass builds bit tables reach[j], j = n..1, marking the keys
    from which some digits on coordinates j..n-1 lead to a coset of weight
    ``radius``; the greedy pass then takes, coordinate by coordinate, the
    smallest digit whose prefix key is marked in the next table.  reach[j] is
    the target plus the subgroup spanned by the columns j..n-1, so it changes
    at most once per key bit: equal neighbours share one array, and at most
    min(n, key bits) + 1 tables are held, plus the one being built and the
    previous one unpacked to a byte per key.
    """
    smap = table.syndromes
    n, size = smap.n, smap.n_cosets
    target = np.empty((size + 7) // 8, dtype=np.uint8)
    filled = 0  # marked keys in the latest table
    for lo in range(0, size, smap.block):
        hi = min(lo + smap.block, size)
        hit = table.weights[lo:hi] == radius
        filled += int(np.count_nonzero(hit))
        target[lo >> 3 : (hi + 7) >> 3] = np.packbits(hit, bitorder="little")
    reach = [target] * (n + 1)
    for j in range(n - 1, 0, -1):
        prev = reach[j + 1]
        if filled == size:  # so is every earlier table
            reach[: j + 1] = [prev] * (j + 1)
            break
        plus = smap.columns[j, 1:][:, None]  # keys of a * e_j
        marked = np.unpackbits(prev, count=size, bitorder="little").view(bool)
        cur = np.empty_like(prev)
        count = 0
        for lo, low, top in smap.blocks():
            hi = lo + len(low)
            hit = marked[smap.add(low, top, plus)].any(axis=0)
            hit |= marked[lo:hi]
            count += int(np.count_nonzero(hit))
            cur[lo >> 3 : (hi + 7) >> 3] = np.packbits(hit, bitorder="little")
        reach[j] = prev if count == filled else cur
        filled = count
    key, out = 0, []
    for j in range(n):
        marks, col = reach[j + 1], smap.columns[j].tolist()
        for a in range(len(col)):
            k = smap.add(key & smap.low, key & smap.top, col[a])
            if (int(marks[k >> 3]) >> (k & 7)) & 1:
                key = k
                out.append(a)
                break
        else:
            raise AssertionError("no deep hole found at the computed radius")
    return tuple(out)


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
    _check_table_bytes(code, metric, budget, witness)
    table = coset_leader_table(code, metric, budget=budget)
    radius = int(table.weights.max())
    if r_cap is not None and radius > r_cap:
        return RadiusReport(
            metric.value, "syndrome_table", r_cap + 1, None, None, None, table.visited, time.perf_counter() - t0
        )
    wit = _lex_first_deep_hole(table, radius) if witness else None
    return _exact_report(metric, "syndrome_table", radius, wit, table.visited, time.perf_counter() - t0)


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
    units (the zero code of length 2 over Z8 has radius 8 and three dual
    weights), so the result there is None.  The dual is streamed through its
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
