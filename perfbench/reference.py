"""Independent reference answers for the benchmark's correctness gate.

Nothing here imports modcover.  Codes are plain integer generator matrices over
Z_{2^s}; three ways to get an exact radius are used, depending on what the
query carries:

- ``parity`` (Z4 only): the query code is the kernel of a known parity-check
  matrix H.  The minimum weight of every syndrome class is found by a dynamic
  programme over coordinates on the torus Z4^rows(H), so the cost is
  n x 4 x 4^rows(H), independent of the ambient size 4^n.
- ``brute``: every ambient vector against every codeword, for tiny codes; a
  pinned value the brute force contradicts is reported by the gate.
- ``pinned``: a published or errata value for a code too large for brute
  force, with the witness checked by codeword enumeration and the
  lexicographic prefix scanned by brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

METRICS = ("hamming", "lee", "homogeneous", "euclidean")
GRAY = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)
_INF = np.iinfo(np.int32).max // 2
_LOW = int("01" * 31, 2)  # the low bit of every 2-bit digit of an int64
BRUTE_LIMIT = 1 << 24  # ambient vectors x codewords


def weight_table(metric: str, s: int) -> np.ndarray:
    m = 1 << s
    x = np.arange(m, dtype=np.int64)
    if metric == "hamming":
        return (x != 0).astype(np.int64)
    if metric == "lee":
        return np.minimum(x, m - x)
    if metric == "homogeneous":
        out = np.full(m, m >> 2, dtype=np.int64)
        out[0] = 0
        out[m >> 1] = m >> 1
        return out
    if metric == "euclidean":
        return np.minimum(x * x, (m - x) * (m - x))
    raise ValueError(f"unknown metric {metric!r}")


def parse_matrix(text: str) -> tuple[int, np.ndarray]:
    """Read the "s n" header and generator rows of the matrix text format."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    s, n = int(lines[0][0]), int(lines[0][1])
    rows = np.array([[int(x) for x in ln] for ln in lines[1:]], dtype=np.int64).reshape(-1, n)
    return s, rows


def _add(g, c, s: int):
    """Digit-wise sum mod 2^s of vectors packed s bits per coordinate (s = 1, 2)."""
    if s == 1:
        return g ^ c
    return g ^ c ^ ((g & c & _LOW) << 1)


def _pack(vec, s: int) -> int:
    """Pack a vector, first coordinate most significant, so packed order is lex order."""
    out = 0
    for x in vec:
        out = (out << s) | (int(x) % (1 << s))
    return out


def span(rows: np.ndarray, n: int, s: int) -> np.ndarray:
    """All codewords of the Z_{2^s}-row span, by closure, sorted lexicographically."""
    if s not in (1, 2):
        raise ValueError("the reference handles Z2 and Z4 only")
    m = 1 << s
    words = np.zeros(1, dtype=np.int64)
    for row in np.asarray(rows, dtype=np.int64).reshape(-1, n):
        multiples = [_add(words, _pack(a * row, s), s) for a in range(1, m)]
        words = np.unique(np.concatenate([words, *multiples]))
    return _unpack(words, n, s)


def _unpack(packed: np.ndarray, n: int, s: int) -> np.ndarray:
    shifts = s * (n - 1 - np.arange(n, dtype=np.int64))
    return (packed[:, None] >> shifts[None, :]) & ((1 << s) - 1)


def _digits(lo: int, hi: int, n: int, s: int) -> np.ndarray:
    return _unpack(np.arange(lo, hi, dtype=np.int64), n, s)


def gray_image(words: np.ndarray) -> np.ndarray:
    return GRAY[np.asarray(words, dtype=np.int64)].reshape(len(words), -1)


def sphere_lower_bound(n: int, code_size: int, s: int) -> int:
    big_n = (1 << (s - 1)) * n
    acc = 0
    for r in range(big_n + 1):
        acc += math.comb(big_n, r)
        if acc * code_size >= 1 << big_n:
            return r
    return big_n


def orthogonal_words(rows: np.ndarray, n: int, s: int) -> np.ndarray:
    """The dual code by brute force over the ambient space (tiny n only)."""
    m = 1 << s
    ambient = _digits(0, m**n, n, s)
    if not len(rows):
        return ambient
    return ambient[~np.any((ambient @ np.asarray(rows).T) % m, axis=1)]


@dataclass
class RefCode:
    """A code as the reference sees it, with whichever certificate it comes with."""

    n: int
    s: int
    rows: np.ndarray | None
    parity: np.ndarray | None = None
    pinned: dict = field(default_factory=dict)  # metric -> exact radius
    _words: np.ndarray | None = None

    @property
    def words(self) -> np.ndarray:
        if self._words is None:
            self._words = span(self.rows, self.n, self.s)
        return self._words


class Radius:
    """Exact radius of one code under one metric, plus witness predicates."""

    def __init__(self, code: RefCode, metric: str):
        self.code = code
        self.metric = metric
        self.wt = weight_table(metric, code.s)
        self._lex_first = None
        if code.parity is not None:
            self._table = _coset_dp(code.parity % 4, self.wt)
            self.value = int(self._table[self._table < _INF].max())
            self.mode = "parity"
        elif (1 << (code.s * code.n)) * len(code.words) <= BRUTE_LIMIT:
            self.value = int(self._brute_distances().max())
            self.mode = "brute"
        elif metric in code.pinned:
            self.value = code.pinned[metric]
            self.mode = "pinned"
        else:
            raise ValueError(f"no reference for a code of length {code.n} without a parity check")

    def distance(self, vec) -> int:
        """Distance from ``vec`` to the code (its coset's minimum weight)."""
        v = np.asarray(vec, dtype=np.int64)
        if self.mode == "parity":
            return int(self._table[_pack(self.code.parity @ v, 2)])
        diffs = (v[None, :] - self.code.words) % (1 << self.code.s)
        return int(self.wt[diffs].sum(axis=1).min())

    def lex_first(self) -> tuple[int, ...]:
        """Lexicographically first vector at distance ``value`` from the code."""
        if self._lex_first is None:
            if self.mode == "parity":
                self._lex_first = _lex_first_dp(self.code.parity % 4, self._table == self.value)
            else:
                self._lex_first = self._first_at(self.value)
        return self._lex_first

    def _brute_distances(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        n, s, words = self.code.n, self.code.s, self.code.words
        hi = (1 << (s * n)) if hi is None else hi
        if s == 1:  # every metric is the Hamming weight on Z2
            packed = words @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))
            ambient = np.arange(lo, hi, dtype=np.int64)
            return np.bitwise_count(ambient[:, None] ^ packed[None, :]).min(axis=1).astype(np.int64)
        step = max(1, (1 << 21) // (len(words) * n))
        out = []
        for a in range(lo, hi, step):
            d = _digits(a, min(a + step, hi), n, s)
            out.append(self.wt[(d[:, None, :] - words[None]) % (1 << s)].sum(axis=2).min(axis=1))
        return np.concatenate(out)

    def _first_at(self, target: int) -> tuple[int, ...]:
        n, s = self.code.n, self.code.s
        total = 1 << (s * n)
        step = 1 << 12
        for lo in range(0, total, step):
            d = self._brute_distances(lo, min(lo + step, total))
            if d.max() > target:
                raise ValueError(f"a vector lies farther than the expected radius {target}")
            hit = np.flatnonzero(d == target)
            if len(hit):
                return tuple(int(x) for x in _digits(lo + hit[0], lo + hit[0] + 1, n, s)[0])
        raise ValueError(f"no vector at distance {target}")


def _coset_dp(h: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """Minimum weight per syndrome class.

    Syndromes H x (mod 4) are packed two bits per row into flat indices.
    table[g] = min weight of x with H x = g, built one coordinate at a time:
    table_{j+1}[g] = min_a table_j[g - a h_j] + wt[a].
    """
    rows, n = h.shape
    g = np.arange(1 << (2 * rows), dtype=np.int64)
    table = np.full(len(g), _INF, dtype=np.int32)
    table[0] = 0
    for j in range(n):
        nxt = table.copy()
        for a in range(1, 4):
            np.minimum(nxt, table[_add(g, _pack(-a * h[:, j], 2), 2)] + int(wt[a]), out=nxt)
        table = nxt
    return table


def _lex_first_dp(h: np.ndarray, target: np.ndarray) -> tuple[int, ...]:
    """Greedy digit by digit: the smallest digit whose prefix can still be
    completed, by the remaining coordinates, into a syndrome marked in target.
    reach[j] marks the syndromes reachable by coordinates j..n-1."""
    rows, n = h.shape
    g = np.arange(len(target), dtype=np.int64)
    reach = [g == 0]
    for j in range(n - 1, -1, -1):
        acc = reach[-1].copy()
        for a in range(1, 4):
            acc |= reach[-1][_add(g, _pack(-a * h[:, j], 2), 2)]
        reach.append(acc)
    reach.reverse()
    prefix = np.zeros(rows, dtype=np.int64)
    out = []
    for j in range(n):
        for a in range(4):
            p = (prefix + a * h[:, j]) % 4
            if np.any(target[_add(g, _pack(p, 2), 2)] & reach[j + 1]):
                out.append(a)
                prefix = p
                break
        else:
            raise ValueError("no deep hole reachable")
    return tuple(out)


def homogeneous_dual_weights(code: RefCode) -> int:
    """Distinct nonzero homogeneous weights of the dual code (the Delsarte bound)."""
    if code.parity is not None:
        dual = span(code.parity, code.n, code.s)
    else:
        dual = orthogonal_words(code.rows, code.n, code.s)
    weights = set(np.unique(weight_table("homogeneous", code.s)[dual].sum(axis=1)).tolist())
    weights.discard(0)
    return len(weights)
