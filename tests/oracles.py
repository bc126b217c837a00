"""Naive reference implementations used as independent oracles.

Everything here works on plain tuples with itertools enumeration and never
touches the package's engines, so agreement between the two is meaningful.
"""

import itertools


def weights(metric, m=4):
    """Per-element weight table of Z_m, m = 2^s, for a metric named as in the package."""
    lee = {x: min(x, m - x) for x in range(m)}
    if metric == "hamming":
        return {x: int(x != 0) for x in range(m)}
    if metric == "lee":
        return lee
    if metric == "euclidean":
        return {x: w * w for x, w in lee.items()}
    if metric == "homogeneous":
        return {x: 0 if x == 0 else m // 2 if 2 * x == m else m // 4 for x in range(m)}
    raise ValueError(metric)


HAMMING = weights("hamming")
LEE = weights("lee")
EUCLIDEAN = weights("euclidean")
BINARY = weights("hamming", 2)

TABLES = {name: weights(name) for name in ("hamming", "lee", "homogeneous", "euclidean")}


def span(rows, n, m=4):
    """All codewords of the integer row span, reduced mod m."""
    words = {tuple([0] * n)}
    for coeffs in itertools.product(range(m), repeat=len(rows)):
        words.add(tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) % m for i in range(n)))
    return sorted(words)


def vec_weight(v, table):
    return sum(table[x] for x in v)


def min_distance(words, table, m=4):
    return min(
        vec_weight(tuple((a - b) % m for a, b in zip(u, v)), table)
        for u, v in itertools.combinations(words, 2)
    )


def covering_radius(words, n, table, m=4):
    """Exhaustive max-min distance, with the lexicographically first witness."""
    best, witness = -1, None
    for u in itertools.product(range(m), repeat=n):
        d = min(vec_weight(tuple((a - b) % m for a, b in zip(u, c)), table) for c in words)
        if d > best:
            best, witness = d, u
    return best, witness


def dual_words(rows, n, m=4):
    return [
        v
        for v in itertools.product(range(m), repeat=n)
        if all(sum(a * b for a, b in zip(v, r)) % m == 0 for r in rows)
    ]


def gray_image(words):
    table = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}
    return [tuple(bit for x in w for bit in table[x]) for w in words]


def iter_exact_weight(n, elem_w, target):
    """All vectors whose per-coordinate weights sum to target, in lex order."""
    m = len(elem_w)
    maxw = max(elem_w)
    cur = [0] * n

    def rec(pos, rem):
        if pos == n:
            if rem == 0:
                yield tuple(cur)
            return
        room = maxw * (n - pos - 1)
        for v in range(m):
            left = rem - elem_w[v]
            if 0 <= left <= room:
                cur[pos] = v
                yield from rec(pos + 1, left)
        cur[pos] = 0

    if n == 0:
        if target == 0:
            yield ()
        return
    yield from rec(0, target)
