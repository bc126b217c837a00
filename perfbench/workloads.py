"""The benchmark's workloads: seeded inputs, set-up, and the request handler.

Every query names how its code is built (``spec``), the metric, and the
reference certificate the correctness gate checks the answer against.  Input
generation uses numpy only; modcover is first touched in ``set_up``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from reference import METRICS, RefCode, gray_image, parse_matrix

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Query:
    spec: tuple                 # how the code is built; also the repeat key
    metric: str
    ref: RefCode
    kind: str = "radius"        # "radius" (covering_radius, auto) or "gray" (direct engine)
    text: str | None = None     # set when the request carries the matrix as text
    bounds: bool = False        # also ask for bound_report
    as_text: bool = False


@dataclass
class Workload:
    name: str
    why: str
    threads: int
    batch: Callable[[int, int], list[Query]]  # (seed, batch index) -> queries
    single_batch: bool          # one batch per run: repeating it would repeat queries
    tail_pct: int | None        # query_tail_ms percentile; None: the maximum
    min_batches: int = 1        # run at least this many, so that ten samples lie beyond tail_pct


# --- random codes with a known parity check ---------------------------------

def random_code(rng, n: int, coset_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """A random Z4 code with 2^coset_bits cosets, and a parity-check matrix.

    Built as type 4^k1 2^k2 in standard form G = [[I, A1, A2], [0, 2I, 2B]],
    whose kernel certificate is H = [[-(A2 - A1 B)^T, -B^T, I], [-2 A1^T, 2I, 0]],
    then hidden by a column permutation and unimodular row mixing.
    """
    options = [k2 for k2 in (coset_bits % 2, coset_bits % 2 + 2)
               if coset_bits - k2 >= 2 and n - (coset_bits - k2) // 2 - k2 >= 0]
    if not options:
        raise ValueError(f"no Z4 code of length {n} has 2^{coset_bits} cosets in this family")
    k2 = options[int(rng.integers(len(options)))]
    r = (coset_bits - k2) // 2
    k1 = n - r - k2
    a1 = rng.integers(0, 4, (k1, k2))
    a2 = rng.integers(0, 4, (k1, r))
    b = rng.integers(0, 2, (k2, r))
    g = np.zeros((k1 + k2, n), dtype=np.int64)
    g[:k1, :k1] = np.eye(k1, dtype=np.int64)
    g[:k1, k1:k1 + k2] = a1
    g[:k1, k1 + k2:] = a2
    g[k1:, k1:k1 + k2] = 2 * np.eye(k2, dtype=np.int64)
    g[k1:, k1 + k2:] = 2 * b
    h = np.zeros((r + k2, n), dtype=np.int64)
    h[:r, :k1] = -(a2 - a1 @ b).T
    h[:r, k1:k1 + k2] = -b.T
    h[:r, k1 + k2:] = np.eye(r, dtype=np.int64)
    h[r:, :k1] = -2 * a1.T
    h[r:, k1:k1 + k2] = 2 * np.eye(k2, dtype=np.int64)
    h %= 4
    if np.any((g @ h.T) % 4):
        raise AssertionError("parity-check construction is not orthogonal")
    perm = rng.permutation(n)
    g, h = g[:, perm], h[:, perm]
    rows = len(g)
    for _ in range(2 * rows if rows > 1 else 0):
        i, j = rng.choice(rows, 2, replace=False)
        g[i] = (g[i] + int(rng.integers(1, 4)) * g[j]) % 4
    if rows and rng.integers(0, 2):
        g[0] = (3 * g[0]) % 4
    return g, h


def matrix_text(s: int, g: np.ndarray) -> str:
    n = g.shape[1]
    return f"{s} {n}\n" + "".join(" ".join(str(int(x)) for x in row) + "\n" for row in g)


def _random_query(rng, n: int, coset_bits: int, metric: str, **kw) -> Query:
    g, h = random_code(rng, n, coset_bits)
    spec = ("matrix", 2, n, tuple(map(tuple, g.tolist())))
    return Query(spec, metric, RefCode(n, 2, g, parity=h), **kw)


# --- named family instances --------------------------------------------------

def family_spec(name: str, *args, dual: bool = False) -> tuple:
    return ("family", name, args, dual)


def describe(spec: tuple) -> str:
    if spec[0] == "matrix":
        return f"random Z{1 << spec[1]} code n={spec[2]}"
    if spec[0] == "binary-repetition":
        return f"binary repetition n={spec[1]}"
    return f"{'dual of ' if spec[3] else ''}{spec[1]}{spec[2]}"


def build(spec: tuple, mc) -> object:
    """Construct the code a spec names, through the modcover module namespaces."""
    if spec[0] == "matrix":
        _, s, n, rows = spec
        return mc.linalg.LinearCode(mc.ring.RingSpec(s), n, np.array(rows, dtype=np.int64))
    if spec[0] == "binary-repetition":
        n = spec[1]
        return mc.linalg.LinearCode(mc.ring.Z2, n, [[1] * n])
    _, name, args, dual = spec
    code = getattr(mc.families, name)(*args)
    return code.dual() if dual else code


@functools.cache
def errata_instances() -> list[tuple[tuple, str, int]]:
    """(spec, metric, exact radius) for every entry of the shipped errata file."""
    entries = json.loads((ROOT / "src" / "modcover" / "errata.json").read_text(encoding="utf-8"))
    out = []
    for e in entries:
        p, check = e["params"], e["check"]
        if check == "field-repetition":
            spec, metric = ("binary-repetition", p["n"]), "hamming"
        elif check.startswith("rep-"):
            family = "repetition_alpha" if check.endswith("alpha") else "repetition_beta"
            spec, metric = family_spec(family, p["n"]), "lee" if "-lee-" in check else "euclidean"
        elif check.startswith("brep"):
            blocks = {"brep3n": (p["n"],) * 3, "brep2n": (p["n"], p["n"], 0)}.get(
                check.rsplit("-", 1)[0], (p.get("m"), p["n"], 0))
            spec, metric = family_spec("block_repetition", *blocks), check.rsplit("-", 1)[1]
        elif check.startswith("simplex-"):
            family = "simplex_alpha" if "-alpha-" in check else "simplex_beta"
            spec, metric = family_spec(family, p["k"]), check.rsplit("-", 1)[1]
        else:
            raise ValueError(f"errata entry {check!r} has no instance mapping in the benchmark")
        out.append((spec, "euclidean" if metric == "euclid" else metric, e["computed"]))
    return out


# --- workloads ---------------------------------------------------------------

def _syndrome_batch(seed: int, index: int) -> list[Query]:
    # Loads covering's ambient scan: coset_leader_table (digits, float32 matmul,
    # np.minimum.at) and the deep-hole witness scan.  Every query dispatches to
    # the syndrome engine; linalg does only the set-up standard forms and duals,
    # and the bfs, direct and bounds paths are bypassed.
    rng = np.random.default_rng([seed, index])
    ma = RefCode(12, 2, None, pinned={"lee": 12, "euclidean": 18})
    queries = [Query(family_spec("macdonald_alpha", 2, 1), m, ma) for m in ("lee", "euclidean")]
    # seven n=11 codes, so the median latency falls inside their cluster
    for bits, metric in ((8, "hamming"), (9, "euclidean"), (10, "lee"), (12, "homogeneous"),
                         (13, "hamming"), (14, "euclidean"), (16, "lee")):
        queries.append(_random_query(rng, 11, bits, metric))
    queries.append(_random_query(rng, 12, 12, "euclidean"))
    return queries


_BFS_FAMILIES = (("simplex_alpha", (3,), 1), ("simplex_alpha", (4,), 1), ("simplex_beta", (3,), 2),
                 ("simplex_beta", (4,), 2), ("macdonald_alpha", (3, 1), None), ("macdonald_alpha", (4, 1), None))


def _bfs_batch(seed: int, index: int) -> list[Query]:
    # Loads the weight-ordered engine (Python enumeration, _SyndromeMap.keys_of)
    # and long-code standard_form/dual_code in set-up: every code has n >= 28
    # and few cosets, so auto dispatch picks bfs and the ambient scan never runs.
    # Every batch asks for the family duals under all four metrics, so the
    # median latency falls among them (24 of 29 queries), whose cost is fixed;
    # the five random codes are new in every batch.  The search stops when the
    # last coset is first reached, a coupon-collector finish that varies from
    # code to code, least under the Lee, homogeneous and Euclidean weights.
    rng = np.random.default_rng([seed, index])
    queries = [Query(family_spec(family, *args, dual=True), metric,
                     RefCode(0, 2, None, pinned={"lee": lee} if lee else {}))
               for family, args, lee in _BFS_FAMILIES for metric in METRICS]
    for n, bits, metric in ((28, 12, "lee"), (32, 12, "homogeneous"), (36, 12, "euclidean"),
                            (40, 12, "lee"), (32, 14, "lee")):
        queries.append(_random_query(rng, n, bits, metric))
    return queries


# The query-stream mix is a synthetic assumption: the repo records no request
# traffic to take it from.  Only the repeated instances come from the repo (the
# entries of src/modcover/errata.json, its one list of named instances with
# pinned radii); the proportions were chosen as follows.
STREAM_REPEATED = 96   # 37.5% of a batch: a cache has a share to hit that shows in wall_s
STREAM_GRAY = 32       # 1 in 8 on the direct engine, so its latencies reach the p99 tail
STREAM_RANDOM = 128    # half of a batch is new random codes, which no result cache can serve
BOUNDS_EVERY = 8       # 32 bound_report calls a batch, also in the tail
# 256 requests a batch, so the 4 batches a run completes at least leave ten
# samples beyond p99.


def _stream_batch(seed: int, index: int) -> list[Query]:
    # Loads per-call overhead: parse_generator_file, standard_form and dual_code
    # on every request, the syndrome engine on n <= 8, bound_report (Delsarte
    # enumeration) on every 8th request and the direct engine on Gray images.
    # The errata instances repeat, so a cache can hit here; the long ambient
    # scans of syndrome-scan and the bfs engine are bypassed.
    rng = np.random.default_rng([seed, index])
    popular = errata_instances()
    slots: list[Query] = []
    # every errata instance once, so set-up on batch 0 builds them all, then
    # uniform draws among them for the other repeated slots
    picks = list(range(len(popular))) + rng.integers(len(popular), size=STREAM_REPEATED - len(popular)).tolist()
    for pick in picks:
        spec, metric, value = popular[pick]
        slots.append(Query(spec, metric, RefCode(0, 0, None, pinned={metric: value}), as_text=True))
    for _ in range(STREAM_GRAY):
        n = int(rng.integers(2, 6))
        slots.append(_random_query(rng, n, int(rng.integers(2, 2 * n)), "lee", kind="gray", as_text=True))
    for i in range(STREAM_RANDOM):
        n = 3 + i % 6
        bits = int(rng.integers(2, min(2 * n - 1, 11)))
        slots.append(_random_query(rng, n, bits, METRICS[int(rng.integers(4))], as_text=True))
    order = rng.permutation(len(slots))
    queries = [slots[i] for i in order]
    for i, q in enumerate(queries):
        q.bounds = i % BOUNDS_EVERY == BOUNDS_EVERY - 1
        if q.spec[0] == "matrix":
            q.text = matrix_text(2, q.ref.rows)
    return queries


WORKLOADS = {
    w.name: w
    for w in (
        Workload("syndrome-scan",
                 "exhaustive ambient scans at threads=1: macdonald_alpha(2,1) and random n=11-12 codes",
                 1, _syndrome_batch, single_batch=True, tail_pct=None),
        Workload("syndrome-scan-t2",
                 "the syndrome-scan queries at threads=2: process pool partition, merge and per-worker tables",
                 2, _syndrome_batch, single_batch=True, tail_pct=None),
        Workload("bfs-shallow",
                 "long codes with few cosets: auto dispatch to the weight-ordered search, no ambient scan",
                 1, _bfs_batch, single_batch=False, tail_pct=80, min_batches=2),
        Workload("query-stream",
                 "thousands of small text requests with repeats: per-call parse, dual and dispatch overhead",
                 1, _stream_batch, single_batch=False, tail_pct=99, min_batches=4),
    )
}


# --- set-up and serving --------------------------------------------------------

def set_up(queries: list[Query], mc, built: dict | None = None) -> dict:
    """Build every code the queries use that ``built`` lacks, with the dual each
    query needs.

    Requests that carry a matrix as text are built per request instead; only
    the text of a family instance is made here.
    """
    built = {} if built is None else built
    for q in queries:
        if q.spec in built or (q.as_text and q.spec[0] == "matrix"):
            continue
        code = build(q.spec, mc)
        if q.as_text:
            built[q.spec] = mc.linalg.format_generator_file(code)
        else:
            code.dual()
            built[q.spec] = code
    return built


def attach(queries: list[Query], built: dict) -> None:
    """Fill in request texts and reference certificates that come from set-up."""
    for q in queries:
        ref = q.ref
        if q.as_text and q.text is None:
            q.text = built[q.spec]
        if ref.rows is not None or ref.parity is not None:
            continue
        if q.as_text:
            ref.s, ref.rows = parse_matrix(q.text)
            ref.n = ref.rows.shape[1]
        elif q.spec[0] == "family" and q.spec[3]:
            # the dual of a family code: its parity check is the family's own generator
            parent = built[q.spec].dual()
            ref.n, ref.parity = parent.n, np.array(parent.rows, dtype=np.int64)
        else:
            code = built[q.spec]
            ref.n, ref.rows = code.n, np.array(code.rows, dtype=np.int64)


def serve(q: Query, built: dict, threads: int, mc):
    """Answer one request through modcover's public API."""
    code = mc.linalg.parse_generator_file(q.text) if q.as_text else built[q.spec]
    if q.kind == "gray":
        words = mc.linalg.enumerate_codewords(code).words
        report = mc.covering.covering_radius_of_set(gray_image(words), mc.ring.Z2,
                                                    mc.ring.WeightMetric.HAMMING, threads=threads)
    else:
        report = mc.covering.covering_radius(code, mc.ring.WeightMetric(q.metric), threads=threads)
    bounds = mc.covering.bound_report(code, threads=threads) if q.bounds else None
    return report, bounds
