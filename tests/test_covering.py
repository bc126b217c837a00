import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from modcover.covering import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    SearchBudget,
    _syndrome_map,
    _working_set_bytes,
    bound_report,
    coset_leader_table,
    coset_weight_distribution,
    covering_radius,
    covering_radius_bfs,
    covering_radius_direct,
    covering_radius_of_set,
    covering_radius_syndrome,
    delsarte_bound,
    mattson_stack,
    sphere_covering_lower_bound,
)
from modcover.families import repetition_alpha, repetition_beta, simplex_alpha, simplex_beta
from modcover.linalg import LinearCode, enumerate_codewords, parse_generator_file
from modcover.ring import RingSpec, WeightMetric, Z2, Z4

M = WeightMetric
Z8 = RingSpec(3)
FULL2 = LinearCode(Z4, 2, [[1, 0], [0, 1]])


def random_code(rng, max_n=5, max_rows=3):
    n = int(rng.integers(1, max_n + 1))
    rows = rng.integers(0, 4, size=(int(rng.integers(1, max_rows + 1)), n))
    return LinearCode(Z4, n, rows)


def test_direct_examples():
    assert covering_radius_direct(FULL2, M.LEE).value == 0
    assert covering_radius_direct(repetition_alpha(2), M.LEE).value == 2
    assert covering_radius_direct(repetition_beta(4), M.EUCLIDEAN).value == 6


def test_syndrome_examples():
    assert covering_radius_syndrome(simplex_alpha(1), M.LEE).value == 5
    assert covering_radius_syndrome(simplex_alpha(1), M.EUCLIDEAN).value == 8
    zero = LinearCode(Z4, 1, [])
    assert covering_radius_syndrome(zero, M.LEE).value == 2


def test_bfs_examples():
    assert covering_radius_bfs(simplex_alpha(2).dual(), M.LEE, 3).value == 1
    assert covering_radius_bfs(simplex_beta(2).dual(), M.LEE, 3).value == 2
    assert covering_radius_bfs(FULL2, M.LEE, 0).value == 0


def test_bfs_interval_when_cap_too_small():
    report = covering_radius_bfs(repetition_alpha(3), M.LEE, 1)
    assert not report.exact
    assert (report.lo, report.hi) == (2, None)


@pytest.mark.parametrize("seed", range(25))
def test_engines_match_oracle(seed):
    rng = np.random.default_rng(seed)
    code = random_code(rng, max_n=4)
    words = oracles.span(code.rows.tolist(), code.n)
    for metric in M:
        want, witness = oracles.covering_radius(words, code.n, oracles.TABLES[metric.value])
        direct = covering_radius_direct(code, metric)
        syndrome = covering_radius_syndrome(code, metric)
        bfs = covering_radius_bfs(code, metric, 4 * code.n)
        assert direct.value == syndrome.value == bfs.value == want
        assert direct.witness == syndrome.witness == witness


def test_witness_attains_radius():
    report = covering_radius_direct(simplex_beta(2), M.LEE)
    words = enumerate_codewords(simplex_beta(2)).words
    table = M.LEE.element_weights(Z4).astype(np.int64)
    dists = table[(np.array(report.witness) - words) % 4].sum(axis=1)
    assert int(dists.min()) == report.value == 5


def test_direct_on_plain_word_set():
    # non-linear sets are fine for the direct engine
    words = np.array([[0, 0], [1, 2]], dtype=np.uint8)
    report = covering_radius_of_set(words, Z4, M.LEE)
    want, _ = oracles.covering_radius([(0, 0), (1, 2)], 2, oracles.LEE)
    assert report.value == want


def test_direct_budget_error_suggests_alternative():
    with pytest.raises(BudgetExceededError, match="syndrome"):
        covering_radius_direct(repetition_alpha(4), M.LEE, budget=SearchBudget(direct_evals=10))


def test_syndrome_budget_errors():
    # the witness pass works in blocks of bounded size: beyond the two weight
    # tables and the column keys, the working set does not grow with the cosets
    lee = M.LEE.element_weights(Z4)
    for n in (4, 8, 12):  # 2^6, 2^14 and 2^22 cosets
        code = repetition_alpha(n)
        tables = 2 * (4**n // code.size)
        assert _working_set_bytes(code, lee) - tables - (3 * 8 * n << 2) <= 1 << 20
    code = repetition_alpha(4)
    exact = SearchBudget(table_bytes=_working_set_bytes(code, lee))
    assert coset_leader_table(code, M.LEE, budget=exact).weights.max() == 4
    assert covering_radius_syndrome(code, M.LEE, budget=exact).value == 4
    short = SearchBudget(table_bytes=exact.table_bytes - 1)
    for witness in (True, False):
        with pytest.raises(BudgetExceededError):
            covering_radius_syndrome(code, M.LEE, budget=short, witness=witness)
    with pytest.raises(BudgetExceededError):
        covering_radius_syndrome(repetition_alpha(6), M.LEE, budget=SearchBudget(table_bytes=10))


def test_table_bytes_budget_raises_before_allocating():
    code = repetition_alpha(10)  # 2^18 cosets: 512 KiB of weight tables
    small = SearchBudget(table_bytes=1 << 16)
    tracemalloc.start()
    try:
        for call in (
            lambda: coset_leader_table(code, M.LEE, budget=small),
            lambda: covering_radius_syndrome(code, M.EUCLIDEAN, budget=small),
            lambda: covering_radius_bfs(code, M.LEE, 20, budget=small),
        ):
            with pytest.raises(BudgetExceededError, match="bytes"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_auto_falls_back_to_direct_when_table_bytes_do_not_fit():
    code = repetition_alpha(6)
    report = covering_radius(code, M.LEE, budget=SearchBudget(table_bytes=1 << 10))
    assert report.method == "direct"
    exact = covering_radius_syndrome(code, M.LEE)
    assert report.value == exact.value == 6
    assert report.witness == exact.witness


def test_default_budget_fits_simplex_alpha_2_by_arithmetic():
    code = simplex_alpha(2)  # n = 16, 2^28 cosets
    assert code.ring.s * code.n - code.two_dimension == 28
    for metric in M:
        need = _working_set_bytes(code, metric.element_weights(Z4))
        assert need <= DEFAULT_BUDGET.table_bytes
        assert need < 0.51 * 2**30  # two one-byte tables of 2^28 cosets, and blocks


def test_auto_dispatch_degrades_to_bounds():
    # an infeasible instance still yields a sound interval, never a wrong exact
    code = LinearCode(Z4, 14, [[1] * 14])
    tiny = SearchBudget(direct_evals=10, table_bytes=10)
    report = covering_radius(code, M.LEE, budget=tiny)
    assert not report.exact
    assert report.method == "bound_only"
    assert report.lo == sphere_covering_lower_bound(14, 4, 2)


def test_bound_only_interval_contains_the_radius_in_every_metric():
    # the sphere and Delsarte bounds are in homogeneous units: the zero code of
    # length 1 has Hamming radius 1 (sphere bound 2) and Euclidean radius 4
    # (Delsarte bound 2), so each bound is kept only where it holds
    tiny = SearchBudget(direct_evals=1, table_bytes=1)
    for ring, n in ((Z2, 3), (Z4, 1), (Z4, 2), (Z8, 1), (Z8, 2)):
        code = LinearCode(ring, n, [])
        for metric in M:
            if metric is M.LEE and ring.s > 2:
                continue
            report = covering_radius(code, metric, budget=tiny)
            assert report.method == "bound_only"
            exact = covering_radius_syndrome(code, metric).value
            assert report.lo <= exact and (report.hi is None or exact <= report.hi), (ring, n, metric)


def test_auto_uses_dp_for_large_ambient_small_cosets():
    dual = simplex_alpha(2).dual()  # length 16: 4^16 ambient vectors, 16 cosets
    budget = SearchBudget(direct_evals=1 << 20)
    report = covering_radius(dual, M.LEE, budget=budget)
    assert report.exact and report.value == 1
    assert report.method == "syndrome_table"
    assert report.witness == (0,) * 15 + (1,)


def test_monotonicity_adding_rows():
    rng = np.random.default_rng(7)
    for _ in range(10):
        code = random_code(rng, max_n=4, max_rows=2)
        extra = rng.integers(0, 4, size=(1, code.n))
        bigger = LinearCode(Z4, code.n, np.vstack([code.rows, extra]))
        for metric in (M.LEE, M.EUCLIDEAN):
            assert (
                covering_radius_direct(bigger, metric).value
                <= covering_radius_direct(code, metric).value
            )


def test_sphere_covering_examples():
    assert sphere_covering_lower_bound(1, 4, 2) == 0
    assert sphere_covering_lower_bound(1, 1, 2) == 2
    assert sphere_covering_lower_bound(4, 4, 2) == 3
    with pytest.raises(ValueError):
        sphere_covering_lower_bound(0, 1, 2)


def test_sphere_covering_matches_binomial_sums():
    # reference: each ball volume summed from math.comb
    def reference(n, size, s):
        big_n, need = (1 << (s - 1)) * n, 1 << (s * n)
        return next(r for r in range(big_n + 1) if size * sum(math.comb(big_n, i) for i in range(r + 1)) >= need)

    for s in (1, 2, 3, 4):
        for n in range(1, 13):
            for k in range(0, s * n + 1, 2):
                assert sphere_covering_lower_bound(n, 1 << k, s) == reference(n, 1 << k, s), (n, k, s)


def test_delsarte_examples():
    assert delsarte_bound(simplex_alpha(1).dual()) == 1
    assert delsarte_bound(simplex_alpha(2).dual()) == 1
    assert delsarte_bound(simplex_beta(2).dual()) == 2
    assert delsarte_bound(LinearCode(Z4, 1, [[1]])) == 0


def test_delsarte_unavailable_when_dual_too_large():
    with pytest.raises(BudgetExceededError):
        delsarte_bound(simplex_alpha(2), budget_k=8)


def test_mattson_stack_examples():
    c0 = c1 = repetition_alpha(1)
    stacked = mattson_stack(c0, c1, [[0]])
    assert stacked.n == 2
    r = covering_radius_direct(stacked, M.LEE).value
    assert r == 2  # oracle value; within r(C0) + r(C1) = 1 + 1
    zero = LinearCode(Z4, 1, [])
    stacked = mattson_stack(zero, repetition_beta(2), np.zeros((0, 2), dtype=int))
    assert stacked.n == 3
    with pytest.raises(ValueError):
        mattson_stack(repetition_alpha(2), repetition_beta(2), [[0]])


def test_coset_weight_distribution_examples():
    assert coset_weight_distribution(LinearCode(Z4, 1, [[1]]), M.LEE) == {0: 1}
    dist = coset_weight_distribution(repetition_beta(2), M.LEE)
    assert max(dist) == 2
    dist = coset_weight_distribution(repetition_alpha(1), M.LEE)
    assert dist == {0: 1, 1: 1}


def test_coset_leader_table_leaders():
    # every coset's minimum weight is the brute-force distance from any of its
    # vectors to the code, and the table has one entry per coset
    for code in (repetition_alpha(2), simplex_beta(2), LinearCode(Z4, 3, [[2, 0, 2]])):
        words = oracles.span(code.rows.tolist(), code.n)
        for metric in M:
            table = coset_leader_table(code, metric)
            assert len(table.weights) == 4**code.n // len(words)
            wt = oracles.TABLES[metric.value]
            for x in itertools.product(range(4), repeat=code.n):
                want = min(oracles.vec_weight(tuple((a - b) % 4 for a, b in zip(x, c)), wt) for c in words)
                assert table.weight_of_coset(x) == want


def _random_ring_code(rng, s):
    ring = RingSpec(s)
    n = int(rng.integers(1, {1: 8, 2: 5, 3: 4}[s] + 1))
    rows = rng.integers(0, ring.modulus, size=(int(rng.integers(0, 3)), n))
    return LinearCode(ring, n, rows)


@pytest.mark.parametrize("seed", range(30))
def test_engines_match_brute_force_over_z2_z4_z8(seed):
    # value and lexicographically first deep hole, for every valid metric
    s = seed % 3 + 1
    rng = np.random.default_rng([s, seed])
    code = _random_ring_code(rng, s)
    m = code.ring.modulus
    words = oracles.span(code.rows.tolist(), code.n, m)
    for metric in M:
        if metric is M.LEE and s > 2:
            continue
        brute = covering_radius_of_set(np.array(words), code.ring, metric)
        want = oracles.covering_radius(words, code.n, oracles.weights(metric.value, m), m)
        assert (brute.value, brute.witness) == want, (code.rows, metric)
        cap = int(metric.element_weights(code.ring).max()) * code.n
        auto = covering_radius(code, metric)
        assert auto.method == "syndrome_table"
        for report in (auto, covering_radius_syndrome(code, metric), covering_radius_bfs(code, metric, cap)):
            assert (report.value, report.witness) == (brute.value, brute.witness), (code.rows, metric)
        if brute.value:
            capped = covering_radius_bfs(code, metric, brute.value - 1)
            assert (capped.lo, capped.hi, capped.value) == (brute.value, None, None)


@pytest.mark.parametrize("seed", range(24))
def test_lex_first_deep_hole_matches_oracle_over_z2_to_z16(seed):
    # generators scaled by powers of two give torsion rows, so the dual's
    # Howell form has pivots of every valuation
    s = seed % 4 + 1
    rng = np.random.default_rng([s, seed, 21])
    ring = RingSpec(s)
    n = int(rng.integers(2, {1: 8, 2: 5, 3: 3, 4: 3}[s] + 1))
    rows = rng.integers(0, ring.modulus, size=(int(rng.integers(1, 3)), n))
    rows = (rows << rng.integers(0, s, size=(len(rows), 1))) % ring.modulus
    code = LinearCode(ring, n, rows)
    words = oracles.span(code.rows.tolist(), n, ring.modulus)
    for metric in M:
        if metric is M.LEE and s > 2:
            continue
        want = oracles.covering_radius(words, n, oracles.weights(metric.value, ring.modulus), ring.modulus)
        report = covering_radius_syndrome(code, metric)
        assert (report.value, report.witness) == want, (code.rows, metric)


def test_z4_generator_2_1_needs_the_doubled_pivot_row():
    # The dual is spanned by (1, 2); its Howell form from the right needs
    # 2 * (1, 2) = (2, 0) as a second pivot row, or column 0 would look free.
    code = LinearCode(Z4, 2, [[2, 1]])
    words = oracles.span(code.rows.tolist(), 2)
    for metric in (M.LEE, M.HAMMING):
        report = covering_radius_syndrome(code, metric)
        assert report.witness == (0, 1)
        assert (report.value, report.witness) == oracles.covering_radius(words, 2, oracles.TABLES[metric.value])


@pytest.mark.parametrize(
    "s, rows",
    [
        (1, [[1, 1, 0, 1, 0, 0], [0, 1, 1, 0, 1, 0]]),
        (2, [[2, 1, 0, 3], [0, 2, 2, 0]]),
        (2, [[1, 3, 2, 0, 1], [0, 0, 0, 2, 2]]),
        (3, [[4, 2, 6], [0, 4, 0]]),
        (3, []),
        (4, [[8, 4, 2]]),
        (4, [[12, 2], [0, 8]]),
    ],
)
def test_canonical_vectors_are_coset_lex_minima(s, rows):
    # every key's canonical vector lies in its coset, is zero off the pivot
    # columns with digits below 2^e, and is the coset's brute-force lex-min
    ring = RingSpec(s)
    n = len(rows[0]) if rows else 3
    code = LinearCode(ring, n, rows)
    smap = _syndrome_map(code)
    canon = smap.canonical
    ambient = np.array(list(itertools.product(range(ring.modulus), repeat=n)))  # lexicographic order
    keys = smap.keys_of(ambient)
    _, first = np.unique(keys, return_index=True)  # the lex-min of each key's coset
    assert len(first) == smap.n_cosets == 1 << sum(canon.exponents)
    ranks = canon.rank(np.arange(smap.n_cosets))
    vectors = [canon.vector(int(r)) for r in ranks]
    assert np.array_equal(smap.keys_of(np.array(vectors)), np.arange(smap.n_cosets))
    for key, vec in enumerate(vectors):
        assert vec == tuple(ambient[first[key]]), key
        assert all(x == 0 for j, x in enumerate(vec) if j not in canon.columns)
        assert all(vec[j] < 1 << e for j, e in zip(canon.columns, canon.exponents))
    assert sorted(vectors) == [vectors[k] for k in np.argsort(ranks)]


def test_dense_deep_cosets_stay_within_the_working_set():
    # the zero code of length 5 over Z16: 15^5 of its 2^20 cosets (72%) have
    # Hamming weight 5, and the witness pass ranks them all in blocks
    code = LinearCode(RingSpec(4), 5, [])
    tracemalloc.start()
    try:
        report = covering_radius_syndrome(code, M.HAMMING)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.value, report.witness, report.deep_cosets) == (5, (1,) * 5, 15**5)
    assert peak <= _working_set_bytes(code, M.HAMMING.element_weights(code.ring))


def test_report_stats_count_the_witness_pass():
    zero = LinearCode(Z4, 1, [])  # cosets of weight 0, 1, 2, 1: one is deep
    stats = covering_radius_syndrome(zero, M.LEE).to_dict()["stats"]
    assert stats["deep_cosets"] == 1 and stats["witness_seconds"] >= 0
    assert covering_radius_syndrome(zero, M.LEE, witness=False).to_dict()["stats"]["deep_cosets"] == 0


def test_working_set_arithmetic_covers_a_wide_ring():
    # over Z_65536 the n x 2^s column keys outweigh the tables of this code's
    # 64 cosets (x_i mod 2); the arithmetic must still cover every allocation
    code = LinearCode(RingSpec(16), 6, 2 * np.eye(6, dtype=np.int64))
    tracemalloc.start()
    try:
        report = covering_radius_syndrome(code, M.EUCLIDEAN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.value, report.witness) == (6, (1,) * 6)
    assert peak <= _working_set_bytes(code, M.EUCLIDEAN.element_weights(code.ring))


@pytest.mark.parametrize("n", [3, 4])
def test_euclidean_table_over_z65536_does_not_wrap(n):
    # The Euclidean weight of 2^15 is 2^30, so a coset not yet reached holds
    # n * 2^30 + 1 and the table needs 64-bit cells from n = 3 on.  The code
    # e_1, ..., e_(n-1), 4 e_n has four cosets, x_n mod 4, of minima 0, 1, 4, 1.
    rows = [" ".join("1" if j == i else "0" for j in range(n)) for i in range(n - 1)]
    code = parse_generator_file("\n".join([f"16 {n}", *rows, " ".join(["0"] * (n - 1) + ["4"])]))
    hole = (0,) * (n - 1) + (2,)
    for method in ("auto", "syndrome", "bfs"):
        report = covering_radius(code, M.EUCLIDEAN, method)
        assert (report.method, report.value, report.witness) == ("syndrome_table", 4, hole), method
    capped = covering_radius(code, M.EUCLIDEAN, "bfs", r_cap=3)
    assert (capped.lo, capped.hi, capped.value) == (4, None, None)
    assert coset_weight_distribution(code, M.EUCLIDEAN) == {0: 1, 1: 2, 4: 1}


def test_direct_scan_over_z512_keeps_every_digit():
    # digits and words of Z_512 do not fit a byte; reduced mod 256, the vector
    # 256 would read as 0 and the Euclidean radius of the span of 256 as 255^2
    code = LinearCode(RingSpec(9), 1, [[256]])
    direct = covering_radius_direct(code, M.EUCLIDEAN)
    assert (direct.value, direct.witness) == (128**2, (128,))
    assert covering_radius_syndrome(code, M.EUCLIDEAN).value == 128**2


def test_bounds_hold_over_z8():
    rng = np.random.default_rng(8)
    assert sphere_covering_lower_bound(1, 8, 3) == 0  # the full space Z8^1
    assert delsarte_bound(LinearCode(Z8, 2, [])) is None  # its radius is 8
    for _ in range(20):
        code = _random_ring_code(rng, 3)
        exact = covering_radius_of_set(enumerate_codewords(code).words, Z8, M.HOMOGENEOUS).value
        report = bound_report(code)
        assert report.sphere_covering_lb <= exact
        assert report.delsarte_ub is None


def test_gray_transport_small():
    rng = np.random.default_rng(42)
    for _ in range(10):
        code = random_code(rng, max_n=4)
        lee = covering_radius_direct(code, M.LEE).value
        image = np.array(oracles.gray_image(sorted(enumerate_codewords(code).as_tuples())), dtype=np.uint8)
        ham = covering_radius_of_set(image, Z2, M.HAMMING).value
        assert lee == ham
