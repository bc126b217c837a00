import itertools
import tracemalloc

import numpy as np
import pytest

import oracles
from modcover.linalg import (
    LinearCode,
    dual_code,
    enumerate_codewords,
    format_generator_file,
    is_self_orthogonal,
    parse_generator_file,
    residue_code,
    standard_form,
    torsion_code,
    two_basis,
)
from modcover.ring import BudgetExceededError, RingSpec, Z2, Z4


def words_of(code):
    return enumerate_codewords(code).as_tuples()


def test_standard_form_zero_divisor_row():
    code = LinearCode(Z4, 1, [[2]])
    assert code.block_sizes == (0, 1)
    assert code.two_dimension == 1


def test_standard_form_already_standard():
    code = LinearCode(Z4, 2, [[1, 1], [0, 2]])
    assert code.block_sizes == (1, 1)
    assert code.std.matrix.tolist() == [[1, 1], [0, 2]]
    assert code.std.perm == (0, 1)


def test_standard_form_needs_column_swap():
    code = LinearCode(Z4, 2, [[2, 1]])
    assert code.block_sizes == (1, 0)
    assert code.std.perm == (1, 0)
    # permuted row space must match: apply the permutation to the original span
    original = oracles.span([[2, 1]], 2)
    permuted = {tuple(w[p] for p in code.std.perm) for w in original}
    spanned = {tuple(r) for r in oracles.span(code.std.matrix.tolist(), 2)}
    assert permuted == spanned


@pytest.mark.parametrize("seed", range(12))
def test_standard_form_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    rows = rng.integers(0, 4, size=(int(rng.integers(1, 4)), n))
    code = LinearCode(Z4, n, rows)
    original = {tuple(w) for w in oracles.span(rows.tolist(), n)}
    permuted = {tuple(w[p] for p in code.std.perm) for w in original}
    spanned = {tuple(w) for w in oracles.span(code.std.matrix.tolist(), n)}
    assert permuted == spanned
    assert len(original) == code.size


def test_two_basis_examples():
    assert two_basis(LinearCode(Z4, 1, [[1]])).tolist() == [[1], [2]]
    assert two_basis(LinearCode(Z4, 1, [[2]])).tolist() == [[2]]
    from modcover.families import simplex_alpha

    assert simplex_alpha(1).two_dimension == 2


def test_two_basis_property():
    # doubling any basis row lands in the binary span of the later rows
    for rows in ([[1, 1], [0, 2]], [[1, 2, 3]], [[2, 1], [1, 3]]):
        code = LinearCode(Z4, len(rows[0]), rows)
        basis = two_basis(code)
        k = len(basis)
        assert k == code.two_dimension
        for i in range(k):
            doubled = tuple((2 * basis[i]) % 4)
            later = {
                tuple(sum(c * r[j] for c, r in zip(eps, basis[i + 1 :])) % 4 for j in range(code.n))
                for eps in itertools.product(range(2), repeat=k - i - 1)
            }
            assert doubled in later


def test_enumerate_codewords_examples():
    assert words_of(LinearCode(Z4, 2, [[1, 1]])) == {(0, 0), (1, 1), (2, 2), (3, 3)}
    assert words_of(LinearCode(Z4, 2, [])) == {(0, 0)}
    code = LinearCode(Z4, 3, [[1, 2, 0], [0, 1, 1]])
    assert len(words_of(code)) == code.size


def test_enumerate_codewords_budget():
    code = LinearCode(Z4, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(BudgetExceededError):
        enumerate_codewords(code, budget_k=5)


def test_dual_examples():
    dual = dual_code(LinearCode(Z4, 2, [[1, 1]]))
    assert words_of(dual) == {(0, 0), (1, 3), (2, 2), (3, 1)}
    full = LinearCode(Z4, 2, [[1, 0], [0, 1]])
    assert words_of(dual_code(full)) == {(0, 0)}
    from modcover.families import simplex_alpha

    d = dual_code(simplex_alpha(1))
    assert d.two_dimension == 2 ** (2 * 1 + 1) - 2 * 1


@pytest.mark.parametrize("seed", range(10))
def test_dual_matches_bruteforce_and_involutes(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 6))
    rows = rng.integers(0, 4, size=(int(rng.integers(1, 4)), n))
    code = LinearCode(Z4, n, rows)
    dual = dual_code(code)
    assert words_of(dual) == set(oracles.dual_words(rows.tolist(), n))
    assert words_of(dual_code(dual)) == words_of(code)
    assert code.size * dual.size == 4**n


def test_dual_binary():
    code = LinearCode(Z2, 3, [[1, 1, 0]])
    dual = dual_code(code)
    assert code.two_dimension + dual.two_dimension == 3
    assert words_of(dual) == set(oracles.dual_words(code.rows.tolist(), 3, m=2))


def test_residue_code():
    assert words_of(residue_code(LinearCode(Z4, 2, [[2, 2]]))) == {(0, 0)}
    assert words_of(residue_code(LinearCode(Z4, 2, [[1, 1]]))) == {(0, 0), (1, 1)}
    assert words_of(residue_code(LinearCode(Z4, 2, [[1, 2], [2, 0]]))) == {(0, 0), (1, 0)}
    with pytest.raises(ValueError):
        residue_code(LinearCode(Z2, 1, [[1]]))


def test_torsion_code():
    assert words_of(torsion_code(LinearCode(Z4, 1, [[2]]))) == {(0,), (1,)}
    assert words_of(torsion_code(LinearCode(Z4, 1, []))) == {(0,)}
    assert words_of(torsion_code(LinearCode(Z4, 2, [[1, 1]]))) == {(0, 0), (1, 1)}


@pytest.mark.parametrize("seed", range(6))
def test_torsion_matches_definition(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(1, 5))
    rows = rng.integers(0, 4, size=(int(rng.integers(1, 3)), n))
    code = LinearCode(Z4, n, rows)
    code_words = {tuple(w) for w in oracles.span(rows.tolist(), n)}
    expected = {
        c
        for c in itertools.product(range(2), repeat=n)
        if tuple(2 * x % 4 for x in c) in code_words
    }
    assert words_of(torsion_code(code)) == expected


def test_self_orthogonality():
    assert is_self_orthogonal(LinearCode(Z4, 2, [[2, 2]]))
    assert not is_self_orthogonal(LinearCode(Z4, 2, [[1, 0]]))
    assert is_self_orthogonal(LinearCode(Z4, 1, []))


def test_generator_file_round_trip():
    code = LinearCode(Z4, 3, [[1, 2, 3], [0, 2, 0]])
    text = format_generator_file(code)
    assert text.splitlines()[0] == "2 3"
    back = parse_generator_file(text)
    assert back.ring == Z4 and back.n == 3
    assert np.array_equal(back.rows, code.rows)


@pytest.mark.parametrize(
    "bad",
    ["", "2\n1 2", "2 2\n1 4", "2 2\n1", "x 2\n0 0", "2 2\n1 y"],
)
def test_generator_file_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_generator_file(bad)


def test_rows_out_of_range_rejected():
    with pytest.raises(ValueError):
        LinearCode(Z4, 2, [[4, 0]])


def test_generator_file_rejects_huge_ring_exponent():
    # rejected from the header alone, before any 2^s table exists
    with pytest.raises(ValueError, match="exceeds the supported maximum 16"):
        parse_generator_file("40 1\n0\n")
    assert parse_generator_file("16 1\n0\n").ring == RingSpec(16)


def _dual_form_cases():
    rng = np.random.default_rng(400)
    for s in (1, 2, 3, 4):
        ring = RingSpec(s)
        yield LinearCode(ring, 3, [])
        yield LinearCode(ring, 3, [[0, 0, 0]])
        yield LinearCode(ring, 3, np.eye(3, dtype=np.int64))
        yield LinearCode(ring, 2, [[1 << (s - 1), 0], [0, 1]])
        for _ in range(3):  # one row per level: torsion pivots of every level
            rows = [rng.integers(0, ring.modulus, size=s + 1) << v & (ring.modulus - 1) for v in range(s)]
            yield LinearCode(ring, s + 1, rows)
        for _ in range(10):
            n = int(rng.integers(1, 6 if s <= 2 else 5))  # at most 2^16 dual words
            rows = rng.integers(0, ring.modulus, size=(int(rng.integers(1, 5)), n))
            yield LinearCode(ring, n, rows << int(rng.integers(0, s)) & (ring.modulus - 1))


def _dual_rows_one_by_one(code):
    """Reference: back-substitute each dual generator on its own, free ones
    first, then torsion ones by ascending pivot, in the original columns."""
    s, n, std = code.ring.s, code.n, code.std
    K = len(std.levels)
    units = [[int(x) >> v for x in row] for row, v in zip(std.matrix, std.levels)]

    def solve(x, top):
        for i in range(top, -1, -1):
            acc = sum(units[i][j] * x[j] for j in range(i + 1, n))
            x[i] = -acc % (1 << (s - std.levels[i]))
        return x

    gens = [solve([int(j == f) for j in range(n)], K - 1) for f in range(K, n)]
    for i, v in enumerate(std.levels):
        if v:
            gens.append(solve([(1 << (s - v)) * (j == i) for j in range(n)], i - 1))
    out = [[0] * n for _ in gens]
    for g, row in zip(gens, out):
        for j, p in enumerate(std.perm):
            row[p] = g[j]
    return out


@pytest.mark.parametrize("code", list(_dual_form_cases()))
def test_dual_standard_form_comes_from_the_solve(code):
    # the dual's form is built without reducing its rows; reducing it again
    # must change nothing, and it must describe the same code as its rows
    s = code.ring.s
    dual = dual_code(code)
    again = standard_form(dual.std.matrix, s)
    assert np.array_equal(again.matrix, dual.std.matrix)
    assert again.perm == tuple(range(code.n))
    assert again.levels == dual.std.levels
    assert dual.std.block_sizes == standard_form(dual.rows, s).block_sizes
    assert dual.rows.tolist() == _dual_rows_one_by_one(code)
    assert words_of(dual) == words_of(LinearCode(code.ring, code.n, dual.rows))
    assert code.dual().dual() is code


@pytest.mark.parametrize("text", ["2 100000000\n", "2 4097\n", "2 1\n" + "0\n" * 4097])
def test_generator_file_rejects_huge_lengths_before_allocating(text):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="supported"):
            parse_generator_file(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert parse_generator_file("2 4096\n").n == 4096
