from collections import Counter

import numpy as np
import pytest

import oracles
from modcover.families import (
    block_repetition,
    field_repetition_radius_formula,
    macdonald_alpha,
    macdonald_beta,
    repetition_alpha,
    repetition_beta,
    simplex_alpha,
    simplex_alpha_matrix,
    simplex_beta,
    simplex_beta_matrix,
)
from modcover.linalg import enumerate_codewords
from modcover.ring import WeightMetric


def lee_weights_of(code):
    words = enumerate_codewords(code).words
    table = WeightMetric.LEE.element_weights(code.ring)
    nz = words[np.any(words, axis=1)]
    return sorted({int(w) for w in table[nz].sum(axis=1)})


def test_repetition_alpha():
    assert enumerate_codewords(repetition_alpha(1)).as_tuples() == {(0,), (2,)}
    code = repetition_alpha(2)
    assert enumerate_codewords(code).as_tuples() == {(0, 0), (2, 2)}
    assert code.family_info.measured["d_lee"] == 4
    assert repetition_alpha(3).size == 2
    with pytest.raises(ValueError):
        repetition_alpha(0)


def test_repetition_beta():
    assert enumerate_codewords(repetition_beta(1)).as_tuples() == {(0,), (1,), (2,), (3,)}
    code = repetition_beta(2)
    assert enumerate_codewords(code).as_tuples() == {(0, 0), (1, 1), (2, 2), (3, 3)}
    assert code.family_info.measured["d_lee"] == 2
    code = repetition_beta(4)
    assert code.size == 4
    assert code.family_info.measured["d_lee"] == 4


def test_block_repetition_shapes():
    code = block_repetition(1, 1, 1)
    assert code.rows.tolist() == [[1, 2, 3]]
    assert lee_weights_of(code) == [4]
    code = block_repetition(2, 2, 0)
    info = code.family_info
    assert (code.n, code.two_dimension) == (4, 2)
    assert (info.measured["d_hamming"], info.measured["d_lee"], info.measured["d_euclidean"]) == (2, 4, 8)
    with pytest.raises(ValueError):
        block_repetition(0, 1, 0)


def test_simplex_alpha_base():
    code = simplex_alpha(1)
    assert code.rows.tolist() == [[0, 1, 2, 3]]
    assert lee_weights_of(code) == [4]


def test_simplex_alpha_k2():
    code = simplex_alpha(2)
    assert code.n == 16 and code.size == 16
    assert code.family_info.measured["d_hamming"] == 8
    # constant Lee weight
    assert lee_weights_of(code) == [16]


def test_simplex_alpha_k3_constant_weight_and_audit():
    code = simplex_alpha(3)
    assert code.family_info.audited
    assert lee_weights_of(code) == [64]
    with pytest.raises(ValueError):
        simplex_alpha(5)
    assert simplex_alpha(4).family_info.audited is False


def test_simplex_beta_base():
    code = simplex_beta(2)
    assert code.rows.tolist() == [[1, 1, 1, 1, 0, 2], [0, 1, 2, 3, 1, 1]]
    assert code.family_info.measured["d_lee"] == 6
    assert lee_weights_of(code) == [6, 8]


def test_simplex_beta_k3():
    code = simplex_beta(3)
    assert code.n == 28
    assert code.two_dimension == 6
    assert code.family_info.audited
    with pytest.raises(ValueError):
        simplex_beta(1)


def test_simplex_beta_duals():
    # the dual is large but its 2-dimension and minimum Lee weight are pinned
    for k in (2, 3):
        code = simplex_beta(k)
        dual = code.dual()
        assert dual.two_dimension == 4**k - 2**k - 2 * k
        assert _min_lee_weight_by_ordered_search(dual) == 3


def _min_lee_weight_by_ordered_search(code):
    elem = [int(x) for x in WeightMetric.LEE.element_weights(code.ring)]
    for w in range(1, 2 * code.n + 1):
        for vec in oracles.iter_exact_weight(code.n, elem, w):
            if code.contains(vec):
                return w
    return None


def test_macdonald_alpha_lengths():
    code = macdonald_alpha(2, 1)
    assert code.n == 12 and code.two_dimension == 4
    code = macdonald_alpha(3, 2)
    assert code.n == 64 - 16 and code.two_dimension == 6
    with pytest.raises(ValueError):
        macdonald_alpha(2, 2)


def test_macdonald_deletion_is_structural():
    # deleted column multiset == [0-block over G_u] columns, for alpha and beta
    big = simplex_alpha_matrix(2)
    code = macdonald_alpha(2, 1)
    small = simplex_alpha_matrix(1)
    block = np.vstack([np.zeros((1, 4), dtype=np.int64), small])
    before = Counter(tuple(c) for c in big.T)
    after = Counter(tuple(c) for c in code.rows.T)
    deleted = before - after
    assert deleted == Counter(tuple(c) for c in block.T)


def test_macdonald_beta():
    code = macdonald_beta(3, 2)
    assert code.n == (4 - 2) * (8 + 4 - 1)
    assert code.two_dimension == 6
    with pytest.raises(ValueError):
        macdonald_beta(2, 1)
    code = macdonald_beta(2, 1, allow_u1=True)
    assert code.n == 5 and code.two_dimension == 4
    assert sorted(code.rows.tolist()) == [[0, 1, 2, 3, 1], [1, 1, 1, 1, 2]]


def test_macdonald_freeness():
    # 2-dimension 2k means |C| = 4^k: the constructions stay free in budget
    for k, u in ((2, 1), (3, 1), (3, 2)):
        assert macdonald_alpha(k, u).size == 4**k
        assert macdonald_beta(k, u, allow_u1=True).size == 4**k


def test_parameter_audit_against_oracle():
    # independent re-measurement of the declared tuples for a few instances
    for code in (repetition_alpha(3), repetition_beta(3), block_repetition(2, 1, 1), simplex_beta(2)):
        words = oracles.span(code.rows.tolist(), code.n)
        info = code.family_info
        for key, table in (("d_hamming", oracles.HAMMING), ("d_lee", oracles.LEE), ("d_euclidean", oracles.EUCLIDEAN)):
            nonzero = [w for w in words if any(w)]
            assert info.measured[key] == min(oracles.vec_weight(w, table) for w in nonzero)


def test_field_formula():
    assert [field_repetition_radius_formula(n, 2) for n in range(1, 7)] == [1, 1, 2, 2, 3, 3]
    assert field_repetition_radius_formula(4, 3) == 3
