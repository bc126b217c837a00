import itertools

import numpy as np
import pytest

from modcover.ring import (
    RingSpec,
    WeightMetric,
    Z2,
    Z4,
    ZqVector,
    distance,
    format_vector,
    gray_map,
    homogeneous_weight,
    parse_vector,
    weight,
)

M = WeightMetric


def test_ring_spec_validation():
    assert RingSpec(3).modulus == 8
    with pytest.raises(ValueError):
        RingSpec(0)


def test_homogeneous_weight_elements():
    assert homogeneous_weight(2, Z4) == 2
    assert homogeneous_weight(0, RingSpec(3)) == 0
    assert homogeneous_weight(3, RingSpec(3)) == 2
    assert homogeneous_weight(4, RingSpec(3)) == 4
    with pytest.raises(ValueError):
        homogeneous_weight(4, Z4)


def test_homogeneous_collapses_to_hamming_at_s1():
    for x in range(2):
        assert homogeneous_weight(x, Z2) == (x != 0)


def test_weight_examples():
    assert weight(ZqVector(Z4, (0, 1, 2, 3)), M.LEE) == 4
    for metric in M:
        assert weight(ZqVector(Z4, (0, 0, 0)), metric) == 0
    assert weight(ZqVector(Z4, (1, 2)), M.EUCLIDEAN) == 5


def test_lee_rejected_beyond_z4():
    with pytest.raises(ValueError):
        weight(ZqVector(RingSpec(3), (1,)), M.LEE)


def test_all_metrics_coincide_at_s1():
    for x in range(2):
        v = ZqVector(Z2, (x,))
        values = {weight(v, metric) for metric in M}
        assert values == {weight(v, M.HAMMING)}


def test_homogeneous_equals_lee_on_z4():
    for x in range(4):
        v = ZqVector(Z4, (x,))
        assert weight(v, M.HOMOGENEOUS) == weight(v, M.LEE)


def test_distance_examples():
    assert distance(ZqVector(Z4, (1, 1)), ZqVector(Z4, (1, 1)), M.LEE) == 0
    assert distance(ZqVector(Z4, (0, 0)), ZqVector(Z4, (2, 2)), M.EUCLIDEAN) == 8
    assert distance(ZqVector(Z4, (3, 0)), ZqVector(Z4, (1, 1)), M.LEE) == 3


def test_distance_errors():
    with pytest.raises(ValueError):
        distance(ZqVector(Z4, (1,)), ZqVector(Z4, (1, 1)), M.LEE)
    with pytest.raises(ValueError):
        distance(ZqVector(Z4, (1,)), ZqVector(Z2, (1,)), M.HAMMING)


def test_gray_map_table():
    assert gray_map(ZqVector(Z4, (2,))).coords == (1, 1)
    assert gray_map(ZqVector(Z4, (0, 0))).coords == (0, 0, 0, 0)
    assert gray_map(ZqVector(Z4, (1, 3))).coords == (0, 1, 1, 0)
    with pytest.raises(ValueError):
        gray_map(ZqVector(Z2, (1,)))


def test_gray_isometry_exhaustive():
    # Hamming distance between images equals Lee distance between preimages.
    for u in itertools.product(range(4), repeat=2):
        for v in itertools.product(range(4), repeat=2):
            lu, lv = ZqVector(Z4, u), ZqVector(Z4, v)
            assert distance(lu, lv, M.LEE) == distance(gray_map(lu), gray_map(lv), M.HAMMING)


@pytest.mark.parametrize("metric", [M.HAMMING, M.LEE, M.HOMOGENEOUS])
def test_triangle_inequality_exhaustive(metric):
    table = metric.element_weights(Z4).astype(np.int64)
    n = 3
    vectors = np.array(list(itertools.product(range(4), repeat=n)), dtype=np.int64)
    diff = (vectors[:, None, :] - vectors[None, :, :]) % 4
    dist = table[diff].sum(axis=2)
    # dist[u, w] <= dist[u, v] + dist[v, w] over all 64^3 triples
    assert np.all(dist[:, None, :] <= dist[:, :, None] + dist[None, :, :])


def test_euclidean_symmetry_and_identity():
    vectors = [ZqVector(Z4, c) for c in itertools.product(range(4), repeat=2)]
    for u in vectors:
        assert distance(u, u, M.EUCLIDEAN) == 0
        for v in vectors:
            assert distance(u, v, M.EUCLIDEAN) == distance(v, u, M.EUCLIDEAN)


def test_vector_text_format():
    v = parse_vector("0 1 2 3", Z4)
    assert v.coords == (0, 1, 2, 3)
    assert format_vector(v) == "0 1 2 3"
    with pytest.raises(ValueError):
        parse_vector("0 4", Z4)
    with pytest.raises(ValueError):
        parse_vector("0 x", Z4)
