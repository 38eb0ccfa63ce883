import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from naifslab import (
    MetricError,
    PointCloud,
    Potential,
    SpaceSpec,
    build_cloud,
    distance,
    eval_potential,
    materialize_potential,
    sup_norm,
)
from naifslab.space import eval_potential_batch, paired_distances, pairwise_distances
from oracles import oracle_cylinder_distance


def test_interval_grid_points():
    cloud = build_cloud(SpaceSpec("interval_grid", 5))
    assert cloud.points == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_symbolic_enumeration():
    cloud = build_cloud(SpaceSpec("symbolic_depth", 2, alphabet_size=2))
    assert cloud.points == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_finite_explicit_two_points():
    cloud = build_cloud(SpaceSpec("finite_explicit", distance_matrix=((0.0, 1.0), (1.0, 0.0))))
    assert len(cloud) == 2
    assert distance(cloud, 0, 1) == 1.0


def test_interval_distance():
    cloud = build_cloud(SpaceSpec("interval_grid", 11))
    assert distance(cloud, 0.2, 0.7) == pytest.approx(0.5)


def test_circle_wraparound():
    cloud = build_cloud(SpaceSpec("circle_grid", 10))
    assert distance(cloud, 0.1, 0.9) == pytest.approx(0.2)
    assert distance(cloud, 0.9, 0.1) == pytest.approx(0.2)


def test_symbolic_first_disagreement():
    cloud = build_cloud(SpaceSpec("symbolic_depth", 3, alphabet_size=2))
    assert distance(cloud, (0, 1, 0), (0, 1, 1)) == 0.25
    assert distance(cloud, (0, 1, 0), (0, 1, 0)) == 0.0
    # shorter orbit words compare on the common prefix
    assert distance(cloud, (0, 1), (0, 1, 1)) == 0.0


def test_resolution_out_of_range():
    with pytest.raises(ValueError):
        SpaceSpec("interval_grid", 1)
    with pytest.raises(ValueError):
        SpaceSpec("symbolic_depth", 3, alphabet_size=1)


@pytest.mark.parametrize(
    "matrix, fragment",
    [
        ([[0.0, 1.0], [2.0, 0.0]], "symmetric"),
        ([[0.1, 1.0], [1.0, 0.0]], "diagonal"),
        ([[0.0, 0.0], [0.0, 0.0]], "positive"),
        ([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]], "triangle"),
    ],
)
def test_invalid_matrix_names_axiom(matrix, fragment):
    with pytest.raises(MetricError, match=fragment):
        SpaceSpec("finite_explicit", distance_matrix=tuple(tuple(r) for r in matrix))


@given(st.integers(2, 40), st.integers(0, 10_000))
def test_metric_axioms_on_grids(n, salt):
    cloud = build_cloud(SpaceSpec("circle_grid", n))
    pts = cloud.points
    rng = np.random.default_rng(salt)
    idx = rng.integers(0, n, size=(20, 3))
    for i, j, k in idx:
        x, y, z = pts[i], pts[j], pts[k]
        assert distance(cloud, x, y) == distance(cloud, y, x)
        assert distance(cloud, x, z) <= distance(cloud, x, y) + distance(cloud, y, z) + 1e-12
        if i != j:
            assert distance(cloud, x, y) > 0


def test_potential_examples():
    assert eval_potential(Potential("constant", (0.3,)), 0.9) == 0.3
    assert eval_potential(Potential("coordinate_affine", (2.0, -1.0)), 0.75) == pytest.approx(0.5)
    table = Potential("first_symbol_table", (0.0, math.log(2)))
    assert eval_potential(table, (1, 0, 1, 1)) == pytest.approx(math.log(2))


def test_piecewise_linear_interpolates():
    pot = Potential("piecewise_linear", (0.0, 1.0, 0.0))
    assert eval_potential(pot, 0.0) == 0.0
    assert eval_potential(pot, 0.5) == 1.0
    assert eval_potential(pot, 0.25) == pytest.approx(0.5)


def test_explicit_table_missing_entry():
    pot = Potential("explicit_table", (0.1, 0.2))
    assert eval_potential(pot, 1) == pytest.approx(0.2)
    with pytest.raises(KeyError):
        eval_potential(pot, 5)
    mapping = Potential("explicit_table", {0.0: 1.0, 0.5: 2.0})
    with pytest.raises(KeyError):
        eval_potential(mapping, 0.25)


def test_sup_norm_is_max_abs():
    cloud = build_cloud(SpaceSpec("interval_grid", 5))
    pot = Potential("coordinate_affine", (2.0, -1.0))
    assert sup_norm(cloud.space, pot, cloud.points) == pytest.approx(1.0)


def test_materialize_matches_function():
    cloud = build_cloud(SpaceSpec("interval_grid", 5))
    pot = materialize_potential(cloud.space, cloud.points, lambda x: x * x)
    assert eval_potential(pot, 0.5) == pytest.approx(0.25)
    vals = eval_potential_batch(cloud.space, pot, cloud.batch())
    assert vals == pytest.approx([0.0, 0.0625, 0.25, 0.5625, 1.0])


def test_vectorized_symbolic_table_lookup():
    cloud = build_cloud(SpaceSpec("symbolic_depth", 3, alphabet_size=2))
    pot = materialize_potential(cloud.space, cloud.points, lambda w: float(sum(w)))
    vals = eval_potential_batch(cloud.space, pot, cloud.batch())
    assert list(vals) == [float(sum(w)) for w in cloud.points]
    with pytest.raises(KeyError):
        eval_potential_batch(cloud.space, pot, np.array([[0, 0]], dtype=np.int8))


def test_pairwise_matches_scalar_on_symbolic():
    cloud = build_cloud(SpaceSpec("symbolic_depth", 4, alphabet_size=3))
    batch = cloud.batch()[:10]
    mat = pairwise_distances(cloud, batch, batch)
    for i in range(10):
        for j in range(10):
            assert mat[i, j] == distance(cloud, cloud.points[i], cloud.points[j])


@settings(max_examples=100)
@given(st.integers(2, 4), st.integers(1, 64), st.data())
def test_cylinder_distances_match_oracle(alphabet, depth, data):
    # words share random-length prefixes of one base word, so every first
    # differing position, deep chunks included, gets drawn
    symbols = st.lists(st.integers(0, alphabet - 1), min_size=depth, max_size=depth)
    base = data.draw(symbols)
    words = []
    for _ in range(data.draw(st.integers(1, 5))):
        k = data.draw(st.integers(0, depth))
        words.append(tuple(base[:k] + data.draw(symbols)[k:]))
    cloud = PointCloud(points=tuple(words), space=SpaceSpec("symbolic_depth", 2, alphabet_size=alphabet))
    batch = cloud.batch()
    mat = pairwise_distances(cloud, batch, batch)
    paired = paired_distances(cloud, batch, batch[::-1])
    for i, x in enumerate(words):
        for j, y in enumerate(words):
            assert mat[i, j] == oracle_cylinder_distance(x, y)
        assert paired[i] == oracle_cylinder_distance(x, words[-1 - i])
