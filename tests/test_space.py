import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import naifslab
from naifslab import (
    GenerationSchedule,
    MapSpec,
    MetricError,
    PointCloud,
    Potential,
    SpaceSpec,
    Word,
    build_cloud,
    distance,
    max_separated,
)
from naifslab.space import (
    CLOUD_POINT_LIMIT,
    TILE_ELEMENTS,
    TRIANGLE_EXHAUSTIVE_LIMIT,
    Pullback,
    distance_form,
    eval_potential_batch,
    pack_words,
    paired_distances,
    pairwise_distances,
    points_to_batch,
)
from oracles import (
    cloud_points,
    compose,
    eval_potential,
    oracle_cylinder_distance,
    oracle_max_separated,
    pack_points,
    points_of,
    reference_pack_words,
)


def test_interval_grid_points():
    cloud = build_cloud(SpaceSpec("interval_grid", 5))
    assert cloud.batch.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_symbolic_enumeration():
    cloud = build_cloud(SpaceSpec("symbolic_depth", 2, alphabet_size=2))
    assert points_of(cloud) == [(0, 0), (0, 1), (1, 0), (1, 1)]


CLOUD_SPECS = [
    SpaceSpec("interval_grid", 3),
    SpaceSpec("interval_grid", 7),
    SpaceSpec("interval_grid", 1000),
    SpaceSpec("circle_grid", 10),
    SpaceSpec("circle_grid", 4096),
    SpaceSpec("symbolic_depth", 10, alphabet_size=2),
    SpaceSpec("symbolic_depth", 5, alphabet_size=3),
    SpaceSpec("symbolic_depth", 2, alphabet_size=130),
    SpaceSpec("finite_explicit", distance_matrix=((0.0, 1.0, 2.0), (1.0, 0.0, 1.5), (2.0, 1.5, 0.0))),
]


@pytest.mark.parametrize("spec", CLOUD_SPECS, ids=lambda s: f"{s.family}-{s.resolution}-{s.alphabet_size}")
def test_cloud_batch_matches_oracle_points(spec):
    batch = build_cloud(spec).batch
    expected = pack_points(spec, cloud_points(spec))
    assert batch.dtype == expected.dtype and batch.shape == expected.shape
    assert batch.tobytes() == expected.tobytes()


def test_cloud_batch_is_read_only():
    for spec in CLOUD_SPECS:
        cloud = build_cloud(spec)
        # a pickled copy of the cloud is read-only too
        for batch in (cloud.batch, pickle.loads(pickle.dumps(cloud)).batch):
            with pytest.raises(ValueError, match="read-only"):
                batch[0] = batch[-1]
    # on the circle the batch is its own distance form: that is read-only too
    cloud = build_cloud(SpaceSpec("circle_grid", 16))
    form = distance_form(cloud, cloud.batch)
    assert np.shares_memory(form, cloud.batch)
    with pytest.raises(ValueError, match="read-only"):
        form[1] = 0.5


def test_cloud_at_the_point_limit_costs_its_batch():
    # a depth-18 binary cloud is a 4.7 MB batch; rebuilding it from Python
    # point tuples cost over 100 MB of peak memory
    assert 2**18 == CLOUD_POINT_LIMIT
    code = (
        "import resource, naifslab\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "cloud = naifslab.build_cloud(naifslab.SpaceSpec('symbolic_depth', 18, 2))\n"
        "assert cloud.batch.shape == (2**18, 18)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    # the child imports the package this suite imported
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(naifslab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    # ru_maxrss is in KiB on Linux
    assert int(out.stdout) <= 20 * 1024


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


def test_wide_alphabet_symbols_fit_their_batches():
    # 130 symbols overflow int8, the batch type of alphabets up to 128
    space = SpaceSpec("symbolic_depth", 2, alphabet_size=130)
    cloud = PointCloud(space, points_to_batch(space, [(0, 129), (0, 1), (1, 129)]))
    assert distance(cloud, (0, 129), (0, 1)) == 0.5
    flip = MapSpec("symbol_substitution_table", tuple(range(129, -1, -1)))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("shift"), flip),))
    assert compose(cloud, sched, Word(1, (0,)), 1, 1, (0, 129)) == (129,)
    assert compose(cloud, sched, Word(1, (1,)), 1, 1, (0, 129)) == (129, 0)
    for w in (Word(1, (0,)), Word(1, (1,))):
        res = max_separated(cloud, sched, w, 1, 0.75)
        assert res.exact and res.lower_bound == oracle_max_separated(cloud, sched, w, 1, 0.75)


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


def test_large_matrices_sample_the_triangle_check():
    # above TRIANGLE_EXHAUSTIVE_LIMIT points the triangle check reads a fixed
    # sample of triples: a planar metric passes it, and stretching one pair
    # far past every detour through a third point fails it
    pts = np.random.default_rng(1).random((70, 2))
    dm = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    assert len(dm) > TRIANGLE_EXHAUSTIVE_LIMIT
    SpaceSpec("finite_explicit", distance_matrix=tuple(map(tuple, dm.tolist())))
    dm[0, 1] = dm[1, 0] = 10.0
    with pytest.raises(MetricError, match="triangle inequality fails on a sampled triple"):
        SpaceSpec("finite_explicit", distance_matrix=tuple(map(tuple, dm.tolist())))


@given(st.integers(2, 40), st.integers(0, 10_000))
def test_metric_axioms_on_grids(n, salt):
    cloud = build_cloud(SpaceSpec("circle_grid", n))
    pts = points_of(cloud)
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
    space = SpaceSpec("finite_explicit", distance_matrix=((0.0, 1.0), (1.0, 0.0)))
    assert eval_potential_batch(space, pot, np.array([1, 0])).tolist() == [0.2, 0.1]
    with pytest.raises(KeyError):
        eval_potential_batch(space, pot, np.array([0, 5]))
    # a table keyed by point is no potential: its keys would read as values
    with pytest.raises(TypeError, match="mapping"):
        Potential("explicit_table", {0: 0.1, 1: 0.2})


def test_a_constant_pullback_evaluates_without_applying_pi():
    # a constant reads no point: pi, which raises here, is never applied
    def refuse(batch):
        raise AssertionError("pi was applied")

    space = SpaceSpec("circle_grid", 8)
    batch = build_cloud(space).batch
    pulled = Pullback(Potential("constant", (0.25,)), space, refuse)
    assert eval_potential_batch(space, pulled, batch).tolist() == [0.25] * 8
    with pytest.raises(AssertionError, match="pi was applied"):
        eval_potential_batch(space, Pullback(Potential("coordinate_affine", (1.0, 0.0)), space, refuse), batch)


def test_vectorized_symbolic_table_lookup():
    cloud = build_cloud(SpaceSpec("symbolic_depth", 3, alphabet_size=3))
    pot = Potential("first_symbol_table", (0.5, -1.25, 2.0))
    vals = eval_potential_batch(cloud.space, pot, cloud.batch)
    assert vals.tolist() == [eval_potential(pot, w) for w in cloud_points(cloud.space)]
    with pytest.raises(ValueError, match="empty word"):
        eval_potential_batch(cloud.space, pot, cloud.batch[:, :0])


def test_pairwise_matches_scalar_on_symbolic():
    cloud = build_cloud(SpaceSpec("symbolic_depth", 4, alphabet_size=3))
    batch = cloud.batch[:10]
    mat = pairwise_distances(cloud, batch, batch)
    pts = points_of(cloud)
    for i in range(10):
        for j in range(10):
            assert mat[i, j] == distance(cloud, pts[i], pts[j])


def test_circle_distances_reduce_reals_mod_1():
    # reals outside [0, 1) name circle points too; all values here are
    # dyadic, so the arc distance is exact
    cloud = build_cloud(SpaceSpec("circle_grid", 8))
    xs = [-0.25, 0.0, 0.125, 0.5, 0.75, 1.0, 2.75]

    def arc(x, y):
        t = abs(x - y) % 1.0
        return min(t, 1.0 - t)

    pairs = [(x, y) for x in xs for y in xs]
    for x, y in pairs:
        assert distance(cloud, x, y) == arc(x, y)
    A, B = (np.array(col) for col in zip(*pairs))
    assert paired_distances(cloud, A, B).tolist() == [arc(x, y) for x, y in pairs]


def test_circle_distance_form_reuses_batches_in_range():
    # a batch already in [0, 1) is its own distance form; any other is
    # reduced mod 1 into a new array and left as it was
    cloud = build_cloud(SpaceSpec("circle_grid", 8))
    inside = np.array([0.0, 0.125, 0.5, 1.0 - 2.0**-53])
    assert distance_form(cloud, inside) is inside
    for x in (1.0, -0.25, 2.75):
        batch = np.append(inside, x)
        form = distance_form(cloud, batch)
        assert form is not batch and batch[-1] == x
        assert form.tolist() == (batch - np.floor(batch)).tolist()
        assert 0.0 <= form.min() and form.max() < 1.0


# alphabets of every symbol width from 1 to 10 bits, the widest and
# narrowest alphabet of each width among them
_PACK_ALPHABETS = st.one_of(
    st.sampled_from([3, 5, 255, 1000]),
    st.integers(1, 10).flatmap(lambda bits: st.sampled_from([(1 << (bits - 1)) + 1, 1 << bits])),
)


@settings(max_examples=150, deadline=None)
@given(_PACK_ALPHABETS, st.data())
def test_pack_words_matches_the_column_by_column_packer(alphabet, data):
    per = 52 // max(1, (alphabet - 1).bit_length())
    # no word, one symbol, a chunk's room less one, exactly, plus one, and several chunks
    depth = data.draw(st.sampled_from([0, 1, per - 1, per, per + 1, 2 * per + 1, 3 * per]), label="depth")
    rows = max(1, TILE_ELEMENTS // max(1, depth))
    n = data.draw(st.one_of(st.integers(0, 3), st.sampled_from([rows - 1, rows, rows + 1, 2 * rows + 1])), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    words = rng.integers(0, alphabet, size=(n, depth))
    # the largest symbol fills every bit of its slots
    words[: n // 2 + 1 : 2] = alphabet - 1
    # the symbol type of points_to_batch: int8 up to 128 letters, else int16
    batch = words.astype(np.int8 if alphabet <= 128 else np.int16)
    got, want = pack_words(batch, alphabet), reference_pack_words(batch, alphabet)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(got, want)


@settings(max_examples=100)
@given(st.sampled_from([2, 3, 4, 5, 9, 130]), st.integers(1, 64), st.data())
def test_cylinder_distances_match_oracle(alphabet, depth, data):
    # words share random-length prefixes of one base word, so every first
    # differing position, deep chunks included, gets drawn
    symbols = st.lists(st.integers(0, alphabet - 1), min_size=depth, max_size=depth)
    base = data.draw(symbols)
    words = []
    for _ in range(data.draw(st.integers(1, 5))):
        k = data.draw(st.integers(0, depth))
        words.append(tuple(base[:k] + data.draw(symbols)[k:]))
    space = SpaceSpec("symbolic_depth", 2, alphabet_size=alphabet)
    cloud = PointCloud(space, points_to_batch(space, words))
    batch = cloud.batch
    mat = pairwise_distances(cloud, batch, batch)
    paired = paired_distances(cloud, batch, batch[::-1])
    for i, x in enumerate(words):
        for j, y in enumerate(words):
            assert mat[i, j] == oracle_cylinder_distance(x, y)
        assert paired[i] == oracle_cylinder_distance(x, words[-1 - i])
