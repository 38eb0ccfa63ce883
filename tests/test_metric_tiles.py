"""The Bowen distance kernel of the orbit class, the tiles of Bowen
matrices that its eps-balls are packed from, and the greedy solves and
witness re-checks that read it in rows and tiles."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from naifslab import (
    GenerationSchedule,
    MapSpec,
    PointCloud,
    Potential,
    SpaceSpec,
    Word,
    build_cloud,
    enumerate_words,
)
import naifslab.pressure as pressure
from naifslab.pressure import (
    _BowenOrbit,
    _birkhoff_vector,
    _recheck_separated,
    _recheck_spanning,
    _solve_separated_weighted,
    _solve_spanning_weighted,
    _word_orbit,
    sup_orbit,
)
from naifslab.space import points_to_batch
from naifslab.theorems import random_explicit_instance
from oracles import oracle_bowen, oracle_sup_bowen, points_of, reference_bowen_row, reference_first_fit, reference_separated

FAMILIES = ("interval_grid", "circle_grid", "symbolic_depth", "finite_explicit")


def random_system(family, rng):
    """A small cloud and a random schedule of maps valid on it."""
    if family == "finite_explicit":
        return random_explicit_instance(rng, max_points=8, max_maps=2, max_cycle=2)
    if family == "interval_grid":
        # 11 points: most grid values and their images are not dyadic
        cloud = build_cloud(SpaceSpec(family, 11))
        pool = [MapSpec("identity"), MapSpec("tent"), MapSpec("affine_clamped", (0.6, 0.3))]
    elif family == "circle_grid":
        cloud = build_cloud(SpaceSpec(family, 12))
        pool = [MapSpec("doubling"), MapSpec("rotation", (0.3,)), MapSpec("affine_mod1", (3.0, 0.1))]
    else:
        m = rng.randint(2, 3)
        cloud = build_cloud(SpaceSpec(family, 4, alphabet_size=m))
        perm = list(range(m))
        rng.shuffle(perm)
        pool = [MapSpec("shift"), MapSpec("symbol_substitution_table", tuple(perm))]

    def generation():
        return tuple(rng.sample(pool, rng.randint(1, 2)))

    prefix = tuple(generation() for _ in range(rng.randint(0, 1)))
    cycle = tuple(generation() for _ in range(rng.randint(1, 2)))
    return cloud, GenerationSchedule(prefix=prefix, cycle=cycle)


def tiled_matrix(ctx):
    """An orbit's Bowen matrix assembled from the reduced tiles of
    _matrix_tiles, each copied out of the buffer the next tile reuses."""
    n = ctx.n_points
    matrix = np.empty((n, n))
    for _, rows, d in pressure._matrix_tiles(ctx.cloud, ctx.forms[..., None, :, :]):
        matrix[rows] = d.max(axis=-3)[0]
    return matrix


def index_lists(data, n_points):
    draw = st.lists(st.integers(0, n_points - 1), min_size=1, max_size=6)
    return np.array(data.draw(draw), dtype=np.intp), np.array(data.draw(draw), dtype=np.intp)


@settings(max_examples=40)
@given(st.sampled_from(FAMILIES), st.integers(0, 10_000), st.integers(0, 3), st.data())
def test_block_matches_oracle_bowen(family, seed, n, data):
    rng = random.Random(seed)
    cloud, sched = random_system(family, rng)
    words, _, _ = enumerate_words(sched, 1, 3, None, 0)
    w = words[rng.randrange(len(words))]
    ctx = _word_orbit(cloud, sched, w, n)
    I, js = index_lists(data, len(cloud))
    block = ctx.block(I, js)
    pts = points_of(cloud)
    expected = [[oracle_bowen(cloud, sched, w, n, pts[i], pts[j]) for j in js] for i in I]
    assert block.tolist() == expected
    assert ctx.row(int(I[0]), js).tolist() == expected[0]
    full = ctx.block(np.arange(len(cloud)), np.arange(len(cloud)))
    assert np.array_equal(tiled_matrix(ctx), full)
    eps = data.draw(st.sampled_from(sorted(set(full.ravel().tolist()))))
    assert ctx.balls(eps) == [sum(1 << j for j in np.flatnonzero(r <= eps).tolist()) for r in full]
    # a block read after the balls are built is still computed from the forms
    assert np.array_equal(ctx.block(I, js), block)


@settings(max_examples=20)
@given(st.sampled_from(FAMILIES), st.integers(0, 10_000), st.integers(1, 2), st.data())
def test_sup_orbit_block_matches_oracle_sup_bowen(family, seed, n, data):
    rng = random.Random(seed)
    cloud, sched = random_system(family, rng)
    subset = sorted(rng.sample(range(len(cloud)), min(5, len(cloud))))
    ctx = sup_orbit(cloud, sched, n, subset)
    I, js = index_lists(data, len(subset))
    pts = [points_of(cloud)[i] for i in subset]
    expected = [[oracle_sup_bowen(cloud, sched, n, pts[i], pts[j]) for j in js] for i in I]
    assert ctx.block(I, js).tolist() == expected
    assert ctx.row(int(I[0]), js).tolist() == expected[0]


@settings(max_examples=30)
@given(st.integers(0, 10_000), st.integers(0, 3), st.data())
def test_finite_block_equals_ix_gather(seed, n, data):
    rng = random.Random(seed)
    cloud, sched = random_system("finite_explicit", rng)
    words, _, _ = enumerate_words(sched, 1, 3, None, 0)
    ctx = _word_orbit(cloud, sched, words[rng.randrange(len(words))], n)
    dm = cloud.dmatrix()
    I, js = index_lists(data, len(cloud))
    lo = data.draw(st.integers(0, len(cloud)))
    rows = slice(lo, data.draw(st.integers(lo, len(cloud))))
    for args in ((I, js), (rows, js), (I, slice(None)), (rows, slice(None))):
        gathered = [dm[np.ix_(B[args[0]], B[args[1]])] for B in ctx.batches]
        assert np.array_equal(ctx.block(*args), np.maximum.reduce(gathered)), args


def matrix_system(family, rng, steps):
    """A cloud of up to 40 points (27 words), a schedule valid on it and a
    word of the given length whose orbit every cloud point can follow."""
    if family == "finite_explicit":
        cloud, sched = random_explicit_instance(rng, max_points=40, max_maps=2, max_cycle=2)
    elif family == "circle_grid":
        cloud = build_cloud(SpaceSpec(family, rng.randint(2, 40)))
        pool = [MapSpec("doubling"), MapSpec("rotation", (0.3,)), MapSpec("affine_mod1", (3.0, 0.1))]
        sched = GenerationSchedule(prefix=(), cycle=(tuple(rng.sample(pool, 2)),))
    else:
        m = rng.randint(2, 3)
        cloud = build_cloud(SpaceSpec(family, 4 if m == 2 else 3, alphabet_size=m))
        perm = list(range(m))
        rng.shuffle(perm)
        sched = GenerationSchedule(prefix=(), cycle=((MapSpec("symbol_substitution_table", tuple(perm)), MapSpec("shift")),))
        # at most depth - 1 shifts, so that every step keeps a symbol
        symbols = [0] * steps
        for t in rng.sample(range(steps), min(steps, cloud.space.resolution - 1)):
            symbols[t] = rng.randint(0, 1)
        return cloud, sched, Word(1, tuple(symbols))
    words, _, _ = enumerate_words(sched, 1, steps, 64, rng.randrange(1000))
    return cloud, sched, words[rng.randrange(len(words))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("finite_explicit", "circle_grid", "symbolic_depth")), st.integers(0, 10_000), st.integers(1, 9), st.data())
def test_matrix_rows_equal_the_reference_rows(family, seed, steps, data):
    # _matrix_tiles reads every step of a tile in one kernel call; tiles of
    # a few rows put tile boundaries inside the matrix, and every tile is
    # written into the buffer of the one before
    rng = random.Random(seed)
    cloud, sched, w = matrix_system(family, rng, steps)
    ctx = _word_orbit(cloud, sched, w, steps)
    n_points = len(cloud)
    rows = data.draw(st.integers(1, n_points))
    everything = np.arange(n_points)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pressure, "TILE_ELEMENTS", rows * n_points * (steps + 1))
        matrix = tiled_matrix(ctx)
    assert [row.tolist() for row in matrix] == [reference_bowen_row(ctx, c, everything).tolist() for c in everything]


# ---------------------------------------------------------------------------
# greedy solves past MATRIX_LIMIT


def doubling_orbit(n_points=4096, n=3):
    cloud = build_cloud(SpaceSpec("circle_grid", n_points))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    return _word_orbit(cloud, sched, Word(1, (0,) * n), n)


def test_greedy_solves_on_a_large_circle_never_build_balls(monkeypatch):
    ctx = doubling_orbit()
    S = _birkhoff_vector(ctx, Potential("coordinate_affine", (1.0, 0.0)))
    eps = 1.0 / 32

    def no_balls(*args):
        raise AssertionError("a greedy solve past MATRIX_LIMIT built eps-balls")

    assert ctx.n_points > pressure.MATRIX_LIMIT
    monkeypatch.setattr(pressure, "_word_balls", no_balls)
    monkeypatch.setattr(pressure, "_balls", no_balls)
    monkeypatch.setattr(_BowenOrbit, "balls", no_balls)
    _, sep, method, exact = _solve_separated_weighted(ctx, S, eps, "auto")
    _, span, span_method, _ = _solve_spanning_weighted(ctx, S, eps, "auto")
    assert (method, exact, span_method) == ("greedy", False, "greedy")
    assert sep == sorted(reference_first_fit(ctx, eps, np.lexsort((np.arange(ctx.n_points), -S))))
    assert span == sorted(reference_first_fit(ctx, eps, np.arange(ctx.n_points)))
    assert 1 < len(sep) < ctx.n_points and 1 < len(span) < ctx.n_points


def test_a_ratio_cover_at_the_matrix_limit_holds_no_float_table():
    # 1500 points, 4 doubling steps: the eps-balls are packed tile by tile,
    # so the peak is a tile buffer and the masks, not an 18 MB matrix
    cloud = build_cloud(SpaceSpec("circle_grid", pressure.MATRIX_LIMIT))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    w = Word(1, (0,) * 4)
    tracemalloc.start()
    try:
        result = pressure.min_spanning(cloud, sched, w, 4, 1 / 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.method, len(result.witness)) == ("greedy", 300)
    assert peak < 4_000_000, peak
    value = pressure.partition_sum_spanning(cloud, sched, w, 4, Potential("piecewise_linear", (0, 1, 0.3)), 1 / 32)
    assert value.log_value == 8.738926252641608


def test_recheck_separated_reads_every_pair():
    ctx = doubling_orbit(n=0)  # the base metric: grid neighbours are 1/4096 apart
    witness = sorted(set(range(0, 4096, 4)) | {2401})
    # the only pair within eps is (2400, 2401), at positions 600 and 601
    assert witness.index(2401) == 601
    with pytest.raises(RuntimeError, match="separated witness"):
        _recheck_separated(ctx, witness, 2.5 / 4096)
    _recheck_separated(ctx, [i for i in witness if i != 2401], 2.5 / 4096)


GRID_MAPS = {
    "interval_grid": [MapSpec("tent"), MapSpec("affine_clamped", (0.6, 0.3)), MapSpec("identity")],
    "circle_grid": [MapSpec("doubling"), MapSpec("rotation", (0.3,)), MapSpec("affine_mod1", (3.0, 0.1))],
}
# coordinates whose differences round: 0.2 + (0.9 - 0.2) < 0.9 in floats,
# and 1 - 2**-53 lies 2**-53 from 0 across the end of the circle
EDGE_COORDINATES = [0.0, 2.0**-53, 0.2, 0.5, 0.9, 1.0 - 2.0**-53]


@st.composite
def grid_orbits(draw):
    """An interval or circle orbit of n = 0..6 steps on a grid or on a cloud
    of drawn coordinates: a word orbit, every p-th step of one (the power
    system's orbit) or the sup orbit of a few points."""
    family = draw(st.sampled_from(sorted(GRID_MAPS)))
    if draw(st.booleans()):
        cloud = build_cloud(SpaceSpec(family, draw(st.integers(2, 40))))
    else:
        upper = st.floats(0.0, 1.0, exclude_max=family == "circle_grid")
        coords = draw(st.lists(st.one_of(st.sampled_from(EDGE_COORDINATES), upper), min_size=2, max_size=30))
        space = SpaceSpec(family, len(coords))
        cloud = PointCloud(space, points_to_batch(space, coords))
    sched = GenerationSchedule(prefix=(), cycle=(tuple(draw(st.permutations(GRID_MAPS[family]))[:2]),))
    kind = draw(st.sampled_from(["word", "strided", "sup"]))
    n = draw(st.integers(0, 6))
    if kind == "sup":
        indices = draw(st.lists(st.integers(0, len(cloud) - 1), min_size=2, max_size=8, unique=True))
        return sup_orbit(cloud, sched, n, indices)
    p = draw(st.integers(2, 3)) if kind == "strided" else 1
    symbols = tuple(draw(st.lists(st.integers(0, 1), min_size=n * p, max_size=n * p)))
    base = _word_orbit(cloud, sched, Word(1, symbols), n * p)
    return base if p == 1 else _BowenOrbit(cloud, base.batches[::p])


def recheck_passes(ctx, idxs, eps):
    try:
        _recheck_separated(ctx, idxs, eps)
    except RuntimeError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(grid_orbits(), st.data())
def test_the_step0_separated_recheck_gives_the_full_pairwise_verdict(ctx, data):
    n = ctx.n_points
    p, q = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    d = float(reference_bowen_row(ctx, p, [q])[0])
    eps = data.draw(st.one_of(st.just(d), st.floats(1e-3, 1.0), st.sampled_from([0.5, 0.75, 3.0])))
    assume(eps > 0)
    # a maximal separated set from p on passes, and one more point fails
    rest = data.draw(st.permutations([i for i in range(n) if i != p]))
    witness = sorted(reference_first_fit(ctx, eps, np.array([p, *rest])))
    assert reference_separated(ctx, witness, eps) and recheck_passes(ctx, witness, eps)
    extras = [i for i in range(n) if i not in witness]
    if eps == d:
        # q lies at exactly eps from p, and the test is <=
        extras = [q] + [i for i in extras if i != q]
    for extra in extras[:2]:
        corrupted = sorted([*witness, extra])
        assert not reference_separated(ctx, corrupted, eps)
        assert not recheck_passes(ctx, corrupted, eps)
    subset = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
    assert recheck_passes(ctx, subset, eps) == reference_separated(ctx, subset, eps)
    # chunks of a few pairs split one point's partners between chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pressure, "_PAIR_CHUNK", data.draw(st.integers(1, 5)))
        assert recheck_passes(ctx, subset, eps) == reference_separated(ctx, subset, eps)
        assert recheck_passes(ctx, witness, eps)
        if extras:
            assert not recheck_passes(ctx, sorted([*witness, extras[0]]), eps)


def test_a_pair_close_only_across_0_fails_the_separated_recheck():
    for n_pts in (64, 4096):
        cloud = build_cloud(SpaceSpec("circle_grid", n_pts))
        ctx = _BowenOrbit(cloud, [cloud.batch])
        # points 0 and N-1 are 1/N apart across 0; every other pair at least 3/N
        witness = [*range(0, n_pts - 1, 4), n_pts - 1]
        for eps in (1 / n_pts, 2.5 / n_pts):
            assert not reference_separated(ctx, witness, eps)
            with pytest.raises(RuntimeError, match="separated witness"):
                _recheck_separated(ctx, witness, eps)
            _recheck_separated(ctx, witness[:-1], eps)


def test_a_pair_at_eps_after_rounding_fails_the_separated_recheck():
    # fl(0.9 - 0.2) is eps, but fl(0.2 + eps) < 0.9: the step-0 search
    # finds the pair only through its margin
    space = SpaceSpec("interval_grid", 2)
    cloud = PointCloud(space, points_to_batch(space, [0.2, 0.9]))
    ctx = _BowenOrbit(cloud, [cloud.batch])
    eps = 0.9 - 0.2
    assert 0.2 + eps < 0.9
    assert not reference_separated(ctx, [0, 1], eps)
    with pytest.raises(RuntimeError, match="separated witness"):
        _recheck_separated(ctx, [0, 1], eps)
    _recheck_separated(ctx, [0, 1], np.nextafter(eps, 0.0))


def test_recheck_spanning_reads_every_point():
    ctx = doubling_orbit(n=0)
    everything = list(range(4096))
    _recheck_spanning(ctx, everything, 0.5 / 4096)
    # each point covers only itself at this eps; 2047 is odd, off every
    # second point
    with pytest.raises(RuntimeError, match="spanning witness"):
        _recheck_spanning(ctx, [i for i in everything if i != 2047], 0.5 / 4096)


def test_greedy_spanning_recheck_does_not_read_the_balls(monkeypatch):
    # corrupted balls put point 0 within every eps of every point: the
    # ratio cover reads them and picks point 0 alone, and the witness
    # re-check, which computes its tiles from the forms, refuses it
    build, built = pressure._word_balls, []

    def corrupted(orbits, eps_list):
        build(orbits, eps_list)
        for ctx in orbits:
            for eps in eps_list:
                ctx._balls[eps] = [(1 << ctx.n_points) - 1] + [b | 1 for b in ctx._balls[eps][1:]]
                built.append(eps)

    monkeypatch.setattr(pressure, "_word_balls", corrupted)
    cloud = build_cloud(SpaceSpec("circle_grid", 200))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    with pytest.raises(RuntimeError, match="spanning witness failed its defining property"):
        pressure.partition_sum_spanning(cloud, sched, Word(1, (0,)), 1, Potential("constant", (0.0,)), 1 / 16)
    assert built == [1 / 16]


def test_words_across_a_chunk_boundary_stack_with_zero_chunks():
    # depth 60 packs into two chunks and depth 52 into one: the shifted
    # steps are padded with a zero chunk in the stacked forms
    rng = random.Random(7)
    words = [tuple(rng.randint(0, 1) for _ in range(60)) for _ in range(5)]
    words += [words[0][:50] + (1 - words[0][50],) + words[0][51:], words[1][:57] + (1 - words[1][57],) + words[1][58:]]
    space = SpaceSpec("symbolic_depth", 60, alphabet_size=2)
    cloud = PointCloud(space, points_to_batch(space, words))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("shift"),),))
    w = Word(1, (0,) * 10)
    ctx = _word_orbit(cloud, sched, w, 10)
    assert ctx.forms.shape == (2, 11, len(words))
    everything = np.arange(len(words))
    expected = [[oracle_bowen(cloud, sched, w, 10, x, y) for y in words] for x in words]
    assert ctx.block(everything, everything).tolist() == expected
    assert [ctx.row(i, everything).tolist() for i in everything] == expected
