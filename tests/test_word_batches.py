"""The word batch of one curve step: every word's orbit, Birkhoff vector,
eps-balls and sums built together (pressure._word_sums) equal the same
word solved alone, bit for bit, however the batch is cut into word
chunks and tiles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import naifslab.pressure as pressure
from naifslab import GenerationSchedule, MapSpec, Potential, SpaceSpec, Word, build_cloud, enumerate_words, pressure_estimate
from naifslab.naifs import orbit_batches
from naifslab.theorems import random_explicit_instance

FAMILIES = ("finite_explicit", "circle_grid", "interval_grid", "symbolic_depth")


def batch_system(family, rng):
    """A cloud, a schedule with a prefix generation and two maps per
    generation, and a non-constant potential.  The cloud is small enough
    for the exact solvers (branch and bound is slow past about 30 points)
    or past BRANCH_AND_BOUND_LIMIT, for the greedy and class solvers.  On
    words a generation may hold a shift and a substitution, so that the
    words of one step hold points of two depths."""
    if family == "finite_explicit":
        cloud, sched = random_explicit_instance(rng, max_points=12, max_maps=3, max_cycle=2)
        psi = Potential("explicit_table", tuple(rng.uniform(-1, 1) for _ in range(len(cloud))))
        prefix = (tuple(rng.sample(sched.cycle[0], 1)),)
        return cloud, GenerationSchedule(prefix=prefix, cycle=sched.cycle), psi
    if family == "symbolic_depth":
        m = rng.randint(2, 3)
        cloud = build_cloud(SpaceSpec(family, rng.choice([4, 7]) if m == 2 else 4, alphabet_size=m))
        # a substitution that merges symbols moves the distances of later
        # shifted steps, where a permutation would move none
        merge = MapSpec("symbol_substitution_table", tuple(rng.randrange(m - 1) for _ in range(m)))
        psi = Potential("first_symbol_table", tuple(rng.uniform(-1, 1) for _ in range(m)))
        cycle = [(MapSpec("shift"), merge), (merge, MapSpec("identity"))]
        rng.shuffle(cycle)
        return cloud, GenerationSchedule(prefix=(rng.choice(cycle),), cycle=tuple(cycle)), psi
    else:
        cloud = build_cloud(SpaceSpec(family, rng.choice([rng.randint(2, 24), rng.randint(65, 90)])))
        if family == "circle_grid":
            pool = [MapSpec("doubling"), MapSpec("rotation", (0.3,)), MapSpec("affine_mod1", (3.0, 0.1))]
        else:
            pool = [MapSpec("identity"), MapSpec("tent"), MapSpec("affine_clamped", (0.6, 0.3))]
        psi = Potential("piecewise_linear", tuple(rng.uniform(-2, 2) for _ in range(rng.randint(2, 5))))
    prefix = (tuple(rng.sample(pool, 1)),)
    cycle = tuple(tuple(rng.sample(pool, 2)) for _ in range(rng.randint(1, 2)))
    return cloud, GenerationSchedule(prefix=prefix, cycle=cycle), psi


def _bits(sums):
    return [[(value.hex(), size, method, exact) for value, size, method, exact in word] for word in sums]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(0, 10**6), st.integers(1, 3), st.sampled_from(pressure.KINDS), st.data())
def test_a_word_batch_equals_each_word_solved_alone(family, seed, n, kind, data):
    rng = random.Random(seed)
    cloud, sched, psi = batch_system(family, rng)
    # sampled words repeat; two are asked for twice more
    words, _, _ = enumerate_words(sched, 1, n, data.draw(st.integers(2, 6)), seed)
    words = words + words[:2]
    eps_list = sorted({data.draw(st.floats(0.05, 1.0)), data.draw(st.sampled_from([0.5, 0.25, 0.125]))}, reverse=True)
    alone = [pressure._word_sums(cloud, sched, n, psi, kind, eps_list, [w])[0] for w in words]
    # tiles of a few matrix rows, or of a few whole matrices; orbit chunks
    # of a few words either way
    steps, size = n + 1, len(cloud)
    tile = data.draw(
        st.one_of(
            st.integers(1, max(1, size - 1)).map(lambda r: r * steps * size),
            st.integers(2, 4).map(lambda k: k * steps * size * size),
        )
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pressure, "_TILE_ELEMENTS", tile)
        batch = pressure._word_sums(cloud, sched, n, psi, kind, eps_list, words)
        orbits = pressure._word_orbits(cloud, sched, words, n)
        if size <= pressure.BRANCH_AND_BOUND_LIMIT:
            pressure._word_balls(orbits, eps_list)
            # a batch's balls are the balls of each word's own matrix
            for ctx in orbits:
                for eps in eps_list:
                    assert ctx._balls[eps] == pressure._balls(ctx.matrix(), eps)
    assert _bits(batch) == _bits(alone)
    for ctx, w in zip(orbits, words):
        own = pressure._word_orbit(cloud, sched, w, n)
        assert all(np.array_equal(a, b) for a, b in zip(ctx.batches, own.batches, strict=True))
        assert np.array_equal(ctx.forms, own.forms)
    S = pressure._birkhoff_vectors(orbits, psi)
    for ctx, row in zip(orbits, S):
        assert row.tobytes() == pressure._birkhoff_vector(ctx, psi).tobytes()


def test_every_word_orbit_of_a_grid_curve_keeps_its_window(monkeypatch):
    # the first fit of a large grid orbit reads only the window of step 0,
    # which needs step 0 to be the enumerated grid itself
    cloud = build_cloud(SpaceSpec("circle_grid", 96))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"), MapSpec("rotation", (0.25,)), MapSpec("identity")),))
    psi = Potential("piecewise_linear", (0.0, 1.0, 0.2, 0.9))
    built = []
    word_orbits = pressure._word_orbits

    def recording(*args):
        orbits = word_orbits(*args)
        built.extend(orbits)
        return orbits

    monkeypatch.setattr(pressure, "_word_orbits", recording)
    curve = pressure_estimate(cloud, sched, psi, [1, 2, 3], [0.25, 1 / 32], word_budget=5, seed=2)
    assert {e.method for e in curve.entries} == {"greedy"}
    assert len(built) == sum(len(set(enumerate_words(sched, 1, n, 5, 2)[0])) for n in [1, 2, 3]) > 3
    for ctx in built:
        assert ctx.batches[0] is cloud.batch
        assert len(ctx.window(40, 1 / 32)) < len(cloud)


def test_orbit_batches_refuses_words_of_two_starts():
    cloud = build_cloud(SpaceSpec("circle_grid", 8))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    with pytest.raises(ValueError, match="^orbit_batches takes words of one start, got 1 and 2$"):
        orbit_batches(cloud.space, sched, [Word(1, (0, 0)), Word(2, (0,))], 1, cloud.batch)
    assert orbit_batches(cloud.space, sched, [], 3, cloud.batch) == []
