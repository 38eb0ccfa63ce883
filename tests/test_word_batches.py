"""The word batch (pressure.batched_word_orbits): every word's orbit,
Birkhoff vector, eps-balls and sums built together equal the same word
solved alone, bit for bit, however the batch is cut into word chunks and
tiles; so do the reports of the theorem checks that solve their words on
it.  A batch frees each orbit once its word is solved."""

import functools
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import naifslab.pressure as pressure
import naifslab.theorems as theorems
from naifslab import (
    GenerationSchedule,
    MapSpec,
    Potential,
    SpaceSpec,
    Word,
    build_cloud,
    check_basic_properties,
    check_power_rule,
    check_truncation_monotonicity,
    enumerate_words,
    power_system,
    pressure_estimate,
    truncate_system,
)
from naifslab.naifs import orbit_batches
from naifslab.space import eval_potential_batch
from naifslab.theorems import net_counting_length, random_explicit_instance
from oracles import oracle_min_spanning, oracle_partition_spanning, reference_word_orbits

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


def assert_batch_balls(orbits, eps_list):
    """A word batch's eps-balls (_word_balls) are each word's balls read
    off its full block of distances, computed step by step from the
    forms: no tile of _matrix_tiles, no _balls packing."""
    pressure._word_balls(orbits, eps_list)
    everything = np.arange(orbits[0].n_points)
    for ctx in orbits:
        full = ctx.block(everything, everything)
        for eps in eps_list:
            assert ctx._balls[eps] == [sum(1 << j for j in np.flatnonzero(row <= eps).tolist()) for row in full]


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
        assert_batch_balls(orbits, eps_list)
    assert _bits(batch) == _bits(alone)
    for ctx, w in zip(orbits, words):
        own = pressure._word_orbit(cloud, sched, w, n)
        assert all(np.array_equal(a, b) for a, b in zip(ctx.batches, own.batches, strict=True))
        assert np.array_equal(ctx.forms, own.forms)
    S = pressure._birkhoff_vectors(orbits, functools.partial(eval_potential_batch, cloud.space, psi))
    for ctx, row in zip(orbits, S):
        assert row.tobytes() == pressure._birkhoff_vector(ctx, psi).tobytes()


def test_the_balls_of_a_large_word_batch_are_its_blocks_balls(monkeypatch):
    # 150 points: each ball is wider than one uint64, and the tiles hold a
    # few rows of one word's matrix
    cloud = build_cloud(SpaceSpec("circle_grid", 150))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"), MapSpec("rotation", (0.3,))),))
    words, _, _ = enumerate_words(sched, 1, 2, None, 0)
    monkeypatch.setattr(pressure, "_TILE_ELEMENTS", 7 * 3 * 150)
    orbits = pressure._word_orbits(cloud, sched, words, 2)
    assert_batch_balls(orbits, [0.25, 1 / 32, 1 / 150])
    assert max(b.bit_length() for b in orbits[0]._balls[0.25]) > 64


@pytest.mark.parametrize("size, kind, reads", [(96, "spanning", True), (96, "separated", False), (16, "separated", True), (16, "spanning", True)])
def test_a_curve_builds_the_balls_its_solves_read_once_per_step(monkeypatch, size, kind, reads):
    # the ratio cover (96 points, spanning) and the exact solvers (16
    # points) read eps-balls, first fit does not; each step's words are one
    # chunk, whose balls at every eps of the curve are one builder pass
    cloud = build_cloud(SpaceSpec("circle_grid", size))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"), MapSpec("rotation", (0.3,))),))
    calls = []
    word_balls = pressure._word_balls
    monkeypatch.setattr(pressure, "_word_balls", lambda orbits, eps_list: calls.append((len(orbits), list(eps_list))) or word_balls(orbits, eps_list))
    eps_list = [0.25, 1 / 8, 1 / 32]
    pressure_estimate(cloud, sched, Potential("piecewise_linear", (0.0, 1.0, 0.2)), [1, 2, 3], eps_list, word_budget=None, kind=kind)
    assert calls == ([(2**n, eps_list) for n in [1, 2, 3]] if reads else [])


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


def test_a_curve_frees_each_orbit_once_its_word_is_solved(monkeypatch):
    # every word of a step is one chunk here; an orbit solved before the
    # current one may outlive it only while the caller still holds it
    cloud = build_cloud(SpaceSpec("circle_grid", 16))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"), MapSpec("rotation", (0.3,))),))
    psi = Potential("piecewise_linear", (0.0, 1.0, 0.2, 0.9))
    built, held = [], []
    word_orbits, solve = pressure._word_orbits, pressure._solve_spanning_weighted

    def recording(*args):
        orbits = word_orbits(*args)
        built.extend(weakref.ref(ctx) for ctx in orbits)
        return orbits

    def counting(ctx, *args):
        held.append(sum(1 for ref in built if (other := ref()) is not None and other is not ctx and other._feasible))
        return solve(ctx, *args)

    monkeypatch.setattr(pressure, "_word_orbits", recording)
    monkeypatch.setattr(pressure, "_solve_spanning_weighted", counting)
    curve = pressure_estimate(cloud, sched, psi, [1, 2, 3], [0.25, 0.125], word_budget=None, kind="spanning")
    assert {e.method for e in curve.entries} == {"exhaustive"} and len(built) == 2 + 4 + 8
    assert len(held) == 2 * len(built) and max(held) <= 1


def _report_bits(reports):
    return [(r.name, r.lhs.hex(), r.rhs.hex(), r.slack.hex(), r.verdict, r.level, r.context, r.tol) for r in reports]


def _theorem_reports(cloud, sched, phi, psi, psi_pos, eps, n, p, c):
    return [
        check_basic_properties(cloud, sched, phi, psi, eps, n, p, c),
        check_power_rule(cloud, sched, psi_pos, n=2, m_range=(1, 2), eps_list=(eps,), include_proxy=False),
        check_truncation_monotonicity(cloud, sched, psi, i=1, j=2, n_range=(2, 3), eps_list=(eps,), include_proxy=False),
    ]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_the_theorem_checks_equal_their_per_word_loops(seed, data):
    # the suite's three checks on a random instance of at most 10 points
    rng = random.Random(seed)
    cloud, sched = random_explicit_instance(rng, max_points=10, max_maps=2, max_cycle=2)
    size = len(cloud)
    phi, psi, psi_pos = (Potential("explicit_table", tuple(rng.uniform(lo, 1.0) for _ in range(size))) for lo in (-1.0, -1.0, 0.0))
    off = np.sort(cloud.dmatrix()[~np.eye(size, dtype=bool)])
    eps = float(off[int(len(off) * rng.uniform(0.2, 0.8))])
    n, p, c = rng.randint(2, 4), rng.uniform(0.1, 0.9), rng.choice([2.0, 0.5, 3.0, -1.0])
    # chunks of one to three words, or the whole batch in one
    words_per_chunk = data.draw(st.sampled_from([1, 2, 3, None]))
    with pytest.MonkeyPatch.context() as mp:
        if words_per_chunk is not None:
            mp.setattr(pressure, "_TILE_ELEMENTS", words_per_chunk * 5 * size)
        batched = _theorem_reports(cloud, sched, phi, psi, psi_pos, eps, n, p, c)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theorems, "batched_word_orbits", reference_word_orbits)
        alone = _theorem_reports(cloud, sched, phi, psi, psi_pos, eps, n, p, c)
    assert [_report_bits(r) for r in batched] == [_report_bits(r) for r in alone]

    # the power rule's binding pair: the pair of least q_base - q_pow over
    # the base words and the power words that block them
    [power] = batched[1]
    pairs = []
    for m in (1, 2):
        base_words = enumerate_words(sched, 1, 2 * m, None, 0)[0]
        power_words = enumerate_words(power_system(sched, 2), 1, m, None, 0)[0]
        for w, wstar in zip(base_words, power_words, strict=True):
            q_base = oracle_partition_spanning(cloud, sched, w, 2 * m, psi_pos, eps)
            pairs.append((oracle_partition_spanning(cloud, power_system(sched, 2), wstar, m, psi_pos, eps), q_base))
    least = min(q_base - q_pow for q_pow, q_base in pairs)
    assert power.rhs - power.lhs == pytest.approx(least, rel=1e-9, abs=1e-9)
    assert any(
        (power.lhs, power.rhs) == pytest.approx(pair, rel=1e-9, abs=1e-9)
        for pair in pairs if pair[1] - pair[0] == pytest.approx(least, rel=1e-9, abs=1e-9)
    )

    # the truncation counts: r_n(w, 2 eps) against #net * r_{n-1}(w', eps)
    [net_counting] = batched[2]
    length = net_counting_length(3)
    net = len(theorems._solve_separated_weighted(pressure._BowenOrbit(cloud, [cloud.batch]), np.zeros(size), eps, "greedy")[1])
    binding = None
    for w in enumerate_words(truncate_system(sched, 1), 1, length, None, 0)[0]:
        lhs = oracle_min_spanning(cloud, truncate_system(sched, 1), w, length, 2.0 * eps)
        rhs = net * oracle_min_spanning(cloud, truncate_system(sched, 2), Word(1, w.symbols[1:]), length - 1, eps)
        if binding is None or rhs - lhs < binding[1] - binding[0]:
            binding = (lhs, rhs)
    assert (net_counting.lhs, net_counting.rhs) == (math.log(binding[0]), math.log(binding[1]))


def test_net_counting_on_a_large_grid_keeps_the_inexact_lower_bound():
    # 80 points: greedy covers, and r_{n-1}(w', eps) from below is the
    # cloud over its largest eps-ball where that is less than the cover.
    # The row is pinned from the per-word loop of min_spanning calls.
    cloud = build_cloud(SpaceSpec("circle_grid", 80))
    sched = GenerationSchedule(
        prefix=((MapSpec("doubling"), MapSpec("affine_mod1", (3.0, 0.1))),),
        cycle=((MapSpec("identity"), MapSpec("affine_mod1", (5.0, 0.37))), (MapSpec("identity"), MapSpec("rotation", (0.3,)))),
    )
    [row] = check_truncation_monotonicity(
        cloud, sched, Potential("constant", (0.0,)), 1, 3, n_range=(2, 3), eps_list=[0.15, 0.05], include_proxy=False
    )
    assert _report_bits([row]) == [
        (
            "truncation/net-counting", "0x1.cab0bfa2a2002p+0", "0x1.96ca77c922cf9p+1", "0x1.62e42fefa39f0p+0",
            "holds_within_tol", "finite_n_exact", "eps_list=(0.15, 0.05);i=1;j=3;n=3", None,
        )
    ]
