import gc
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import naifslab.pressure as pressure
from naifslab import (
    GenerationSchedule,
    MapSpec,
    PointCloud,
    Potential,
    SpaceSpec,
    Word,
    averaged_partition_sum,
    build_cloud,
    distance,
    enumerate_words,
    max_separated,
    min_spanning,
    partition_sum_separated,
    partition_sum_spanning,
    pressure_estimate,
    sup_entropy_estimate,
)
from naifslab.catalog import EXAMPLE_CONFIGS
from naifslab.cli import ExperimentConfig
from naifslab.naifs import generation_at
from naifslab.space import points_to_batch
from naifslab.theorems import check_basic_properties, random_explicit_instance
from oracles import (
    oracle_birkhoff,
    oracle_bowen,
    oracle_max_separated,
    oracle_min_spanning,
    oracle_partition_separated,
    oracle_partition_spanning,
    oracle_weighted_sum,
    per_element_cover_bound,
    points_of,
    reference_bb_cover,
    reference_exhaustive,
    reference_greedy_cover,
)

ID = MapSpec("identity")
SWAP2 = MapSpec("permutation_table", (1, 0))
ZERO = Potential("constant", (0.0,))


def two_point():
    cloud = build_cloud(SpaceSpec("finite_explicit", distance_matrix=((0.0, 1.0), (1.0, 0.0))))
    return cloud, GenerationSchedule(prefix=(), cycle=((ID, SWAP2),))


def _birkhoff(cloud, sched, w, n, pot):
    return pressure._birkhoff_vector(pressure._word_orbit(cloud, sched, w, n), pot).tolist()


def test_birkhoff_constant_counts_terms():
    cloud, sched = two_point()
    pot = Potential("constant", (0.7,))
    for n in range(4):
        w = Word(1, (0,) * 4)
        assert _birkhoff(cloud, sched, w, n, pot) == pytest.approx([(n + 1) * 0.7] * 2)


def test_birkhoff_doubling_orbit():
    cloud = build_cloud(SpaceSpec("circle_grid", 16))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    pot = Potential("coordinate_affine", (1.0, 0.0))
    w = Word(1, (0, 0))
    for n in (0, 1, 2):
        sums = _birkhoff(cloud, sched, w, n, pot)
        assert sums == pytest.approx([oracle_birkhoff(cloud, sched, w, n, pot, x) for x in points_of(cloud)])
    # 5/16 -> 5/8 -> 1/4
    assert points_of(cloud)[5] == 5 / 16 and sums[5] == pytest.approx(1.1875)


def test_max_separated_extremes():
    cloud, sched = two_point()
    w = Word(1, (0, 1))
    tiny = max_separated(cloud, sched, w, 2, 1e-9)
    assert tiny.lower_bound == tiny.upper_bound == 2
    huge = max_separated(cloud, sched, w, 2, 2.0)
    assert huge.lower_bound == 1
    mid = max_separated(cloud, sched, w, 2, 0.5)
    assert mid.lower_bound == 2 and mid.exact
    with pytest.raises(ValueError):
        max_separated(cloud, sched, w, 2, 0.0)


def test_nan_eps_rejected():
    # NaN compares false both ways: unchecked, no pair is within eps and a
    # wrong count is reported as exact
    cloud, sched = two_point()
    for op in (max_separated, min_spanning):
        with pytest.raises(ValueError, match="positive"):
            op(cloud, sched, Word(1, (0,)), 1, math.nan)
    with pytest.raises(ValueError, match="finite"):
        pressure.validate_eps_list([0.5, -math.inf])


def test_nonfinite_weights_are_refused():
    # a NaN or overflowed Birkhoff sum would give log_value nan labelled exact
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Potential("explicit_table", (bad, 1.0))
    cloud, sched = two_point()
    ctx = pressure._word_orbit(cloud, sched, Word(1, (0,)), 1)
    for S in ([math.nan, 0.0], [math.inf, 0.0], [-math.inf, -math.inf]):
        for solve in (pressure._solve_separated_weighted, pressure._solve_spanning_weighted):
            with pytest.raises(ValueError, match="Birkhoff sums are not finite"):
                solve(ctx, np.array(S), 0.5)
    # one weight that underflows to zero leaves a finite maximum
    assert pressure._solve_spanning_weighted(ctx, np.array([-math.inf, 0.0]), 0.5)[0] == 0.0


def test_a_spanning_sum_whose_least_cover_underflows_reads_its_value():
    # one ball covers the cloud and the lightest point's Birkhoff sum is
    # -2000, so log Q = -2000, while exp(-2000 - max S) is 0.0
    cloud, _ = two_point()
    ident = GenerationSchedule(prefix=(), cycle=((ID,),))
    psi = Potential("explicit_table", (0.0, -1000.0))
    for mode in pressure.MODES:
        r = partition_sum_spanning(cloud, ident, Word(1, (0,)), 1, psi, 1.0, mode)
        assert (r.log_value, r.witness_size) == (-2000.0, 1)
    words = build_cloud(SpaceSpec("symbolic_depth", 7, alphabet_size=2))
    shift = GenerationSchedule(prefix=(), cycle=((MapSpec("shift"),),))
    first = Potential("first_symbol_table", (0.0, -1000.0))
    for mode, method in (("auto", pressure.CLASSES), ("greedy", "greedy")):
        r = partition_sum_spanning(words, shift, Word(1, (0,)), 1, first, 1.0, mode)
        assert (r.log_value, r.method, r.witness_size) == (-2000.0, method, 1)
    # past MATRIX_LIMIT the greedy cover is the first-fit eps-net {0}, and
    # psi(0) = -1000 while psi(x) -> 0 as x -> 1
    grid = build_cloud(SpaceSpec("circle_grid", 2048))
    r = partition_sum_spanning(grid, ident, Word(1, (0,)), 1, Potential("coordinate_affine", (1000.0, -1000.0)), 0.5, "greedy")
    assert (r.log_value, r.witness_size) == (-2000.0, 1)


def test_a_least_cover_of_weight_zero_reads_minus_infinity():
    # every point lies in a ball whose Birkhoff sum is -inf
    cloud, sched = two_point()
    ctx = pressure._word_orbit(cloud, sched, Word(1, (0,)), 1)
    for mode in pressure.MODES:
        assert pressure._solve_spanning_weighted(ctx, np.array([-math.inf, 0.0]), 1.0, mode)[0] == -math.inf


def test_min_spanning_four_cycle():
    dm = (
        (0.0, 1.0, 2.0, 1.0),
        (1.0, 0.0, 1.0, 2.0),
        (2.0, 1.0, 0.0, 1.0),
        (1.0, 2.0, 1.0, 0.0),
    )
    cloud = build_cloud(SpaceSpec("finite_explicit", distance_matrix=dm))
    sched = GenerationSchedule(prefix=(), cycle=((ID,),))
    w = Word(1, (0, 0))
    res = min_spanning(cloud, sched, w, 2, 1.0)
    assert res.lower_bound == res.upper_bound == 2 and res.exact
    whole = min_spanning(cloud, sched, w, 2, 2.5)
    assert whole.lower_bound == 1
    each = min_spanning(cloud, sched, w, 2, 0.5)
    assert each.lower_bound == 4


def test_witnesses_are_ascending_cloud_indices():
    cloud = build_cloud(SpaceSpec("circle_grid", 32))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    w, eps = Word(1, (0, 0)), 0.1
    pts = points_of(cloud)
    for mode in ("branch_and_bound", "greedy"):
        sep = max_separated(cloud, sched, w, 2, eps, mode=mode)
        span = min_spanning(cloud, sched, w, 2, eps, mode=mode)
        for res in (sep, span):
            assert list(res.witness) == sorted(set(res.witness)) and all(type(i) is int for i in res.witness)
        assert all(oracle_bowen(cloud, sched, w, 2, pts[i], pts[j]) > eps for i, j in itertools.combinations(sep.witness, 2))
        assert all(min(oracle_bowen(cloud, sched, w, 2, x, pts[j]) for j in span.witness) <= eps for x in pts)


def test_partition_sum_reduces_to_counting():
    cloud, sched = two_point()
    w = Word(1, (0, 1))
    res = partition_sum_separated(cloud, sched, w, 2, ZERO, 0.5)
    sep = max_separated(cloud, sched, w, 2, 0.5)
    assert res.log_value == pytest.approx(math.log(sep.lower_bound), abs=1e-12)


def test_partition_sum_constant_shift_factor():
    cloud, sched = two_point()
    w = Word(1, (1, 0, 1))
    psi = Potential("explicit_table", (0.3, -0.4))
    n = 3
    base = partition_sum_separated(cloud, sched, w, n, psi, 0.5)
    for c in (0.9, -1.3):
        shifted_pot = Potential("explicit_table", (0.3 + c, -0.4 + c))
        shifted = partition_sum_separated(cloud, sched, w, n, shifted_pot, 0.5)
        assert shifted.log_value == pytest.approx(base.log_value + (n + 1) * c, rel=1e-12, abs=1e-12)


def test_partition_sum_two_point_table_example():
    cloud, sched = two_point()
    psi = Potential("explicit_table", (0.0, 1.0))
    for symbols in itertools.product(range(2), repeat=1):
        w = Word(1, symbols)
        res = partition_sum_separated(cloud, sched, w, 1, psi, 0.5)
        expected = math.log(
            math.exp(oracle_birkhoff(cloud, sched, w, 1, psi, 0))
            + math.exp(oracle_birkhoff(cloud, sched, w, 1, psi, 1))
        )
        assert res.log_value == pytest.approx(expected, abs=1e-12)


def test_partition_sum_lower_bound_invariant():
    cloud, sched = two_point()
    psi = Potential("explicit_table", (-0.2, 0.8))
    w = Word(1, (0, 1))
    for op in (partition_sum_separated, partition_sum_spanning):
        res = op(cloud, sched, w, 2, psi, 0.5)
        smin = min(oracle_birkhoff(cloud, sched, w, 2, psi, x) for x in points_of(cloud))
        assert res.log_value >= smin - 1e-12


@pytest.mark.parametrize("mode", ["exhaustive", "branch_and_bound"])
def test_solvers_match_oracle_on_random_instances(mode):
    for seed in range(6):
        rng = random.Random(900 + seed)
        cloud, sched = random_explicit_instance(rng, max_points=8, max_maps=2, max_cycle=2)
        n = rng.randint(1, 3)
        words, _, _ = enumerate_words(sched, 1, n, None, 0)
        w = words[rng.randrange(len(words))]
        dm = cloud.dmatrix()
        off = sorted(dm[~np.eye(len(cloud), dtype=bool)])
        eps = off[len(off) // 2]
        psi = Potential("explicit_table", tuple(rng.uniform(-1, 1) for _ in range(len(cloud))))

        sep = max_separated(cloud, sched, w, n, eps, mode=mode)
        assert sep.exact and sep.lower_bound == oracle_max_separated(cloud, sched, w, n, eps)
        span = min_spanning(cloud, sched, w, n, eps, mode=mode)
        assert span.exact and span.lower_bound == oracle_min_spanning(cloud, sched, w, n, eps)
        p = partition_sum_separated(cloud, sched, w, n, psi, eps, mode=mode)
        assert p.log_value == pytest.approx(oracle_partition_separated(cloud, sched, w, n, psi, eps), abs=1e-12)
        q = partition_sum_spanning(cloud, sched, w, n, psi, eps, mode=mode)
        assert q.log_value == pytest.approx(oracle_partition_spanning(cloud, sched, w, n, psi, eps), abs=1e-12)
        # a maximal separated set spans, so Q <= P and the sandwich holds
        assert q.log_value <= p.log_value + 1e-12
        s_half = max_separated(cloud, sched, w, n, eps / 2, mode=mode)
        assert span.lower_bound <= sep.lower_bound <= s_half.lower_bound


def test_deep_binary_words_solve_exactly():
    # the xor of these codes has 49 bits; a float64 log2 of it rounds up and
    # once doubled the distance, so both points looked 0.2-separated
    x = (0,) * 52
    y = (0, 0, 0) + (1,) * 49
    space = SpaceSpec("symbolic_depth", 52, alphabet_size=2)
    cloud = PointCloud(space, points_to_batch(space, [x, y]))
    sched = GenerationSchedule(prefix=(), cycle=((ID,),))
    assert distance(cloud, x, y) == 0.125
    for op in (max_separated, min_spanning):
        res = op(cloud, sched, Word(1, ()), 0, 0.2)
        assert res.exact and res.lower_bound == res.upper_bound == 1


def test_greedy_bounds_bracket_exact():
    for seed in range(4):
        rng = random.Random(400 + seed)
        cloud, sched = random_explicit_instance(rng, max_points=12, max_maps=2, max_cycle=1)
        words, _, _ = enumerate_words(sched, 1, 2, None, 0)
        dm = cloud.dmatrix()
        off = sorted(dm[~np.eye(len(cloud), dtype=bool)])
        eps = off[len(off) // 3]
        exact = max_separated(cloud, sched, words[0], 2, eps, mode="exhaustive")
        greedy = max_separated(cloud, sched, words[0], 2, eps, mode="greedy")
        assert greedy.lower_bound <= exact.lower_bound <= greedy.upper_bound
        exact_r = min_spanning(cloud, sched, words[0], 2, eps, mode="exhaustive")
        greedy_r = min_spanning(cloud, sched, words[0], 2, eps, mode="greedy")
        assert greedy_r.lower_bound <= exact_r.lower_bound <= greedy_r.upper_bound


def _separated_grid(points):
    # an interval grid read at a length-0 word, with eps below the spacing:
    # every point is its own ball, so each solver finishes at once
    cloud = build_cloud(SpaceSpec("interval_grid", points))
    return cloud, GenerationSchedule((), ((ID,),)), Word(1, ()), 0.5 / (points - 1)


@pytest.mark.parametrize("points, method", [(20, "exhaustive"), (21, "branch_and_bound"), (64, "branch_and_bound"), (65, "greedy")])
def test_auto_policy_picks_the_solver_by_cloud_size(points, method):
    assert (pressure.EXHAUSTIVE_LIMIT, pressure.BRANCH_AND_BOUND_LIMIT) == (20, 64)
    cloud, sched, w, eps = _separated_grid(points)
    for op in (max_separated, min_spanning):
        res = op(cloud, sched, w, 0, eps)
        assert (res.method, res.exact) == (method, method != "greedy")
        assert res.lower_bound == res.upper_bound == points
    for op in (partition_sum_separated, partition_sum_spanning):
        res = op(cloud, sched, w, 0, ZERO, eps)
        assert res.method == method and res.log_value == pytest.approx(math.log(points), abs=1e-12)


@pytest.mark.parametrize(
    "points, mode, message",
    [(21, "exhaustive", "limited to 20 points"), (65, "branch_and_bound", "limited to 64 points"), (4, "fastest", "unknown mode 'fastest'")],
)
def test_forced_mode_past_its_limit_or_unknown_raises(points, mode, message):
    cloud, sched, w, eps = _separated_grid(points)
    with pytest.raises(ValueError, match=message):
        max_separated(cloud, sched, w, 0, eps, mode=mode)
    with pytest.raises(ValueError, match=message):
        partition_sum_spanning(cloud, sched, w, 0, ZERO, eps, mode=mode)


def test_monotonicity_in_eps_and_n():
    cloud = build_cloud(SpaceSpec("circle_grid", 64))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    w = Word(1, (0,) * 6)
    s_coarse = max_separated(cloud, sched, w, 4, 0.25).lower_bound
    s_fine = max_separated(cloud, sched, w, 4, 0.125).lower_bound
    assert s_fine >= s_coarse
    counts = [max_separated(cloud, sched, w, n, 0.125).lower_bound for n in range(1, 6)]
    assert counts == sorted(counts)


def test_averaged_sum_degenerate_and_symmetric_cases():
    cloud, sched = two_point()
    single = GenerationSchedule(prefix=(), cycle=(((SWAP2,)),))
    one = averaged_partition_sum(cloud, single, 3, ZERO, 0.5, word_budget=None)
    per_word = partition_sum_separated(cloud, single, Word(1, (0, 0, 0)), 3, ZERO, 0.5)
    assert one.log_average == pytest.approx(per_word.log_value, abs=1e-12)
    assert one.stderr == 0.0 and one.word_mode == "exact"

    avg = averaged_partition_sum(cloud, sched, 2, ZERO, 0.5, word_budget=None)
    assert avg.log_average == pytest.approx(math.log(2), abs=1e-12)
    assert avg.word_count == 4

    doubled = GenerationSchedule(prefix=(), cycle=(((SWAP2, SWAP2)),))
    same = averaged_partition_sum(cloud, doubled, 2, ZERO, 0.5, word_budget=None)
    assert same.log_average == pytest.approx(
        partition_sum_separated(cloud, doubled, Word(1, (0, 0)), 2, ZERO, 0.5).log_value, abs=1e-12
    )


def test_pressure_curve_two_point_exact_values():
    cloud, sched = two_point()
    curve = pressure_estimate(cloud, sched, ZERO, range(1, 11), [0.5], word_budget=2048, seed=0)
    for e in curve.entries:
        assert e.exact and e.log_average == pytest.approx(math.log(2), abs=1e-12)
        assert e.value == pytest.approx(math.log(2) / e.n, abs=1e-12)
    assert abs(curve.estimate) <= 1e-12


def test_pressure_curve_value_nonincreasing_in_eps():
    # 128 points: the automatic policy runs greedy
    cloud = build_cloud(SpaceSpec("circle_grid", 128))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    curve = pressure_estimate(cloud, sched, ZERO, [2, 4], [0.25, 0.125], word_budget=8, seed=0)
    by_eps = {}
    for e in curve.entries:
        assert e.method == "greedy"
        by_eps.setdefault(e.n, {})[e.eps] = e.value
    for n, vals in by_eps.items():
        assert vals[0.25] <= vals[0.125] + 1e-12


def test_sampled_mode_reports_stderr_and_reproduces():
    cloud, sched = two_point()
    psi = Potential("explicit_table", (0.0, 1.0))
    a = averaged_partition_sum(cloud, sched, 14, psi, 0.5, word_budget=64, seed=21)
    b = averaged_partition_sum(cloud, sched, 14, psi, 0.5, word_budget=64, seed=21)
    assert a.word_mode == "sampled" and a.word_count == 2**14
    assert a.log_average == b.log_average and a.stderr == b.stderr
    assert a.stderr >= 0.0


@pytest.mark.parametrize("n", [0, 1, 2, 20, 63, 64, 65, 300])
def test_conflict_masks_match_per_bit_formula(n):
    # the exact solvers' conflict masks are the balls less their centres;
    # balls are Python ints, so no width limit sits at 64 points
    rng = np.random.default_rng(n)
    m = np.round(rng.random((n, n)), 2)
    m = np.minimum(m, m.T)
    np.fill_diagonal(m, 0.0)
    # eps equal to a distance: the comparison is inclusive
    for eps in (0.0, 0.5, float(m[0, -1]) if n else 1.0, 1.0):
        per_bit = [sum(1 << j for j in range(n) if m[i, j] <= eps) for i in range(n)]
        assert pressure._balls(m, eps) == per_bit
    # all true; at n = 64 every ball sets bit 63
    assert pressure._balls(np.zeros((n, n)), 0.0) == [(1 << n) - 1] * n


@settings(max_examples=200)
@given(st.data())
def test_cover_bound_equals_per_element_formula(data):
    n = data.draw(st.integers(1, 64))
    # each ball holds its own centre, as every eps-ball does
    balls = [data.draw(st.integers(0, (1 << n) - 1)) | (1 << i) for i in range(n)]
    # tied weights, and weights whose ratios round: the sum must be bit-equal
    weight = st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, 1.0)
    w = [data.draw(weight) for _ in range(n)]
    uncov = data.draw(st.integers(1, (1 << n) - 1))
    # the balls holding each element, lightest first, as _bb_cover passes them
    by_weight = sorted(range(n), key=lambda i: (w[i], i))
    covers_elem = [[i for i in by_weight if (balls[i] >> e) & 1] for e in range(n)]
    assert pressure._cover_lower_bound(balls, w, uncov, covers_elem) == per_element_cover_bound(balls, w, uncov)


# tied weights, zero weights (exp underflow), subnormal weights and
# weights whose sums round differently in another order
SOLVER_WEIGHTS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 5e-324, 1e-310]) | st.floats(0.01, 1.0)


def _symmetric_balls(data, n):
    """Balls that each hold their own centre, as every eps-ball does, and
    hold each other's along a drawn edge list."""
    balls = [1 << i for i in range(n)]
    for i, j in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)):
        balls[i] |= 1 << j
        balls[j] |= 1 << i
    return balls


def _drawn_balls(data, n):
    """Symmetric balls, or an independent mask per point that holds its
    centre."""
    if data.draw(st.booleans()):
        return _symmetric_balls(data, n)
    return [data.draw(st.integers(0, (1 << n) - 1)) | (1 << i) for i in range(n)]


def _index_order_sum(wlin, mask):
    return math.fsum(float(wlin[i]) for i in sorted(pressure._bits(mask)))


def _assert_least_cover(balls, wlin, ref_mask):
    """_bb_cover's value is the fsum of its witness's weights in index
    order, bit for bit, and lies within 4 ulp of the fsum of the reference
    optimum ref_mask; its witness covers every point."""
    mask, value = pressure._bb_cover(balls, wlin)
    assert value.hex() == _index_order_sum(wlin, mask).hex()
    least = _index_order_sum(wlin, ref_mask)
    assert abs(value - least) <= 4 * math.ulp(least)
    covered = 0
    for i in pressure._bits(mask):
        covered |= balls[i]
    assert covered == (1 << len(balls)) - 1


@settings(max_examples=300)
@given(st.data())
def test_bb_cover_is_a_least_cover_summed_in_index_order(data):
    n = data.draw(st.integers(1, 16))
    balls = _drawn_balls(data, n)
    wlin = np.array([data.draw(SOLVER_WEIGHTS) for _ in range(n)])
    _assert_least_cover(balls, wlin, reference_exhaustive(balls, wlin, "spanning")[0])


@settings(max_examples=100, deadline=None)
@given(st.integers(17, 40), st.booleans(), st.integers(0, 2**32 - 1), st.data())
def test_bb_cover_is_a_least_cover_at_the_workload_size(n, symmetric, seed, data):
    # the benchmark's instances: closed Euclidean balls at a percentile of
    # the pairwise distances (low ones split into many components), or
    # asymmetric balls, each holding its own centre
    rng = np.random.default_rng(seed)
    if symmetric:
        pts = rng.random((n, 2))
        dm = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
        balls = pressure._balls(dm, float(np.quantile(dm[np.triu_indices(n, 1)], data.draw(st.floats(0.01, 0.4)))))
    else:
        inside = rng.random((n, n)) < data.draw(st.floats(0.02, 0.5))
        np.fill_diagonal(inside, True)
        balls = pressure._balls(np.where(inside, 0.0, 1.0), 0.0)
    # weights exp(S - max S) as the solves make them: tied sums, and sums
    # so low that their weight underflows to zero or to a subnormal
    term = st.sampled_from([0.0, -0.5, -1.0, -710.0, -800.0]) | st.floats(-3.0, 0.0)
    S = np.array(data.draw(st.lists(term, min_size=n, max_size=n)))
    wlin = np.exp(S - S.max())
    _assert_least_cover(balls, wlin, reference_bb_cover(balls, wlin)[0])


def test_bb_cover_solves_separated_clusters_one_by_one(monkeypatch):
    # 16 clusters of 4 points, 10 apart: the least cover is the union of
    # the clusters' own least covers, and only the clusters that need a
    # search read the bound
    rng = np.random.default_rng(64)
    pts = np.concatenate([10.0 * np.array(divmod(c, 4)) + rng.random((4, 2)) for c in range(16)])
    dm = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
    balls = pressure._balls(dm, 0.6)
    wlin = rng.random(64)
    union = 0
    for c in range(16):
        sub = slice(4 * c, 4 * c + 4)
        best, _ = reference_exhaustive(pressure._balls(dm[sub, sub], 0.6), wlin[sub], "spanning")
        union |= best << (4 * c)
    calls = []
    bound = pressure._cover_lower_bound
    monkeypatch.setattr(pressure, "_cover_lower_bound", lambda *args: calls.append(args[2]) or bound(*args))
    mask, value = pressure._bb_cover(balls, wlin)
    assert mask == union and value.hex() == _index_order_sum(wlin, union).hex()
    # no bound reads two clusters
    assert all(any(u | (15 << (4 * c)) == 15 << (4 * c) for c in range(16)) for u in calls)
    # 14 four-point and one three-point component are searched; one pair
    # and three isolated points are not
    assert len(calls) == 19


@settings(max_examples=300)
@given(st.data())
def test_bb_mwis_is_a_heaviest_independent_set_summed_in_index_order(data):
    n = data.draw(st.integers(1, 16))
    # symmetric conflicts: a separated set's conflicts come from a metric
    balls = _symmetric_balls(data, n)
    wlin = np.array([data.draw(SOLVER_WEIGHTS) for _ in range(n)])
    mask, value = pressure._bb_mwis([b & ~(1 << i) for i, b in enumerate(balls)], wlin)
    assert all(not balls[i] & ~(1 << i) & mask for i in pressure._bits(mask))
    assert value.hex() == _index_order_sum(wlin, mask).hex()
    best = _index_order_sum(wlin, reference_exhaustive(balls, wlin, "separated")[0])
    assert abs(value - best) <= 4 * math.ulp(best)


@settings(max_examples=200)
@given(st.data())
def test_subset_enumeration_matches_reference_bit_for_bit(data):
    n = data.draw(st.integers(0, 12))
    # each ball holds its own centre, as every eps-ball does
    balls = [data.draw(st.integers(0, (1 << n) - 1)) | (1 << i) for i in range(n)]
    # tied weights, zero weights (exp underflow), subnormal weights and
    # weights whose sums round differently in another order
    weight = st.sampled_from([0.0, 0.25, 0.5, 1.0, 5e-324]) | st.floats(0.01, 1.0)
    wlin = np.array([data.draw(weight) for _ in range(n)])
    for kind, pick in (("separated", np.argmax), ("spanning", np.argmin)):
        mask, value = pressure._best_subset(pressure._feasible_subsets(balls, kind), wlin, pick)
        ref_mask, ref_value = reference_exhaustive(balls, wlin, kind)
        assert (mask, value.hex()) == (ref_mask, ref_value.hex())


@settings(max_examples=100)
@given(st.data())
def test_greedy_cover_bits_matches_reference_pick_for_pick(data):
    n = data.draw(st.integers(1, 200))
    # each ball holds its own centre, as every eps-ball does
    balls = [data.draw(st.integers(0, (1 << n) - 1)) | (1 << i) for i in range(n)]
    # tied weights, zero weights (exp underflow), subnormal weights whose
    # ratios round to equal floats, and weights whose ratios round
    weight = st.sampled_from([0.0, 0.25, 0.5, 1.0, 5e-324, 1e-310]) | st.floats(0.01, 1.0)
    wlin = np.array([data.draw(weight) for _ in range(n)])
    dist = np.array([[0.0 if (b >> j) & 1 else 1.0 for j in range(n)] for b in balls])
    assert pressure._greedy_cover_bits(balls, wlin.tolist()) == reference_greedy_cover(dist, 0.5, wlin)


@pytest.mark.parametrize("solver", ["_bb_mwis", "_bb_cover"])
def test_branch_and_bound_leaves_no_cycles(solver):
    # a solve frees its search state on return: nothing is left for the
    # cycle collector
    rng = np.random.default_rng(24)
    m = rng.random((24, 24))
    m = np.minimum(m, m.T)
    np.fill_diagonal(m, 0.0)
    balls = pressure._balls(m, 0.3)
    masks = balls if solver == "_bb_cover" else [b & ~(1 << i) for i, b in enumerate(balls)]
    wlin = rng.random(24)
    gc.collect()
    gc.disable()
    try:
        getattr(pressure, solver)(masks, wlin)
        assert gc.collect() == 0
    finally:
        gc.enable()


@given(st.integers(0, 10**6), st.booleans(), st.integers(1, 3), st.floats(0.05, 0.95))
def test_branch_and_bound_matches_oracle(seed, constant, n, quantile):
    rng = random.Random(seed)
    cloud, sched = random_explicit_instance(rng, max_points=14, max_maps=2, max_cycle=2)
    words, _, _ = enumerate_words(sched, 1, n, None, 0)
    w = words[rng.randrange(len(words))]
    dm = cloud.dmatrix()
    off = sorted(dm[~np.eye(len(cloud), dtype=bool)])
    eps = off[int(quantile * len(off))]
    if constant:
        # equal weights: every tie in the solvers is met
        psi = Potential("constant", (rng.uniform(-1, 1),))
    else:
        psi = Potential("explicit_table", tuple(rng.uniform(-1, 1) for _ in range(len(cloud))))
    mode = "branch_and_bound"

    sep = max_separated(cloud, sched, w, n, eps, mode=mode)
    assert sep.exact and sep.method == mode
    assert sep.lower_bound == oracle_max_separated(cloud, sched, w, n, eps)
    span = min_spanning(cloud, sched, w, n, eps, mode=mode)
    assert span.exact and span.method == mode
    assert span.lower_bound == oracle_min_spanning(cloud, sched, w, n, eps)
    p = partition_sum_separated(cloud, sched, w, n, psi, eps, mode=mode)
    assert p.exact and p.log_value == pytest.approx(oracle_partition_separated(cloud, sched, w, n, psi, eps), abs=1e-12)
    q = partition_sum_spanning(cloud, sched, w, n, psi, eps, mode=mode)
    assert q.exact and q.log_value == pytest.approx(oracle_partition_spanning(cloud, sched, w, n, psi, eps), abs=1e-12)


def test_sup_entropy_edge_cases():
    cloud, sched = two_point()
    empty = sup_entropy_estimate(cloud, sched, [], range(1, 4), [0.5])
    assert empty.estimate == 0.0 and empty.subset_size == 0
    single = sup_entropy_estimate(cloud, sched, [0], range(1, 4), [0.5])
    assert single.estimate == 0.0
    whole = sup_entropy_estimate(cloud, sched, [0, 1], range(1, 6), [0.5])
    assert whole.estimate == pytest.approx(0.0, abs=1e-12)
    for e in whole.entries:
        assert e.separated == 2
    for s in whole.sandwiches:
        assert s.r_eps <= s.s_eps <= s.r_half
    # a subset holds cloud indices, which must lie in the cloud
    doubling = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    circle = build_cloud(SpaceSpec("circle_grid", 4))
    for c, sch in ((cloud, sched), (circle, doubling)):
        for bad in (len(c), -1):
            with pytest.raises(KeyError):
                sup_entropy_estimate(c, sch, [0, bad], [1], [0.5])
    # a point value is not an index, even where it names a cloud point
    for point in (0.75, 0.0):
        with pytest.raises(TypeError):
            sup_entropy_estimate(circle, doubling, [3, point], [1], [0.5])
    assert sup_entropy_estimate(circle, doubling, [3, np.int64(3)], [1], [0.5]).subset_size == 1


def test_a_broken_sandwich_raises(monkeypatch):
    # a spanning witness padded by one point at eps makes r*(eps) = 3 exceed
    # s*(eps) = 2 on the two-point cloud, with every count still exact
    cloud, sched = two_point()
    solve = pressure._solve_spanning_weighted

    def padded(ctx, S, eps, mode="auto"):
        value, idxs, method, exact = solve(ctx, S, eps, mode)
        return value, idxs + idxs[:1] if eps == 0.5 else idxs, method, exact

    monkeypatch.setattr(pressure, "_solve_spanning_weighted", padded)
    with pytest.raises(RuntimeError, match=r"sandwich r\*\(eps\) <= s\*\(eps\) <= r\*\(eps/2\) failed at n=1, eps=0.5: 3, 2, 2"):
        sup_entropy_estimate(cloud, sched, [0, 1], [1, 2], [0.5])


def test_sup_entropy_sandwich_on_random_instances():
    for seed in range(4):
        rng = random.Random(70 + seed)
        cloud, sched = random_explicit_instance(rng, max_points=8, max_maps=2, max_cycle=2)
        dm = cloud.dmatrix()
        off = sorted(dm[~np.eye(len(cloud), dtype=bool)])
        eps = off[len(off) // 2]
        res = sup_entropy_estimate(cloud, sched, range(len(cloud)), range(1, 4), [eps])
        assert res.sandwiches, "exact counts expected on small instances"
        for s in res.sandwiches:
            assert s.r_eps <= s.s_eps <= s.r_half


@given(st.floats(-2.0, 2.0, allow_nan=False), st.integers(0, 100))
def test_constant_shift_property(c, salt):
    rng = random.Random(salt)
    cloud, sched = random_explicit_instance(rng, max_points=6, max_maps=2, max_cycle=1)
    n_pts = len(cloud)
    vals = [rng.uniform(-1, 1) for _ in range(n_pts)]
    base_pot = Potential("explicit_table", tuple(vals))
    shifted_pot = Potential("explicit_table", tuple(v + c for v in vals))
    words, _, _ = enumerate_words(sched, 1, 2, None, 0)
    w = words[0]
    eps = 0.3
    base = partition_sum_separated(cloud, sched, w, 2, base_pot, eps)
    shifted = partition_sum_separated(cloud, sched, w, 2, shifted_pot, eps)
    assert shifted.log_value == pytest.approx(base.log_value + 3 * c, rel=1e-12, abs=1e-11)


def test_spanning_kind_pipeline():
    cloud, sched = two_point()
    curve = pressure_estimate(cloud, sched, ZERO, range(1, 6), [0.5], word_budget=64, seed=0, kind="spanning")
    assert curve.kind == "spanning"
    for e in curve.entries:
        assert e.log_average == pytest.approx(math.log(2), abs=1e-12)


def _solve(orbit, kind, psi, eps, mode):
    solve = pressure._solve_separated_weighted if kind == "separated" else pressure._solve_spanning_weighted
    log_value, witness, method, exact = solve(orbit, pressure._birkhoff_vector(orbit, psi), eps, mode)
    return log_value.hex(), witness, method, exact


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 12), st.integers(1, 2), st.data())
def test_orbit_cache_solves_equal_fresh_orbit_solves(seed, max_points, n, data):
    # one orbit solves several eps (repeats included), potentials, kinds and
    # modes in a shuffled order, reading its cached balls and feasible
    # subsets; each result must equal a solve on a fresh orbit bit for bit
    rng = random.Random(seed)
    cloud, sched = random_explicit_instance(rng, max_points=max_points, max_maps=2, max_cycle=2)
    words, _, _ = enumerate_words(sched, 1, n, None, 0)
    w = words[rng.randrange(len(words))]
    off = sorted(cloud.dmatrix()[~np.eye(len(cloud), dtype=bool)])
    eps_values = [off[int(q * len(off))] for q in data.draw(st.lists(st.floats(0.0, 0.99), min_size=1, max_size=3))]
    psis = [Potential("explicit_table", tuple(rng.uniform(-1, 1) for _ in range(len(cloud)))) for _ in range(2)]
    psis.append(Potential("constant", (0.0,)))  # equal weights: every tie is met
    jobs = [
        (eps, psi, kind, mode)
        for eps in eps_values
        for psi in psis
        for kind in pressure.KINDS
        for mode in ("auto", "branch_and_bound", "greedy")
    ]
    rng.shuffle(jobs)
    orbit = pressure._word_orbit(cloud, sched, w, n)
    for eps, psi, kind, mode in jobs:
        got = _solve(orbit, kind, psi, eps, mode)
        assert got == _solve(pressure._word_orbit(cloud, sched, w, n), kind, psi, eps, mode)
        if got[3]:
            oracle = oracle_partition_separated if kind == "separated" else oracle_partition_spanning
            assert float.fromhex(got[0]) == pytest.approx(oracle(cloud, sched, w, n, psi, eps), abs=1e-12)
    assert set(orbit._balls) == set(eps_values)


def test_basic_properties_build_one_feasibility_table_per_word_and_eps(monkeypatch):
    # ten potentials are solved per word at one eps; the weight-free
    # tables are built once per orbit
    built = []
    feasible = pressure._feasible_subsets
    monkeypatch.setattr(pressure, "_feasible_subsets", lambda balls, kind: built.append(kind) or feasible(balls, kind))
    rng = random.Random(11)
    cloud, sched = random_explicit_instance(rng, max_points=10, max_maps=2, max_cycle=2)
    phi, psi = (Potential("explicit_table", tuple(rng.uniform(-1, 1) for _ in range(len(cloud)))) for _ in range(2))
    off = sorted(cloud.dmatrix()[~np.eye(len(cloud), dtype=bool)])
    n = 2
    words, _, _ = enumerate_words(sched, 1, n, None, 0)
    for eps in (off[len(off) // 3], off[len(off) // 2]):
        built.clear()
        check_basic_properties(cloud, sched, phi, psi, eps, n, 0.4, 2.0)
        assert built == ["separated"] * len(words)


def test_sup_entropy_reuses_the_half_eps_tables(monkeypatch):
    # with eps halving, the spanning solve at eps / 2 is the next eps's
    # spanning solve: each orbit packs balls once per distinct eps
    # spanning solve: each orbit packs balls once per distinct eps, all of
    # them in one pass of the ball builder
    packed, passes = [], []
    balls, word_balls = pressure._balls, pressure._word_balls
    monkeypatch.setattr(pressure, "_balls", lambda matrix, eps: packed.append(eps) or balls(matrix, eps))
    monkeypatch.setattr(pressure, "_word_balls", lambda orbits, eps_list: passes.append(list(eps_list)) or word_balls(orbits, eps_list))
    rng = random.Random(12)
    cloud, sched = random_explicit_instance(rng, max_points=8, max_maps=2, max_cycle=2)
    eps_list = [0.4, 0.2, 0.1]
    sup_entropy_estimate(cloud, sched, range(len(cloud)), [1, 2], eps_list)
    assert packed == [0.4, 0.2, 0.1, 0.05] * 2
    assert passes == [[0.4, 0.2, 0.1, 0.05]] * 2


# The class solver of symbolic orbits (pressure._class_sum).  The auto
# dispatch sends it only orbits past BRANCH_AND_BOUND_LIMIT; these tests
# call it directly on small ones, where the oracles can check it.


@st.composite
def symbolic_word_orbits(draw):
    """The orbit along one word of at most 12 distinct words over 2 or 3
    letters, under a prefix and a two-generation cycle of shift, identity
    and substitution maps (a substitution need not be injective), with a
    weight per point that varies inside the eps-classes."""
    m = draw(st.sampled_from([2, 3]))
    depth = draw(st.integers(2, 5))
    space = SpaceSpec("symbolic_depth", depth, alphabet_size=m)
    words = draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * depth), min_size=1, max_size=12, unique=True))
    cloud = PointCloud(space, points_to_batch(space, words))
    substitution = MapSpec("symbol_substitution_table", tuple(draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))))
    maps = st.sampled_from([MapSpec("shift"), ID, substitution])
    generation = st.lists(maps, min_size=1, max_size=2).map(tuple)
    sched = GenerationSchedule(prefix=(draw(generation),), cycle=(draw(generation), draw(generation)))
    # at most depth shifts: the words never run out
    n = draw(st.integers(0, depth))
    symbols = tuple(draw(st.integers(0, len(generation_at(sched, g)) - 1)) for g in range(1, n + 1))
    w = Word(1, symbols)
    weight = st.one_of(st.integers(-2, 2).map(float), st.floats(-3.0, 3.0))
    S = np.array(draw(st.lists(weight, min_size=len(words), max_size=len(words))))
    return cloud, sched, w, n, S


@settings(max_examples=150, deadline=None)
@given(symbolic_word_orbits(), st.sampled_from(["separated", "spanning"]), st.one_of(st.integers(0, 6).map(lambda k: 2.0**-k), st.floats(0.01, 1.5)))
def test_class_sums_match_the_oracle_on_small_symbolic_clouds(orbit, kind, eps):
    cloud, sched, w, n, S = orbit
    ctx = pressure._word_orbit(cloud, sched, w, n)
    value, idxs = pressure._class_sum(ctx, S, eps, kind)
    weights = dict(zip(points_of(cloud), S.tolist()))
    assert value == pytest.approx(oracle_weighted_sum(cloud, sched, w, n, weights, eps, kind), rel=1e-12, abs=1e-12)
    # one point per class, the heaviest (separated) or lightest (spanning)
    assert idxs == sorted(set(idxs))
    label = pressure._ultrametric_classes(ctx, eps)
    assert len(idxs) == len(set(label.tolist()))
    pick = max if kind == "separated" else min
    for i in idxs:
        assert S[i] == pick(S[label == label[i]])


def test_class_sums_key_every_step_of_the_orbit():
    # at n = 2 and eps = 1/4 two words share a class when they agree on
    # symbols 0-1, 1-2 and 2-3: 16 classes.  Keyed on step 0 alone there
    # would be 4, and those 4 still pass the separated re-check
    cloud = build_cloud(SpaceSpec("symbolic_depth", 6, alphabet_size=2))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("shift"),),))
    ctx = pressure._word_orbit(cloud, sched, Word(1, (0, 0)), 2)
    for kind in ("separated", "spanning"):
        value, idxs = pressure._class_sum(ctx, np.zeros(64), 0.25, kind)
        assert len(idxs) == 16 and value == pytest.approx(math.log(16), rel=1e-15)
    # heaviest and lightest of each class: the first 4 symbols fix the class
    S = np.arange(64.0)
    assert pressure._class_sum(ctx, S, 0.25, "separated")[1] == list(range(3, 64, 4))
    assert pressure._class_sum(ctx, -S, 0.25, "spanning")[1] == list(range(3, 64, 4))


def test_wide_keys_are_made_dense_before_they_pass_64_bits():
    # 60 binary symbols at eps = 2**-60: each step's key is 52 + 8 bits
    # wide.  The label is made dense between steps, and with more than
    # 2**12 distinct labels the 52-bit key is made dense too
    rng = np.random.default_rng(7)
    batch = rng.integers(0, 2, size=(5000, 60), dtype=np.int8)
    batch[1::2, :30] = batch[::2, :30]
    batch[-1] = batch[0]
    cloud = PointCloud(SpaceSpec("symbolic_depth", 60, alphabet_size=2), batch)
    sched = GenerationSchedule(prefix=(), cycle=((ID,),))
    ctx = pressure._word_orbit(cloud, sched, Word(1, (0, 0)), 2)

    def first_index(keys):
        seen = {}
        return [seen.setdefault(key, i) for i, key in enumerate(keys)]

    for k in (60, 59, 31, 30):
        # the same partition: equal labels exactly where the k-prefixes are equal
        label = pressure._ultrametric_classes(ctx, 2.0**-k)
        assert first_index(label.tolist()) == first_index(map(bytes, batch[:, :k]))


def test_a_forced_greedy_solve_on_words_reads_full_rows():
    # words have no step-0 window: the shift_pressure cloud at n = 1, where a
    # Bowen eps-ball is a cylinder of 4 symbols, not the 3 of step 0 alone
    config = ExperimentConfig.from_dict(json.loads(json.dumps(EXAMPLE_CONFIGS["shift_pressure"])))
    w = Word(1, (0,))
    ctx = pressure._word_orbit(config.cloud, config.schedule, w, 1)
    assert ctx.window(5, 0.125).tolist() == list(range(len(config.cloud)))
    forced = partition_sum_separated(config.cloud, config.schedule, w, 1, config.potential, 0.125, mode="greedy")
    exact = partition_sum_separated(config.cloud, config.schedule, w, 1, config.potential, 0.125)
    assert (forced.method, forced.exact, forced.witness_size) == ("greedy", False, 16)
    assert (exact.method, exact.exact, exact.witness_size) == (pressure.CLASSES, True, 16)
    assert forced.log_value == pytest.approx(exact.log_value, rel=1e-12)
