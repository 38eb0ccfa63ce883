import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from naifslab import (
    GenerationSchedule,
    MapSpec,
    PointCloud,
    Potential,
    SpaceSpec,
    Word,
    averaged_partition_sum,
    birkhoff_sum,
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
from naifslab.theorems import random_explicit_instance
from oracles import (
    oracle_birkhoff,
    oracle_max_separated,
    oracle_min_spanning,
    oracle_partition_separated,
    oracle_partition_spanning,
)

ID = MapSpec("identity")
SWAP2 = MapSpec("permutation_table", (1, 0))
ZERO = Potential("constant", (0.0,))


def two_point():
    cloud = build_cloud(SpaceSpec("finite_explicit", distance_matrix=((0.0, 1.0), (1.0, 0.0))))
    return cloud, GenerationSchedule(prefix=(), cycle=((ID, SWAP2),))


def test_birkhoff_constant_counts_terms():
    cloud, sched = two_point()
    pot = Potential("constant", (0.7,))
    for n in range(4):
        w = Word(1, (0,) * 4)
        assert birkhoff_sum(cloud, sched, w, n, pot, 0) == pytest.approx((n + 1) * 0.7)


def test_birkhoff_doubling_orbit():
    cloud = build_cloud(SpaceSpec("circle_grid", 16))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    pot = Potential("coordinate_affine", (1.0, 0.0))
    w = Word(1, (0, 0))
    assert birkhoff_sum(cloud, sched, w, 2, pot, 0.3) == pytest.approx(1.1)
    assert birkhoff_sum(cloud, sched, w, 0, pot, 0.3) == pytest.approx(0.3)


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
        smin = min(oracle_birkhoff(cloud, sched, w, 2, psi, x) for x in cloud.points)
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
    cloud = PointCloud(points=(x, y), space=SpaceSpec("symbolic_depth", 52, alphabet_size=2))
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
        assert e.exact and e.log_avg == pytest.approx(math.log(2), abs=1e-12)
        assert e.value == pytest.approx(math.log(2) / e.n, abs=1e-12)
    assert abs(curve.estimate) <= 1e-12


def test_pressure_curve_value_nonincreasing_in_eps():
    cloud = build_cloud(SpaceSpec("circle_grid", 64))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    curve = pressure_estimate(cloud, sched, ZERO, [2, 4], [0.25, 0.125], word_budget=8, seed=0, mode="greedy")
    by_eps = {}
    for e in curve.entries:
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


def test_workers_do_not_change_results():
    cloud, sched = two_point()
    psi = Potential("explicit_table", (0.0, 1.0))
    serial = averaged_partition_sum(cloud, sched, 6, psi, 0.5, word_budget=None, workers=1)
    parallel = averaged_partition_sum(cloud, sched, 6, psi, 0.5, word_budget=None, workers=2)
    assert serial.log_average == parallel.log_average


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
        assert s.ok and s.r_eps <= s.s_eps <= s.r_half


def test_sup_entropy_sandwich_on_random_instances():
    for seed in range(4):
        rng = random.Random(70 + seed)
        cloud, sched = random_explicit_instance(rng, max_points=8, max_maps=2, max_cycle=2)
        dm = cloud.dmatrix()
        off = sorted(dm[~np.eye(len(cloud), dtype=bool)])
        eps = off[len(off) // 2]
        res = sup_entropy_estimate(cloud, sched, list(cloud.points), range(1, 4), [eps])
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
        assert e.log_avg == pytest.approx(math.log(2), abs=1e-12)
