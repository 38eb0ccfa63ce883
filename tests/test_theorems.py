import hashlib
import itertools
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naifslab import (
    FactorMapSpec,
    GenerationSchedule,
    MapSpec,
    NAIFS,
    Potential,
    SpaceSpec,
    build_cloud,
    check_basic_properties,
    check_equicontinuity,
    check_factor_conjugacy,
    check_factor_lower,
    check_factor_upper,
    check_power_rule,
    check_truncation_monotonicity,
    enumerate_words,
    generation_at,
    power_system,
    run_finite_inequality_suite,
    summarize_reports,
)
from naifslab.catalog import EXAMPLE_CONFIGS
from naifslab.cli import ExperimentConfig, _run_checks, main
from naifslab.pressure import (
    AveragedPartitionSum,
    EpsSummary,
    PressureCurve,
    SandwichCheck,
    SupEntropyEntry,
    _birkhoff_vector,
    _BowenOrbit,
    _solve_separated_weighted,
    _solve_spanning_weighted,
    _word_orbit,
    _birkhoff_vectors,
    _word_orbits,
    pressure_estimate,
    sup_entropy_estimate,
    sup_orbit,
)
from naifslab.naifs import Word, apply_map, fiber_indices, orbit_batches, reachable_batches
from naifslab.space import batch_to_points, eval_potential_batch, pairwise_distances
from naifslab.theorems import (
    FINITE_LEVEL,
    HOLDS_EXACT,
    HOLDS_WITHIN_TOL,
    INCONCLUSIVE,
    PROXY_LEVEL,
    REL_TOL_EQUALITY,
    REL_TOL_EXACT,
    VERDICTS,
    VIOLATED,
    DERIVED,
    _derived_terms,
    _factor_estimates,
    _fiber_eps_schedule,
    _sample_pairs,
    comparison_report,
    pullback_potential,
    random_explicit_instance,
    semiconjugacy_report,
)
from oracles import canonical_key, oracle_derived_birkhoff, oracle_pullback_table

ID = MapSpec("identity")
SWAP2 = MapSpec("permutation_table", (1, 0))
ZERO = Potential("constant", (0.0,))


def two_point():
    cloud = build_cloud(SpaceSpec("finite_explicit", distance_matrix=((0.0, 1.0), (1.0, 0.0))))
    return cloud, GenerationSchedule(prefix=(), cycle=((ID, SWAP2),))


def test_basic_properties_two_point_example():
    cloud, sched = two_point()
    psi = Potential("explicit_table", (0.0, 1.0))
    reports = check_basic_properties(cloud, sched, ZERO, psi, eps=0.5, n=2, p=0.5, c=2.0)
    finite = [r for r in reports if r.level == FINITE_LEVEL]
    assert len(finite) == 8
    assert all(r.verdict == HOLDS_EXACT for r in finite)
    proxy = [r for r in reports if r.level == PROXY_LEVEL]
    assert len(proxy) == 1 and proxy[0].name == "pressure/finiteness-link"


def test_basic_properties_equality_cases():
    cloud, sched = two_point()
    psi = Potential("explicit_table", (0.2, -0.7))
    # phi == psi makes the Lipschitz gap vanish; c == 1 makes scaling an identity
    reports = check_basic_properties(cloud, sched, psi, psi, eps=0.5, n=3, p=0.3, c=1.0)
    by_name = {r.name: r for r in reports}
    assert by_name["pressure/lipschitz-in-potential"].lhs == pytest.approx(0.0, abs=1e-12)
    assert by_name["pressure/power-scaling"].lhs == pytest.approx(0.0, abs=1e-12)
    assert by_name["pressure/additive-constant"].verdict == HOLDS_EXACT


def test_power_rule_two_point_example():
    cloud, sched = two_point()
    psi = Potential("explicit_table", (0.2, 0.5))
    reports = check_power_rule(cloud, sched, psi, n=2, m_range=(1, 2, 3), eps_list=[0.5])
    core = [r for r in reports if r.name == "power/spanning-transfer"]
    assert core and core[0].verdict == HOLDS_EXACT
    proxy = [r for r in reports if r.name == "power/upper-bound-proxy"]
    assert proxy and proxy[0].verdict == "holds_within_tol"


def test_power_rule_unit_power_trivial():
    cloud, sched = two_point()
    psi = Potential("explicit_table", (0.2, 0.5))
    reports = check_power_rule(cloud, sched, psi, n=1, m_range=(1, 2), eps_list=[0.5], include_proxy=False)
    assert reports[0].verdict == HOLDS_EXACT
    assert reports[0].slack >= -1e-12


def test_power_rule_rejects_negative_potential():
    cloud, sched = two_point()
    with pytest.raises(ValueError, match="nonnegative"):
        check_power_rule(cloud, sched, Potential("explicit_table", (0.2, -0.1)), n=2, m_range=(1,), eps_list=[0.5])


def test_power_rule_rejects_a_potential_negative_only_off_the_cloud():
    cloud = build_cloud(SpaceSpec("interval_grid", 3))
    # >= 0 on the cloud {0, 0.5, 1}, and -0.6 at x = 0.2, the image of 0
    psi = Potential("piecewise_linear", (1.0, -1.0, 1.0, 1.0, 1.0))
    assert min(eval_potential_batch(cloud.space, psi, cloud.batch)) >= 0.0
    assert eval_potential_batch(cloud.space, psi, np.array([0.2]))[0] == pytest.approx(-0.6)
    fixed = GenerationSchedule((), ((ID,),))
    assert check_power_rule(cloud, fixed, psi, n=1, m_range=(1,), eps_list=[0.5], include_proxy=False)
    moving = GenerationSchedule((), ((MapSpec("affine_clamped", (0.5, 0.2)),),))
    with pytest.raises(ValueError, match="nonnegative"):
        check_power_rule(cloud, moving, psi, n=1, m_range=(1,), eps_list=[0.5], include_proxy=False)


def test_power_rule_constant_equality_report():
    cloud, sched = two_point()
    reports = check_power_rule(cloud, sched, Potential("constant", (0.4,)), n=2, m_range=(1, 2, 3), eps_list=[0.5])
    eq = [r for r in reports if r.name == "power/constant-potential-equality"]
    assert eq and eq[0].verdict == "holds_within_tol"


_DOUBLING = MapSpec("doubling")
_QUARTER = MapSpec("rotation", (0.25,))


@st.composite
def _power_instances(draw):
    """A random finite instance or a circle doubling/rotation schedule (each
    with a prefix of 0 or 1 generations), n, m and a word of length m * n."""
    n, m = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        cloud, schedule = random_explicit_instance(random.Random(draw(st.integers(0, 10_000))), max_points=10)
        psi = Potential("explicit_table", tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=len(cloud), max_size=len(cloud)))))
        off = np.sort(cloud.dmatrix()[~np.eye(len(cloud), dtype=bool)])
        eps = float(off[draw(st.integers(0, len(off) - 1))])
    else:
        gens = st.sampled_from([(_DOUBLING,), (_QUARTER,), (_DOUBLING, _QUARTER), (_QUARTER, _DOUBLING)])
        schedule = GenerationSchedule(
            prefix=tuple(draw(st.lists(gens, max_size=1))), cycle=tuple(draw(st.lists(gens, min_size=1, max_size=2)))
        )
        cloud = build_cloud(SpaceSpec("circle_grid", draw(st.sampled_from([16, 24]))))
        psi = Potential("piecewise_linear", (0.0, 1.0, 0.2, 0.9))
        eps = draw(st.sampled_from([0.04, 0.0625, 0.125, 0.3]))
    symbols = tuple(draw(st.integers(0, len(generation_at(schedule, 1 + t)) - 1)) for t in range(m * n))
    return cloud, schedule, n, m, Word(1, symbols), psi, eps


@settings(max_examples=60, deadline=None)
@given(_power_instances())
def test_power_orbit_is_every_nth_base_step(instance):
    # check_power_rule builds the power system's orbit from its base orbit's steps
    cloud, schedule, n, m, w, psi, eps = instance
    steps = _word_orbit(cloud, schedule, w, m * n).batches[::n]
    # the power system's words come in the order of the base words they block
    power = power_system(schedule, n)
    base_words = enumerate_words(schedule, 1, m * n, None, 0)[0]
    wstar = enumerate_words(power, 1, m, None, 0)[0][base_words.index(w)]
    [powered] = orbit_batches(cloud.space, power, [wstar], m, cloud.batch)
    assert len(steps) == len(powered) == m + 1
    for a, b in zip(steps, powered):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    ctx, ctx_pow = _BowenOrbit(cloud, steps), _BowenOrbit(cloud, powered)
    for solve in (_solve_spanning_weighted, _solve_separated_weighted):
        got, want = (solve(c, _birkhoff_vector(c, psi), eps) for c in (ctx, ctx_pow))
        assert (got[0].hex(), got[1:]) == (want[0].hex(), want[1:])


def test_truncation_constant_schedule_has_zero_proxy_slack():
    cloud, sched = two_point()
    psi = Potential("explicit_table", (0.1, 0.6))
    reports = check_truncation_monotonicity(cloud, sched, psi, 1, 2, n_range=(2, 3, 4), eps_list=[0.5])
    proxy = [r for r in reports if r.name == "truncation/monotonicity-proxy"][0]
    assert proxy.slack == pytest.approx(0.0, abs=1e-12)
    counting = [r for r in reports if r.name == "truncation/net-counting"][0]
    assert counting.verdict == HOLDS_EXACT


def test_truncation_expanding_prefix_example():
    cloud = build_cloud(SpaceSpec("circle_grid", 256))
    sched = GenerationSchedule(prefix=((MapSpec("doubling"),),), cycle=((ID,),))
    reports = check_truncation_monotonicity(cloud, sched, ZERO, 1, 2, n_range=(2, 3, 4, 5), eps_list=[0.125])
    proxy = [r for r in reports if r.level == PROXY_LEVEL][0]
    assert proxy.verdict == "holds_within_tol"
    assert abs(proxy.lhs) <= 0.2 and abs(proxy.rhs) <= 1e-9


def test_truncation_counting_eight_point_instance():
    rng = random.Random(5)
    cloud, sched = random_explicit_instance(rng, max_points=8, max_maps=2, max_cycle=2)
    dm = cloud.dmatrix()
    eps = float(np.median(dm[~np.eye(len(cloud), dtype=bool)]))
    reports = check_truncation_monotonicity(cloud, sched, ZERO, 1, 3, n_range=(3,), eps_list=[eps], include_proxy=False)
    assert reports[0].verdict == HOLDS_EXACT


def test_equicontinuity_moduli():
    c = build_cloud(SpaceSpec("circle_grid", 256))
    rot = check_equicontinuity(c, GenerationSchedule((), ((MapSpec("rotation", (0.25,)),),)), [0.25, 0.125])
    assert dict(rot.table) == {0.25: 0.25, 0.125: 0.125}
    dbl = check_equicontinuity(c, GenerationSchedule((), ((MapSpec("doubling"),),)), [0.25, 0.125])
    assert dict(dbl.table) == {0.25: 0.125, 0.125: 0.0625}
    i = build_cloud(SpaceSpec("interval_grid", 129))
    tent = check_equicontinuity(i, GenerationSchedule((), ((MapSpec("tent"),),)), [0.125])
    assert dict(tent.table) == {0.125: 0.0625}


@pytest.mark.parametrize(
    "spec, maps",
    [
        (SpaceSpec("interval_grid", 40), (MapSpec("tent"), MapSpec("affine_clamped", (0.5, 0.25)))),
        (SpaceSpec("circle_grid", 40), (MapSpec("doubling"), MapSpec("rotation", (0.3,)))),
        # 512 points: the pairs are sampled
        (SpaceSpec("symbolic_depth", 9, alphabet_size=2), (MapSpec("shift"), MapSpec("symbol_substitution_table", (1, 0)))),
        (SpaceSpec("finite_explicit", distance_matrix=((0.0, 1.0, 0.5), (1.0, 0.0, 0.5), (0.5, 0.5, 0.0))), (MapSpec("permutation_table", (1, 2, 0)),)),
    ],
)
def test_equicontinuity_table_equals_a_pairwise_reference(spec, maps):
    # the diagnostic's pair distances, read from one pairwise matrix per
    # batch: delta(eps) is the least base distance of a sampled pair that
    # some map of the horizon stretches to eps or more
    cloud = build_cloud(spec)
    sched = GenerationSchedule(prefix=(), cycle=(maps[:1], maps))
    eps_list = [0.5, 0.25, 0.1]
    ia, ib, _ = _sample_pairs(len(cloud))
    base = pairwise_distances(cloud, cloud.batch, cloud.batch)[ia, ib]
    images = [apply_map(cloud.space, m, cloud.batch) for gen in sched.cycle for m in gen]
    stretch = np.max([pairwise_distances(cloud, im, im)[ia, ib] for im in images], axis=0)
    want = tuple((eps, float(base[stretch >= eps].min()) if (stretch >= eps).any() else cloud.diameter()) for eps in eps_list)
    assert check_equicontinuity(cloud, sched, eps_list).table == want


def quotient_factor():
    dm = (
        (0.0, 1.0, 0.4, 1.0),
        (1.0, 0.0, 1.0, 0.4),
        (0.4, 1.0, 0.0, 1.0),
        (1.0, 0.4, 1.0, 0.0),
    )
    src = NAIFS(
        build_cloud(SpaceSpec("finite_explicit", distance_matrix=dm)),
        GenerationSchedule((), ((ID, MapSpec("permutation_table", (1, 2, 3, 0))),)),
    )
    tgt = NAIFS(
        build_cloud(SpaceSpec("finite_explicit", distance_matrix=((0.0, 1.0), (1.0, 0.0)))),
        GenerationSchedule((), ((ID, SWAP2),)),
    )
    return FactorMapSpec(source=src, target=tgt, kind="index_table", table=(0, 1, 0, 1))


def test_factor_lower_quotient():
    rep = check_factor_lower(quotient_factor(), ZERO, n_range=range(1, 7), eps_list=[0.5])
    assert rep.verdict == "holds_within_tol"
    assert abs(rep.lhs) <= 1e-12 and abs(rep.rhs) <= 1e-12


def test_factor_upper_quotient_has_zero_fiber_term():
    rep = check_factor_upper(quotient_factor(), ZERO, n_range=range(1, 7), eps_list=[0.5], fiber_sample=2)
    assert rep.verdict == "holds_within_tol"
    assert "h_term=0.0" in rep.context


def test_factor_conjugacy_identity_slack_zero():
    cloud, sched = two_point()
    factor = FactorMapSpec(
        source=NAIFS(cloud, sched), target=NAIFS(cloud, sched), kind="index_table", table=(0, 1)
    )
    phi = Potential("explicit_table", (0.3, -0.2))
    reports = check_factor_conjugacy(factor, phi, n_range=range(1, 7), eps_list=[0.5])
    eq = [r for r in reports if r.name == "factor/conjugacy-equality"][0]
    assert eq.slack == pytest.approx(0.0, abs=1e-12)
    assert all(r.verdict == "holds_within_tol" for r in reports)


def _collapsing_pair():
    cloud, sched = two_point()
    return FactorMapSpec(source=NAIFS(cloud, sched), target=NAIFS(cloud, sched), kind="index_table", table=(0, 0))


def _binary_expansion_factor():
    identity = GenerationSchedule((), ((ID,),))
    src = NAIFS(build_cloud(SpaceSpec("symbolic_depth", resolution=4, alphabet_size=2)), identity)
    return FactorMapSpec(source=src, target=NAIFS(build_cloud(SpaceSpec("circle_grid", 16)), identity), kind="binary_expansion")


def test_factor_conjugacy_rejects_noninvertible():
    for factor, message in (
        (quotient_factor(), "index table is not a bijection"),
        (_collapsing_pair(), "index table is not a bijection"),
        (_binary_expansion_factor(), "factor kind 'binary_expansion' has no computable inverse"),
    ):
        with pytest.raises(ValueError, match=message):
            check_factor_conjugacy(factor, ZERO, n_range=range(1, 4), eps_list=[0.5])


@pytest.mark.parametrize("bad", [[], [0], [1, 2.5]], ids=["empty", "zero", "nonintegral"])
def test_every_n_range_parser_refuses_a_bad_range(bad):
    cloud, sched = two_point()
    still = NAIFS(cloud, GenerationSchedule((), ((ID,),)))
    invertible = FactorMapSpec(source=still, target=still, kind="index_table", table=(0, 1))
    calls = {
        "pressure_estimate": lambda: pressure_estimate(cloud, sched, ZERO, bad, [0.5]),
        "sup_entropy_estimate": lambda: sup_entropy_estimate(cloud, sched, [0, 1], bad, [0.5]),
        "check_power_rule": lambda: check_power_rule(cloud, sched, ZERO, n=1, m_range=bad, eps_list=[0.5]),
        "check_truncation_monotonicity": lambda: check_truncation_monotonicity(cloud, sched, ZERO, 1, 2, bad, [0.5]),
        "check_factor_lower": lambda: check_factor_lower(quotient_factor(), ZERO, bad, [0.5]),
        "check_factor_upper": lambda: check_factor_upper(quotient_factor(), ZERO, bad, [0.5]),
        "check_factor_conjugacy": lambda: check_factor_conjugacy(invertible, ZERO, bad, [0.5]),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="_range must be a nonempty list of integers >= 1"):
            call()
            pytest.fail(f"{name} accepted {bad!r}")


@pytest.mark.parametrize("bad", [2.5, 1.5, math.nan, math.inf, 0, "2"])
def test_scalar_step_counts_are_refused_by_the_n_range_rule(bad):
    cloud, sched = two_point()
    kw = dict(n_range=[1, 2], eps_list=[0.5])
    calls = [
        ("n", lambda: check_basic_properties(cloud, sched, ZERO, ZERO, 0.5, n=bad, p=0.5, c=1.0)),
        ("n", lambda: check_power_rule(cloud, sched, ZERO, n=bad, m_range=[1, 2], eps_list=[0.5])),
        ("i", lambda: check_truncation_monotonicity(cloud, sched, ZERO, bad, 2, include_proxy=False, **kw)),
        ("j", lambda: check_truncation_monotonicity(cloud, sched, ZERO, 1, bad, include_proxy=False, **kw)),
        ("fiber_sample", lambda: check_factor_upper(quotient_factor(), ZERO, fiber_sample=bad, **kw)),
        ("word_budget", lambda: pressure_estimate(cloud, sched, ZERO, word_budget=bad, **kw)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got "):
            call()
            pytest.fail(f"accepted {name}={bad!r}")


def test_integral_float_step_counts_run_as_ints():
    cloud, sched = two_point()
    assert check_basic_properties(cloud, sched, ZERO, ZERO, 0.5, n=2.0, p=0.5, c=1.0) == check_basic_properties(
        cloud, sched, ZERO, ZERO, 0.5, n=2, p=0.5, c=1.0
    )
    assert check_power_rule(cloud, sched, ZERO, n=2.0, m_range=[1, 2], eps_list=[0.5]) == check_power_rule(
        cloud, sched, ZERO, n=2, m_range=[1, 2], eps_list=[0.5]
    )
    kw = dict(n_range=[2], eps_list=[0.5], include_proxy=False)
    assert check_truncation_monotonicity(cloud, sched, ZERO, 1.0, 2.0, **kw) == check_truncation_monotonicity(cloud, sched, ZERO, 1, 2, **kw)
    # the i < j rule reads the indices as ints
    with pytest.raises(ValueError, match=r"need 1 <= i < j, got i=2, j=2"):
        check_truncation_monotonicity(cloud, sched, ZERO, 2.0, 2, **kw)
    kw = dict(n_range=[1, 2], eps_list=[0.5])
    assert check_factor_upper(quotient_factor(), ZERO, fiber_sample=2.0, **kw) == check_factor_upper(quotient_factor(), ZERO, fiber_sample=2, **kw)


def test_mini_random_suite_zero_violations():
    reports = run_finite_inequality_suite(count=25, base_seed=17)
    finite = [r for r in reports if r.level == FINITE_LEVEL]
    assert finite and all(r.verdict == HOLDS_EXACT for r in finite)
    assert not any(r.verdict == VIOLATED for r in reports)


def _flat_curve(estimate, word_mode):
    entry = AveragedPartitionSum(log_average=2 * estimate, stderr=0.1, word_mode=word_mode, n=2, eps=0.5, kind="separated",
                                 method="exhaustive", exact=True, min_witness=1, words_used=1, word_count=1, cloud_size=2)
    summary = EpsSummary(eps=0.5, tail_max=estimate, ls_slope=estimate, max_step=estimate)
    return PressureCurve(kind="separated", entries=[entry], per_eps=[summary], estimate=estimate, eps_star=0.5, all_exact=True)


@pytest.mark.parametrize("word_mode, verdict", [("sampled", INCONCLUSIVE), ("exact", VIOLATED)])
def test_sampled_curves_cannot_read_violated(monkeypatch, word_mode, verdict):
    import naifslab.theorems as theorems

    # the truncation at i reads 1.0 and the one at j reads 0.0: slack -1
    estimates = iter([1.0, 0.0] * 2)
    monkeypatch.setattr(theorems, "pressure_estimate", lambda *a, **kw: _flat_curve(next(estimates), word_mode))
    cloud, sched = two_point()
    reports = check_truncation_monotonicity(cloud, sched, ZERO, 1, 2, n_range=(2,), eps_list=[0.5], tol=0.1)
    proxy = [r for r in reports if r.name == "truncation/monotonicity-proxy"][0]
    assert proxy.slack == -1.0 and proxy.verdict == verdict


_DERIVED_MAPS = {
    "circle_grid": [MapSpec("doubling"), MapSpec("rotation", (0.25,)), MapSpec("affine_mod1", (3.0, 0.5)), ID],
    "interval_grid": [MapSpec("tent"), MapSpec("affine_clamped", (0.5, 0.2)), ID],
}
_VALUES = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def _derived_instances(draw):
    """A system of one of the four families with non-constant phi and psi."""
    family = draw(st.sampled_from(["circle_grid", "interval_grid", "symbolic_depth", "finite_explicit"]))
    n = draw(st.integers(1, 3))
    if family == "symbolic_depth":
        m = draw(st.integers(2, 3))
        space = SpaceSpec(family, draw(st.integers(n + 1, 5)), alphabet_size=m)
        maps = st.sampled_from([MapSpec("shift"), ID]) | st.lists(st.integers(0, m - 1), min_size=m, max_size=m).map(
            lambda t: MapSpec("symbol_substitution_table", tuple(t))
        )
        pots = st.lists(_VALUES, min_size=m, max_size=m).map(lambda v: Potential("first_symbol_table", tuple(v)))
    elif family == "finite_explicit":
        k = draw(st.integers(2, 6))
        space = SpaceSpec(family, distance_matrix=tuple(tuple(float(i != j) for j in range(k)) for i in range(k)))
        maps = st.permutations(range(k)).map(lambda t: MapSpec("permutation_table", tuple(t)))
        pots = st.lists(_VALUES, min_size=k, max_size=k).map(lambda v: Potential("explicit_table", tuple(v)))
    else:
        space = SpaceSpec(family, draw(st.integers(3, 16)))
        maps = st.sampled_from(_DERIVED_MAPS[family])
        pots = st.tuples(_VALUES, _VALUES).map(lambda ab: Potential("coordinate_affine", ab)) | st.lists(
            _VALUES, min_size=2, max_size=5
        ).map(lambda v: Potential("piecewise_linear", tuple(v)))
    gens = st.lists(maps, min_size=1, max_size=2).map(tuple)
    schedule = GenerationSchedule(
        prefix=tuple(draw(st.lists(gens, max_size=1))), cycle=tuple(draw(st.lists(gens, min_size=1, max_size=2)))
    )
    p = draw(st.floats(0.0, 1.0))
    c = draw(st.sampled_from([2.0, 0.5, 3.0, -1.0]) | _VALUES)
    return build_cloud(space), schedule, n, draw(pots), draw(pots), p, c


@settings(max_examples=120, deadline=None)
@given(_derived_instances())
def test_derived_birkhoff_vectors_match_the_table_path(instance):
    cloud, schedule, n, phi, psi, p, c = instance
    words, _, _ = enumerate_words(schedule, 1, n, None, seed=0)
    # the orbits of three words stacked, as check_basic_properties' batch stacks them
    orbits = _word_orbits(cloud, schedule, words[:3], n)
    S = _birkhoff_vectors(orbits, lambda points: _derived_terms(cloud.space, phi, psi, p, c, points))
    for r, ctx in enumerate(orbits):
        new = dict(zip(DERIVED, S[:, r]))
        old = oracle_derived_birkhoff(ctx, schedule, n, phi, psi, p, c)
        assert {k: [float(x).hex() for x in v] for k, v in new.items()} == {
            k: [float(x).hex() for x in v] for k, v in old.items()
        }


@settings(max_examples=60, deadline=None)
@given(_derived_instances(), st.lists(st.floats(1e-6, 2.0), min_size=1, max_size=3))
def test_equicontinuity_always_passes(instance, eps_list):
    # every pair that reaches eps > 0 is two distinct points, so no delta is 0
    cloud, schedule, *_ = instance
    eq = check_equicontinuity(cloud, schedule, sorted(set(eps_list), reverse=True))
    assert all(delta > 0 for _, delta in eq.table)


def test_verdict_helpers_respect_exactness():
    assert comparison_report("t", 1.0, 0.0, True, "").verdict == VIOLATED
    assert comparison_report("t", 1.0, 0.0, False, "").verdict == INCONCLUSIVE
    assert comparison_report("t", 1.0, 1.0, True, "").verdict == HOLDS_EXACT
    assert comparison_report("t", 1.0, 0.0, False, "", 0.5).verdict == INCONCLUSIVE
    assert comparison_report("t", 1.0, 0.0, True, "", 0.5).verdict == VIOLATED
    assert comparison_report("t", 0.2, 0.0, False, "", 0.5).verdict == "holds_within_tol"


# ---------------------------------------------------------------------------
# the verdict table and the one comparison builder


def _expected_verdict(holds, exact_inputs, declared):
    if holds:
        return HOLDS_EXACT if exact_inputs and not declared else HOLDS_WITHIN_TOL
    return VIOLATED if exact_inputs else INCONCLUSIVE


def test_verdict_table_reads_each_combination():
    assert set(VERDICTS) == set(itertools.product((True, False), repeat=3))
    for (holds, exact_inputs, declared), verdict in VERDICTS.items():
        assert verdict == _expected_verdict(holds, exact_inputs, declared)
    # inexact inputs never read violated, and only an undeclared exact claim reads holds_exact
    assert [key for key, v in VERDICTS.items() if v == VIOLATED] == [(False, True, False), (False, True, True)]
    assert [key for key, v in VERDICTS.items() if v == HOLDS_EXACT] == [(True, True, False)]


# (builder keywords, allowance, whether a tol is declared)
ROW_FORMS = {
    "finite": ({}, REL_TOL_EXACT, False),
    "finite_scaled": ({"scale": 4.0}, 4.0 * REL_TOL_EXACT, False),
    "finite_equality": ({"equality": True}, REL_TOL_EQUALITY, False),
    "counts": ({"counts": True}, 0.0, False),
    "proxy": ({"tol": 0.25}, 0.25, True),
    "proxy_equality": ({"tol": 0.25, "equality": True}, 0.25, True),
}


@pytest.mark.parametrize("exact_inputs", [True, False])
@pytest.mark.parametrize("form", sorted(ROW_FORMS))
def test_each_row_form_holds_at_its_allowance_and_fails_one_ulp_past_it(form, exact_inputs):
    kw, allowance, declared = ROW_FORMS[form]
    signs = (-1.0, 1.0) if kw.get("equality") else (-1.0,)
    for sign in signs:
        edge = sign * allowance
        past = float(np.nextafter(edge, sign * np.inf))
        # lhs = 0, so slack = rhs exactly and the scale stays below 1
        at = comparison_report("t", 0.0, edge, exact_inputs, "", **kw)
        beyond = comparison_report("t", 0.0, past, exact_inputs, "", **kw)
        assert at.slack == edge and beyond.slack == past
        assert at.verdict == _expected_verdict(True, exact_inputs, declared), (form, sign)
        assert beyond.verdict == _expected_verdict(False, exact_inputs, declared), (form, sign)
        assert at.level == (PROXY_LEVEL if declared else FINITE_LEVEL)
        assert at.tol == kw.get("tol")


def test_finite_rows_scale_their_allowance_by_the_larger_side():
    # slack -2**-29 is about -1.9e-9: inside 1e-9 * 3, outside 1e-9 * 1
    assert comparison_report("t", 3.0, 3.0 - 2.0**-29, True, "").verdict == HOLDS_EXACT
    assert comparison_report("t", 1.0, 1.0 - 2.0**-29, True, "").verdict == VIOLATED


def test_counts_one_apart_at_two_to_the_36_read_violated():
    b1 = 2**36
    lhs, rhs = math.log(b1 + 1), math.log(b1)
    # under the relative float tolerance this claim would pass
    assert lhs - rhs < REL_TOL_EXACT * max(1.0, lhs)
    assert comparison_report("c", lhs, rhs, True, "", counts=True).verdict == VIOLATED
    assert comparison_report("c", lhs, rhs, False, "", counts=True).verdict == INCONCLUSIVE
    assert comparison_report("c", rhs, rhs, True, "", counts=True).verdict == HOLDS_EXACT


def test_net_counting_row_judges_its_counts_with_no_allowance(monkeypatch):
    # r_n(w, 2 eps) = 2**36 + 1 against #net * r_{n-1}(w', eps) = 2 * 2**35
    import naifslab.theorems as theorems

    def fake_solve(ctx, S, eps, mode="auto"):
        # a witness of count points, as a range: only its length is read
        count = 2**36 + 1 if eps == 1.0 else 2**35
        return 0.0, range(count), "exhaustive", True

    monkeypatch.setattr(theorems, "_solve_spanning_weighted", fake_solve)
    cloud, sched = two_point()
    reports = check_truncation_monotonicity(cloud, sched, ZERO, 1, 2, n_range=(2,), eps_list=[0.5], include_proxy=False)
    assert [(r.name, r.verdict) for r in reports] == [("truncation/net-counting", VIOLATED)]
    assert reports[0].lhs == math.log(2**36 + 1) and reports[0].rhs == math.log(2**36)


def test_zero_gap_additive_constant_slack_is_negative_zero():
    cloud, sched = two_point()
    reports = check_basic_properties(cloud, sched, ZERO, Potential("explicit_table", (0.0, 1.0)), eps=0.5, n=2, p=0.5, c=2.0)
    row = {r.name: r for r in reports}["pressure/additive-constant"]
    assert (row.lhs, row.rhs, row.verdict) == (0.0, 0.0, HOLDS_EXACT)
    assert repr(row.slack) == "-0.0"


def test_semiconjugacy_onto_nothing_reads_violated():
    # pi collapses both points onto 0 and the maps are identities: the
    # deviation is 0 but pi is not onto
    cloud, _ = two_point()
    still = NAIFS(cloud, GenerationSchedule((), ((ID,),)))
    rep = semiconjugacy_report(FactorMapSpec(source=still, target=still, kind="index_table", table=(0, 0)), 3)
    assert rep.lhs == 0.0 and "surjective=False" in rep.context
    assert (rep.verdict, rep.level, rep.tol) == (VIOLATED, FINITE_LEVEL, None)
    onto = semiconjugacy_report(FactorMapSpec(source=still, target=still, kind="index_table", table=(0, 1)), 3)
    assert onto.verdict == HOLDS_WITHIN_TOL


# ---------------------------------------------------------------------------
# the composed pullback, the per-run factor memo and proxy rows judged once


def _shift_to_doubling(depth, circle, n_max, **changes):
    """The shift_to_doubling_factor example at a given size, as a raw config."""
    raw = json.loads(json.dumps(EXAMPLE_CONFIGS["shift_to_doubling_factor"]))
    raw["space"]["resolution"] = depth
    raw["factor"]["space"]["resolution"] = circle
    raw["n_range"] = [1, n_max]
    raw.update(changes)
    return raw


def _hex_table(table):
    return {k: float(v).hex() for k, v in table.items()}


def _pulled_at_reachable_points(factor, phi, n_max):
    """The composed pullback evaluated on each reachable batch, keyed by point."""
    space = factor.source.cloud.space
    pulled = pullback_potential(factor, phi)
    table = {}
    for batch in reachable_batches(factor.source.cloud, factor.source.schedule, n_max):
        keys = [canonical_key(space, p) for p in batch_to_points(space, batch)]
        table.update(zip(keys, eval_potential_batch(space, pulled, batch)))
    return table


@pytest.mark.parametrize("alphabet", [2, 3])
def test_pullback_table_matches_pointwise_oracle(alphabet):
    depth = 6 if alphabet == 2 else 4
    src_cloud = build_cloud(SpaceSpec("symbolic_depth", depth, alphabet_size=alphabet))
    relabel = MapSpec("symbol_substitution_table", tuple((s + 1) % alphabet for s in range(alphabet)))
    # shift next to a relabelling: the reachable set mixes word lengths
    src = NAIFS(src_cloud, GenerationSchedule((), ((MapSpec("shift"), relabel),)))
    tgt = NAIFS(build_cloud(SpaceSpec("circle_grid", 64)), GenerationSchedule((), ((MapSpec("doubling"), ID),)))
    factor = FactorMapSpec(source=src, target=tgt, kind="binary_expansion")
    phi = Potential("coordinate_affine", (1.7, -0.3))
    for n_max in range(4):
        assert _hex_table(_pulled_at_reachable_points(factor, phi, n_max)) == _hex_table(oracle_pullback_table(factor, phi, n_max))


def test_pullback_table_matches_oracle_on_finite_and_circle_factors():
    phi = Potential("explicit_table", (0.25, -1.5))
    c = NAIFS(build_cloud(SpaceSpec("circle_grid", 10)), GenerationSchedule((), ((MapSpec("rotation", (0.05,)),),)))
    proj = FactorMapSpec(source=c, target=c, kind="coordinate_projection")
    wave = Potential("piecewise_linear", (0.0, 1.0, -0.5))
    for n_max in range(4):
        for factor, pot in ((quotient_factor(), phi), (proj, wave)):
            assert _hex_table(_pulled_at_reachable_points(factor, pot, n_max)) == _hex_table(oracle_pullback_table(factor, pot, n_max))


def test_pullback_is_evaluated_deep_in_an_orbit_without_the_reachable_set(monkeypatch):
    import naifslab.naifs as naifs
    import naifslab.theorems as theorems

    def refuse(*args, **kwargs):
        raise AssertionError("the pullback enumerated the reachable set")

    for module in (naifs, theorems):
        monkeypatch.setattr(module, "reachable_batches", refuse)
    cloud = build_cloud(SpaceSpec("circle_grid", 4096))
    rot = NAIFS(cloud, GenerationSchedule((), ((MapSpec("rotation", (0.1234567,)),),)))
    proj = FactorMapSpec(source=rot, target=rot, kind="coordinate_projection")
    wave = Potential("piecewise_linear", (0.0, 1.0, -0.5))
    step = orbit_batches(cloud.space, rot.schedule, [Word(1, (0,) * 500)], 500, cloud.batch)[0][500]
    values = eval_potential_batch(cloud.space, pullback_potential(proj, wave), step)
    assert [v.hex() for v in values] == [v.hex() for v in eval_potential_batch(cloud.space, wave, step)]


def test_factor_checks_of_one_run_share_setup_and_curves(monkeypatch):
    import naifslab.theorems as theorems
    calls = {"pressure_estimate": 0, "pullback_potential": 0, "check_semiconjugacy": 0}

    def counted(name):
        original = getattr(theorems, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(theorems, name, counted(name))
    raw = _shift_to_doubling(10, 256, 3)
    reports = _run_checks(ExperimentConfig.from_dict(raw))
    assert calls == {"pressure_estimate": 2, "pullback_potential": 1, "check_semiconjugacy": 1}
    assert [r.name for r in reports] == ["factor/semiconjugacy", "factor/pullback-lower", "factor/fiber-upper"]

    # each check on a factor of its own reads the same numbers
    for check, report in zip(("factor_lower", "factor_upper"), reports[1:]):
        fresh = ExperimentConfig.from_dict(dict(raw, checks=[c for c in raw["checks"] if c["type"] == check]))
        assert _run_checks(fresh) == [report]


def test_factor_lower_reads_the_pullback_on_the_source():
    # phi is non-constant, and its table is longer than the target cloud:
    # read on the source's point ids it gives phi(i), not phi(pi(i))
    factor = quotient_factor()
    phi = Potential("explicit_table", (0.3, -0.2, 0.9, -0.7))
    pulled_by_hand = Potential("explicit_table", tuple(phi.params[y] for y in factor.table))
    kw = dict(n_range=range(1, 5), eps_list=[0.5, 0.25])
    rep = check_factor_lower(factor, phi, **kw)
    _, source_curve = _factor_estimates(factor, phi, list(kw["n_range"]), kw["eps_list"], 4096, 0)
    want = pressure_estimate(factor.source.cloud, factor.source.schedule, pulled_by_hand, list(kw["n_range"]), kw["eps_list"])
    assert source_curve.entries == want.entries
    assert rep.rhs.hex() == want.estimate.hex()


def test_a_factor_verify_run_applies_pi_to_the_source_cloud_twice(monkeypatch, tmp_path):
    # once for the source image that the semiconjugacy check and every
    # fiber read, once for the image of the one shift map; the pulled-back
    # phi is a constant and applies pi to no batch
    import naifslab.naifs as naifs
    import naifslab.theorems as theorems

    source_size = 2 ** EXAMPLE_CONFIGS["shift_to_doubling_factor"]["space"]["resolution"]
    whole = []
    original = naifs.apply_factor_batch

    def counted(factor, batch):
        whole.append(len(batch) == source_size)
        return original(factor, batch)

    for module in (naifs, theorems):
        monkeypatch.setattr(module, "apply_factor_batch", counted)
    assert main(["verify", "shift_to_doubling_factor", "--out", str(tmp_path)]) == 0
    assert sum(whole) == 2
    digest = json.loads((Path(__file__).parent / "example_digests.json").read_text())["shift_to_doubling_factor"]["verdicts.csv"]
    assert hashlib.sha256((tmp_path / "verdicts.csv").read_bytes()).hexdigest() == digest


def _sup_entropy_reference(cloud, schedule, subset, ns, eps_list):
    """The entries and sandwiches of sup_entropy_estimate from three solves
    per (n, eps): separated at eps, spanning at eps and spanning at eps / 2."""
    indices = sorted(set(subset))
    entries, sandwiches = [], []
    for n in ns:
        ctx = sup_orbit(cloud, schedule, n, indices)
        zeros = np.zeros(ctx.n_points)
        for eps in eps_list:
            _, s_idx, s_method, s_exact = _solve_separated_weighted(ctx, zeros, eps)
            _, r_idx, _, r_exact = _solve_spanning_weighted(ctx, zeros, eps)
            _, rh_idx, _, rh_exact = _solve_spanning_weighted(ctx, zeros, eps / 2.0)
            s, r, rh = len(s_idx), len(r_idx), len(rh_idx)
            entries.append(SupEntropyEntry(n, eps, s, r, s_exact and r_exact, s_method, s >= len(indices)))
            if s_exact and r_exact and rh_exact:
                assert r <= s <= rh
                sandwiches.append(SandwichCheck(n, eps, r, s, rh))
    return entries, sandwiches


def _assert_one_solve_per_ball_structure(cloud, schedule, subset, ns, eps_list):
    """sup_entropy_estimate solves each distinct (kind, eps-balls) of the
    call once when its solves are exhaustive or branch and bound, and each
    (kind, n, eps) once otherwise, and reads the reference's entries and
    sandwiches, which solve every (n, eps) afresh."""
    import naifslab.pressure as pressure

    calls = []
    patched = {}
    for kind in ("separated", "spanning"):
        solve = getattr(pressure, f"_solve_{kind}_weighted")
        # bind kind and solve now: each patch records its own kind
        patched[kind] = lambda ctx, S, eps, kind=kind, solve=solve: calls.append((kind, ctx, eps)) or solve(ctx, S, eps)
    with pytest.MonkeyPatch.context() as mp:
        for kind, fn in patched.items():
            mp.setattr(pressure, f"_solve_{kind}_weighted", fn)
        est = sup_entropy_estimate(cloud, schedule, subset, ns, eps_list)
    distinct = set(eps_list) | {eps / 2.0 for eps in eps_list}
    wanted = [(kind, n, eps) for n in ns for kind, eps_set in (("spanning", distinct), ("separated", eps_list)) for eps in eps_set]
    method = est.entries[0].method
    if method in ("exhaustive", "branch_and_bound"):
        orbits = {n: sup_orbit(cloud, schedule, n, sorted(set(subset))) for n in ns}
        structures = {(kind, tuple(orbits[n].balls(eps))) for kind, n, eps in wanted}
        solved = [(kind, tuple(ctx.balls(eps))) for kind, ctx, eps in calls]
        assert sorted(solved) == sorted(structures)
    else:
        # calls holds every orbit alive, so each n's orbit keeps its id
        assert len({id(ctx) for _, ctx, _ in calls}) == len(ns)
        assert len(calls) == len({(kind, id(ctx), eps) for kind, ctx, eps in calls}) == len(wanted)
    assert (est.entries, est.sandwiches) == _sup_entropy_reference(cloud, schedule, subset, ns, eps_list)
    return est


@pytest.mark.parametrize("depth, circle, fiber_size", [(10, 256, 5), (14, 2048, 9)])
def test_fiber_entropy_solves_each_ball_structure_once(depth, circle, fiber_size):
    # the fiber schedule halves eps, so r*(eps / 2) of one entry is r*(eps) of the next
    factor = ExperimentConfig.from_dict(_shift_to_doubling(depth, circle, 3)).factor
    src = factor.source
    targets = sorted(set(int(round(v)) for v in np.linspace(0, len(factor.target.cloud) - 1, 6)))
    for yi in targets:
        fiber = fiber_indices(factor, yi)
        fiber_eps = _fiber_eps_schedule(src.cloud, src.schedule, fiber, [0.25, 0.125])
        assert len(fiber) == fiber_size and len(fiber_eps) > 2
        _assert_one_solve_per_ball_structure(src.cloud, src.schedule, fiber, [1, 2, 3], fiber_eps)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.data())
def test_sup_entropy_solves_each_ball_structure_once_on_random_instances(salt, n_max, data):
    cloud, schedule = random_explicit_instance(random.Random(salt), max_points=10, max_maps=2, max_cycle=2)
    subset = data.draw(st.lists(st.integers(0, len(cloud) - 1), min_size=1, max_size=len(cloud)))
    off = np.sort(cloud.dmatrix()[~np.eye(len(cloud), dtype=bool)])
    eps_list = [float(off[data.draw(st.integers(0, len(off) - 1))])]
    if data.draw(st.booleans()):
        # a halving schedule, as check_factor_upper extends it
        eps_list = _fiber_eps_schedule(cloud, schedule, sorted(set(subset)), eps_list)
    _assert_one_solve_per_ball_structure(cloud, schedule, subset, list(range(1, n_max + 1)), eps_list)


@pytest.mark.parametrize(
    "space, maps, method",
    [
        (SpaceSpec("symbolic_depth", 7, alphabet_size=2), (MapSpec("shift"),), "ultrametric_classes"),
        (SpaceSpec("circle_grid", 128), (MapSpec("doubling"),), "greedy"),
    ],
)
def test_sup_entropy_past_branch_and_bound_solves_every_n_and_eps(space, maps, method):
    # a subset of 70 points is past BRANCH_AND_BOUND_LIMIT: its class or
    # greedy solves are not shared, even where two (n, eps) have equal balls
    cloud = build_cloud(space)
    schedule = GenerationSchedule(prefix=(), cycle=(maps,))
    est = _assert_one_solve_per_ball_structure(cloud, schedule, range(70), [1, 2], [0.5, 0.25, 0.125])
    assert {e.method for e in est.entries} == {method}


def test_semiconjugacy_check_with_its_own_tol_measures_once(monkeypatch, tmp_path):
    import naifslab.theorems as theorems
    tols = []
    original = theorems.check_semiconjugacy
    monkeypatch.setattr(theorems, "check_semiconjugacy", lambda factor, tol: tols.append(tol) or original(factor, tol))
    raw = _shift_to_doubling(14, 2048, 3)
    raw["checks"][0]["tol"] = 0.01
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(tols) == 1
    csv = (tmp_path / "out" / "verdicts.csv").read_bytes()
    # the check reads its own tol, the factor checks the default 2^-11
    assert b"max_deviation=0.0 tol=0.01 surjective=True" in csv
    assert b"max_deviation=0.0 tol=0.00048828125 surjective=True" in csv
    # the bytes written when each tolerance had a measurement of its own
    assert hashlib.sha256(csv).hexdigest() == "d22c79cd15d3a3475b5a803e91c827372a712adea8d514ce11191452a6f03305"


def test_summary_marks_proxy_reports_whose_tol_exceeds_both_sides(tmp_path):
    reports = _run_checks(ExperimentConfig.from_dict(json.loads(json.dumps(EXAMPLE_CONFIGS["four_point_quotient"]))))
    proxy = [r for r in reports if r.level == PROXY_LEVEL]
    # pressures of 4e-16 against a tol of 0.512
    assert len(proxy) == 2 and all(r.tol > max(abs(r.lhs), abs(r.rhs)) for r in proxy)
    assert [r.tol for r in reports if r.level == FINITE_LEVEL] == [None]
    assert main(["verify", "four_point_quotient", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    for r in reports:
        (row,) = [ln for ln in lines if ln.startswith(r.name + " ")]
        assert row.endswith(" *") == (r.level == PROXY_LEVEL), row
    assert lines[-1] == "* tol exceeds both |lhs| and |rhs| (2 asymptotic_proxy reports)"
    # tol is not written to verdicts.csv
    digest = json.loads((Path(__file__).parent / "example_digests.json").read_text())["four_point_quotient"]["verdicts.csv"]
    assert hashlib.sha256((tmp_path / "verdicts.csv").read_bytes()).hexdigest() == digest
    # a tol below either side, or no tol, leaves a proxy report unmarked
    for r in (replace(proxy[0], lhs=1.0), replace(proxy[0], rhs=-1.0), replace(proxy[0], tol=None)):
        assert "*" not in summarize_reports([r])


def _record_pressure_estimates(monkeypatch):
    """Record (cloud size, n values) of every pressure_estimate call made by
    the checks."""
    import naifslab.theorems as theorems

    calls = []
    original = theorems.pressure_estimate

    def recording(cloud, schedule, phi, n_values, *args, **kw):
        calls.append((len(cloud), list(n_values)))
        return original(cloud, schedule, phi, n_values, *args, **kw)

    monkeypatch.setattr(theorems, "pressure_estimate", recording)
    return calls


# A proxy row whose slack falls below -tol is judged once, on the n_range it
# was given: no second reading on a longer range.


def test_escalated_factor_lower_reads_inconclusive(monkeypatch):
    config = ExperimentConfig.from_dict(_shift_to_doubling(10, 1024, 3))
    calls = _record_pressure_estimates(monkeypatch)
    rep = check_factor_lower(config.factor, ZERO, config.n_range, config.eps_list, word_budget=config.word_budget, seed=config.seed, tol=1e-3)
    assert rep.slack < -rep.tol
    assert rep.verdict == INCONCLUSIVE
    assert "escalated" not in rep.context
    # one curve on the target, one on the source, both on n = 1..3
    assert calls == [(len(config.factor.target.cloud), [1, 2, 3]), (len(config.factor.source.cloud), [1, 2, 3])]


def test_escalated_factor_upper_through_the_cli(monkeypatch, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_shift_to_doubling(10, 256, 3)))
    calls = _record_pressure_estimates(monkeypatch)
    assert main(["run", str(path), "--tol", "0.001", "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "verdicts.csv").read_text().splitlines()
    upper = [r for r in rows if r.startswith("factor/fiber-upper")]
    assert len(upper) == 1 and INCONCLUSIVE in upper[0]
    assert "escalated" not in "\n".join(rows)
    # the lower and upper checks share one curve per side, on n = 1..3
    assert calls == [(256, [1, 2, 3]), (1024, [1, 2, 3])]


def test_factor_memo_keys_hold_every_input():
    # one factor serves calls that differ in one input each; its curves and
    # reports must equal those of a factor that has seen no other call
    shared = quotient_factor()
    phi = Potential("explicit_table", (0.3, -0.2))
    base = dict(n_values=[1, 2, 3, 4, 5], eps_list=[0.5], word_budget=8, seed=1)
    variants = [
        {},
        {"n_values": [1, 2, 3]},
        {"eps_list": [0.3]},
        {"word_budget": 16},
        {"seed": 2},
        {"phi": Potential("explicit_table", (0.3, -0.2))},
        {"phi": Potential("explicit_table", (-0.4, 0.1))},
    ]
    for change in variants:
        kw = dict(base, **change)
        pot = kw.pop("phi", phi)
        n_values, eps_list, word_budget, seed = kw.values()
        args = (pot, n_values, eps_list, word_budget, seed)
        assert _factor_estimates(shared, *args) == _factor_estimates(quotient_factor(), *args), change
        check_kw = dict(n_range=n_values, eps_list=eps_list, word_budget=word_budget, seed=seed)
        for check in (check_factor_lower, check_factor_upper):
            assert check(shared, pot, **check_kw) == check(quotient_factor(), pot, **check_kw), (check.__name__, change)
    for tol in (None, 1e-3):
        assert semiconjugacy_report(shared, 5, tol) == semiconjugacy_report(quotient_factor(), 5, tol)
