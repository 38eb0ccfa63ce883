import hashlib
import itertools
import json
import math
import random
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

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
    block_word,
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
    growth_rate,
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
    _birkhoff_vector,
    _BowenOrbit,
    _solve_separated_weighted,
    _solve_spanning_weighted,
    _word_orbit,
    pressure_estimate,
    sup_entropy_estimate,
)
from naifslab.naifs import Word, orbit_batches, reachable_batches
from naifslab.space import batch_to_points, eval_potential_batch, paired_distances
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
    _derived_birkhoff,
    _factor_estimates,
    _pair_distances,
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


def gen_of_size(k):
    return tuple(ID for _ in range(k))


def test_growth_rate_examples():
    assert growth_rate(GenerationSchedule((), (gen_of_size(1),))).limsup_value == 0.0
    g = growth_rate(GenerationSchedule((), (gen_of_size(3),)))
    assert g.limsup_value == pytest.approx(math.log(3)) and g.liminf_value == g.limsup_value
    g28 = growth_rate(GenerationSchedule((), (gen_of_size(2), gen_of_size(8))))
    assert g28.limsup_value == pytest.approx(2 * math.log(2))


def test_growth_rate_power_identity_exact():
    for sizes in ((2,), (2, 3), (1, 4), (3, 2, 5)):
        sched = GenerationSchedule((), tuple(gen_of_size(s) for s in sizes))
        base = growth_rate(sched).limsup_value
        for n in range(1, 5):
            powered = growth_rate(power_system(sched, n)).limsup_value
            assert math.isclose(powered, n * base, rel_tol=1e-12, abs_tol=1e-12)


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
    powered = orbit_batches(cloud.space, power_system(schedule, n), block_word(schedule, w, n), m, cloud.batch)
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
    "spec",
    [
        SpaceSpec("interval_grid", 40),
        SpaceSpec("circle_grid", 40),
        # 512 points: the pairs are sampled
        SpaceSpec("symbolic_depth", 9, alphabet_size=2),
        SpaceSpec("finite_explicit", distance_matrix=((0.0, 1.0, 0.5), (1.0, 0.0, 0.5), (0.5, 0.5, 0.0))),
    ],
)
def test_pair_distances_gather_from_one_form(spec):
    # the diagnostics put a batch in distance form once and gather the pairs
    # from it; that must equal measuring each pair on its own
    cloud = build_cloud(spec)
    batch = cloud.batch
    ia, ib, _ = _sample_pairs(len(cloud))
    assert np.array_equal(_pair_distances(cloud, batch, ia, ib), paired_distances(cloud, batch[ia], batch[ib]))


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


@pytest.mark.parametrize("bad", [2.5, 1.5, math.nan, math.inf, 0])
def test_scalar_step_counts_are_refused_by_the_n_range_rule(bad):
    cloud, sched = two_point()
    calls = {
        "check_basic_properties": lambda: check_basic_properties(cloud, sched, ZERO, ZERO, 0.5, n=bad, p=0.5, c=1.0),
        "check_power_rule": lambda: check_power_rule(cloud, sched, ZERO, n=bad, m_range=[1, 2], eps_list=[0.5]),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got "):
            call()
            pytest.fail(f"{name} accepted n={bad!r}")


def test_integral_float_step_counts_run_as_ints():
    cloud, sched = two_point()
    assert check_basic_properties(cloud, sched, ZERO, ZERO, 0.5, n=2.0, p=0.5, c=1.0) == check_basic_properties(
        cloud, sched, ZERO, ZERO, 0.5, n=2, p=0.5, c=1.0
    )
    assert check_power_rule(cloud, sched, ZERO, n=2.0, m_range=[1, 2], eps_list=[0.5]) == check_power_rule(
        cloud, sched, ZERO, n=2, m_range=[1, 2], eps_list=[0.5]
    )


def test_mini_random_suite_zero_violations():
    reports = run_finite_inequality_suite(count=25, base_seed=17)
    finite = [r for r in reports if r.level == FINITE_LEVEL]
    assert finite and all(r.verdict == HOLDS_EXACT for r in finite)
    assert not any(r.verdict == VIOLATED for r in reports)


def _flat_curve(estimate, word_mode):
    entry = AveragedPartitionSum(log_average=2 * estimate, stderr=0.1, word_mode=word_mode, n=2, eps=0.5, kind="separated",
                                 method="exhaustive", exact=True, min_witness=1, words_used=1, word_count=1, cloud_size=2)
    summary = EpsSummary(eps=0.5, tail_max=estimate, ls_slope=estimate, max_step=estimate, estimate=estimate)
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
    for w in words[:3]:
        ctx = _word_orbit(cloud, schedule, w, n)
        new = _derived_birkhoff(ctx, phi, psi, p, c)
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

    def fake_min_spanning(cloud, schedule, word, n, eps):
        count = 2**36 + 1 if eps == 1.0 else 2**35
        return SimpleNamespace(lower_bound=count, upper_bound=count, exact=True)

    monkeypatch.setattr(theorems, "min_spanning", fake_min_spanning)
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
# the composed pullback, the per-run factor memo and escalated factor checks


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
    step = orbit_batches(cloud.space, rot.schedule, Word(1, (0,) * 500), 500, cloud.batch)[500]
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
    assert calls == {"pressure_estimate": 2, "pullback_potential": 2, "check_semiconjugacy": 1}
    assert [r.name for r in reports] == ["factor/semiconjugacy", "factor/pullback-lower", "factor/fiber-upper"]

    # each check on a factor of its own reads the same numbers
    for check, report in zip(("factor_lower", "factor_upper"), reports[1:]):
        fresh = ExperimentConfig.from_dict(dict(raw, checks=[c for c in raw["checks"] if c["type"] == check]))
        assert _run_checks(fresh) == [report]


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
    assert hashlib.sha256(csv).hexdigest() == "92ddfc954804849b4439d2afad8eeba93aee8af24430cd3ef1e706bcfac3e8d8"


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


def test_escalated_factor_lower_reads_inconclusive():
    config = ExperimentConfig.from_dict(_shift_to_doubling(10, 1024, 3))
    rep = check_factor_lower(config.factor, ZERO, config.n_range, config.eps_list, word_budget=config.word_budget, seed=config.seed, tol=1e-3)
    assert "escalated=True" in rep.context
    assert rep.verdict == INCONCLUSIVE


def test_escalated_factor_upper_through_the_cli(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_shift_to_doubling(10, 256, 3)))
    assert main(["run", str(path), "--tol", "0.001", "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "verdicts.csv").read_text().splitlines()
    upper = [r for r in rows if r.startswith("factor/fiber-upper")]
    assert len(upper) == 1 and "escalated=True" in upper[0] and INCONCLUSIVE in upper[0]


def test_factor_memo_keys_hold_every_input():
    # one factor serves calls that differ in one input each; its curves and
    # reports must equal those of a factor that has seen no other call
    shared = quotient_factor()
    phi = Potential("explicit_table", (0.3, -0.2))
    base = dict(n_values=[1, 2, 3, 4, 5], eps_list=[0.5], word_budget=8, seed=1, workers=1)
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
        n_values, eps_list, word_budget, seed, workers = kw.values()
        args = (pot, n_values, eps_list, word_budget, seed, workers)
        assert _factor_estimates(shared, *args) == _factor_estimates(quotient_factor(), *args), change
        check_kw = dict(n_range=n_values, eps_list=eps_list, word_budget=word_budget, seed=seed)
        for check in (check_factor_lower, check_factor_upper):
            assert check(shared, pot, **check_kw) == check(quotient_factor(), pot, **check_kw), (check.__name__, change)
    for tol in (None, 1e-3):
        assert semiconjugacy_report(shared, 5, tol) == semiconjugacy_report(quotient_factor(), 5, tol)
