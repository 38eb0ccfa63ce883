import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from naifslab import (
    FactorMapSpec,
    GenerationSchedule,
    MapSpec,
    NAIFS,
    PointCloud,
    Potential,
    SpaceSpec,
    Word,
    build_cloud,
    check_factor_upper,
    check_semiconjugacy,
    count_words,
    distance,
    enumerate_words,
    fiber_indices,
    generation_at,
    averaged_partition_sum,
    partition_sum_separated,
    partition_sum_spanning,
    power_system,
    truncate_system,
)
import naifslab.naifs as naifs
from naifslab.cli import main
from naifslab.naifs import _is_surjective, apply_factor_batch, orbit_batches, reachable_batches, reachable_points, sup_orbit_batches
from naifslab.pressure import _birkhoff_vector, _BowenOrbit, _word_orbit, sup_orbit
from naifslab.space import points_to_batch
from oracles import canonical_key, compose, oracle_bowen, oracle_reachable_points, oracle_sup_bowen, oracle_surjective, points_of

ID = MapSpec("identity")
SWAP2 = MapSpec("permutation_table", (1, 0))
ZERO = Potential("constant", (0.0,))


def two_point():
    cloud = build_cloud(SpaceSpec("finite_explicit", distance_matrix=((0.0, 1.0), (1.0, 0.0))))
    schedule = GenerationSchedule(prefix=(), cycle=(((ID, SWAP2)),))
    return cloud, schedule


def circle(n=64):
    return build_cloud(SpaceSpec("circle_grid", n))


def bowen(cloud, sched, w, k, x, y):
    """d_{w,k}(x, y) as the package reads it: the orbit class's distance
    between the two orbits of the batch [x, y] under the word."""
    [steps] = orbit_batches(cloud.space, sched, [w], k, points_to_batch(cloud.space, [x, y]))
    return float(_BowenOrbit(cloud, steps).block([0], [1])[0, 0])


def sup_bowen(cloud, sched, n, x, y):
    """d*_n(x, y) as the package reads it: the orbit class's distance over
    the sup metric's orbit batches of [x, y]."""
    steps = sup_orbit_batches(cloud.space, sched, n, points_to_batch(cloud.space, [x, y]))
    return float(_BowenOrbit(cloud, steps).block([0], [1])[0, 0])


def test_generation_at_prefix_then_cycle():
    a, b, c = (ID,), (SWAP2,), (ID, SWAP2)
    sched = GenerationSchedule(prefix=(a,), cycle=(b, c))
    assert generation_at(sched, 1) is sched.prefix[0]
    assert generation_at(sched, 2) == b
    assert generation_at(sched, 3) == c
    assert generation_at(sched, 4) == b
    const = GenerationSchedule(prefix=(), cycle=(c,))
    for j in (1, 5, 17):
        assert generation_at(const, j) == c
    with pytest.raises(ValueError):
        generation_at(sched, 0)


def test_table_maps_refuse_entries_that_are_not_integers():
    # unchecked, (1.9, 0.4) ran as the swap (1, 0)
    for kind, bad in (("permutation_table", (1.9, 0.4)), ("symbol_substitution_table", (1.5, 0.2))):
        with pytest.raises(ValueError, match="must be integers"):
            MapSpec(kind, bad)
    cloud, _ = two_point()
    swap = MapSpec("permutation_table", (1.0, 0.0))
    assert naifs.apply_map(cloud.space, swap, cloud.batch).tolist() == [1, 0]
    assert swap == SWAP2 and swap.table.tolist() == [1, 0]


def test_compose_identity_at_zero_steps():
    cloud = circle()
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    assert compose(cloud, sched, Word(1, (0, 0)), 1, 0, 0.3) == 0.3


def test_compose_doubling_twice():
    cloud = circle()
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    assert compose(cloud, sched, Word(1, (0, 0)), 1, 2, 0.3) == pytest.approx(0.2)


def test_compose_rotation_then_doubling():
    cloud = circle()
    sched = GenerationSchedule(
        prefix=((MapSpec("rotation", (0.25,)),),),
        cycle=((MapSpec("doubling"),),),
    )
    assert compose(cloud, sched, Word(1, (0, 0)), 1, 2, 0.1) == pytest.approx(0.7)


def test_compose_word_too_short():
    cloud = circle()
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    with pytest.raises(ValueError, match="too short"):
        compose(cloud, sched, Word(1, (0,)), 1, 2, 0.3)


def test_cocycle_property_exhaustive():
    cloud, sched = two_point()
    for symbols in itertools.product(range(2), repeat=4):
        w = Word(1, symbols)
        for x in points_of(cloud):
            for k in range(5):
                for m in range(5 - k):
                    via = compose(cloud, sched, w, 1 + k, m, compose(cloud, sched, w, 1, k, x))
                    assert compose(cloud, sched, w, 1, k + m, x) == via


def test_bowen_identity_schedule_is_base_distance():
    cloud = circle()
    sched = GenerationSchedule(prefix=(), cycle=((ID,),))
    w = Word(1, (0, 0, 0))
    assert bowen(cloud, sched, w, 3, 0.125, 0.5) == distance(cloud, 0.125, 0.5)


def test_bowen_doubling_example():
    cloud = circle()
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    w = Word(1, (0, 0))
    assert bowen(cloud, sched, w, 2, 0.0, 0.26) == pytest.approx(0.48)
    assert bowen(cloud, sched, w, 2, 0.26, 0.26) == 0.0


def test_bowen_monotone_in_k_and_dominates_base():
    cloud = circle(32)
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"), MapSpec("rotation", (0.25,))),))
    w = Word(1, (0, 1, 0, 1))
    prev = 0.0
    for k in range(5):
        d = bowen(cloud, sched, w, k, 0.0, 1 / 32)
        assert d >= prev
        prev = d
    assert bowen(cloud, sched, w, 4, 0.0, 1 / 32) >= distance(cloud, 0.0, 1 / 32)


def test_bowen_requires_root_one():
    cloud = circle()
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    with pytest.raises(ValueError, match="re-root"):
        _word_orbit(cloud, sched, Word(2, (0, 0)), 2)
    with pytest.raises(ValueError, match="exceeds"):
        _word_orbit(cloud, sched, Word(1, (0,)), 2)


def test_bowen_agrees_with_oracle():
    cloud = circle(16)
    sched = GenerationSchedule(
        prefix=((MapSpec("rotation", (0.25,)),),),
        cycle=((MapSpec("doubling"), ID),),
    )
    for symbols in itertools.product(range(1), range(2), range(2)):
        w = Word(1, symbols)
        for x in points_of(cloud)[:4]:
            for y in points_of(cloud)[4:8]:
                assert bowen(cloud, sched, w, 3, x, y) == pytest.approx(
                    oracle_bowen(cloud, sched, w, 3, x, y)
                )


def test_sup_bowen_identity_and_swap():
    cloud, sched = two_point()
    assert sup_bowen(cloud, sched, 3, 0, 1) == 1.0
    assert sup_bowen(cloud, sched, 3, 1, 1) == 0.0
    ident = GenerationSchedule(prefix=(), cycle=((ID,),))
    c = circle(16)
    assert sup_bowen(c, ident, 4, 0.25, 0.5) == distance(c, 0.25, 0.5)


def test_sup_bowen_dominates_rooted_words_and_matches_oracle():
    cloud = circle(16)
    sched = GenerationSchedule(
        prefix=((MapSpec("rotation", (0.25,)),),),
        cycle=((MapSpec("doubling"), ID),),
    )
    x, y = 0.0, 0.0625
    dstar = sup_bowen(cloud, sched, 3, x, y)
    assert dstar == pytest.approx(oracle_sup_bowen(cloud, sched, 3, x, y))
    for symbols in itertools.product(range(1), range(2), range(2)):
        w = Word(1, symbols)
        assert dstar >= bowen(cloud, sched, w, 3, x, y) - 1e-15


def test_power_system_unit_power_is_identity():
    _, sched = two_point()
    assert power_system(sched, 1) is sched


def test_power_system_enumerates_blocks_in_order():
    cloud = circle(64)
    f = MapSpec("doubling")
    g = MapSpec("rotation", (0.25,))
    sched = GenerationSchedule(prefix=(), cycle=((f, g),))
    squared = power_system(sched, 2)
    gen = generation_at(squared, 1)
    assert len(gen) == 4
    x = 3 / 64
    apply = lambda maps, x0: compose(cloud, GenerationSchedule((), ((maps[0],), (maps[1],))), Word(1, (0, 0)), 1, 2, x0)
    expected = [apply((f, f), x), apply((f, g), x), apply((g, f), x), apply((g, g), x)]
    got = [
        compose(cloud, squared, Word(1, (i,)), 1, 1, x)
        for i in range(4)
    ]
    assert got == expected


def test_power_system_word_count_identity():
    _, sched = two_point()
    for n in (2, 3):
        powered = power_system(sched, n)
        for m in (1, 2, 3):
            assert count_words(powered, 1, m) == count_words(sched, 1, m * n)


def test_power_compose_reproduces_base_compose():
    cloud = circle(32)
    sched = GenerationSchedule(
        prefix=((MapSpec("rotation", (0.25,)),),),
        cycle=((MapSpec("doubling"), ID),),
    )
    for n in (2, 3):
        powered = power_system(sched, n)
        for m in (1, 2):
            if m * n > 6:
                continue
            words, mode, _ = enumerate_words(sched, 1, m * n, None, 0)
            assert mode == "exact"
            # both enumerations are lexicographic, so the i-th power word
            # blocks the i-th base word
            powered_words, powered_mode, _ = enumerate_words(powered, 1, m, None, 0)
            assert powered_mode == "exact"
            for w, wstar in zip(words, powered_words, strict=True):
                for x in points_of(cloud)[:5]:
                    assert compose(cloud, powered, wstar, 1, m, x) == compose(cloud, sched, w, 1, m * n, x)


def test_truncate_examples():
    a, b, c = (ID,), (SWAP2,), (ID, SWAP2)
    sched = GenerationSchedule(prefix=(a, b), cycle=(c,))
    assert truncate_system(sched, 1) == sched
    t2 = truncate_system(sched, 2)
    assert t2.prefix == (b,) and t2.cycle == (c,)
    const = GenerationSchedule(prefix=(), cycle=(c,))
    assert truncate_system(const, 7) == const


def test_truncate_composition_law():
    a, b, c, d = (ID,), (SWAP2,), (ID, SWAP2), (SWAP2, ID)
    sched = GenerationSchedule(prefix=(a, b), cycle=(c, d))
    for i in range(1, 6):
        for j in range(1, 6):
            lhs = truncate_system(truncate_system(sched, i), j)
            rhs = truncate_system(sched, i + j - 1)
            for g in range(1, 8):
                assert generation_at(lhs, g) == generation_at(rhs, g)


def test_enumerate_words_exact_and_sampled():
    _, sched = two_point()
    single = GenerationSchedule(prefix=(), cycle=((ID,),))
    words, mode, total = enumerate_words(single, 1, 5, 10, 0)
    assert mode == "exact" and total == 1 and len(words) == 1

    words, mode, total = enumerate_words(sched, 1, 3, 10, 0)
    assert mode == "exact" and total == 8 and len(words) == 8
    assert words[0].symbols == (0, 0, 0) and words[-1].symbols == (1, 1, 1)

    words, mode, total = enumerate_words(sched, 1, 30, 1000, 42)
    assert mode == "sampled" and total == 2**30 and len(words) == 1000
    again, _, _ = enumerate_words(sched, 1, 30, 1000, 42)
    assert [w.symbols for w in words] == [w.symbols for w in again]


def test_enumerate_words_refuses_a_budget_past_the_cap(monkeypatch):
    _, sched = two_point()
    monkeypatch.setattr(naifs, "WORD_ENUMERATION_CAP", 10)
    words, mode, _ = enumerate_words(sched, 1, 30, 10, 0)
    assert mode == "sampled" and len(words) == 10
    monkeypatch.setattr(naifs, "Word", lambda *a, **kw: pytest.fail("a word was built"))
    for budget in (11, 20):
        with pytest.raises(ValueError, match="WORD_ENUMERATION_CAP = 10"):
            enumerate_words(sched, 1, 30, budget, 0)


# every count argument of the public API: (call with the count, its name)
_COUNT_ARGUMENTS = {
    "power_system": (lambda c, s, v: power_system(s, v), "n"),
    "truncate_system": (lambda c, s, v: truncate_system(s, v), "k"),
    # the Bowen distances of a word orbit and of the sup metric, as the orbit class reads them
    "bowen_distance": (lambda c, s, v: _word_orbit(c, s, Word(1, (0, 1, 1)), v).block([0], [1]).tolist(), "n"),
    "sup_bowen_distance": (lambda c, s, v: sup_orbit(c, s, v, [0, 1]).block([0], [1]).tolist(), "n"),
    "count_words m": (lambda c, s, v: count_words(s, v, 2), "m"),
    "count_words n": (lambda c, s, v: count_words(s, 1, v), "n"),
    "enumerate_words m": (lambda c, s, v: enumerate_words(s, v, 2, None, 0), "m"),
    "enumerate_words n": (lambda c, s, v: enumerate_words(s, 1, v, None, 0), "n"),
    # 8 words at n = 3: a budget of 2 samples them
    "enumerate_words budget": (lambda c, s, v: enumerate_words(s, 1, 3, v, 0), "word_budget"),
    "enumerate_words seed": (lambda c, s, v: enumerate_words(s, 1, 3, 2, v), "seed"),
    "partition_sum_separated": (lambda c, s, v: partition_sum_separated(c, s, Word(1, (0, 1, 1)), v, ZERO, 0.5), "n"),
    "partition_sum_spanning": (lambda c, s, v: partition_sum_spanning(c, s, Word(1, (0, 1, 1)), v, ZERO, 0.5), "n"),
    "orbit_batches": (lambda c, s, v: [b.tolist() for b in orbit_batches(c.space, s, [Word(1, (0, 1, 1))], v, c.batch)[0]], "k"),
    "averaged_partition_sum": (lambda c, s, v: averaged_partition_sum(c, s, v, ZERO, 0.5), "n"),
    "reachable_points": (lambda c, s, v: reachable_points(c, s, v), "steps"),
    "generation_at": (lambda c, s, v: generation_at(s, v), "j"),
    "Word start": (lambda c, s, v: Word(v, (0,)), "start"),
    "Word symbols": (lambda c, s, v: Word(1, (0, v)), "symbols[1]"),
}


@pytest.mark.parametrize("bad", [1.5, math.nan, math.inf])
@pytest.mark.parametrize("function", sorted(_COUNT_ARGUMENTS))
def test_nonintegral_counts_are_refused_by_name(function, bad):
    cloud, sched = two_point()
    call, name = _COUNT_ARGUMENTS[function]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer >= [01], got {bad!r}$"):
        call(cloud, sched, bad)


@pytest.mark.parametrize("function", sorted(_COUNT_ARGUMENTS))
def test_integral_float_counts_run_as_ints(function):
    cloud, sched = two_point()
    call, _ = _COUNT_ARGUMENTS[function]
    assert call(cloud, sched, 2.0) == call(cloud, sched, 2)


def test_words_hold_plain_ints():
    # 2.0 runs as 2; a plain int is kept as given
    w = Word(2.0, [1.0, 0])
    assert w == Word(2, (1, 0)) and type(w.start) is int and all(type(s) is int for s in w.symbols)
    symbols = (0, 1)
    assert Word(1, symbols).symbols is symbols


def test_counts_keep_their_lower_bounds():
    cloud, sched = two_point()
    assert bowen(cloud, sched, Word(1, (0, 1)), 0, 0, 1) == 1.0
    assert count_words(sched, 1, 0) == 1 and enumerate_words(sched, 1, 0, None, 0)[2] == 1
    assert sorted(reachable_points(cloud, sched, 0)) == [0, 1]
    assert enumerate_words(sched, 1, 3, 1, 0)[1] == "sampled"
    assert partition_sum_spanning(cloud, sched, Word(1, (0,)), 0, ZERO, 0.5).witness_size == 2
    assert [len(o) for o in orbit_batches(cloud.space, sched, [Word(1, (0,))], 0, cloud.batch)] == [1]
    assert _birkhoff_vector(_word_orbit(cloud, sched, Word(1, (0,)), 0), Potential("constant", (0.5,))).tolist() == [0.5, 0.5]
    for call, name, low in (
        (lambda: power_system(sched, 0), "n", 1),
        (lambda: truncate_system(sched, 0), "k", 1),
        (lambda: _word_orbit(cloud, sched, Word(1, (0,)), -1), "n", 0),
        (lambda: sup_orbit(cloud, sched, -1, [0, 1]), "n", 0),
        (lambda: count_words(sched, 0, 2), "m", 1),
        (lambda: enumerate_words(sched, 1, -1, None, 0), "n", 0),
        (lambda: enumerate_words(sched, 1, 3, 0, 0), "word_budget", 1),
        (lambda: enumerate_words(sched, 1, 3, 2, -3), "seed", 0),
        (lambda: partition_sum_separated(cloud, sched, Word(1, (0,)), -1, ZERO, 0.5), "n", 0),
        (lambda: partition_sum_spanning(cloud, sched, Word(1, (0,)), -1, ZERO, 0.5), "n", 0),
        (lambda: orbit_batches(cloud.space, sched, [Word(1, (0,))], -1, cloud.batch), "k", 0),
        (lambda: averaged_partition_sum(cloud, sched, 0, ZERO, 0.5), "n", 1),
        (lambda: reachable_points(cloud, sched, -1), "steps", 0),
        (lambda: generation_at(sched, 0), "j", 1),
        (lambda: Word(0, (0,)), "start", 1),
        (lambda: Word(1, (-1,)), "symbols[0]", 0),
    ):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer >= {low}, got "):
            call()


def test_symbols_are_checked_against_their_generation():
    # two maps per step: symbol 5 at step 1 and 2 at step 2 name no map
    cloud, sched = two_point()
    with pytest.raises(ValueError, match=r"^symbols\[0\] = 5 is outside generation 1, whose maps are 0\.\.1$"):
        bowen(cloud, sched, Word(1, (5,)), 1, 0, 1)
    with pytest.raises(ValueError, match=r"^symbols\[1\] = 2 is outside generation 2, whose maps are 0\.\.1$"):
        partition_sum_separated(cloud, sched, Word(1, (0, 2)), 2, Potential("constant", (0.0,)), 0.5)
    # a one-map prefix generation takes symbol 0 only
    prefixed = GenerationSchedule(prefix=((SWAP2,),), cycle=((ID, SWAP2),))
    with pytest.raises(ValueError, match=r"^symbols\[0\] = 1 is outside generation 1, whose maps are 0\.\.0$"):
        bowen(cloud, prefixed, Word(1, (1, 0)), 2, 0, 1)
    assert bowen(cloud, prefixed, Word(1, (0, 1)), 2, 0, 1) == 1.0


def test_semiconjugacy_identity_is_exact():
    cloud, sched = two_point()
    factor = FactorMapSpec(
        source=NAIFS(cloud, sched), target=NAIFS(cloud, sched), kind="index_table", table=(0, 1)
    )
    rep = check_semiconjugacy(factor, 1e-12)
    assert rep.max_deviation == 0.0 and rep.surjective and rep.passed


def four_point_quotient():
    dm = (
        (0.0, 1.0, 0.4, 1.0),
        (1.0, 0.0, 1.0, 0.4),
        (0.4, 1.0, 0.0, 1.0),
        (1.0, 0.4, 1.0, 0.0),
    )
    src_cloud = build_cloud(SpaceSpec("finite_explicit", distance_matrix=dm))
    rot4 = MapSpec("permutation_table", (1, 2, 3, 0))
    src = NAIFS(src_cloud, GenerationSchedule((), ((ID, rot4),)))
    tgt_cloud = build_cloud(SpaceSpec("finite_explicit", distance_matrix=((0.0, 1.0), (1.0, 0.0))))
    tgt = NAIFS(tgt_cloud, GenerationSchedule((), ((ID, SWAP2),)))
    return FactorMapSpec(source=src, target=tgt, kind="index_table", table=(0, 1, 0, 1))


def test_semiconjugacy_quotient_table():
    factor = four_point_quotient()
    rep = check_semiconjugacy(factor, 1e-12)
    assert rep.max_deviation == 0.0 and rep.passed
    assert fiber_indices(factor, 0) == [0, 2]
    assert fiber_indices(factor, 1) == [1, 3]
    for yi in (-1, 2):
        with pytest.raises(IndexError):
            fiber_indices(factor, yi)
    # numpy would read a bool as a mask, and True is not target point 1
    for yi in (True, np.True_, 1.0):
        with pytest.raises(TypeError, match=rf"not {yi!r}$"):
            fiber_indices(factor, yi)


def test_semiconjugacy_binary_expansion():
    depth = 8
    src = NAIFS(
        build_cloud(SpaceSpec("symbolic_depth", depth, alphabet_size=2)),
        GenerationSchedule((), ((MapSpec("shift"),),)),
    )
    tgt = NAIFS(
        build_cloud(SpaceSpec("circle_grid", 64)),
        GenerationSchedule((), ((MapSpec("doubling"),),)),
    )
    factor = FactorMapSpec(source=src, target=tgt, kind="binary_expansion")
    rep = check_semiconjugacy(factor, 2.0 ** (-(depth - 4)))
    assert rep.max_deviation <= 2.0 ** (-(depth - 4))
    assert rep.passed


@pytest.mark.parametrize("alphabet,depth", [(3, 4), (3, 8), (5, 6)])
def test_binary_expansion_of_a_row_does_not_depend_on_its_batch(alphabet, depth):
    cloud = build_cloud(SpaceSpec("symbolic_depth", depth, alphabet_size=alphabet))
    factor = FactorMapSpec(
        source=NAIFS(cloud, GenerationSchedule((), ((MapSpec("shift"),),))),
        target=NAIFS(circle(), GenerationSchedule((), ((MapSpec("doubling"),),))),
        kind="binary_expansion",
    )
    batch = cloud.batch
    whole = apply_factor_batch(factor, batch)
    alone = [apply_factor_batch(factor, batch[k : k + 1])[0] for k in range(len(batch))]
    assert [v.hex() for v in whole] == [v.hex() for v in alone]


def expansion_factor(words, n_target, fiber_tol=None):
    """binary_expansion from a hand-picked set of depth-6 words onto a circle grid."""
    space = SpaceSpec("symbolic_depth", 6, alphabet_size=2)
    src = NAIFS(PointCloud(space, points_to_batch(space, words)), GenerationSchedule((), ((MapSpec("shift"),),)))
    tgt = NAIFS(circle(n_target), GenerationSchedule((), ((MapSpec("doubling"),),)))
    return FactorMapSpec(source=src, target=tgt, kind="binary_expansion", fiber_tol=fiber_tol)


def test_binary_expansion_surjectivity():
    full = [tuple(w) for w in itertools.product(range(2), repeat=6)]
    assert check_semiconjugacy(expansion_factor(full, 64), 1.0).surjective
    # 0.5 and 63/64 only: target 0 is reached across the wrap, 1/4 is not
    near_one = [(1, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1)]
    assert check_semiconjugacy(expansion_factor(near_one, 2), 1.0).surjective
    assert not check_semiconjugacy(expansion_factor(near_one, 4), 1.0).surjective
    assert not check_semiconjugacy(expansion_factor(near_one, 2, fiber_tol=1.0 / 128), 1.0).surjective
    assert check_semiconjugacy(expansion_factor(near_one, 2, fiber_tol=1.0 / 64), 1.0).surjective


@given(
    st.lists(st.tuples(*[st.integers(0, 1)] * 6), min_size=1, max_size=12),
    st.integers(2, 40),
    st.floats(0.001, 0.2),
)
def test_binary_expansion_surjectivity_matches_brute_force(words, n_target, fiber_tol):
    factor = expansion_factor(words, n_target, fiber_tol)
    assert check_semiconjugacy(factor, 1.0).surjective == oracle_surjective(factor)


def shift_projection(depth=4):
    """Binary words of one depth under the shift, projected onto themselves."""
    words = NAIFS(build_cloud(SpaceSpec("symbolic_depth", depth, alphabet_size=2)), GenerationSchedule((), ((MapSpec("shift"),),)))
    return FactorMapSpec(source=words, target=words, kind="coordinate_projection")


def test_symbolic_projection_fibers_are_single_words():
    factor = shift_projection()
    assert [fiber_indices(factor, yi) for yi in range(16)] == [[yi] for yi in range(16)]
    report = check_factor_upper(factor, Potential("constant", (0.0,)), [1, 2], [0.5])
    assert report.name == "factor/fiber-upper"
    # a word of another depth is another point
    deeper = FactorMapSpec(shift_projection(3).source, factor.target, "coordinate_projection")
    assert [fiber_indices(deeper, yi) for yi in range(16)] == [[]] * 16


def test_symbolic_projection_verifies_through_the_cli(tmp_path):
    system = {
        "space": {"family": "symbolic_depth", "resolution": 4, "alphabet_size": 2},
        "schedule": {"prefix": [], "cycle": [[{"kind": "shift"}]]},
    }
    config = {
        "mode": "verify",
        **system,
        "potential": {"kind": "constant", "params": [0.0]},
        "potential_target": {"kind": "constant", "params": [0.0]},
        "factor": {"kind": "coordinate_projection", **system},
        "n_range": [1, 2],
        "eps_list": [0.5],
        "word_budget": 64,
        "seed": 1,
        "checks": [{"type": "factor_upper"}],
    }
    path = tmp_path / "projection.json"
    path.write_text(json.dumps(config))
    assert main(["verify", str(path), "--out", str(tmp_path / "out")]) == 0


def _circle_system(n):
    return NAIFS(circle(n), GenerationSchedule((), ((ID,),)))


def _words_system(words, depth=4):
    space = SpaceSpec("symbolic_depth", depth, alphabet_size=2)
    return NAIFS(PointCloud(space, points_to_batch(space, words)), GenerationSchedule((), ((MapSpec("shift"),),)))


def _finite_system(n):
    dm = tuple(tuple(float(i != j) for j in range(n)) for i in range(n))
    return NAIFS(build_cloud(SpaceSpec("finite_explicit", distance_matrix=dm)), GenerationSchedule((), ((ID,),)))


def _interval_system(n):
    return NAIFS(build_cloud(SpaceSpec("interval_grid", n)), GenerationSchedule((), ((ID,),)))


SURJECTIVITY_CASES = {
    "index_table_onto": (four_point_quotient, True),
    "index_table_misses_a_point": (lambda: FactorMapSpec(_finite_system(4), _finite_system(3), "index_table", (0, 1, 0, 1)), False),
    "finite_projection": (lambda: FactorMapSpec(_finite_system(3), _finite_system(3), "coordinate_projection"), True),
    "circle_onto_coarser_grid": (lambda: FactorMapSpec(_circle_system(16), _circle_system(8), "coordinate_projection"), True),
    "circle_into_finer_grid": (lambda: FactorMapSpec(_circle_system(8), _circle_system(16), "coordinate_projection"), False),
    "interval_onto_coarser_grid": (lambda: FactorMapSpec(_interval_system(5), _interval_system(3), "coordinate_projection"), True),
    "words_onto_themselves": (shift_projection, True),
    "some_words": (lambda: FactorMapSpec(_words_system([(0, 1, 1, 0), (1, 1, 1, 1)]), shift_projection().target, "coordinate_projection"), False),
    "words_of_another_depth": (lambda: FactorMapSpec(shift_projection(3).source, shift_projection(4).target, "coordinate_projection"), False),
    "binary_expansion_onto": (lambda: expansion_factor([tuple(w) for w in itertools.product(range(2), repeat=6)], 64), True),
    "binary_expansion_misses": (lambda: expansion_factor([(1, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1)], 4), False),
}


@pytest.mark.parametrize("case", sorted(SURJECTIVITY_CASES))
def test_surjectivity_matches_point_keys(case):
    build, expected = SURJECTIVITY_CASES[case]
    factor = build()
    pi_batch = apply_factor_batch(factor, factor.source.cloud.batch)
    assert _is_surjective(factor, pi_batch) == oracle_surjective(factor) == expected


def test_semiconjugacy_rejects_mismatched_index_sets():
    cloud, sched = two_point()
    bigger = GenerationSchedule(prefix=(), cycle=((ID, SWAP2, ID),))
    factor = FactorMapSpec(
        source=NAIFS(cloud, sched), target=NAIFS(cloud, bigger), kind="index_table", table=(0, 1)
    )
    with pytest.raises(ValueError, match="index sets differ"):
        check_semiconjugacy(factor, 1.0)


@given(st.integers(1, 3), st.integers(0, 2), st.integers(1, 8))
def test_generation_at_matches_unrolled_sequence(cycle_len, prefix_len, j):
    gens = [(MapSpec("rotation", (k / 10,)),) for k in range(prefix_len + cycle_len)]
    sched = GenerationSchedule(prefix=tuple(gens[:prefix_len]), cycle=tuple(gens[prefix_len:]))
    unrolled = gens[:prefix_len] + [gens[prefix_len + (t % cycle_len)] for t in range(20)]
    assert generation_at(sched, j) == unrolled[j - 1]


def test_bowen_distance_is_a_metric():
    cloud = circle(16)
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"), MapSpec("rotation", (0.25,))),))
    w = Word(1, (0, 1, 0))
    pts = points_of(cloud)[:6]
    for x in pts:
        assert bowen(cloud, sched, w, 3, x, x) == 0.0
        for y in pts:
            dxy = bowen(cloud, sched, w, 3, x, y)
            assert dxy == bowen(cloud, sched, w, 3, y, x)
            if x != y:
                assert dxy > 0
            for z in pts:
                assert dxy <= bowen(cloud, sched, w, 3, x, z) + bowen(cloud, sched, w, 3, z, y) + 1e-12


# ---------------------------------------------------------------------------
# reachable sets: numpy batches against the tuple breadth-first search

_FAMILY_MAPS = {
    "circle_grid": st.sampled_from(
        [MapSpec("doubling"), MapSpec("rotation", (0.25,)), MapSpec("affine_mod1", (3.0, 0.5)), ID]
    ),
    "interval_grid": st.sampled_from([MapSpec("tent"), MapSpec("affine_clamped", (0.5, 0.25)), ID]),
}


@st.composite
def _reachable_instances(draw):
    family = draw(st.sampled_from(["circle_grid", "interval_grid", "symbolic_depth", "finite_explicit"]))
    if family == "symbolic_depth":
        m = draw(st.integers(2, 3))
        space = SpaceSpec(family, draw(st.integers(3, 6)), alphabet_size=m)
        # shift next to substitutions: one step yields words of two lengths
        maps = st.sampled_from([MapSpec("shift"), ID]) | st.lists(st.integers(0, m - 1), min_size=m, max_size=m).map(
            lambda t: MapSpec("symbol_substitution_table", tuple(t))
        )
        max_steps = space.resolution
    elif family == "finite_explicit":
        n = draw(st.integers(2, 8))
        dm = tuple(tuple(0.0 if i == j else 1.0 for j in range(n)) for i in range(n))
        space = SpaceSpec(family, distance_matrix=dm)
        maps = st.permutations(range(n)).map(lambda p: MapSpec("permutation_table", tuple(p)))
        max_steps = 4
    else:
        space = SpaceSpec(family, draw(st.integers(3, 24)))
        maps, max_steps = _FAMILY_MAPS[family], 5
    gens = st.lists(maps, min_size=1, max_size=3).map(tuple)
    schedule = GenerationSchedule(
        prefix=tuple(draw(st.lists(gens, max_size=1))), cycle=tuple(draw(st.lists(gens, min_size=1, max_size=2)))
    )
    return build_cloud(space), schedule, draw(st.integers(0, max_steps))


@settings(max_examples=150, deadline=None)
@given(_reachable_instances())
def test_reachable_batches_match_tuple_search(instance):
    cloud, schedule, steps = instance
    space = cloud.space
    expected = {canonical_key(space, p) for p in oracle_reachable_points(cloud, schedule, steps)}
    batches = reachable_batches(cloud, schedule, steps)
    points = reachable_points(cloud, schedule, steps)
    assert len(points) == len(expected) and {canonical_key(space, p) for p in points} == expected
    assert sum(len(b) for b in batches) == len(expected)
    if space.family == "symbolic_depth":
        widths = [b.shape[1] for b in batches]
        assert len(set(widths)) == len(widths)


def test_reachable_batches_shift_and_substitution_mix_word_lengths():
    cloud = build_cloud(SpaceSpec("symbolic_depth", 4, alphabet_size=2))
    flip = MapSpec("symbol_substitution_table", (1, 0))
    schedule = GenerationSchedule(prefix=(), cycle=((MapSpec("shift"), flip),))
    batches = reachable_batches(cloud, schedule, 2)
    # 16 words of length 4, 8 of length 3 (shifted), 4 of length 2
    assert sorted((b.shape[1], len(b)) for b in batches) == [(2, 4), (3, 8), (4, 16)]
    assert len(oracle_reachable_points(cloud, schedule, 2)) == 28


def test_reachable_batches_circle_doubling_revisits():
    cloud = build_cloud(SpaceSpec("circle_grid", 16))
    schedule = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    (batch,) = reachable_batches(cloud, schedule, 4)
    # doubling maps the dyadic 16-point grid into itself exactly: every step
    # revisits cloud points and nothing new is reached
    assert list(batch) == list(cloud.batch)
    with pytest.raises(ValueError, match="cap"):
        reachable_batches(cloud, GenerationSchedule(prefix=(), cycle=((MapSpec("rotation", (0.01,)),),)), 2, cap=20)
