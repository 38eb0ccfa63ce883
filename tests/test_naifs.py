import itertools
import math

import pytest
from hypothesis import given, strategies as st

from naifslab import (
    FactorMapSpec,
    GenerationSchedule,
    MapSpec,
    NAIFS,
    PointCloud,
    SpaceSpec,
    Word,
    block_word,
    bowen_distance,
    build_cloud,
    check_semiconjugacy,
    compose,
    count_words,
    distance,
    enumerate_words,
    fiber_indices,
    generation_at,
    power_system,
    sup_bowen_distance,
    truncate_system,
)
from oracles import oracle_bowen, oracle_sup_bowen

ID = MapSpec("identity")
SWAP2 = MapSpec("permutation_table", (1, 0))


def two_point():
    cloud = build_cloud(SpaceSpec("finite_explicit", distance_matrix=((0.0, 1.0), (1.0, 0.0))))
    schedule = GenerationSchedule(prefix=(), cycle=(((ID, SWAP2)),))
    return cloud, schedule


def circle(n=64):
    return build_cloud(SpaceSpec("circle_grid", n))


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
        for x in cloud.points:
            for k in range(5):
                for m in range(5 - k):
                    via = compose(cloud, sched, w, 1 + k, m, compose(cloud, sched, w, 1, k, x))
                    assert compose(cloud, sched, w, 1, k + m, x) == via


def test_bowen_identity_schedule_is_base_distance():
    cloud = circle()
    sched = GenerationSchedule(prefix=(), cycle=((ID,),))
    w = Word(1, (0, 0, 0))
    assert bowen_distance(cloud, sched, w, 3, 0.125, 0.5) == distance(cloud, 0.125, 0.5)


def test_bowen_doubling_example():
    cloud = circle()
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    w = Word(1, (0, 0))
    assert bowen_distance(cloud, sched, w, 2, 0.0, 0.26) == pytest.approx(0.48)
    assert bowen_distance(cloud, sched, w, 2, 0.26, 0.26) == 0.0


def test_bowen_monotone_in_k_and_dominates_base():
    cloud = circle(32)
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"), MapSpec("rotation", (0.25,))),))
    w = Word(1, (0, 1, 0, 1))
    prev = 0.0
    for k in range(5):
        d = bowen_distance(cloud, sched, w, k, 0.0, 1 / 32)
        assert d >= prev
        prev = d
    assert bowen_distance(cloud, sched, w, 4, 0.0, 1 / 32) >= distance(cloud, 0.0, 1 / 32)


def test_bowen_requires_root_one():
    cloud = circle()
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    with pytest.raises(ValueError, match="re-root"):
        bowen_distance(cloud, sched, Word(2, (0, 0)), 2, 0.0, 0.5)
    with pytest.raises(ValueError, match="exceeds"):
        bowen_distance(cloud, sched, Word(1, (0,)), 2, 0.0, 0.5)


def test_bowen_agrees_with_oracle():
    cloud = circle(16)
    sched = GenerationSchedule(
        prefix=((MapSpec("rotation", (0.25,)),),),
        cycle=((MapSpec("doubling"), ID),),
    )
    for symbols in itertools.product(range(1), range(2), range(2)):
        w = Word(1, symbols)
        for x in cloud.points[:4]:
            for y in cloud.points[4:8]:
                assert bowen_distance(cloud, sched, w, 3, x, y) == pytest.approx(
                    oracle_bowen(cloud, sched, w, 3, x, y)
                )


def test_sup_bowen_identity_and_swap():
    cloud, sched = two_point()
    assert sup_bowen_distance(cloud, sched, 3, 0, 1) == 1.0
    assert sup_bowen_distance(cloud, sched, 3, 1, 1) == 0.0
    ident = GenerationSchedule(prefix=(), cycle=((ID,),))
    c = circle(16)
    assert sup_bowen_distance(c, ident, 4, 0.25, 0.5) == distance(c, 0.25, 0.5)


def test_sup_bowen_dominates_rooted_words_and_matches_oracle():
    cloud = circle(16)
    sched = GenerationSchedule(
        prefix=((MapSpec("rotation", (0.25,)),),),
        cycle=((MapSpec("doubling"), ID),),
    )
    x, y = 0.0, 0.0625
    dstar = sup_bowen_distance(cloud, sched, 3, x, y)
    assert dstar == pytest.approx(oracle_sup_bowen(cloud, sched, 3, x, y))
    for symbols in itertools.product(range(1), range(2), range(2)):
        w = Word(1, symbols)
        assert dstar >= bowen_distance(cloud, sched, w, 3, x, y) - 1e-15


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
            for w in words:
                wstar = block_word(sched, w, n)
                for x in cloud.points[:5]:
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


def expansion_factor(words, n_target, fiber_tol=None):
    """binary_expansion from a hand-picked set of depth-6 words onto a circle grid."""
    src = NAIFS(
        PointCloud(points=tuple(words), space=SpaceSpec("symbolic_depth", 6, alphabet_size=2)),
        GenerationSchedule((), ((MapSpec("shift"),),)),
    )
    tgt = NAIFS(circle(n_target), GenerationSchedule((), ((MapSpec("doubling"),),)))
    return FactorMapSpec(source=src, target=tgt, kind="binary_expansion", fiber_tol=fiber_tol)


def brute_surjective(factor):
    images = [sum(s * 2.0 ** -(k + 1) for k, s in enumerate(w)) for w in factor.source.cloud.points]
    return all(
        min(min(abs(p - y) % 1.0, 1.0 - abs(p - y) % 1.0) for p in images) <= factor.fiber_tol + 1e-15
        for y in factor.target.cloud.points
    )


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
    assert check_semiconjugacy(factor, 1.0).surjective == brute_surjective(factor)


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
    pts = cloud.points[:6]
    for x in pts:
        assert bowen_distance(cloud, sched, w, 3, x, x) == 0.0
        for y in pts:
            dxy = bowen_distance(cloud, sched, w, 3, x, y)
            assert dxy == bowen_distance(cloud, sched, w, 3, y, x)
            if x != y:
                assert dxy > 0
            for z in pts:
                assert dxy <= bowen_distance(cloud, sched, w, 3, x, z) + bowen_distance(cloud, sched, w, 3, z, y) + 1e-12
