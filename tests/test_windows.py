"""Step-0 windows of the orbit class: the windowed first fit picks what a
full-row first fit picks, every closed Bowen eps-ball lies in its window,
and the witness re-checks do not trust the window."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from naifslab import GenerationSchedule, MapSpec, Potential, SpaceSpec, Word, build_cloud
from naifslab.pressure import (
    _BowenOrbit,
    _birkhoff_vector,
    _first_fit_separated,
    _max_ball_size,
    _solve_separated_weighted,
    _word_orbit,
)
from oracles import reference_bowen_row, reference_first_fit

# clouds past this size are checked at eps >= 1/2 and on sampled centres
LARGE = 1000
SYSTEMS = ("interval", "circle_doubling", "circle_rotation", "symbolic_2", "symbolic_3", "symbolic_130")


@st.composite
def systems(draw):
    """An enumerated cloud, one generation of maps valid on it, a
    non-constant potential and the most orbit steps the words allow."""
    kind = draw(st.sampled_from(SYSTEMS))
    max_steps = 6
    knots = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=5)
    if kind == "interval":
        cloud = build_cloud(SpaceSpec("interval_grid", draw(st.integers(2, 70))))
        a, b = draw(st.sampled_from([(0.6, 0.3), (0.5, 0.5), (-0.7, 0.9), (1.0, 0.0)]))
        gen = (MapSpec("affine_clamped", (a, b)), MapSpec("tent"))
        psi = Potential("piecewise_linear", tuple(draw(knots)))
    elif kind.startswith("circle"):
        n_pts = draw(st.integers(2, 70))
        cloud = build_cloud(SpaceSpec("circle_grid", n_pts))
        # rotation by a grid step keeps the orbit on the grid; 0.3 leaves it
        angle = draw(st.sampled_from([1.0 / n_pts, 0.3, 0.5]))
        rotation = MapSpec("rotation", (angle,))
        gen = (MapSpec("doubling"), rotation) if kind == "circle_doubling" else (rotation, MapSpec("identity"))
        psi = Potential("piecewise_linear", tuple(draw(knots)))
    else:
        m = int(kind.split("_")[1])
        depth = draw(st.integers(3, 7) if m == 2 else st.integers(3, 4) if m == 3 else st.just(2))
        cloud = build_cloud(SpaceSpec("symbolic_depth", depth, alphabet_size=m))
        perm = MapSpec("symbol_substitution_table", tuple(draw(st.permutations(range(m)))))
        # on the 16,900 words of alphabet 130 a shift would make every ball
        # below eps = 1 a single word, and the reference first fit too slow
        other = MapSpec("symbol_substitution_table", tuple(range(m - 1, -1, -1))) if m == 130 else MapSpec("shift")
        gen = (perm, other)
        if m != 130:
            # the first symbol must outlive the shifts (first_symbol_table)
            max_steps = depth - 1
        psi = Potential("first_symbol_table", tuple(draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m))))
    return cloud, GenerationSchedule(prefix=(), cycle=(gen,)), psi, max_steps


@st.composite
def orbits(draw):
    """A word orbit, a power-rule orbit (every p-th step of a base orbit) or
    the truncation net's orbit (the cloud alone), with its potential."""
    cloud, sched, psi, max_steps = draw(systems())
    kind = draw(st.sampled_from(["word", "power", "net"]))
    if kind == "net":
        return _BowenOrbit(cloud, [cloud.batch]), psi
    if kind == "word":
        n = draw(st.integers(0, min(3, max_steps)))
        symbols = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        return _word_orbit(cloud, sched, Word(1, symbols), n), psi
    p = draw(st.integers(2, min(3, max_steps)))
    m = draw(st.integers(1, min(2, max_steps // p)))
    symbols = tuple(draw(st.lists(st.integers(0, 1), min_size=m * p, max_size=m * p)))
    base = _word_orbit(cloud, sched, Word(1, symbols), m * p)
    return _BowenOrbit(cloud, base.batches[::p]), psi


def eps_values(cloud):
    """eps at the grid steps k/N and k/(N-1), at the cylinder radii 2**-k,
    anywhere in (0, 1], and past the diameter (windows of the whole cloud).
    The alphabet-130 cloud takes eps >= 1/2 only, where its balls hold 130
    words each."""
    n = len(cloud)
    if n > LARGE:
        return st.one_of(st.floats(0.5, 1.0), st.sampled_from([0.5, 1.0, 3.0]))
    return st.one_of(
        st.integers(1, n).map(lambda k: k / n),
        st.integers(1, max(1, n - 1)).map(lambda k: k / max(1, n - 1)),
        st.integers(0, 9).map(lambda k: 2.0**-k),
        st.floats(1e-3, 1.0),
        st.sampled_from([0.5, 1.0, 3.0]),
    )


@settings(max_examples=150)
@given(orbits(), st.data())
def test_windowed_first_fit_picks_what_the_full_row_first_fit_picks(orbit, data):
    ctx, psi = orbit
    eps = data.draw(eps_values(ctx.cloud))
    S = _birkhoff_vector(ctx, psi)
    by_weight = np.lexsort((np.arange(ctx.n_points), -S))
    for order in (by_weight, np.arange(ctx.n_points)):
        assert _first_fit_separated(ctx, eps, order) == reference_first_fit(ctx, eps, order)


@settings(max_examples=150)
@given(orbits(), st.data())
def test_every_closed_ball_lies_in_its_window(orbit, data):
    ctx, _ = orbit
    eps = data.draw(eps_values(ctx.cloud))
    everything = np.arange(ctx.n_points)
    sizes = []
    # the alphabet-130 cloud: a sample of centres, the first and last included
    centres = range(ctx.n_points) if ctx.n_points <= LARGE else [0, ctx.n_points - 1, *data.draw(st.lists(st.integers(0, ctx.n_points - 1), max_size=20))]
    for c in centres:
        ball = np.flatnonzero(reference_bowen_row(ctx, c, everything) <= eps)
        window = ctx.window(c, eps)
        assert len(np.unique(window)) == len(window) and np.isin(ball, window).all(), (c, eps)
        sizes.append(len(ball))
    if ctx.n_points <= LARGE:
        assert _max_ball_size(ctx, eps) == max(sizes)


def circle_orbit(n_pts, n):
    cloud = build_cloud(SpaceSpec("circle_grid", n_pts))
    sched = GenerationSchedule(prefix=(), cycle=((MapSpec("rotation", (1.0 / n_pts,)),),))
    return _word_orbit(cloud, sched, Word(1, (0,) * n), n)


def test_circle_windows_wrap_past_both_ends():
    ctx = circle_orbit(64, 2)
    eps = 3 / 64
    # radius ceil(3) + 1 = 4 grid steps
    assert sorted(ctx.window(0, eps)) == [0, 1, 2, 3, 4, 60, 61, 62, 63]
    assert sorted(ctx.window(63, eps)) == [0, 1, 2, 3, 59, 60, 61, 62, 63]
    assert sorted(ctx.window(5, 0.5)) == list(range(64))
    # 63 first: its ball holds 0..2 past the end of the index range
    order = np.r_[63, np.arange(63)]
    picks = _first_fit_separated(ctx, eps, order)
    assert picks == reference_first_fit(ctx, eps, order)
    assert picks[:2] == [63, 3]


def test_windows_are_the_whole_cloud_off_the_enumerated_step_0():
    ctx = circle_orbit(64, 1)
    shifted = _BowenOrbit(ctx.cloud, ctx.batches[1:])
    copied = _BowenOrbit(ctx.cloud, [ctx.cloud.batch.copy()])
    symbolic = build_cloud(SpaceSpec("symbolic_depth", 6, alphabet_size=2))
    for orbit in (shifted, copied):
        assert orbit.window(7, 1 / 64).tolist() == list(range(64))
    # 2**-3 <= 0.2: a run of the 2**3 words that share the first 3 symbols
    assert _BowenOrbit(symbolic, [symbolic.batch]).window(21, 0.2).tolist() == list(range(16, 24))


def test_too_narrow_window_fails_the_separated_recheck(monkeypatch):
    ctx = circle_orbit(64, 1)
    S = _birkhoff_vector(ctx, Potential("coordinate_affine", (1.0, 0.0)))
    monkeypatch.setattr(_BowenOrbit, "window", lambda self, c, eps: np.array([c]))
    with pytest.raises(RuntimeError, match="separated witness failed") as info:
        _solve_separated_weighted(ctx, S, 3 / 64, "greedy")
    assert info.traceback[-1].name == "_recheck_separated"


def test_tiles_and_blocks_never_alias_the_matrix():
    ctx = circle_orbit(48, 2)
    m = ctx.matrix().copy()
    everything = np.arange(48)
    assert ctx.min_pair_distance(everything) == pytest.approx(1 / 48)
    block = ctx.block(slice(0, 5), slice(None))
    block[:] = -1.0
    tile = ctx.tile(everything[:5], everything)
    tile[:] = -1.0
    assert np.array_equal(ctx.matrix(), m)
    assert math.isclose(ctx.block(slice(1, 2), slice(0, 1))[0, 0], 1 / 48)
