"""Step-0 windows of the orbit class on the grids: the windowed first fit
picks what a full-row first fit picks, every closed Bowen eps-ball lies in
its window, and the witness re-checks do not trust the window.  Word
clouds have no window (their large orbits are solved by classes)."""

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

SYSTEMS = ("interval", "circle_doubling", "circle_rotation")


@st.composite
def systems(draw):
    """An enumerated grid, one generation of maps valid on it and a
    non-constant potential."""
    kind = draw(st.sampled_from(SYSTEMS))
    if kind == "interval":
        cloud = build_cloud(SpaceSpec("interval_grid", draw(st.integers(2, 70))))
        a, b = draw(st.sampled_from([(0.6, 0.3), (0.5, 0.5), (-0.7, 0.9), (1.0, 0.0)]))
        gen = (MapSpec("affine_clamped", (a, b)), MapSpec("tent"))
    else:
        n_pts = draw(st.integers(2, 70))
        cloud = build_cloud(SpaceSpec("circle_grid", n_pts))
        # rotation by a grid step keeps the orbit on the grid; 0.3 leaves it
        angle = draw(st.sampled_from([1.0 / n_pts, 0.3, 0.5]))
        rotation = MapSpec("rotation", (angle,))
        gen = (MapSpec("doubling"), rotation) if kind == "circle_doubling" else (rotation, MapSpec("identity"))
    psi = Potential("piecewise_linear", tuple(draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=5))))
    return cloud, GenerationSchedule(prefix=(), cycle=(gen,)), psi


@st.composite
def orbits(draw):
    """A word orbit, a power-rule orbit (every p-th step of a base orbit) or
    the truncation net's orbit (the cloud alone), with its potential."""
    cloud, sched, psi = draw(systems())
    kind = draw(st.sampled_from(["word", "power", "net"]))
    if kind == "net":
        return _BowenOrbit(cloud, [cloud.batch]), psi
    if kind == "word":
        n = draw(st.integers(0, 3))
        symbols = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        return _word_orbit(cloud, sched, Word(1, symbols), n), psi
    p = draw(st.integers(2, 3))
    m = draw(st.integers(1, 2))
    symbols = tuple(draw(st.lists(st.integers(0, 1), min_size=m * p, max_size=m * p)))
    base = _word_orbit(cloud, sched, Word(1, symbols), m * p)
    return _BowenOrbit(cloud, base.batches[::p]), psi


def eps_values(cloud):
    """eps at the grid steps k/N and k/(N-1), at the dyadic radii 2**-k,
    anywhere in (0, 1], and past the diameter (windows of the whole cloud)."""
    n = len(cloud)
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
    for c in range(ctx.n_points):
        ball = np.flatnonzero(reference_bowen_row(ctx, c, everything) <= eps)
        window = ctx.window(c, eps)
        assert len(np.unique(window)) == len(window) and np.isin(ball, window).all(), (c, eps)
        sizes.append(len(ball))
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
    for orbit in (shifted, copied):
        assert orbit.window(7, 1 / 64).tolist() == list(range(64))


def test_too_narrow_window_fails_the_separated_recheck(monkeypatch):
    ctx = circle_orbit(64, 1)
    S = _birkhoff_vector(ctx, Potential("coordinate_affine", (1.0, 0.0)))
    monkeypatch.setattr(_BowenOrbit, "window", lambda self, c, eps: np.array([c]))
    with pytest.raises(RuntimeError, match="separated witness failed") as info:
        _solve_separated_weighted(ctx, S, 3 / 64, "greedy")
    assert info.traceback[-1].name == "_recheck_separated"


def test_tiles_and_blocks_never_alias_the_balls():
    ctx = circle_orbit(48, 2)
    balls = list(ctx.balls(2 / 48))
    everything = np.arange(48)
    assert ctx.min_pair_distance(everything) == pytest.approx(1 / 48)
    block = ctx.block(slice(0, 5), slice(None))
    block[:] = -1.0
    tile = ctx.tile(everything[:5], everything)
    tile[:] = -1.0
    assert ctx.balls(2 / 48) == balls
    # balls built after the scribbling are those of a fresh orbit and of
    # the distances computed afresh
    fresh = circle_orbit(48, 2)
    full = fresh.block(everything, everything)
    for eps in (2 / 48, 3 / 48):
        assert ctx.balls(eps) == fresh.balls(eps) == [sum(1 << j for j in np.flatnonzero(r <= eps).tolist()) for r in full]
    assert math.isclose(ctx.block(slice(1, 2), slice(0, 1))[0, 0], 1 / 48)
