"""A pressure curve's per-word memo (pressure._CurveMemo) against the same
sums computed cell by cell with no curve open.

Inside pressure_estimate the orbits and Birkhoff vectors of an n's words
are built in one batch and serve every eps of the curve, and a word drawn
twice is solved once.  Every entry must equal the uncached averaged_partition_sum
bit for bit, and a request outside the curve's scope must be solved afresh.
"""

import dataclasses
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import naifslab.pressure as pressure
from naifslab import (
    GenerationSchedule,
    MapSpec,
    Potential,
    SpaceSpec,
    averaged_partition_sum,
    build_cloud,
    enumerate_words,
    pressure_estimate,
)
from naifslab.space import FINITE
from naifslab.theorems import random_explicit_instance


def _fields(entry):
    """An AveragedPartitionSum's fields, floats as hex."""
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(entry)]


def _eps_list(cloud, quantiles):
    off = np.sort(cloud.dmatrix()[~np.eye(len(cloud), dtype=bool)])
    return sorted({float(off[int(q * (len(off) - 1))]) for q in quantiles}, reverse=True)


def _potential(rng, cloud):
    return Potential("explicit_table", tuple(rng.uniform(-1, 1) for _ in range(len(cloud))))


def _instance(rng, points, maps=3):
    """A planar cloud of the given size under two generations of `maps`
    random permutations each, and a random potential."""
    coords = [(rng.random(), rng.random()) for _ in range(points)]
    dm = tuple(tuple(float(np.hypot(a[0] - b[0], a[1] - b[1])) for b in coords) for a in coords)
    cloud = build_cloud(SpaceSpec(FINITE, distance_matrix=dm))
    cycle = tuple(tuple(MapSpec("permutation_table", tuple(rng.sample(range(points), points))) for _ in range(maps)) for _ in range(2))
    return cloud, GenerationSchedule(prefix=(), cycle=cycle), _potential(rng, cloud)


def _distinct_words(sched, n, budget, seed):
    words, _, _ = enumerate_words(sched, 1, n, budget, seed)
    return len(words), len(set(words))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**6),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    st.sampled_from([4096, 2, 3, 5, 8]),
    st.sampled_from(pressure.KINDS),
    st.sets(st.integers(1, 4), min_size=1, max_size=3),
)
def test_curve_entries_equal_cell_by_cell_sums(seed, quantiles, budget, kind, ns):
    rng = random.Random(seed)
    cloud, sched = random_explicit_instance(rng, max_points=12, max_maps=3, max_cycle=2)
    psi = _potential(rng, cloud)
    eps_list = _eps_list(cloud, quantiles)
    curve = pressure_estimate(cloud, sched, psi, ns, eps_list, word_budget=budget, seed=seed, kind=kind)
    assert pressure._curve_memo.get() is None
    # eps by eps, n ascending within each
    assert [(e.eps, e.n) for e in curve.entries] == [(eps, n) for eps in eps_list for n in sorted(ns)]
    for e in curve.entries:
        fresh = averaged_partition_sum(cloud, sched, e.n, psi, e.eps, kind=kind, word_budget=budget, seed=seed)
        assert _fields(e) == _fields(fresh)


def test_a_curve_builds_one_orbit_per_distinct_word_and_solves_it_once_per_eps(monkeypatch):
    # 21 to 64 points take branch and bound; a budget of 6 samples words with
    # repeats from n = 2 on
    rng = random.Random(5)
    cloud, sched, psi = _instance(rng, 24)
    eps_list = _eps_list(cloud, [0.6, 0.3])
    ns, budget = [1, 2, 3], 6
    counts = {"covers": 0, "sums": 0}
    batches = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def word_orbits(cloud_, sched_, words_, n):
        batches.append(len(words_))
        return orbits(cloud_, sched_, words_, n)

    orbits = pressure._word_orbits
    monkeypatch.setattr(pressure, "_word_orbits", word_orbits)
    monkeypatch.setattr(pressure, "_bb_cover", counting("covers", pressure._bb_cover))
    monkeypatch.setattr(pressure, "partition_sum_spanning", counting("sums", pressure.partition_sum_spanning))
    curve = pressure_estimate(cloud, sched, psi, ns, eps_list, word_budget=budget, seed=1, kind="spanning")
    assert {e.method for e in curve.entries} == {"branch_and_bound"}
    words = [_distinct_words(sched, n, budget, 1) for n in ns]
    drawn, distinct = sum(w for w, _ in words), sum(d for _, d in words)
    assert distinct < drawn
    # one batch of orbits per n, holding each of its distinct words once
    assert batches == [d for _, d in words]
    assert counts == {"covers": distinct * len(eps_list), "sums": drawn * len(eps_list)}


def test_requests_outside_the_curve_are_solved_afresh(monkeypatch):
    # inside a curve, the same word at a smaller n, under another potential,
    # of the other kind, in a forced mode or at another eps is not the
    # curve's sum: each must equal its value with no curve open
    rng = random.Random(8)
    cloud, sched, psi = _instance(rng, 8)
    other = _potential(rng, cloud)
    eps_list = _eps_list(cloud, [0.5, 0.2])
    inside = []
    averaged = pressure.averaged_partition_sum

    def probe(cloud_, sched_, n, psi_, eps, **kwargs):
        entry = averaged(cloud_, sched_, n, psi_, eps, **kwargs)
        inside.append(_requests(n, eps))
        return entry

    def _requests(n, eps):
        w = enumerate_words(sched, 1, n, None, 0)[0][-1]
        asks = [
            (pressure.partition_sum_separated, max(1, n - 1), psi, eps, "auto"),
            (pressure.partition_sum_separated, n, other, eps, "auto"),
            (pressure.partition_sum_spanning, n, psi, eps, "auto"),
            (pressure.partition_sum_separated, n, psi, eps, "greedy"),
            (pressure.partition_sum_separated, n, psi, eps / 3, "auto"),
        ]
        return [(r.log_value.hex(), r.witness_size, r.method) for r in (op(cloud, sched, w, m, p, e, mode) for op, m, p, e, mode in asks)]

    monkeypatch.setattr(pressure, "averaged_partition_sum", probe)
    pressure_estimate(cloud, sched, psi, [2, 3], eps_list, word_budget=None, kind="separated")
    monkeypatch.undo()
    assert inside == [_requests(n, eps) for n in [2, 3] for eps in eps_list]


def test_nothing_is_memoised_after_a_curve_returns_or_raises(monkeypatch):
    rng = random.Random(3)
    cloud, sched, psi = _instance(rng, 8)
    eps_list = _eps_list(cloud, [0.5, 0.2])
    pressure_estimate(cloud, sched, psi, [1, 2], eps_list)
    assert pressure._curve_memo.get() is None
    # the Birkhoff sums of n + 1 huge values overflow: pressure._weights refuses them
    huge = Potential("explicit_table", (1e308,) * len(cloud))
    with pytest.raises(ValueError, match="Birkhoff sums are not finite"):
        pressure_estimate(cloud, sched, huge, [1, 2], eps_list)
    assert pressure._curve_memo.get() is None
    # a solve that fails while the memo fills a word's eps
    solve = pressure._solve_separated_weighted
    calls = iter(range(10**6))

    def failing(ctx, S, eps, mode="auto"):
        if next(calls) == 3:
            raise RuntimeError("planted failure")
        return solve(ctx, S, eps, mode)

    monkeypatch.setattr(pressure, "_solve_separated_weighted", failing)
    with pytest.raises(RuntimeError, match="planted failure"):
        pressure_estimate(cloud, sched, psi, [1, 2], eps_list)
    assert pressure._curve_memo.get() is None


def test_curves_in_concurrent_threads_equal_serial_curves():
    # each thread holds its own memo: curves over the same objects at other
    # n ranges, or under another potential, computed at once, equal their
    # serial values, and no thread is left with a memo
    rng = random.Random(9)
    cloud, sched, psi = _instance(rng, 8)
    other = _potential(rng, cloud)
    eps_list = _eps_list(cloud, [0.5, 0.2])
    jobs = [(p, ns) for p in (psi, other) for ns in ([1, 2, 3], [2, 3], [3])] * 2

    def curve(p, ns):
        c = pressure_estimate(cloud, sched, p, ns, eps_list, word_budget=6, seed=3, kind="spanning")
        return [_fields(e) for e in c.entries], pressure._curve_memo.get()

    serial = [curve(p, ns) for p, ns in jobs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(curve, p, ns) for p, ns in jobs]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    assert threaded == serial and all(memo is None for _, memo in threaded)
    assert pressure._curve_memo.get() is None
