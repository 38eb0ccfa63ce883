"""Runs under the benchmark's span tracer equal untraced runs.

The tracer (perfbench/spans.py, imported read-only) replaces naifslab's
entry points, and theorems' private pressure names, by wrapper functions.
Code that treats a wrapped name as anything but a callable (a class
attribute, isinstance) breaks only in a traced run.
"""

import sys
from pathlib import Path

import naifslab.cli as cli
import naifslab.pressure as pressure
import naifslab.theorems as theorems
from naifslab import GenerationSchedule, MapSpec, Potential, SpaceSpec, build_cloud, enumerate_words
from naifslab.catalog import EXAMPLE_CONFIGS

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import Tracer, layer_metrics  # noqa: E402


def _runs(out: Path):
    """The suite's reports, the CLI's output bytes and a two-eps curve's entries."""
    reports = theorems.run_finite_inequality_suite(count=3)
    config = cli.ExperimentConfig.from_dict(dict(EXAMPLE_CONFIGS["four_point_quotient"], output_dir=str(out)))
    code = cli.run(config)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    cloud = build_cloud(SpaceSpec("circle_grid", 32))
    schedule = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"), MapSpec("rotation", (0.25,))),))
    psi = Potential("piecewise_linear", (0.0, 1.0, 0.2, 0.9))
    curve = pressure.pressure_estimate(cloud, schedule, psi, [1, 2, 3], [0.25, 0.125], word_budget=4, seed=1)
    return reports, code, files, curve


def test_traced_runs_equal_untraced_runs(tmp_path):
    plain = _runs(tmp_path / "plain")
    tracer = Tracer()
    tracer.install()
    try:
        traced = _runs(tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    # the suite reaches theorems' orbit constructor through its wrapper
    assert tracer.stats["theorems.check_power_rule"].calls == 3 and tracer.stats["pressure._BowenOrbit"].calls > 0
    assert traced[0] == plain[0]
    assert traced[1] == plain[1] == 0
    assert set(plain[2]) == {"summary.txt", "verdicts.csv"} and traced[2] == plain[2]
    assert traced[3].entries == plain[3].entries and traced[3] == plain[3]


def test_a_traced_curve_solves_every_slot_on_one_orbit_per_distinct_word():
    # every (word, eps) slot is still one public solve, but the orbits of an
    # n's words are built in one batch, however many eps and draws they serve
    cloud = build_cloud(SpaceSpec("circle_grid", 24))
    schedule = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"), MapSpec("rotation", (0.25,)), MapSpec("identity")),))
    psi = Potential("piecewise_linear", (0.0, 1.0, 0.2, 0.9))
    ns, eps_list, budget = [1, 2, 3], [0.25, 0.125], 6
    words = [enumerate_words(schedule, 1, n, budget, 7)[0] for n in ns]
    assert [len(w) for w in words] == [3, 6, 6] and sum(len(set(w)) for w in words) < 15
    tracer = Tracer()
    tracer.install()
    try:
        curve = pressure.pressure_estimate(cloud, schedule, psi, ns, eps_list, word_budget=budget, seed=7)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    m = layer_metrics(tracer)
    assert m["pressure.solves.calls"] == len(eps_list) * sum(len(w) for w in words)
    # one orbit pass and one potential evaluation per orbit step of each n
    assert m["naifs.orbit_batches.calls"] == len(ns)
    assert m["space.eval_potential_batch.calls"] == sum(n + 1 for n in ns)
    # one averaged sum and one word enumeration per (n, eps) cell
    assert tracer.stats["pressure.averaged_partition_sum"].calls == m["naifs.enumerate_words.calls"] == len(ns) * len(eps_list)
    assert [e.word_mode for e in curve.entries] == ["exact", "sampled", "sampled"] * len(eps_list)


def test_a_traced_suite_builds_one_orbit_pass_per_word_batch(monkeypatch):
    # per instance: the basic properties' words, the power rule's words at
    # m = 1 and m = 2, and the truncation's distinct tails and its words;
    # every batch of at most 12 points and 4 steps is one chunk
    repeated = []
    # the eps-balls of each truncation call's spanning solves
    truncation_balls = []
    inside_truncation = [False]
    check = theorems.check_truncation_monotonicity
    solve_spanning = theorems._solve_spanning_weighted

    def counting_repeated_tails(cloud, schedule, psi, i, j, n_range, eps_list, **kwargs):
        n = theorems.net_counting_length(max(n_range))
        for k in range(i, j):
            words = enumerate_words(theorems.truncate_system(schedule, k), 1, n, None, 0)[0]
            repeated.append((len(words) - len({w.symbols[1:] for w in words})) * len(eps_list))
        truncation_balls.append([])
        inside_truncation[0] = True
        try:
            return check(cloud, schedule, psi, i, j, n_range, eps_list, **kwargs)
        finally:
            inside_truncation[0] = False

    def recording_balls(ctx, S, eps, *args):
        if inside_truncation[0]:
            truncation_balls[-1].append(tuple(ctx.balls(eps)))
        return solve_spanning(ctx, S, eps, *args)

    monkeypatch.setattr(theorems, "check_truncation_monotonicity", counting_repeated_tails)
    # set before the tracer wraps theorems' solvers, so that it counts these calls
    monkeypatch.setattr(theorems, "_solve_spanning_weighted", recording_balls)
    rows = []
    solve_rows = theorems.solve_separated_rows
    monkeypatch.setattr(theorems, "solve_separated_rows", lambda ctx, S, eps: rows.append(len(S)) or solve_rows(ctx, S, eps))
    tracer = Tracer()
    tracer.install()
    try:
        theorems.run_finite_inequality_suite(count=3)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    m = layer_metrics(tracer)
    assert m["naifs.orbit_batches.calls"] == 3 * (1 + 2 + 2)
    # the basic properties' ten potentials of a word take one rows solve,
    # which the tracer does not count: 26 words
    assert rows == [10] * 26
    # every spanning solve of the net counting is exhaustive, and a call
    # solves each distinct eps-balls once
    assert len(truncation_balls) == 3
    assert all(len(set(balls)) == len(balls) for balls in truncation_balls)
    # one traced solve per other (word, eps, potential), as in the per-word
    # loops (287 solves, 284 of them exhaustive), less one per repeated
    # (tail, eps), and less one per truncation solve whose eps-balls an
    # earlier solve of its call had (39, counted by wrapping the solver)
    assert sum(repeated) == 22
    assert (m["pressure.solves.calls"], m["pressure.method.exhaustive"], m["pressure.method.greedy"]) == (287 - 22 - 39, 284 - 22 - 39, 3)
    assert m["pressure.method.branch_and_bound"] == 0
