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
from naifslab import GenerationSchedule, MapSpec, Potential, SpaceSpec, build_cloud
from naifslab.catalog import EXAMPLE_CONFIGS

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import Tracer  # noqa: E402


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
