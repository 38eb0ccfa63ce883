"""Tests of the benchmark's own code: the explicit_spanning_bb input
generator against the brute-force oracles, the span tracer and the
host-speed probe.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import math
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "tests"))

from child import RunProbe  # noqa: E402
from oracles import oracle_partition_spanning  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import explicit_spanning_config  # noqa: E402

import naifslab.pressure as pressure  # noqa: E402
from naifslab import enumerate_words, partition_sum_spanning  # noqa: E402
from naifslab.cli import ExperimentConfig  # noqa: E402


def test_generator_is_seeded():
    assert explicit_spanning_config(3, 10) == explicit_spanning_config(3, 10)
    assert explicit_spanning_config(3, 10) != explicit_spanning_config(4, 10)


@pytest.mark.parametrize("seed", range(6))
def test_generator_branch_and_bound_matches_oracle(seed):
    config = ExperimentConfig.from_dict(explicit_spanning_config(seed, n_points=8 + seed % 5))
    worst = 0.0
    for n in (1, 2, 3):
        words, _, _ = enumerate_words(config.schedule, 1, n, None, 0)
        for w in words[:: max(1, len(words) // 4)]:
            for eps in config.eps_list:
                got = partition_sum_spanning(config.cloud, config.schedule, w, n, config.potential, eps, mode="branch_and_bound")
                want = oracle_partition_spanning(config.cloud, config.schedule, w, n, config.potential, eps)
                assert got.exact and got.method == "branch_and_bound"
                worst = max(worst, abs(got.log_value - want))
    assert worst <= 1e-12


def test_tracer_counts_and_self_time():
    config = ExperimentConfig.from_dict(explicit_spanning_config(0, n_points=10))
    tracer = Tracer()
    tracer.install()
    try:
        curve = pressure.pressure_estimate(
            config.cloud, config.schedule, config.potential, [1, 2, 3, 4], config.eps_list,
            word_budget=16, seed=0, kind="spanning",
        )
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer)
    # 3 + 9 exact words, then 16 sampled words at n = 3 and 4, per eps
    assert m["pressure.solves.calls"] == 2 * (3 + 9 + 16 + 16)
    assert m["pressure.method.exhaustive"] == m["pressure.solves.calls"]
    assert m["pressure.exact_share"] == 1.0 and curve.all_exact
    assert m["naifs.words.exact"] == 4 and m["naifs.words.sampled"] == 4
    assert m["pressure.pressure_estimate.calls"] == 1
    assert m["pressure.metric_bytes_max"] == 8 * 10 * 10
    st = tracer.stats
    assert 0.0 <= st["pressure.pressure_estimate"].self_ <= st["pressure.pressure_estimate"].total
    children = st["pressure.averaged_partition_sum"].total
    assert math.isclose(st["pressure.pressure_estimate"].total - st["pressure.pressure_estimate"].self_, children)


def test_tracer_restores_and_tolerates_missing_names(monkeypatch):
    import spans

    original = pressure.pressure_estimate
    monkeypatch.setattr(spans, "ENTRY_POINTS", spans.ENTRY_POINTS + [("pressure", "no_such_entry_point")])
    tracer = Tracer()
    tracer.install()
    assert pressure.pressure_estimate is not original
    tracer.uninstall()
    assert pressure.pressure_estimate is original
    assert tracer.missing == ["pressure.no_such_entry_point"]


def test_run_probe_samples_during_the_run_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with RunProbe() as probe:
        end = time.perf_counter() + 3 * RunProbe.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 1 and all(t > 0 for t in probe.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with RunProbe(armed=False) as idle:
        time.sleep(2 * RunProbe.INTERVAL_S)
    assert idle.samples == []
