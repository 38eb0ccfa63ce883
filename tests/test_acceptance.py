"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import hashlib
import json
import math
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

from naifslab import (
    FactorMapSpec,
    GenerationSchedule,
    MapSpec,
    NAIFS,
    Potential,
    SpaceSpec,
    Word,
    build_cloud,
    check_factor_conjugacy,
    check_factor_lower,
    check_factor_upper,
    check_semiconjugacy,
    enumerate_words,
    growth_rate,
    max_separated,
    min_spanning,
    partition_sum_separated,
    partition_sum_spanning,
    power_system,
    pressure_estimate,
    run_finite_inequality_suite,
)
from naifslab.catalog import EXAMPLE_CONFIGS
from naifslab.cli import ExperimentConfig, run
from naifslab.theorems import FINITE_LEVEL, HOLDS_EXACT, VIOLATED, random_explicit_instance
from oracles import (
    oracle_max_separated,
    oracle_min_spanning,
    oracle_partition_separated,
    oracle_partition_spanning,
)

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)

ID = MapSpec("identity")
SWAP2 = MapSpec("permutation_table", (1, 0))
ZERO = Potential("constant", (0.0,))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_finite_inequality_suite():
    t0 = time.perf_counter()
    reports = run_finite_inequality_suite(count=200, base_seed=0, max_points=12, max_maps=3, max_cycle=2, n_max=4)
    elapsed = time.perf_counter() - t0
    finite = [r for r in reports if r.level == FINITE_LEVEL]
    not_exact = [r for r in finite if r.verdict != HOLDS_EXACT]
    violated = [r for r in reports if r.verdict == VIOLATED]
    ok = not not_exact and not violated and elapsed < 120.0
    _report(
        1,
        ok,
        f"200 random instances, {len(finite)} finite checks, "
        f"{len(not_exact)} not holds_exact, {len(violated)} violated, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    checked = 0
    for seed in range(10):
        rng = random.Random(7000 + seed)
        cloud, sched = random_explicit_instance(rng, max_points=12, max_maps=3, max_cycle=2)
        n = rng.randint(1, 3)
        words, _, _ = enumerate_words(sched, 1, n, None, 0)
        w = words[rng.randrange(len(words))]
        dm = cloud.dmatrix()
        off = sorted(dm[~np.eye(len(cloud), dtype=bool)])
        eps = off[len(off) // 2]
        psi = Potential("explicit_table", tuple(rng.uniform(-1, 1) for _ in range(len(cloud))))

        s = max_separated(cloud, sched, w, n, eps, mode="branch_and_bound")
        assert s.lower_bound == oracle_max_separated(cloud, sched, w, n, eps)
        r = min_spanning(cloud, sched, w, n, eps, mode="branch_and_bound")
        assert r.lower_bound == oracle_min_spanning(cloud, sched, w, n, eps)
        p = partition_sum_separated(cloud, sched, w, n, psi, eps, mode="branch_and_bound")
        worst = max(worst, abs(p.log_value - oracle_partition_separated(cloud, sched, w, n, psi, eps)))
        q = partition_sum_spanning(cloud, sched, w, n, psi, eps, mode="branch_and_bound")
        worst = max(worst, abs(q.log_value - oracle_partition_spanning(cloud, sched, w, n, psi, eps)))
        checked += 4
    ok = worst <= 1e-12
    _report(2, ok, f"{checked} oracle comparisons on <=12-point instances, worst log gap {worst:.2e} (<= 1e-12)")


@pytest.fixture(scope="module")
def doubling_setup():
    cloud = build_cloud(SpaceSpec("circle_grid", 4096))
    schedule = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    return cloud, schedule


@pytest.fixture(scope="module")
def doubling_curve(doubling_setup):
    cloud, schedule = doubling_setup
    t0 = time.perf_counter()
    curve = pressure_estimate(cloud, schedule, ZERO, range(1, 11), [2.0**-5], word_budget=64, seed=3)
    return curve, time.perf_counter() - t0


def test_criterion_3_doubling_entropy(doubling_curve):
    curve, elapsed = doubling_curve
    rel = abs(curve.estimate - LOG2) / LOG2
    ok = rel <= 0.10 and elapsed < 60.0
    _report(3, ok, f"doubling N=4096 entropy proxy {curve.estimate:.4f} vs log2={LOG2:.4f} ({rel:.1%} <= 10%), {elapsed:.1f}s (< 60s)")


def test_criterion_4_shift_pressure():
    cloud = build_cloud(SpaceSpec("symbolic_depth", 14, alphabet_size=2))
    schedule = GenerationSchedule(prefix=(), cycle=((MapSpec("shift"),),))
    psi = Potential("first_symbol_table", (0.0, LOG2))
    curve = pressure_estimate(cloud, schedule, psi, range(1, 9), [2.0**-3], word_budget=64, seed=5)
    # cylinder-sum oracle: the per-n averaged sum is 4 * 3^(n+1) exactly
    cylinder_gap = max(
        abs(e.log_avg - (math.log(4.0) + (e.n + 1) * LOG3)) for e in curve.entries
    )
    rel = abs(curve.estimate - LOG3) / LOG3
    ok = rel <= 0.07 and cylinder_gap <= 1e-9
    _report(4, ok, f"2-shift pressure proxy {curve.estimate:.4f} vs log3={LOG3:.4f} ({rel:.1%} <= 7%), cylinder-sum gap {cylinder_gap:.1e}")


def test_criterion_5_two_point_swap_exact():
    cloud = build_cloud(SpaceSpec("finite_explicit", distance_matrix=((0.0, 1.0), (1.0, 0.0))))
    schedule = GenerationSchedule(prefix=(), cycle=((ID, SWAP2),))
    curve = pressure_estimate(cloud, schedule, ZERO, range(1, 11), [0.5], word_budget=2048, seed=0)
    value_gap = max(abs(e.value - LOG2 / e.n) for e in curve.entries)
    all_exact = all(e.exact and e.word_mode == "exact" for e in curve.entries)
    ok = value_gap <= 1e-12 and all_exact and curve.estimate <= 0.08
    _report(5, ok, f"two-point swap a_n = log2/n exact (gap {value_gap:.1e}), proxy {curve.estimate:.3g} <= 0.08")


def _quotient_factor():
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


def _h_term(context: str) -> float:
    return float(re.search(r"h_term=([0-9.e+-]+)", context).group(1))


def test_criterion_6_factor_suite():
    # (a) identity conjugacy: |slack| within the proxy tolerance
    factor = _quotient_factor()
    identity = FactorMapSpec(source=factor.source, target=factor.source, kind="index_table", table=(0, 1, 2, 3))
    phi = Potential("explicit_table", (0.3, -0.2, 0.1, 0.5))
    conj = check_factor_conjugacy(identity, phi, n_range=range(1, 7), eps_list=[0.5])
    eq = [r for r in conj if r.name == "factor/conjugacy-equality"][0]
    tol_a = float(re.search(r"tol=([0-9.e+-]+)", eq.context).group(1))
    ok_a = abs(eq.slack) <= tol_a

    # (b) shift -> doubling through the truncated binary expansion
    depth, n_max = 14, 8
    src = NAIFS(
        build_cloud(SpaceSpec("symbolic_depth", depth, alphabet_size=2)),
        GenerationSchedule((), ((MapSpec("shift"),),)),
    )
    tgt = NAIFS(
        build_cloud(SpaceSpec("circle_grid", 2048)),
        GenerationSchedule((), ((MapSpec("doubling"),),)),
    )
    expansion = FactorMapSpec(source=src, target=tgt, kind="binary_expansion")
    semi = check_semiconjugacy(expansion, 2.0 ** (-(depth - n_max)))
    lower = check_factor_lower(expansion, ZERO, range(1, n_max + 1), [0.25, 0.125], word_budget=64, seed=9)
    upper = check_factor_upper(expansion, ZERO, range(1, n_max + 1), [0.25, 0.125], fiber_sample=6, word_budget=64, seed=9)
    ok_b = (
        semi.passed
        and semi.max_deviation <= 2.0 ** (-(depth - n_max))
        and lower.verdict == "holds_within_tol"
        and upper.verdict == "holds_within_tol"
        and _h_term(upper.context) <= 0.1
    )

    # (c) tabulated 4 -> 2 quotient: fiber term exactly zero in exact mode
    quot = check_factor_upper(factor, ZERO, n_range=range(1, 7), eps_list=[0.5], fiber_sample=2)
    ok_c = quot.verdict == "holds_within_tol" and _h_term(quot.context) == 0.0

    _report(
        6,
        ok_a and ok_b and ok_c,
        f"(a) conjugacy slack {eq.slack:.2e} <= {tol_a:.3g}; "
        f"(b) semiconjugacy dev {semi.max_deviation:.2e} <= 2^-{depth - n_max}, "
        f"lower/upper hold, H term {_h_term(upper.context):.3g} <= 0.1; "
        f"(c) quotient H term exactly {_h_term(quot.context)}",
    )


def test_criterion_7_power_rule(doubling_setup, doubling_curve):
    worst = 0.0
    for sizes in ((2,), (3, 2), (2, 8), (4, 1)):
        sched = GenerationSchedule((), tuple(tuple(ID for _ in range(s)) for s in sizes))
        base = growth_rate(sched).limsup_value
        for n in range(1, 5):
            powered = growth_rate(power_system(sched, n)).limsup_value
            scale = max(1.0, abs(n * base))
            worst = max(worst, abs(powered - n * base) / scale)
    ok_growth = worst <= 1e-12

    cloud, schedule = doubling_setup
    base_curve, _ = doubling_curve
    squared = power_system(schedule, 2)
    curve2 = pressure_estimate(cloud, squared, ZERO, range(1, 6), [2.0**-5], word_budget=64, seed=3)
    rel = abs(curve2.estimate - 2.0 * base_curve.estimate) / max(curve2.estimate, 2.0 * base_curve.estimate)
    ok_proxy = rel <= 0.10
    _report(
        7,
        ok_growth and ok_proxy,
        f"growth-rate power identity worst rel gap {worst:.1e} (<= 1e-12); "
        f"doubling squared proxy {curve2.estimate:.4f} vs 2x{base_curve.estimate:.4f} ({rel:.1%} <= 10%)",
    )


def test_criterion_8_determinism(tmp_path):
    # sha256 of every example CSV, pinned so that a refactor must keep the bytes
    pinned = json.loads((Path(__file__).parent / "example_digests.json").read_text())
    mismatches = []
    sampled_seen = False
    for name, raw in EXAMPLE_CONFIGS.items():
        outputs = []
        for tag in ("a", "b"):
            cfg = json.loads(json.dumps(raw))
            cfg["output_dir"] = str(tmp_path / f"{name}_{tag}")
            code = run(ExperimentConfig.from_dict(cfg))
            assert code == 0, f"{name} exited {code}"
            outdir = tmp_path / f"{name}_{tag}"
            outputs.append({p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))})
        if outputs[0] != outputs[1]:
            mismatches.append(name)
        digests = {csv: hashlib.sha256(content).hexdigest() for csv, content in outputs[0].items()}
        if digests != pinned.get(name):
            mismatches.append(f"{name} (pinned digest)")
        for content in outputs[0].values():
            if b"sampled" in content:
                sampled_seen = True
    ok = not mismatches and sampled_seen
    _report(
        8,
        ok,
        f"{len(EXAMPLE_CONFIGS)} bundled configs re-run byte-identical and match their pinned digests "
        f"(sampled-word mode covered: {sampled_seen}); mismatches: {mismatches or 'none'}",
    )
