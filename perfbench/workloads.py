"""The benchmark's workloads: how each builds its input from a seed, runs
through a public naifslab entry point, and checks its own outputs.

Nothing here imports naifslab at module level; the parent process only
needs the names and reasons, and every workload run happens in a fresh
child process (see child.py).
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LOG2 = math.log(2.0)

# The bundled configs are cut down so that one trace-0 run holds several
# workload samples and reports a median, not a single run.
# circle_estimate keeps the 4096-point grid (134 MB dense Bowen matrices)
# but stops at n = CIRCLE_N_MAX instead of 10.  factor_verify keeps the
# symbolic row path (2**FACTOR_DEPTH = 8192 points, above
# pressure.MATRIX_LIMIT) over a FACTOR_CIRCLE-point circle, n = 1..FACTOR_N_MAX.
CIRCLE_N_MAX = 5
FACTOR_DEPTH = 13
FACTOR_CIRCLE = 1024
FACTOR_N_MAX = 4

# explicit_spanning_bb input sizes.  Branch-and-bound time varies a lot
# between random instances (one 48-point instance takes 6.5 to 12.5 s
# across seeds), so one run solves BB_INSTANCES small instances; their
# sum spreads about 1/sqrt(BB_INSTANCES) as much between seeds.  A small
# word budget keeps one instance short while n >= 3 still samples words.
BB_INSTANCES = 20
BB_POINTS = 24
BB_WORD_BUDGET = 16
BB_GENERATIONS = 2
BB_MAPS_PER_GENERATION = 3
BB_EPS_PERCENTILE = 0.30


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # worker count of the untraced end-to-end runs; the traced pass always
    # runs at one worker because spans in pool workers would be lost
    workers: int
    setup: Callable  # (seed) -> state; import, validation and cloud build
    run: Callable  # (state, out_dir, workers) -> exit code
    check: Callable  # (state, out_dir, code) -> list of problems (empty when correct)
    digest: Callable  # (state, out_dir) -> sha256 of the deterministic outputs
    via_cli: bool = True  # outputs are written by naifslab.cli.run
    # run_s is scaled to the reference host speed (see run.py); False where
    # the run is bound by large numpy kernels, whose speed the pure-Python
    # probe does not follow, and run_s stays the wall time
    host_scaled: bool = True


# ---------------------------------------------------------------------------
# inputs


def explicit_spanning_config(seed: int, n_points: int = BB_POINTS) -> dict:
    """Seeded estimate config on a random planar point set.

    Points are uniform in the unit square with Euclidean distances, so the
    triangle inequality holds and SpaceSpec validation passes.  The cycle
    has BB_GENERATIONS generations of BB_MAPS_PER_GENERATION random
    permutations; the potential is an explicit table uniform in [-1, 1];
    eps is the 30th percentile of pairwise distances and twice that.
    """
    rng = random.Random(seed)
    while True:
        pts = [(rng.random(), rng.random()) for _ in range(n_points)]
        dm = [[math.hypot(a[0] - b[0], a[1] - b[1]) for b in pts] for a in pts]
        off = sorted(dm[i][j] for i in range(n_points) for j in range(i + 1, n_points))
        if off[0] > 1e-9:
            break
    cycle = []
    for _ in range(BB_GENERATIONS):
        gen = []
        for _ in range(BB_MAPS_PER_GENERATION):
            perm = list(range(n_points))
            rng.shuffle(perm)
            gen.append({"kind": "permutation_table", "params": perm})
        cycle.append(gen)
    potential = [rng.uniform(-1.0, 1.0) for _ in range(n_points)]
    eps = off[int(BB_EPS_PERCENTILE * (len(off) - 1))]
    return {
        "mode": "estimate",
        "space": {"family": "finite_explicit", "distance_matrix": dm},
        "schedule": {"prefix": [], "cycle": cycle},
        "potential": {"kind": "explicit_table", "params": potential},
        "kind": "spanning",
        "n_range": [1, 8],
        "eps_list": [2.0 * eps, eps],
        "word_budget": BB_WORD_BUDGET,
        "seed": seed,
    }


def explicit_spanning_configs(seed: int) -> list[dict]:
    return [explicit_spanning_config(seed * BB_INSTANCES + i) for i in range(BB_INSTANCES)]


def _bundled(name: str, seed: int) -> dict:
    from naifslab.catalog import EXAMPLE_CONFIGS

    raw = dict(EXAMPLE_CONFIGS[name])
    raw["seed"] = seed
    return raw


def circle_config(seed: int) -> dict:
    return _bundled("doubling_circle", seed) | {"n_range": [1, CIRCLE_N_MAX]}


def factor_config(seed: int) -> dict:
    raw = _bundled("shift_to_doubling_factor", seed)
    factor = dict(raw["factor"])
    factor["space"] = dict(factor["space"], resolution=FACTOR_CIRCLE)
    return raw | {
        "mode": "verify",
        "space": dict(raw["space"], resolution=FACTOR_DEPTH),
        "factor": factor,
        "n_range": [1, FACTOR_N_MAX],
    }


# ---------------------------------------------------------------------------
# CLI workloads: a validated config run through naifslab.cli.run


def _cli_setup(make_raw: Callable[[int], dict]) -> Callable:
    def setup(seed: int):
        from naifslab.cli import ExperimentConfig

        return ExperimentConfig.from_dict(make_raw(seed))

    return setup


def _cli_run(config, out_dir: Path, workers: int) -> int:
    import naifslab

    # the worker count is always set here, so a change of the CLI's
    # --workers default cannot move the benchmark
    config.workers = workers
    config.output_dir = str(out_dir)
    return naifslab.cli.run(config)


def _many_setup(seed: int) -> list:
    from naifslab.cli import ExperimentConfig

    return [ExperimentConfig.from_dict(raw) for raw in explicit_spanning_configs(seed)]


def _many_run(configs: list, out_dir: Path, workers: int) -> int:
    codes = [_cli_run(c, out_dir / f"instance{i:02d}", workers) for i, c in enumerate(configs)]
    return max(codes, key=abs)


def _csv_digest(config, out_dir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out_dir.rglob("*.csv")):
        h.update(str(p.relative_to(out_dir)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _check_circle(config, out_dir: Path, code: int) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    text = (out_dir / "estimate.txt").read_text()
    est = float(text.split("final_estimate = ", 1)[1].split("\n", 1)[0])
    if abs(est - LOG2) > 0.10 * LOG2:
        return [f"estimate {est!r} is more than 10% from log 2"]
    return []


def _check_factor(config, out_dir: Path, code: int) -> list[str]:
    from naifslab.theorems import HOLDS_EXACT, HOLDS_WITHIN_TOL, VIOLATED

    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    rows = _read_csv(out_dir / "verdicts.csv")
    if any(r["verdict"] == VIOLATED for r in rows):
        problems.append("a verdict reads violated")
    by_name: dict[str, list[dict]] = {}
    for r in rows:
        by_name.setdefault(r["theorem"], []).append(r)
    for name in ("factor/semiconjugacy", "factor/pullback-lower", "factor/fiber-upper"):
        got = by_name.get(name, [])
        if not got or any(r["verdict"] not in (HOLDS_EXACT, HOLDS_WITHIN_TOL) for r in got):
            problems.append(f"{name} does not hold: {[r['verdict'] for r in got]}")
    for r in by_name.get("factor/fiber-upper", []):
        h_term = float(r["context"].split("h_term=", 1)[1].split(";", 1)[0])
        if h_term > 0.1:
            problems.append(f"fiber H term {h_term!r} exceeds 0.1")
    return problems


def _check_explicit(configs: list, out_dir: Path, code: int) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    problems = []
    for i, config in enumerate(configs):
        rows = _read_csv(out_dir / f"instance{i:02d}" / "pressure_curve.csv")
        expected = len(config.n_range) * len(config.eps_list)
        if len(rows) != expected:
            problems.append(f"instance {i}: {len(rows)} curve rows, expected {expected}")
        inexact = [(r["n"], r["eps"]) for r in rows if r["exact"] != "True"]
        if inexact:
            problems.append(f"instance {i}: inexact curve rows {inexact}")
    return problems


# ---------------------------------------------------------------------------
# the finite inequality suite: naifslab.run_finite_inequality_suite

# The suite runs the same instances whatever the benchmark seed: the first
# SUITE_COUNT instances of the criterion-1 gate (base_seed 0).  Instance
# cost is heavy-tailed; the run times of 50 independent instances spread
# by an IQR/median near 0.5, so seeded instance sets would move the
# median by tens of percent between two sets of seeds.
SUITE_COUNT = 50
SUITE_BASE_SEED = 0


def _suite_setup(seed: int) -> None:
    import naifslab  # noqa: F401 - the import is the set-up being timed


def _suite_run(state: None, out_dir: Path, workers: int) -> int:
    import naifslab

    reports = naifslab.run_finite_inequality_suite(count=SUITE_COUNT, base_seed=SUITE_BASE_SEED)
    rows = [[r.name, r.level, repr(r.lhs), repr(r.rhs), repr(r.slack), r.verdict, r.context] for r in reports]
    with open(out_dir / "reports.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    return 0


def _check_suite(state: None, out_dir: Path, code: int) -> list[str]:
    from naifslab.theorems import FINITE_LEVEL, HOLDS_EXACT, VIOLATED

    with open(out_dir / "reports.csv", newline="") as f:
        rows = list(csv.reader(f))
    problems = []
    if not rows:
        problems.append("the suite returned no reports")
    if any(r[5] == VIOLATED for r in rows):
        problems.append("a report reads violated")
    loose = sum(1 for r in rows if r[1] == FINITE_LEVEL and r[5] != HOLDS_EXACT)
    if loose:
        problems.append(f"{loose} finite-level reports do not read holds_exact")
    return problems


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "circle_estimate",
            "one large working set: 4096-point circle, dense 134 MB Bowen matrices rebuilt for n=1..5; all greedy",
            workers=2,
            setup=_cli_setup(circle_config),
            run=_cli_run,
            check=_check_circle,
            digest=_csv_digest,
            host_scaled=False,
        ),
        Workload(
            "factor_verify",
            "theorems drive the run; 8192-point symbolic row path; repeated pressure curves and semiconjugacy checks",
            workers=2,
            setup=_cli_setup(factor_config),
            run=_cli_run,
            check=_check_factor,
            digest=_csv_digest,
        ),
        Workload(
            "finite_suite",
            "thousands of tiny exact solves: per-call overhead in space, naifs and theorems; no large metric",
            workers=1,
            setup=_suite_setup,
            run=_suite_run,
            check=_check_suite,
            digest=lambda state, out_dir: hashlib.sha256((out_dir / "reports.csv").read_bytes()).hexdigest(),
            via_cli=False,
        ),
        Workload(
            "explicit_spanning_bb",
            "sampled words and branch and bound on 24-point instances, no work shared between words; run at 1 worker, the pool only in the traced pass",
            # at 2 workers a pool starts for every (n, eps) with 8 or more words
            # and the run is slower and far less steady than at 1 worker;
            # the traced pass still measures the pool (pool_calls, pool_speedup)
            workers=1,
            setup=_many_setup,
            run=_many_run,
            check=_check_explicit,
            digest=_csv_digest,
        ),
    )
}
