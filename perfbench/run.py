"""naifslab benchmark: seeded workloads through public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a naifslab checkout; the package is imported from
its src/ directory.  Every workload run is a fresh child process
(child.py), so peak RSS and import time belong to that run.

--trace 0 repeats the workload at its benchmark worker count until S
seconds have passed, takes extra set-up-only runs until there are
SETUP_SAMPLES set-up times, and reports the end-to-end metrics as medians.
--trace 1 makes untraced runs at 1 and 2 workers, in pairs, until it has
BASELINE_SAMPLES of each and S seconds have passed, then one traced run
at 1 worker.  It reports the per-layer metrics of spans.py plus
trace.overhead_s (traced run_s minus the untraced 1-worker median),
pressure.pool_speedup (ratio of the untraced 1- and 2-worker wall-time
medians), pressure.pool_calls and cli.output_bytes.  Units come from
BENCHMARK.json.  --workload all runs both passes of every workload and
prints one table.

Times are reported at a reference host speed.  The speed a shared host
gives one process drifts by tens of percent over seconds to minutes, and
the same code then reads up to 1.5x slower in one run than in the next.
Each child therefore times a fixed pure-Python probe unit right after
set-up and every 0.2 s during the run (child.RunProbe), and every set-up
or run time is scaled by PROBE_REF_S / (median probe unit time) before
the median is taken.  The probe does not touch naifslab, so a change to
the program moves the scaled time as much as the wall time.  Run times
are scaled only where the run is interpreter-bound (Workload.host_scaled):
circle_estimate's run is bound by dense numpy kernels that the probe does
not follow, and its run_s is the wall time.  The wall-time medians are
printed next to the scaled ones.

A run fails when its child raises or exits unexpectedly, when the
workload's correctness check finds a problem, or when its output digest
differs from another run of the same seed (at any worker count).  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170.0
# a trace-0 run starts no new iteration that could end past this point
MEASURE_BUDGET_S = 140.0
# a trace-1 run takes untraced samples at 1 and 2 workers until it has
# BASELINE_SAMPLES of each and S seconds have passed, and starts no new
# pair that could end past BASELINE_BUDGET_S (the traced run comes after)
BASELINE_SAMPLES = 3
BASELINE_BUDGET_S = 100.0
WORK_DIR = ".perfbench_work"
# the probe unit's time at the reference host speed: its typical reading on
# a 2-core x86-64 host with Python 3.11.7, so scaled times stay near wall times
PROBE_REF_S = 0.0042


def scaled_run_s(r: dict, wl) -> float:
    """A run's wall time at the reference host speed, where the workload is scaled."""
    if not wl.host_scaled:
        return r["run_s"]
    return r["run_s"] * PROBE_REF_S / r["probe_run_s"]


def scaled_setup_s(r: dict) -> float:
    return r["setup_s"] * PROBE_REF_S / r["probe_setup_s"]


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(root: Path, workload: str, seed: int, workers: int, out: Path, *flags: str) -> dict:
    """One child run; a crash, timeout or unreadable report becomes a problem."""
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", workload, "--seed", str(seed), "--workers", str(workers), "--out", str(out), *flags,
    ]
    proc = subprocess.Popen(
        cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"problems": [f"timed out after {CHILD_TIMEOUT_S:.0f} s"]}
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"problems": [f"child exited {proc.returncode} without a report"]}
    if proc.returncode != 0:
        result.setdefault("problems", []).append(f"child exited {proc.returncode}")
    if result.get("problems"):
        sys.stderr.write(stderr[-4000:])
    return result


class Ledger:
    """Attempted and failed runs, with the digest rule across runs of one seed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.notes: list[str] = []

    def add(self, label: str, r: dict) -> dict:
        self.attempted += 1
        problems = list(r.get("problems", []))
        d = r.get("digest")
        if d is not None:
            if self.digest is None:
                self.digest = d
            elif d != self.digest:
                problems.append("output digest differs from an earlier run of the same seed")
        if problems:
            self.failed += 1
            self.notes.append(f"{label}: {'; '.join(problems)}")
        return r


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root: Path, workload: str, seed: int, workers: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "workers": workers,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
    }


def measure(root: Path, work: Path, name: str, seed: int, seconds: float, ledger: Ledger) -> tuple[dict, list[str]]:
    wl = WORKLOADS[name]
    runs = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        runs.append(ledger.add(f"run {len(runs)}", run_child(root, name, seed, wl.workers, work / f"run{len(runs)}")))
        now = time.perf_counter()
        if now - start >= seconds or (now - start) + (now - t) > MEASURE_BUDGET_S:
            break
    setup_runs = [r for r in runs if "probe_setup_s" in r]
    while len(setup_runs) < SETUP_SAMPLES:
        r = ledger.add("setup", run_child(root, name, seed, wl.workers, work / "setup", "--setup-only"))
        if "probe_setup_s" not in r:
            break
        setup_runs.append(r)
    timed = [r for r in runs if "probe_run_s" in r]
    if not timed or not setup_runs:
        return {}, []
    times = [scaled_run_s(r, wl) for r in timed]
    setups = [scaled_setup_s(r) for r in setup_runs]
    metrics = {
        "run_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    wall_run = statistics.median(r["run_s"] for r in timed)
    wall_setup = statistics.median(r["setup_s"] for r in setup_runs)
    lines = [
        f"run_s        {metrics['run_s']:.4f} s   median of {len(times)}"
        f" {'at reference speed' if wl.host_scaled else 'wall time'}"
        f" (min {min(times):.4f}, max {max(times):.4f}; wall median {wall_run:.4f})",
        f"setup_s      {metrics['setup_s']:.4f} s   median of {len(setups)} at reference speed"
        f" (wall median {wall_setup:.4f})",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  median of {len(timed)}",
    ]
    return metrics, lines


def trace(root: Path, work: Path, name: str, seed: int, seconds: float, ledger: Ledger) -> tuple[dict, list[str]]:
    """Untraced runs at 1 and 2 workers, in pairs, then one traced run at 1 worker."""
    wl = WORKLOADS[name]
    base: dict[int, list[dict]] = {1: [], 2: []}
    start = time.perf_counter()
    for i in itertools.count():
        t = time.perf_counter()
        for workers in base:
            r = ledger.add(f"untraced {workers} worker(s)", run_child(root, name, seed, workers, work / f"w{workers}-{i}"))
            if "probe_run_s" in r:
                base[workers].append(r)
        now = time.perf_counter()
        enough = min(len(b) for b in base.values()) >= BASELINE_SAMPLES and now - start >= seconds
        if enough or (now - start) + (now - t) > BASELINE_BUDGET_S:
            break
    traced = ledger.add("traced 1 worker", run_child(root, name, seed, 1, work / "traced", "--trace"))
    if "layers" not in traced or "probe_run_s" not in traced or not base[1] or not base[2]:
        return {}, []
    run1 = statistics.median(scaled_run_s(r, wl) for r in base[1])
    traced_run = scaled_run_s(traced, wl)
    metrics = dict(traced["layers"])
    if "pool_calls" in base[2][0]:
        metrics["pressure.pool_calls"] = base[2][0]["pool_calls"]
    # from wall times: at 2 workers the probe shares the cores with the pool,
    # so it reads the pool's load rather than the host's speed
    wall1 = statistics.median(r["run_s"] for r in base[1])
    wall2 = statistics.median(r["run_s"] for r in base[2])
    metrics["pressure.pool_speedup"] = wall1 / wall2
    metrics["cli.output_bytes"] = traced["output_bytes"] if wl.via_cli else 0
    metrics["trace.overhead_s"] = traced_run - run1
    lines = [f"{'traced run_s (1 worker)':48s} {traced_run:.4f} s"]
    lines.append(f"{'untraced run_s median (1 / 2 workers, wall)':48s} {wall1:.4f} / {wall2:.4f} s"
                 f"  ({len(base[1])} / {len(base[2])} runs)")
    if traced.get("missing"):
        lines.append(f"missing traced names, metrics dropped: {traced['missing']}")
    return metrics, lines


def metric_units(root: Path) -> dict[str, str]:
    """Name -> unit of every end-to-end and per-layer metric in BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(seed: int, seconds: int) -> int:
    """Both passes of every workload, one table of the five headline metrics."""
    rows = []
    for name in WORKLOADS:
        got = {}
        for t in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(t)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            lines = out.stdout.strip().splitlines()
            got[t] = json.loads(lines[-1]) if out.returncode == 0 and lines else None
        if got[0] is None or got[1] is None:
            print(f"{name}: a pass failed to report")
            return 1
        m0, m1 = got[0]["metrics"], got[1]["metrics"]
        attempted = got[0]["attempted"] + got[1]["attempted"]
        failed = got[0]["failed"] + got[1]["failed"]
        rows.append((name, m0["run_s"]["value"], m0["setup_s"]["value"], m0["peak_rss_mb"]["value"],
                     m1.get("pressure.exact_share", {}).get("value", float("nan")), failed / attempted))
    print()
    print(f"{'workload':22s} {'run_s [s]':>10s} {'setup_s [s]':>12s} {'peak_rss_mb [MB]':>17s} "
          f"{'exact_share [ratio]':>20s} {'error_rate [ratio]':>19s}")
    for name, run_s, setup_s, rss, share, err in rows:
        print(f"{name:22s} {run_s:10.3f} {setup_s:12.3f} {rss:17.1f} {share:20.4f} {err:19.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "naifslab" / "__init__.py").is_file():
        print(f"perfbench: no naifslab sources under {root / 'src'}; run from a checkout's root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    units = metric_units(root)

    name = args.workload
    work = root / WORK_DIR / f"{name}-{args.seed}-{args.trace}-{os.getpid()}"
    ledger = Ledger()
    try:
        if args.trace:
            metrics, lines = trace(root, work, name, args.seed, args.seconds, ledger)
        else:
            metrics, lines = measure(root, work, name, args.seed, args.seconds, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    meta = environment(root, name, args.seed, 1 if args.trace else WORKLOADS[name].workers)
    print(f"# {name}: {WORKLOADS[name].why}")
    print("# " + json.dumps(meta))
    for note in ledger.notes:
        print(f"# FAILED {note}")
    if not metrics:
        print(f"perfbench: {name} produced no measurement", file=sys.stderr)
        return 1
    unlisted = sorted(set(metrics) - set(units))
    if unlisted:
        print(f"perfbench: metrics not in BENCHMARK.json, left out: {unlisted}", file=sys.stderr)
    metrics = {k: (v, units[k]) for k, v in sorted(metrics.items()) if k in units}
    if args.trace:
        lines = [f"{k:48s} {v:.6g} {u}" for k, (v, u) in metrics.items()] + lines
    for line in lines:
        print(line)
    error_rate = ledger.failed / ledger.attempted
    print(f"error_rate   {error_rate:.4f} ratio ({ledger.failed} of {ledger.attempted} runs failed)")
    if not args.trace:
        print("exact_share  reported by the traced pass (--trace 1) as pressure.exact_share")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
