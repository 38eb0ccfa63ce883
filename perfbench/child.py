"""One isolated workload run, in a fresh process so that its peak RSS and
import time belong to this run alone.

    python3 perfbench/child.py --workload NAME --seed N --workers K --out DIR [--setup-only] [--trace]

Prints one JSON line: set-up and run time, peak RSS, exit code, the
workload's correctness problems, the digest of its outputs and the number
of process pools started; with --trace also the per-layer metrics of
spans.py.  It also times a fixed pure-Python probe unit: 25 times right
after set-up (probe_setup_s, their median), and every 0.2 s during the run
and 5 times after it (probe_run_s, their median); run.py divides by these
to take the host's changing speed out of the reported times.  Run by
run.py with PYTHONPATH pointing at the checkout's src/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; pool workers are waited-for children
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def probe_unit_s() -> float:
    """Time of one fixed pure-Python work unit of about 4 ms.  It imports
    nothing from naifslab, so a change to the program cannot move it; only
    the speed the host gives this process at the moment does."""
    t = time.perf_counter()
    acc = 0
    table: dict = {}
    items: list = []
    for i in range(15_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
        if i & 7 == 0:
            items.append(abs(acc - i))
    sorted(items)
    return time.perf_counter() - t


def host_probe_s(units: int = 25) -> float:
    """Median time of `units` probe units taken back to back."""
    return statistics.median(probe_unit_s() for _ in range(units))


class RunProbe:
    """Times a probe unit every INTERVAL_S seconds while a run goes on,
    from a SIGALRM handler, so that the probe samples the host's speed
    over the whole run rather than only before and after it."""

    INTERVAL_S = 0.2

    def __init__(self, armed: bool = True):
        self.armed = armed
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(probe_unit_s())

    def __enter__(self):
        if self.armed:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result: dict = {}
    tracer = None
    try:
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        pools = _count_pools()
        state = wl.setup(args.seed)
        result["setup_s"] = time.perf_counter() - T0
        result["probe_setup_s"] = host_probe_s()
        if not args.setup_only:
            # spans must not hold probe time, so a traced run is probed after it only
            with RunProbe(armed=not args.trace) as probe:
                t1 = time.perf_counter()
                code = wl.run(state, out, args.workers)
                wall = time.perf_counter() - t1
            # the run's time without the probe units that interrupted it
            result["run_s"] = wall - sum(probe.samples)
            result["probe_run_s"] = statistics.median(probe.samples + [probe_unit_s() for _ in range(5)])
            result["exit_code"] = code
            result["peak_rss_mb"] = _peak_rss_mb()
            result["problems"] = wl.check(state, out, code)
            result["digest"] = wl.digest(state, out)
            result["output_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            if pools is not None:
                result["pool_calls"] = pools[0]
    except Exception as e:  # noqa: BLE001 - a failed run is reported, not raised
        traceback.print_exc(file=sys.stderr)
        result["problems"] = [f"{type(e).__name__}: {e}"]
    if tracer is not None:
        from spans import layer_metrics

        result["layers"] = layer_metrics(tracer)
        result["missing"] = tracer.missing
    print(json.dumps(result))
    return 0


def _count_pools() -> list[int] | None:
    """Count process pools started by pressure, without timing anything."""
    import naifslab.pressure as pressure

    counter = [0]
    executor = getattr(pressure, "ProcessPoolExecutor", None)
    if executor is None:
        print("pressure.ProcessPoolExecutor is missing; pool_calls is dropped", file=sys.stderr)
        return None

    def counted(*args, **kwargs):
        counter[0] += 1
        return executor(*args, **kwargs)

    pressure.ProcessPoolExecutor = counted
    return counter


if __name__ == "__main__":
    sys.exit(main())
