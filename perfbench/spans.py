"""Spans around naifslab's cross-module entry points, recorded from outside.

`Tracer.install()` replaces each traced function by a timing wrapper, in
the module that defines it and in every naifslab module that imported the
same object, so intra-module calls and `from .x import y` callers are both
seen.  Spans are aggregated in memory per name (calls, total and self
time); self time is a span's duration minus the durations of its direct
child spans.  A traced name that no longer exists is logged and skipped,
and the per-layer metrics that need it are dropped.

A solve is counted at the outermost solve span only (pressure.solves.calls);
its method and exactness come from the record it returns, which for
sup_entropy_estimate holds one record per (n, eps) entry, so the
pressure.method.* counts can exceed the solve span count.

Single-threaded use only: the traced pass runs at one worker.
"""

from __future__ import annotations

import functools
import importlib
import logging
import time

log = logging.getLogger("perfbench.spans")

MODULES = ("space", "naifs", "pressure", "theorems", "cli")

# (layer, name): traced wherever naifslab imported it
ENTRY_POINTS = [
    ("space", "build_cloud"),
    ("space", "pairwise_distances"),
    ("space", "paired_distances"),
    ("space", "eval_potential_batch"),
    ("naifs", "orbit_batches"),
    ("naifs", "enumerate_words"),
    ("naifs", "check_semiconjugacy"),
    ("naifs", "reachable_points"),
    ("pressure", "partition_sum_separated"),
    ("pressure", "partition_sum_spanning"),
    ("pressure", "max_separated"),
    ("pressure", "min_spanning"),
    ("pressure", "averaged_partition_sum"),
    ("pressure", "pressure_estimate"),
    ("pressure", "sup_entropy_estimate"),
    ("theorems", "check_basic_properties"),
    ("theorems", "check_power_rule"),
    ("theorems", "check_truncation_monotonicity"),
    ("theorems", "check_equicontinuity"),
    ("theorems", "check_factor_lower"),
    ("theorems", "check_factor_upper"),
    ("theorems", "check_factor_conjugacy"),
    ("theorems", "pullback_potential"),
    ("theorems", "run_finite_inequality_suite"),
    ("cli", "run"),
]

# private pressure names that theorems imports: the theorems -> pressure
# boundary, traced in theorems' namespace only
THEOREMS_BOUNDARY = [
    "_solve_separated_weighted",
    "_solve_spanning_weighted",
    "_BowenOrbit",
    "_birkhoff_vector",
]

THEOREM_CHECKS = [name for layer, name in ENTRY_POINTS if layer == "theorems" and name != "run_finite_inequality_suite"]

SOLVES = {
    "partition_sum_separated",
    "partition_sum_spanning",
    "max_separated",
    "min_spanning",
    "sup_entropy_estimate",
    "_solve_separated_weighted",
    "_solve_spanning_weighted",
}


class _Stat:
    __slots__ = ("calls", "total", "self_")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_ = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        # one entry per open span: accumulated duration of its direct children
        self._child_time: list[float] = []
        self._solve_depth = 0
        self.missing: list[str] = []
        # counts taken from the records the calls return
        self.solves = 0
        self.methods: dict[str, int] = {}
        self.exact = 0
        self.inexact = 0
        self.word_modes: dict[str, int] = {}
        self.metric_bytes_max = 0
        self.matrix_limit: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, span: str, fn, on_return=None, size_of=None):
        stat = self.stats.setdefault(span, _Stat())
        child_time = self._child_time
        is_solve = on_return is not None
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = is_solve and self._solve_depth == 0
            if is_solve:
                self._solve_depth += 1
            child_time.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                children = child_time.pop()
                if child_time:
                    child_time[-1] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_ += dt - children
                if is_solve:
                    self._solve_depth -= 1
            if outermost:
                on_return(result)
                if size_of is not None:
                    self._note_metric_size(size_of(args, kwargs))
            elif span == "naifs.enumerate_words":
                mode = result[1]
                self.word_modes[mode] = self.word_modes.get(mode, 0) + 1
            return result

        return wrapper

    def _record_solve(self, result):
        if hasattr(result, "entries"):  # SupEntropyEstimate: one record per (n, eps)
            records = [(e.method, e.exact) for e in result.entries]
        elif isinstance(result, tuple):  # _solve_*: (log value, witness, method, exact)
            records = [(result[2], result[3])]
        else:  # PartitionSumResult, ExtremalSetResult
            records = [(result.method, result.exact)]
        self.solves += 1
        for method, exact in records:
            self.methods[method] = self.methods.get(method, 0) + 1
            if exact:
                self.exact += 1
            else:
                self.inexact += 1

    def _note_metric_size(self, n_points: int | None):
        if n_points is not None and self.matrix_limit is not None and n_points <= self.matrix_limit:
            self.metric_bytes_max = max(self.metric_bytes_max, 8 * n_points * n_points)

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = importlib.import_module("naifslab")
        mods = {name: importlib.import_module(f"naifslab.{name}") for name in MODULES}
        namespaces = [pkg, *mods.values()]
        self.matrix_limit = getattr(mods["pressure"], "MATRIX_LIMIT", None)
        if self.matrix_limit is None:
            self._missing("pressure.MATRIX_LIMIT")

        for layer, name in ENTRY_POINTS:
            original = getattr(mods[layer], name, None)
            if original is None:
                self._missing(f"{layer}.{name}")
                continue
            wrapped = self._wrap(f"{layer}.{name}", original, *self._solve_hooks(name))
            for ns in namespaces:
                if ns.__dict__.get(name) is original:
                    self._set(ns, name, wrapped)

        theorems = mods["theorems"]
        for name in THEOREMS_BOUNDARY:
            original = theorems.__dict__.get(name)
            if original is None:
                self._missing(f"theorems.{name}")
                continue
            self._set(theorems, name, self._wrap(f"pressure.{name}", original, *self._solve_hooks(name)))

        config_cls = getattr(mods["cli"], "ExperimentConfig", None)
        from_dict = getattr(config_cls, "from_dict", None)
        if from_dict is None:
            self._missing("cli.ExperimentConfig.from_dict")
        else:
            self._set(config_cls, "from_dict", classmethod(self._wrap("cli.from_dict", from_dict.__func__)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _solve_hooks(self, name: str):
        if name not in SOLVES:
            return ()
        return self._record_solve, _SIZE_OF[name]

    def _missing(self, what: str) -> None:
        log.warning("traced name %s is missing; its per-layer metrics are dropped", what)
        self.missing.append(what)


def _cloud_size(args, kwargs):
    return len(args[0] if args else kwargs["cloud"])


def _subset_size(args, kwargs):
    subset = args[2] if len(args) > 2 else kwargs["subset"]
    return len(set(subset))


def _ctx_size(args, kwargs):
    return getattr(args[0] if args else kwargs["ctx"], "n_points", None)


_SIZE_OF = {
    "partition_sum_separated": _cloud_size,
    "partition_sum_spanning": _cloud_size,
    "max_separated": _cloud_size,
    "min_spanning": _cloud_size,
    "sup_entropy_estimate": _subset_size,
    "_solve_separated_weighted": _ctx_size,
    "_solve_spanning_weighted": _ctx_size,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the aggregated spans and returned records.

    Metrics whose span is missing are left out."""
    out: dict[str, float] = {}
    st = tracer.stats

    def calls_self(span: str, key: str | None = None, calls=True, self_=True, total=False):
        if span not in st:
            return
        key = key or span
        if calls:
            out[f"{key}.calls"] = st[span].calls
        if self_:
            out[f"{key}.self_s"] = st[span].self_
        if total:
            out[f"{key}.total_s"] = st[span].total

    solve_spans = [s for s in st if s.split(".", 1)[1] in SOLVES]
    if solve_spans:
        out["pressure.solves.calls"] = tracer.solves
        out["pressure.solves.self_s"] = sum(st[s].self_ for s in solve_spans)
        for method in ("exhaustive", "branch_and_bound", "greedy"):
            out[f"pressure.method.{method}"] = tracer.methods.get(method, 0)
        records = tracer.exact + tracer.inexact
        out["pressure.exact_share"] = tracer.exact / records if records else 0.0
    if tracer.matrix_limit is not None and solve_spans:
        out["pressure.metric_bytes_max"] = tracer.metric_bytes_max
    calls_self("pressure.pressure_estimate", self_=False, total=True)
    if "pressure.sup_entropy_estimate" in st:
        out["pressure.sup_entropy_estimate.total_s"] = st["pressure.sup_entropy_estimate"].total
    calls_self("naifs.check_semiconjugacy")
    calls_self("naifs.orbit_batches")
    calls_self("naifs.reachable_points", calls=False)
    if "naifs.enumerate_words" in st:
        out["naifs.enumerate_words.calls"] = st["naifs.enumerate_words"].calls
        out["naifs.words.exact"] = tracer.word_modes.get("exact", 0)
        out["naifs.words.sampled"] = tracer.word_modes.get("sampled", 0)
    for name in ("eval_potential_batch", "pairwise_distances", "paired_distances"):
        calls_self(f"space.{name}")
    for name in THEOREM_CHECKS:
        calls_self(f"theorems.{name}")
    if "cli.from_dict" in st:
        out["cli.from_dict.s"] = st["cli.from_dict"].total
    if "space.build_cloud" in st:
        out["space.build_cloud.s"] = st["space.build_cloud"].total
    calls_self("cli.run", calls=False)
    return out

