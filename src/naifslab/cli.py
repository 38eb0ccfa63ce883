"""Experiment runner: config parsing, estimate/verify/sweep dispatch, CSV
and summary emission.

Configuration is a single JSON document validated against a published
schema; all tabular output is CSV with the seed recorded in a leading
comment line.  Exit codes: 0 ok, 1 violated verdicts, 2 config error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

from .catalog import CATALOG_KINDS, EXAMPLE_CONFIGS, list_builtin
from .naifs import (
    FactorMapSpec,
    GenerationSchedule,
    MapSpec,
    NAIFS,
    validate_schedule,
)
from .pressure import PressureCurve, pressure_estimate, validate_eps_list
from .space import SYMBOLIC, PointCloud, Potential, SpaceSpec, build_cloud
from .theorems import (
    InequalityReport,
    VIOLATED,
    check_basic_properties,
    check_factor_conjugacy,
    check_factor_lower,
    check_factor_upper,
    check_power_rule,
    check_truncation_monotonicity,
    equicontinuity_report,
    semiconjugacy_report,
    summarize_reports,
)

log = logging.getLogger("naifslab.cli")


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


_MAP_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"type": "string"},
        "params": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_SCHEDULE_SCHEMA = {
    "type": "object",
    "properties": {
        "prefix": {"type": "array", "items": {"type": "array", "items": _MAP_SCHEMA, "minItems": 1}},
        "cycle": {"type": "array", "items": {"type": "array", "items": _MAP_SCHEMA, "minItems": 1}, "minItems": 1},
    },
    "required": ["cycle"],
    "additionalProperties": False,
}

_SPACE_SCHEMA = {
    "type": "object",
    "properties": {
        "family": {"type": "string"},
        "resolution": {"type": "integer"},
        "alphabet_size": {"type": "integer"},
        "distance_matrix": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
    },
    "required": ["family"],
    "additionalProperties": False,
}

_POTENTIAL_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"type": "string"},
        "params": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "mode": {"enum": ["estimate", "verify", "sweep"]},
        "space": _SPACE_SCHEMA,
        "schedule": _SCHEDULE_SCHEMA,
        "potential": _POTENTIAL_SCHEMA,
        "potential_phi": _POTENTIAL_SCHEMA,
        "potential_target": _POTENTIAL_SCHEMA,
        "factor": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["index_table", "binary_expansion", "coordinate_projection"]},
                "table": {"type": "array", "items": {"type": "integer"}},
                "fiber_tol": {"type": "number"},
                "space": _SPACE_SCHEMA,
                "schedule": _SCHEDULE_SCHEMA,
            },
            "required": ["kind", "space", "schedule"],
            "additionalProperties": False,
        },
        "n_range": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
        "eps_list": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "word_budget": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "kind": {"enum": ["separated", "spanning"]},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "type": {
                        "enum": [
                            "basic",
                            "power",
                            "truncation",
                            "equicontinuity",
                            "semiconjugacy",
                            "factor_lower",
                            "factor_upper",
                            "conjugacy",
                        ]
                    },
                    "n": {"type": "integer"},
                    "eps": {"type": "number"},
                    "p": {"type": "number"},
                    "c": {"type": "number"},
                    "m_range": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
                    "i": {"type": "integer"},
                    "j": {"type": "integer"},
                    "tol": {"type": "number"},
                    "fiber_sample": {"type": "integer"},
                },
                "required": ["type"],
                "additionalProperties": False,
            },
        },
        "sweep": {
            "type": "object",
            "properties": {"resolutions": {"type": "array", "items": {"type": "integer"}, "minItems": 1}},
            "required": ["resolutions"],
            "additionalProperties": False,
        },
        "workers": {"type": "integer", "minimum": 1},
        "tol": {"type": "number"},
        "output_dir": {"type": "string"},
    },
    "required": ["mode", "space", "schedule", "potential", "n_range", "eps_list", "word_budget", "seed"],
    "additionalProperties": False,
}


def _schema_check(raw: dict) -> None:
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: e.json_path)
    if errors:
        e = errors[0]
        raise ConfigError(f"config field {e.json_path}: {e.message}")


def _space_from(d: dict) -> SpaceSpec:
    kwargs = dict(family=d["family"])
    if "resolution" in d:
        kwargs["resolution"] = d["resolution"]
    if "alphabet_size" in d:
        kwargs["alphabet_size"] = d["alphabet_size"]
    if "distance_matrix" in d:
        kwargs["distance_matrix"] = tuple(tuple(row) for row in d["distance_matrix"])
    try:
        return SpaceSpec(**kwargs)
    except ValueError as e:
        raise ConfigError(f"config field $.space: {e}") from e


def _schedule_from(d: dict) -> GenerationSchedule:
    def gen(maps):
        return tuple(MapSpec(kind=m["kind"], params=tuple(m.get("params", ()))) for m in maps)

    try:
        return GenerationSchedule(
            prefix=tuple(gen(g) for g in d.get("prefix", [])),
            cycle=tuple(gen(g) for g in d["cycle"]),
        )
    except ValueError as e:
        raise ConfigError(f"config field $.schedule: {e}") from e


def _potential_from(d: dict, path: str) -> Potential:
    try:
        return Potential(kind=d["kind"], params=tuple(d.get("params", ())))
    except ValueError as e:
        raise ConfigError(f"config field {path}: {e}") from e


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description."""

    mode: str
    cloud: PointCloud
    schedule: GenerationSchedule
    potential: Potential
    n_range: list[int]
    eps_list: list[float]
    word_budget: int
    seed: int
    kind: str = "separated"
    potential_phi: Potential | None = None
    potential_target: Potential | None = None
    factor: FactorMapSpec | None = None
    checks: list[dict] = field(default_factory=list)
    sweep_resolutions: list[int] = field(default_factory=list)
    workers: int = 1
    tol: float | None = None
    output_dir: str = "out"
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _schema_check(raw)
        space = _space_from(raw["space"])
        schedule = _schedule_from(raw["schedule"])
        try:
            validate_schedule(space, schedule)
        except ValueError as e:
            raise ConfigError(f"config field $.schedule: {e}") from e
        cloud = build_cloud(space)
        lo, hi = raw["n_range"]
        if not 1 <= lo <= hi:
            raise ConfigError("config field $.n_range: need 1 <= lo <= hi")
        try:
            eps_list = validate_eps_list(raw["eps_list"])
        except ValueError as e:
            raise ConfigError(f"config field $.eps_list: {e}") from e
        if space.family == SYMBOLIC:
            needed = hi + math.log2(1.0 / eps_list[-1])
            if needed >= space.resolution:
                raise ConfigError(
                    "config field $.n_range: symbolic depth too small; need "
                    f"n_max + log2(1/eps_min) = {needed:g} < resolution D = {space.resolution}"
                )
        factor = None
        if "factor" in raw:
            fd = raw["factor"]
            tspace = _space_from(fd["space"])
            tschedule = _schedule_from(fd["schedule"])
            try:
                validate_schedule(tspace, tschedule)
            except ValueError as e:
                raise ConfigError(f"config field $.factor.schedule: {e}") from e
            try:
                factor = FactorMapSpec(
                    source=NAIFS(cloud=cloud, schedule=schedule),
                    target=NAIFS(cloud=build_cloud(tspace), schedule=tschedule),
                    kind=fd["kind"],
                    table=tuple(fd["table"]) if "table" in fd else None,
                    fiber_tol=fd.get("fiber_tol"),
                )
            except ValueError as e:
                raise ConfigError(f"config field $.factor: {e}") from e
        checks = raw.get("checks", [])
        for idx, chk in enumerate(checks):
            if chk["type"] in ("semiconjugacy", "factor_lower", "factor_upper", "conjugacy") and factor is None:
                raise ConfigError(f"config field $.checks[{idx}]: check {chk['type']!r} requires a factor")
        return cls(
            mode=raw["mode"],
            cloud=cloud,
            schedule=schedule,
            potential=_potential_from(raw["potential"], "$.potential"),
            n_range=list(range(lo, hi + 1)),
            eps_list=eps_list,
            word_budget=raw["word_budget"],
            seed=raw["seed"],
            kind=raw.get("kind", "separated"),
            potential_phi=_potential_from(raw["potential_phi"], "$.potential_phi") if "potential_phi" in raw else None,
            potential_target=_potential_from(raw["potential_target"], "$.potential_target") if "potential_target" in raw else None,
            factor=factor,
            checks=checks,
            sweep_resolutions=list(raw.get("sweep", {}).get("resolutions", [])),
            workers=raw.get("workers", 1),
            tol=raw.get("tol"),
            output_dir=raw.get("output_dir", "out"),
            raw=raw,
        )


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: Path, columns: list[str], rows: list[list], seed: int) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# seed={seed}\n")
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


CURVE_COLUMNS = ["n", "eps", "kind", "log_avg", "per_n_value", "stderr", "word_mode", "method", "exact", "saturated"]
VERDICT_COLUMNS = ["theorem", "level", "lhs", "rhs", "slack", "verdict", "context"]


def _curve_rows(curve: PressureCurve) -> list[list]:
    return [
        [e.n, e.eps, curve.kind, e.log_avg, e.value, e.stderr, e.word_mode, e.method, e.exact, e.saturated]
        for e in curve.entries
    ]


def _estimate_text(curve: PressureCurve, config: ExperimentConfig) -> str:
    lines = [
        "naifslab estimate",
        f"kind = {curve.kind}",
        f"seed = {config.seed}",
        f"n_range = {config.n_range[0]}..{config.n_range[-1]}",
        f"eps_list = {[repr(e) for e in config.eps_list]}",
        f"word_budget = {config.word_budget}",
        f"final_eps = {curve.eps_star!r}",
        f"final_estimate = {curve.estimate!r}",
        f"all_exact = {curve.all_exact}",
        "per-eps proxies (tail_max / ls_slope / max_step):",
    ]
    for s in curve.per_eps:
        lines.append(f"  eps={s.eps!r} tail_max={s.tail_max!r} ls_slope={s.ls_slope!r} max_step={s.max_step!r}")
    return "\n".join(lines) + "\n"


def _run_estimate(config: ExperimentConfig, out: Path) -> int:
    curve = pressure_estimate(
        config.cloud,
        config.schedule,
        config.potential,
        config.n_range,
        config.eps_list,
        word_budget=config.word_budget,
        seed=config.seed,
        kind=config.kind,
        workers=config.workers,
    )
    _write_csv(out / "pressure_curve.csv", CURVE_COLUMNS, _curve_rows(curve), config.seed)
    (out / "estimate.txt").write_text(_estimate_text(curve, config))
    log.info("estimate %r written to %s", curve.estimate, out)
    return 0


def _run_checks(config: ExperimentConfig) -> list[InequalityReport]:
    reports: list[InequalityReport] = []
    phi = config.potential_phi or Potential("constant", (0.0,))
    target_phi = config.potential_target or Potential("constant", (0.0,))
    common = dict(word_budget=config.word_budget, seed=config.seed, workers=config.workers, tol=config.tol)
    for chk in config.checks:
        kind = chk["type"]
        if kind == "basic":
            reports.extend(
                check_basic_properties(
                    config.cloud,
                    config.schedule,
                    phi,
                    config.potential,
                    eps=chk.get("eps", config.eps_list[-1]),
                    n=chk.get("n", 2),
                    p=chk.get("p", 0.5),
                    c=chk.get("c", 2.0),
                )
            )
        elif kind == "power":
            m_lo, m_hi = chk.get("m_range", [1, 2])
            reports.extend(
                check_power_rule(
                    config.cloud, config.schedule, config.potential,
                    n=chk.get("n", 2), m_range=range(m_lo, m_hi + 1), eps_list=config.eps_list, **common,
                )
            )
        elif kind == "truncation":
            reports.extend(
                check_truncation_monotonicity(
                    config.cloud, config.schedule, config.potential,
                    i=chk.get("i", 1), j=chk.get("j", 2),
                    n_range=config.n_range, eps_list=config.eps_list, **common,
                )
            )
        elif kind == "equicontinuity":
            reports.append(equicontinuity_report(config.cloud, config.schedule, config.eps_list))
        elif kind == "semiconjugacy":
            reports.append(semiconjugacy_report(config.factor, config.n_range[-1], chk.get("tol")))
        elif kind == "factor_lower":
            reports.append(
                check_factor_lower(
                    config.factor, target_phi,
                    config.n_range, config.eps_list, **common,
                )
            )
        elif kind == "factor_upper":
            reports.append(
                check_factor_upper(
                    config.factor, target_phi,
                    config.n_range, config.eps_list,
                    fiber_sample=chk.get("fiber_sample", 8), **common,
                )
            )
        elif kind == "conjugacy":
            reports.extend(
                check_factor_conjugacy(
                    config.factor, target_phi,
                    config.n_range, config.eps_list, **common,
                )
            )
    return reports


def _run_verify(config: ExperimentConfig, out: Path) -> int:
    if not config.checks:
        raise ConfigError("config field $.checks: verify mode needs at least one check")
    reports = _run_checks(config)
    rows = [[r.name, r.level, r.lhs, r.rhs, r.slack, r.verdict, r.context] for r in reports]
    _write_csv(out / "verdicts.csv", VERDICT_COLUMNS, rows, config.seed)
    summary = summarize_reports(reports)
    (out / "summary.txt").write_text(summary + "\n")
    violated = sum(1 for r in reports if r.verdict == VIOLATED)
    log.info("verify: %d reports, %d violated", len(reports), violated)
    return 1 if violated else 0


def _run_sweep(config: ExperimentConfig, out: Path) -> int:
    if not config.sweep_resolutions:
        raise ConfigError("config field $.sweep.resolutions: sweep mode needs resolutions")
    summary_rows = []
    for res in config.sweep_resolutions:
        raw_space = dict(config.raw["space"])
        raw_space["resolution"] = res
        raw_space.pop("distance_matrix", None)
        if raw_space["family"] == "finite_explicit":
            raise ConfigError("config field $.sweep: finite_explicit spaces cannot be resolution-swept")
        space = _space_from(raw_space)
        cloud = build_cloud(space)
        for k, eps in enumerate(config.eps_list):
            curve = pressure_estimate(
                cloud, config.schedule, config.potential, config.n_range, [eps],
                word_budget=config.word_budget, seed=config.seed, kind=config.kind, workers=config.workers,
            )
            _write_csv(out / f"pressure_curve_r{res}_e{k}.csv", CURVE_COLUMNS, _curve_rows(curve), config.seed)
            summary_rows.append([res, eps, curve.estimate, curve.all_exact])
    _write_csv(out / "sweep_summary.csv", ["resolution", "eps", "estimate", "all_exact"], summary_rows, config.seed)
    return 0


def run(config: ExperimentConfig) -> int:
    """Dispatch one experiment; returns the process exit code."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.mode == "estimate":
        return _run_estimate(config, out)
    if config.mode == "verify":
        return _run_verify(config, out)
    return _run_sweep(config, out)


def _load_config_dict(name_or_path: str) -> dict:
    if name_or_path in EXAMPLE_CONFIGS:
        return json.loads(json.dumps(EXAMPLE_CONFIGS[name_or_path]))
    path = Path(name_or_path)
    if not path.exists():
        raise ConfigError(f"config {name_or_path!r} is neither a file nor a bundled example")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {name_or_path!r} is not valid JSON: {e}") from e


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="naifslab", description="topological pressure laboratory for NAIFSs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("run", "run a config in its own mode"),
        ("verify", "run the config's checks and emit verdicts"),
        ("sweep", "cross-product of resolutions and eps values"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("config", help="path to a JSON config or the name of a bundled example")
        p.add_argument("--workers", type=int, default=None, help="override the config's worker pool size")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--tol", type=float, default=None, help="override the proxy tolerance")
    lp = sub.add_parser("list", help="list builtin catalogs")
    lp.add_argument("kind", help="one of: " + ", ".join(CATALOG_KINDS))
    args = parser.parse_args(argv)

    level = os.environ.get("NAIFS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(name)s %(levelname)s %(message)s")

    try:
        if args.command == "list":
            try:
                print(list_builtin(args.kind))
            except ValueError as e:
                raise ConfigError(str(e)) from e
            return 0
        raw = _load_config_dict(args.config)
        if args.command in ("verify", "sweep"):
            raw["mode"] = args.command
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.out is not None:
            raw["output_dir"] = args.out
        if args.tol is not None:
            raw["tol"] = args.tol
        if args.workers is not None:
            raw["workers"] = args.workers
        config = ExperimentConfig.from_dict(raw)
        return run(config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - runner boundary
        log.exception("runtime error")
        print(f"runtime error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
