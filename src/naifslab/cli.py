"""Experiment runner: config parsing, estimate/verify/sweep dispatch, CSV
and summary emission.

Configuration is a single JSON document validated against the published
schema CONFIG_SCHEMA; all tabular output is CSV with the seed recorded in
a leading comment line.  Exit codes: 0 ok, 1 violated verdicts, 2 config
error, 3 runtime error.

The schema is read here, by _schema_errors, with no JSON Schema engine.
It honours the nine keywords CONFIG_SCHEMA uses (type, enum, properties,
required, additionalProperties, items, minItems, maxItems, minimum) with
draft 2020-12 semantics: an integer is an int or an integral float, a
number any numbers.Number, neither ever a bool; an array is a list and an
object a dict.  Of all the errors, the one at the least json path (as a
string; the first reported on a tie) is raised as
"config field <path>: <message>".

Values that pass the schema are built into library objects inside
_field(path), the one place where a library ValueError or OverflowError
becomes "config field <path>: <message>".
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import CATALOG_KINDS, EXAMPLE_CONFIGS, list_builtin
from .naifs import (
    FactorMapSpec,
    GenerationSchedule,
    MapSpec,
    NAIFS,
    WORD_ENUMERATION_CAP,
    count_words,
    validate_schedule,
)
from .pressure import AveragedPartitionSum, PressureCurve, pressure_estimate, validate_eps_list
from .space import FINITE, SYMBOLIC, PointCloud, Potential, SpaceSpec, build_cloud, check_point_limit, validate_potential
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
    net_counting_length,
    require_invertible,
    require_power_potential,
    semiconjugacy_report,
    summarize_reports,
)

log = logging.getLogger("naifslab.cli")


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


# a map or a potential: a kind and its parameters
_KIND_SCHEMA = {
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
        "prefix": {"type": "array", "items": {"type": "array", "items": _KIND_SCHEMA, "minItems": 1}},
        "cycle": {"type": "array", "items": {"type": "array", "items": _KIND_SCHEMA, "minItems": 1}, "minItems": 1},
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

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "mode": {"enum": ["estimate", "verify", "sweep"]},
        "space": _SPACE_SCHEMA,
        "schedule": _SCHEDULE_SCHEMA,
        "potential": _KIND_SCHEMA,
        "potential_phi": _KIND_SCHEMA,
        "potential_target": _KIND_SCHEMA,
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
        "seed": {"type": "integer", "minimum": 0},
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
        "tol": {"type": "number"},
        "output_dir": {"type": "string"},
    },
    "required": ["mode", "space", "schedule", "potential", "n_range", "eps_list", "word_budget", "seed"],
    "additionalProperties": False,
}


# draft 2020-12 instance types, as CONFIG_SCHEMA names them
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: not isinstance(v, bool) and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "number": lambda v: not isinstance(v, bool) and isinstance(v, numbers.Number),
}


def _schema_errors(value, schema: dict, path: str, errors: list[tuple[str, str]]) -> None:
    """Append (json path, message) for each keyword of schema that value
    breaks, in the order of the schema's keywords and properties.

    A keyword that reads objects or arrays skips a value of another type,
    as in draft 2020-12.  Every enum of CONFIG_SCHEMA lists strings, and
    every additionalProperties is false; "$schema" is not a check.
    """
    for key, rule in schema.items():
        if key == "type":
            if not _JSON_TYPES[rule](value):
                errors.append((path, f"{value!r} is not of type {rule!r}"))
        elif key == "enum":
            if not (isinstance(value, str) and value in rule):
                errors.append((path, f"{value!r} is not one of {rule!r}"))
        elif key == "minimum":
            if _JSON_TYPES["number"](value) and value < rule:
                errors.append((path, f"{value!r} is less than the minimum of {rule!r}"))
        elif isinstance(value, dict):
            if key == "properties":
                for name, sub in rule.items():
                    if name in value:
                        _schema_errors(value[name], sub, f"{path}.{name}", errors)
            elif key == "required":
                errors.extend((path, f"{name!r} is a required property") for name in rule if name not in value)
            elif key == "additionalProperties":
                extras = sorted({name for name in value if name not in schema.get("properties", {})}, key=str)
                if extras:
                    listed = ", ".join(repr(name) for name in extras)
                    verb = "was" if len(extras) == 1 else "were"
                    errors.append((path, f"Additional properties are not allowed ({listed} {verb} unexpected)"))
        elif isinstance(value, list):
            if key == "items":
                for i, item in enumerate(value):
                    _schema_errors(item, rule, f"{path}[{i}]", errors)
            elif key == "minItems" and len(value) < rule:
                errors.append((path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"))
            elif key == "maxItems" and len(value) > rule:
                errors.append((path, f"{value!r} {'is expected to be empty' if rule == 0 else 'is too long'}"))


def _schema_check(raw: dict) -> None:
    """raw against CONFIG_SCHEMA; the error at the least json path is raised."""
    errors: list[tuple[str, str]] = []
    _schema_errors(raw, CONFIG_SCHEMA, "$", errors)
    if errors:
        path, message = min(errors, key=lambda e: e[0])
        raise ConfigError(f"config field {path}: {message}")


# The largest n a config may ask for.  An orbit of n steps holds n + 1
# copies of the cloud, and every n is one pressure solve per word and eps.
N_MAX_LIMIT = 1024


@contextlib.contextmanager
def _field(path: str):
    """A library refusal of the value at path, as a config error naming it;
    integers past the float range overflow a float conversion."""
    try:
        yield
    except (ValueError, OverflowError) as e:
        raise ConfigError(f"config field {path}: {e}") from e


def _space_from(d: dict, path: str) -> SpaceSpec:
    """The space d names, refused past CLOUD_POINT_LIMIT points."""
    with _field(path):
        kwargs = {key: int(d[key]) for key in ("resolution", "alphabet_size") if key in d}
        if "distance_matrix" in d:
            kwargs["distance_matrix"] = tuple(tuple(row) for row in d["distance_matrix"])
        space = SpaceSpec(family=d["family"], **kwargs)
        check_point_limit(space)
    return space


def _check_depth(space: SpaceSpec, n_max: int, eps_min: float, path: str) -> None:
    """A symbolic space must be deeper than the words the orbits and eps read."""
    if space.family == SYMBOLIC:
        needed = n_max + math.log2(1.0 / eps_min)
        if needed >= space.resolution:
            raise ConfigError(
                f"config field {path}: symbolic depth too small; need "
                f"n_max + log2(1/eps_min) = {needed:g} < resolution D = {space.resolution}"
            )


def _sweep_from(d: dict, resolutions: list, n_max: int, eps_min: float) -> list[SpaceSpec]:
    """The space $.space names at each swept resolution, with the checks
    that $.space gets; the clouds are built when the sweep runs."""
    if not resolutions:
        raise ConfigError("config field $.sweep.resolutions: sweep mode needs resolutions")
    if d["family"] == FINITE:
        raise ConfigError("config field $.sweep: finite_explicit spaces cannot be resolution-swept")
    spaces = []
    for k, res in enumerate(resolutions):
        path = f"$.sweep.resolutions[{k}]"
        spaces.append(_space_from(dict(d, resolution=res), path))
        _check_depth(spaces[-1], n_max, eps_min, path)
    return spaces


def _schedule_from(d: dict, path: str, space: SpaceSpec) -> GenerationSchedule:
    """The schedule d names, with every map checked against space."""
    def gen(maps):
        return tuple(MapSpec(kind=m["kind"], params=tuple(m.get("params", ()))) for m in maps)

    with _field(path):
        schedule = GenerationSchedule(
            prefix=tuple(gen(g) for g in d.get("prefix", [])),
            cycle=tuple(gen(g) for g in d["cycle"]),
        )
        validate_schedule(space, schedule)
    return schedule


def _potential_from(d: dict, path: str, space: SpaceSpec | None) -> Potential:
    with _field(path):
        psi = Potential(kind=d["kind"], params=tuple(d.get("params", ())))
        if space is not None:
            validate_potential(space, psi)
    return psi


def _tol_from(value, path: str) -> float | None:
    if value is not None and not 0.0 <= value < math.inf:
        raise ConfigError(f"config field {path}: the tolerance must be finite and >= 0, got {value!r}")
    return value


# the parameters each check type reads; a check given any other is refused
_CHECK_PARAMETERS = {"basic": ("n", "eps", "p", "c"), "power": ("n", "m_range"), "truncation": ("i", "j"), "semiconjugacy": ("tol",), "factor_upper": ("fiber_sample",)}


def _check_from(chk: dict, path: str, eps_default: float, space: SpaceSpec, schedule: GenerationSchedule, n_max: int) -> dict:
    """One check with its parameters read, range-checked and defaulted; the
    runner reads these values only.  A parameter its type does not read
    (_CHECK_PARAMETERS), a check whose words and finest eps would read
    past a symbolic depth (_check_depth), or one that would enumerate more
    than WORD_ENUMERATION_CAP words, is refused here, before any is
    enumerated."""
    kind = chk["type"]
    for key in chk:
        if key != "type" and key not in _CHECK_PARAMETERS.get(kind, ()):
            why = "only a semiconjugacy check takes its own tol; set $.tol or --tol" if key == "tol" else f"a {kind} check does not read {key}"
            raise ConfigError(f"config field {path}.{key}: {why}")
    out = {"type": kind, "tol": _tol_from(chk.get("tol"), f"{path}.tol")}
    with _field(path):
        if kind == "basic":
            out.update(n=int(chk.get("n", 2)), eps=float(chk.get("eps", eps_default)))
            out.update(p=float(chk.get("p", 0.5)), c=float(chk.get("c", 2.0)))
        elif kind == "power":
            out.update(n=int(chk.get("n", 2)), m_range=tuple(int(m) for m in chk.get("m_range", (1, 2))))
        elif kind == "truncation":
            out.update(i=int(chk.get("i", 1)), j=int(chk.get("j", 2)))
        elif kind == "factor_upper":
            out.update(fiber_sample=int(chk.get("fiber_sample", 8)))
    n, (m_lo, m_hi), i, j = out.get("n", 1), out.get("m_range", (1, 1)), out.get("i", 1), out.get("j", 2)
    for name, ok, need in (
        ("n", 1 <= n <= N_MAX_LIMIT, f"1 <= n <= {N_MAX_LIMIT}"),
        ("m_range", 1 <= m_lo <= m_hi and n * m_hi <= N_MAX_LIMIT, f"1 <= m_lo <= m_hi and n * m_hi <= {N_MAX_LIMIT}"),
        ("i", 1 <= i, "i >= 1"),
        ("j", i < j <= N_MAX_LIMIT, f"i < j <= {N_MAX_LIMIT}"),
        ("fiber_sample", out.get("fiber_sample", 1) >= 1, "fiber_sample >= 1"),
        ("p", 0.0 <= out.get("p", 0.0) <= 1.0, "0 <= p <= 1"),
        ("eps", 0.0 < out.get("eps", 1.0) < math.inf, "a finite eps > 0"),
        ("c", math.isfinite(out.get("c", 0.0)), "a finite c"),
    ):
        if not ok:
            raise ConfigError(f"config field {path}.{name}: need {need}, got {out[name]!r}")
    # the basic, power and truncation checks enumerate every word of one length from these starts
    name, length, starts = {
        "basic": ("n", n, [1]), "power": ("m_range", n * m_hi, [1]), "truncation": ("j", net_counting_length(n_max), range(i, j)),
    }.get(kind, ("", 0, []))
    if name:
        _check_depth(space, length, out.get("eps", eps_default), f"{path}.{name}")
    count = max((count_words(schedule, k, length) for k in starts), default=0)
    if count > WORD_ENUMERATION_CAP:
        raise ConfigError(f"config field {path}.{name}: the check enumerates {count} words, more than {WORD_ENUMERATION_CAP}")
    return out


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description."""

    mode: str
    # None in sweep mode unless a factor or a check reads it
    cloud: PointCloud | None
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
    sweep_spaces: list[SpaceSpec] = field(default_factory=list)
    tol: float | None = None
    output_dir: str = "out"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _schema_check(raw)
        space = _space_from(raw["space"], "$.space")
        # a sweep reads only its swept spaces' clouds
        cloud = build_cloud(space) if raw["mode"] != "sweep" or "factor" in raw or raw.get("checks") else None
        schedule = _schedule_from(raw["schedule"], "$.schedule", space)
        lo, hi = (int(v) for v in raw["n_range"])
        if not 1 <= lo <= hi <= N_MAX_LIMIT:
            raise ConfigError(f"config field $.n_range: need 1 <= lo <= hi <= {N_MAX_LIMIT}")
        with _field("$.eps_list"):
            eps_list = validate_eps_list(raw["eps_list"])
        _check_depth(space, hi, eps_list[-1], "$.n_range")
        word_budget = int(raw["word_budget"])
        if word_budget > WORD_ENUMERATION_CAP:
            raise ConfigError(f"config field $.word_budget: need word_budget <= {WORD_ENUMERATION_CAP}, got {word_budget}")
        factor = None
        if "factor" in raw:
            fd = raw["factor"]
            tspace = _space_from(fd["space"], "$.factor.space")
            tschedule = _schedule_from(fd["schedule"], "$.factor.schedule", tspace)
            with _field("$.factor"):
                factor = FactorMapSpec(
                    source=NAIFS(cloud=cloud, schedule=schedule),
                    target=NAIFS(cloud=build_cloud(tspace), schedule=tschedule),
                    kind=fd["kind"],
                    table=tuple(fd["table"]) if "table" in fd else None,
                    fiber_tol=fd.get("fiber_tol"),
                )
        potential = _potential_from(raw["potential"], "$.potential", space)
        checks = []
        for idx, chk in enumerate(raw.get("checks", [])):
            if chk["type"] in ("semiconjugacy", "factor_lower", "factor_upper", "conjugacy") and factor is None:
                raise ConfigError(f"config field $.checks[{idx}]: check {chk['type']!r} requires a factor")
            checks.append(_check_from(chk, f"$.checks[{idx}]", eps_list[-1], space, schedule, hi))
            # the check's premise, once its parameters are read
            with _field(f"$.checks[{idx}]"):
                if chk["type"] == "conjugacy":
                    require_invertible(factor)
                elif chk["type"] == "power":
                    require_power_potential(cloud, schedule, potential, checks[-1]["n"] * checks[-1]["m_range"][1])
        if raw["mode"] == "verify" and not checks:
            raise ConfigError("config field $.checks: verify mode needs at least one check")
        sweep_spaces = []
        if "sweep" in raw and raw["mode"] != "sweep":
            raise ConfigError(f"config field $.sweep: only sweep mode reads a sweep block, and the mode is {raw['mode']!r}")
        if raw["mode"] == "sweep":
            sweep_spaces = _sweep_from(raw["space"], raw.get("sweep", {}).get("resolutions", []), hi, eps_list[-1])
        return cls(
            mode=raw["mode"],
            cloud=cloud,
            schedule=schedule,
            potential=potential,
            n_range=list(range(lo, hi + 1)),
            eps_list=eps_list,
            word_budget=word_budget,
            seed=int(raw["seed"]),
            kind=raw.get("kind", "separated"),
            potential_phi=_potential_from(raw["potential_phi"], "$.potential_phi", space) if "potential_phi" in raw else None,
            # potential_target lives on the factor's target; no check reads it without one
            potential_target=(
                _potential_from(raw["potential_target"], "$.potential_target", factor.target.cloud.space if factor else None)
                if "potential_target" in raw else None
            ),
            factor=factor,
            checks=checks,
            sweep_spaces=sweep_spaces,
            tol=_tol_from(raw.get("tol"), "$.tol"),
            output_dir=raw.get("output_dir", "out"),
        )


def _fmt(v) -> str:
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


def _curve_rows(kind: str, entries: list[AveragedPartitionSum]) -> list[list]:
    return [
        [e.n, e.eps, kind, e.log_average, e.value, e.stderr, e.word_mode, e.method, e.exact, e.saturated]
        for e in entries
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
    )
    _write_csv(out / "pressure_curve.csv", CURVE_COLUMNS, _curve_rows(curve.kind, curve.entries), config.seed)
    (out / "estimate.txt").write_text(_estimate_text(curve, config))
    log.info("estimate %r written to %s", curve.estimate, out)
    return 0


def _run_checks(config: ExperimentConfig) -> list[InequalityReport]:
    reports: list[InequalityReport] = []
    phi = config.potential_phi or Potential("constant", (0.0,))
    target_phi = config.potential_target or Potential("constant", (0.0,))
    common = dict(word_budget=config.word_budget, seed=config.seed, tol=config.tol)
    for chk in config.checks:
        kind = chk["type"]
        if kind == "basic":
            reports.extend(
                check_basic_properties(
                    config.cloud, config.schedule, phi, config.potential,
                    eps=chk["eps"], n=chk["n"], p=chk["p"], c=chk["c"],
                )
            )
        elif kind == "power":
            m_lo, m_hi = chk["m_range"]
            reports.extend(
                check_power_rule(
                    config.cloud, config.schedule, config.potential,
                    n=chk["n"], m_range=range(m_lo, m_hi + 1), eps_list=config.eps_list, **common,
                )
            )
        elif kind == "truncation":
            reports.extend(
                check_truncation_monotonicity(
                    config.cloud, config.schedule, config.potential,
                    i=chk["i"], j=chk["j"],
                    n_range=config.n_range, eps_list=config.eps_list, **common,
                )
            )
        elif kind == "equicontinuity":
            reports.append(equicontinuity_report(config.cloud, config.schedule, config.eps_list))
        elif kind == "semiconjugacy":
            reports.append(semiconjugacy_report(config.factor, config.n_range[-1], chk["tol"]))
        elif (premise := semiconjugacy_report(config.factor, config.n_range[-1])).verdict == VIOLATED:
            # a factor inequality assumes a semiconjugacy: the failed premise is its row
            reports.append(premise)
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
                    fiber_sample=chk["fiber_sample"], **common,
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
    reports = _run_checks(config)
    rows = [[r.name, r.level, r.lhs, r.rhs, r.slack, r.verdict, r.context] for r in reports]
    _write_csv(out / "verdicts.csv", VERDICT_COLUMNS, rows, config.seed)
    summary = summarize_reports(reports)
    (out / "summary.txt").write_text(summary + "\n")
    violated = sum(1 for r in reports if r.verdict == VIOLATED)
    log.info("verify: %d reports, %d violated", len(reports), violated)
    return 1 if violated else 0


def _run_sweep(config: ExperimentConfig, out: Path) -> int:
    """One curve per swept resolution over every eps, so that each word
    orbit serves every eps; its entries and summary at each eps make that
    eps's CSV and summary row."""
    summary_rows = []
    for space in config.sweep_spaces:
        res = space.resolution
        curve = pressure_estimate(
            build_cloud(space), config.schedule, config.potential, config.n_range, config.eps_list,
            word_budget=config.word_budget, seed=config.seed, kind=config.kind,
        )
        for k, (eps, summary) in enumerate(zip(config.eps_list, curve.per_eps)):
            entries = [e for e in curve.entries if e.eps == eps]
            _write_csv(out / f"pressure_curve_r{res}_e{k}.csv", CURVE_COLUMNS, _curve_rows(curve.kind, entries), config.seed)
            summary_rows.append([res, eps, summary.max_step, all(e.exact for e in entries)])
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
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"config {name_or_path!r} cannot be read: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {name_or_path!r} is not valid JSON: {e}") from e
    # main writes the command-line overrides into it
    if not isinstance(raw, dict):
        raise ConfigError(f"config field $: {raw!r} is not of type 'object'")
    return raw


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
