import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from naifslab import Potential, SpaceSpec
from naifslab.catalog import EXAMPLE_CONFIGS, list_builtin
import naifslab.cli as cli
from naifslab.cli import ConfigError, ExperimentConfig, main, run
from naifslab.naifs import FACTOR_KINDS, MAP_KINDS
from naifslab.space import POTENTIAL_KINDS, eval_potential_batch
from naifslab.theorems import HOLDS_WITHIN_TOL, VIOLATED
from oracles import eval_potential

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import circle_config, explicit_spanning_configs, factor_config  # noqa: E402

TINY_ESTIMATE = {
    "mode": "estimate",
    "space": {"family": "finite_explicit", "distance_matrix": [[0.0, 1.0], [1.0, 0.0]]},
    "schedule": {
        "prefix": [],
        "cycle": [[{"kind": "identity"}, {"kind": "permutation_table", "params": [1, 0]}]],
    },
    "potential": {"kind": "constant", "params": [0.0]},
    "n_range": [1, 5],
    "eps_list": [0.5],
    "word_budget": 64,
    "seed": 1,
}


def test_list_builtin_kinds():
    assert "doubling" in list_builtin("maps")
    assert "two_point_swap" in list_builtin("examples")
    assert "shift_to_doubling_factor" in list_builtin("examples")
    with pytest.raises(ValueError, match="maps"):
        list_builtin("nonsense")


def test_list_command_exit_codes(capsys):
    assert main(["list", "maps"]) == 0
    assert main(["list", "nonsense"]) == 2


def test_missing_eps_list_names_field():
    bad = {k: v for k, v in TINY_ESTIMATE.items() if k != "eps_list"}
    with pytest.raises(ConfigError, match="eps_list"):
        ExperimentConfig.from_dict(bad)


def test_nonmonotone_eps_rejected():
    bad = dict(TINY_ESTIMATE, eps_list=[0.1, 0.5])
    with pytest.raises(ConfigError, match="decreasing"):
        ExperimentConfig.from_dict(bad)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_nonfinite_eps_rejected(tmp_path, capsys, eps):
    bad = dict(TINY_ESTIMATE, eps_list=[eps], output_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="finite"):
        ExperimentConfig.from_dict(bad)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(bad))
    assert main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_symbolic_depth_guard():
    bad = {
        **TINY_ESTIMATE,
        "space": {"family": "symbolic_depth", "resolution": 6, "alphabet_size": 2},
        "schedule": {"cycle": [[{"kind": "shift"}]]},
        "n_range": [1, 5],
        "eps_list": [0.125],
    }
    with pytest.raises(ConfigError, match="depth"):
        ExperimentConfig.from_dict(bad)


# checks on shift_pressure (depth 14, eps_list [1/8]): each reads words
# and an eps that $.n_range alone does not bound
DEEP_CHECKS = {
    "basic_past_the_depth": (dict(checks=[{"type": "basic", "n": 20}]), "$.checks[0].n", 23),
    "basic_at_the_depth": (dict(checks=[{"type": "basic", "n": 12}]), "$.checks[0].n", 15),
    "basic_at_its_own_eps": (dict(checks=[{"type": "basic", "n": 10, "eps": 1 / 16}]), "$.checks[0].n", 14),
    "power_past_the_depth": (dict(checks=[{"type": "power", "n": 4, "m_range": [1, 4]}]), "$.checks[0].m_range", 19),
    # at n_max = 1 the net-counting words have length 2
    "truncation_at_n_max_1": (dict(n_range=[1, 1], eps_list=[1 / 4096], checks=[{"type": "truncation"}]), "$.checks[0].j", 14),
}


@pytest.mark.parametrize("case", sorted(DEEP_CHECKS))
def test_a_check_past_the_symbolic_depth_is_refused_at_its_field(tmp_path, capsys, case):
    changes, field, needed = DEEP_CHECKS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_example("shift_pressure", mode="verify", **changes)))
    assert main(["verify", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"config error: config field {field}: symbolic depth too small; need n_max + log2(1/eps_min) = {needed} < resolution D = 14"
    )


def test_checks_within_the_symbolic_depth_are_read():
    for checks in ([{"type": "basic", "n": 10}], [{"type": "basic", "n": 9, "eps": 1 / 16}], [{"type": "power", "n": 3, "m_range": [1, 3]}]):
        assert ExperimentConfig.from_dict(_example("shift_pressure", mode="verify", checks=checks)).checks[0]["type"] == checks[0]["type"]
    ExperimentConfig.from_dict(_example("shift_pressure", mode="verify", n_range=[1, 1], eps_list=[1 / 2048], checks=[{"type": "truncation"}]))


def test_check_requires_factor():
    bad = dict(TINY_ESTIMATE, mode="verify", checks=[{"type": "factor_lower"}])
    with pytest.raises(ConfigError, match="factor"):
        ExperimentConfig.from_dict(bad)


def test_estimate_outputs(tmp_path):
    cfg = ExperimentConfig.from_dict(dict(TINY_ESTIMATE, output_dir=str(tmp_path / "o")))
    assert run(cfg) == 0
    curve = (tmp_path / "o" / "pressure_curve.csv").read_text().splitlines()
    assert curve[0] == "# seed=1"
    assert curve[1].split(",")[:4] == ["n", "eps", "kind", "log_avg"]
    assert len(curve) == 2 + 5
    text = (tmp_path / "o" / "estimate.txt").read_text()
    assert "final_estimate = " in text and "seed = 1" in text


def test_verify_two_point_swap(tmp_path):
    raw = json.loads(json.dumps(EXAMPLE_CONFIGS["two_point_swap"]))
    raw["output_dir"] = str(tmp_path / "v")
    assert run(ExperimentConfig.from_dict(raw)) == 0
    rows = (tmp_path / "v" / "verdicts.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == "theorem"
    assert not any(",violated," in line for line in rows)
    assert (tmp_path / "v" / "summary.txt").exists()


def test_sweep_outputs(tmp_path):
    cfg = {
        **TINY_ESTIMATE,
        "mode": "sweep",
        "space": {"family": "circle_grid", "resolution": 32},
        "schedule": {"cycle": [[{"kind": "doubling"}]]},
        "eps_list": [0.25, 0.125],
        "sweep": {"resolutions": [32, 64]},
        "output_dir": str(tmp_path / "s"),
    }
    assert run(ExperimentConfig.from_dict(cfg)) == 0
    # one curve file per (resolution, eps) and the summary, byte for byte
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "s").glob("*.csv")}
    assert digests == {
        "pressure_curve_r32_e0.csv": "db807b98e7a016745590ac31c1848bf7f782cf669245b2bcb10c748d950b7312",
        "pressure_curve_r32_e1.csv": "424e013c71fe13b7f8caf94f42fd7da11d68e7a9f0143844230c6408775c82f7",
        "pressure_curve_r64_e0.csv": "565723e37c6811fae83d63c8e9fec58be8317ed37d169899e175bf8fee065fa9",
        "pressure_curve_r64_e1.csv": "5e5ebf976fa71509d0d8d664d36160ee1115a4c4433cbb844b252974e4542da1",
        "sweep_summary.csv": "167f40de9812b51108587e1ce25d8f9f466c02b2c4af19c9f5b223475a119c7f",
    }


def test_main_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"mode": "estimate"}))
    assert main(["run", str(incomplete)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_main_runs_bundled_example(tmp_path):
    assert main(["run", "two_point_swap_sampled", "--out", str(tmp_path / "a")]) == 0
    text = (tmp_path / "a" / "estimate.txt").read_text()
    value = float(text.split("final_estimate = ")[1].splitlines()[0])
    assert abs(value) < 1e-9


def test_seed_override_changes_output_header(tmp_path):
    assert main(["run", "two_point_swap_sampled", "--out", str(tmp_path / "b"), "--seed", "99"]) == 0
    assert (tmp_path / "b" / "pressure_curve.csv").read_text().splitlines()[0] == "# seed=99"


def test_determinism_same_seed_byte_identical(tmp_path):
    for d in ("r1", "r2"):
        assert main(["run", "two_point_swap_sampled", "--out", str(tmp_path / d)]) == 0
    a = (tmp_path / "r1" / "pressure_curve.csv").read_bytes()
    b = (tmp_path / "r2" / "pressure_curve.csv").read_bytes()
    assert a == b


def test_main_runs_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY_ESTIMATE, output_dir=str(tmp_path / "out"))))
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "out" / "estimate.txt").exists()


# config files main cannot take: (the file's bytes, or None for a
# directory at the path; what the config error says)
UNREADABLE_CONFIGS = {
    "a list": (b"[]", "config field $: [] is not of type 'object'"),
    "a number": (b"3", "config field $: 3 is not of type 'object'"),
    "a directory": (None, "cannot be read: [Errno 21] Is a directory"),
    "not utf-8": (b'{"seed": "\xff"}', "cannot be read: 'utf-8' codec can't decode byte 0xff"),
    "not json": (b"{", "is not valid JSON"),
}


@pytest.mark.parametrize("argv", [["run"], ["run", "--seed", "1"], ["verify"], ["sweep", "--tol", "0.1"]], ids=" ".join)
@pytest.mark.parametrize("case", sorted(UNREADABLE_CONFIGS))
def test_a_config_file_that_is_no_readable_object_is_a_config_error(tmp_path, capsys, case, argv):
    # refused before main writes the mode or an override into the document
    content, message = UNREADABLE_CONFIGS[case]
    path = tmp_path / "cfg.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


def test_a_worker_count_is_refused_by_the_config_and_the_command_line(tmp_path, capsys):
    # every curve takes one serial path: no config field or flag sets a worker count
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY_ESTIMATE, workers=2, output_dir=str(tmp_path / "out"))))
    assert main(["run", str(path)]) == 2
    assert "config field $: Additional properties are not allowed ('workers' was unexpected)" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["run", "two_point_swap_sampled", "--out", str(tmp_path / "flag"), "--workers", "2"])
    assert info.value.code == 2
    assert not (tmp_path / "out").exists() and not (tmp_path / "flag").exists()


def _example(name, **changes):
    raw = json.loads(json.dumps(EXAMPLE_CONFIGS[name]))
    raw.update(changes)
    return raw


# potentials that do not fit their space: unchecked, each fails at run time
# (exit 3) or evaluates params[int(x)] on a grid (exit 0 with wrong numbers)
MISMATCHED_POTENTIALS = {
    "short_explicit_table": dict(potential={"kind": "explicit_table", "params": [0.1]}),
    "first_symbol_on_finite": dict(potential={"kind": "first_symbol_table", "params": [0.0, 1.0]}),
    "explicit_table_on_circle": dict(
        space={"family": "circle_grid", "resolution": 8},
        schedule={"cycle": [[{"kind": "doubling"}]]},
        potential={"kind": "explicit_table", "params": [0.5] * 8},
    ),
    "short_first_symbol_table": dict(
        space={"family": "symbolic_depth", "resolution": 8, "alphabet_size": 3},
        schedule={"cycle": [[{"kind": "shift"}]]},
        potential={"kind": "first_symbol_table", "params": [0.0, 1.0]},
        eps_list=[0.25],
        n_range=[1, 3],
    ),
    "affine_on_words": dict(
        space={"family": "symbolic_depth", "resolution": 8, "alphabet_size": 2},
        schedule={"cycle": [[{"kind": "shift"}]]},
        potential={"kind": "coordinate_affine", "params": [1.0, 0.0]},
        eps_list=[0.25],
        n_range=[1, 3],
    ),
    "phi_short_table": dict(potential_phi={"kind": "explicit_table", "params": [0.0]}),
}


@pytest.mark.parametrize("case", sorted(MISMATCHED_POTENTIALS))
def test_mismatched_potential_is_a_config_error(tmp_path, capsys, case):
    raw = _example("two_point_swap", mode="estimate", output_dir=str(tmp_path / "out"), **MISMATCHED_POTENTIALS[case])
    raw.pop("checks", None)
    with pytest.raises(ConfigError, match="potential"):
        ExperimentConfig.from_dict(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_target_potential_is_checked_against_the_target_space(tmp_path):
    # the factor's target is a two-point space: a first-symbol table and a
    # one-entry table do not fit it, a two-entry table does
    for bad in ({"kind": "first_symbol_table", "params": [0.0, 1.0]}, {"kind": "explicit_table", "params": [0.0]}):
        with pytest.raises(ConfigError, match="potential_target"):
            ExperimentConfig.from_dict(_example("four_point_quotient", potential_target=bad))
    good = ExperimentConfig.from_dict(_example("four_point_quotient", potential_target={"kind": "explicit_table", "params": [0.0, 1.0]}))
    assert good.potential_target.params == (0.0, 1.0)


def test_list_table_refused_off_finite_spaces():
    pot = Potential("explicit_table", (0.5, 0.25))
    with pytest.raises(ValueError, match="finite_explicit"):
        eval_potential(pot, 0.75)
    with pytest.raises(ValueError, match="finite_explicit"):
        eval_potential_batch(SpaceSpec("circle_grid", 8), pot, np.array([0.0, 0.75]))
    assert eval_potential(pot, 1) == 0.25


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def _set(raw, path, value):
    _get(raw, path[:-1])[path[-1]] = value
    return raw


# values that pass the schema but are malformed or out of range; unchecked,
# they raise other errors, exhaust memory or run with wrong numbers.  Each is
# (config, path, value), and the error names the path's top-level field.
_INTERVAL = _example(
    "doubling_circle", space={"family": "interval_grid", "resolution": 16}, schedule={"cycle": [[{"kind": "tent"}]]}
)
SCHEMA_VALID_BAD_VALUES = {
    "huge_circle": (_example("doubling_circle"), ("space", "resolution"), 2**40),
    "huge_alphabet": (_example("shift_pressure"), ("space", "alphabet_size"), 10**30),
    "huge_n": (_example("doubling_circle"), ("n_range", 1), 10**12),
    "eps_past_float_range": (_example("doubling_circle"), ("eps_list", 0), 10**400),
    "matrix_past_float_range": (_example("two_point_swap"), ("space", "distance_matrix", 0, 1), 10**400),
    "table_outside_target": (_example("four_point_quotient"), ("factor", "table", 3), 7),
    "negative_table_entry": (_example("four_point_quotient"), ("factor", "table", 3), -1),
    "nan_fiber_tol": (_example("four_point_quotient"), ("factor", "fiber_tol"), float("nan")),
    "nan_tol": (_example("four_point_quotient"), ("tol",), float("nan")),
    "negative_check_tol": (_example("four_point_quotient"), ("checks", 0, "tol"), -1.0),
    "rotation_without_angle": (_example("doubling_circle"), ("schedule", "cycle", 0, 0), {"kind": "rotation"}),
    # x -> 2x leaves [0, 1]
    "affine_clamped_out_of_range": (_INTERVAL, ("schedule", "cycle", 0, 0), {"kind": "affine_clamped", "params": [2.0, 0.0]}),
    # symbol 5 is outside the alphabet {0, 1}
    "substitution_out_of_alphabet": (
        _example("shift_pressure"), ("schedule", "cycle", 0, 0), {"kind": "symbol_substitution_table", "params": [0, 5]},
    ),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_VALID_BAD_VALUES))
def test_schema_valid_bad_values_are_config_errors(tmp_path, case):
    base, path, value = SCHEMA_VALID_BAD_VALUES[case]
    raw = _set(json.loads(json.dumps(base)), path, value)
    with pytest.raises(ConfigError, match=rf"config field \$\.{path[0]}\b"):
        ExperimentConfig.from_dict(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2


# factor values refused at the path they sit on: (example, path, value, message)
FACTOR_FIELD_ERRORS = {
    "huge_target": (
        "shift_to_doubling_factor", ("factor", "space", "resolution"), 2**40,
        "config field $.factor.space: the space has more than CLOUD_POINT_LIMIT = 262144 points",
    ),
    "target_map_off_its_space": (
        "four_point_quotient", ("factor", "schedule", "cycle", 0, 0), {"kind": "doubling"},
        "config field $.factor.schedule: map kind 'doubling' is not valid on a finite_explicit space",
    ),
}


@pytest.mark.parametrize("case", sorted(FACTOR_FIELD_ERRORS))
def test_factor_values_are_refused_at_their_path(tmp_path, capsys, case):
    name, path, value, message = FACTOR_FIELD_ERRORS[case]
    raw = _set(_example(name), path, value)
    with pytest.raises(ConfigError) as refused:
        ExperimentConfig.from_dict(raw)
    assert str(refused.value) == message
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"config error: {message}"


# table maps with entries that are not integers: unchecked, each entry is
# truncated toward zero and the config runs as another map ([1.9, 0.4] as
# the swap [1, 0])
def _substitution(table):
    return [{"kind": "shift"}, {"kind": "symbol_substitution_table", "params": table}]


# (example, path, bad value, field named, the value with integral floats)
NONINTEGRAL_TABLES = {
    "permutation": ("two_point_swap", ("schedule", "cycle", 0, 1, "params"), [1.9, 0.4], r"\$\.schedule", [1.0, 0.0]),
    "target_permutation": (
        "four_point_quotient", ("factor", "schedule", "cycle", 0, 1, "params"), [1.0, 0.5], r"\$\.factor\.schedule", [1.0, 0.0],
    ),
    "substitution": ("shift_pressure", ("schedule", "cycle", 0), _substitution([1.5, 0.2]), r"\$\.schedule", _substitution([1.0, 0.0])),
}


@pytest.mark.parametrize("case", sorted(NONINTEGRAL_TABLES))
def test_nonintegral_table_entries_are_config_errors(tmp_path, capsys, case):
    name, path, value, field, integral = NONINTEGRAL_TABLES[case]
    raw = _set(_example(name), path, value)
    with pytest.raises(ConfigError, match=field + r".*must be integers"):
        ExperimentConfig.from_dict(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "must be integers" in capsys.readouterr().err
    # integral floats still read as the table they spell
    ExperimentConfig.from_dict(_set(_example(name), path, integral))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_potential_params_are_config_errors(tmp_path, capsys, value):
    # unchecked, [nan, 1.0] ran to exit 0 and wrote log_avg=nan rows labelled exact
    raw = _example("two_point_swap", mode="estimate", potential={"kind": "explicit_table", "params": [value, 1.0]})
    raw.pop("checks", None)
    with pytest.raises(ConfigError, match=r"\$\.potential.*finite"):
        ExperimentConfig.from_dict(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_birkhoff_sums_are_a_runtime_error(tmp_path, capsys):
    # every param is finite, but the sums of n + 1 of them overflow to +-inf:
    # no partition sum can be reported, exact or not, and the refusal is the
    # only signal (no overflow warning)
    raw = _example("two_point_swap", mode="estimate", potential={"kind": "explicit_table", "params": [1e308, -1e308]})
    raw.pop("checks", None)
    # the basic-property check sums the potentials it derives, 2 * psi among them
    basic = _example("two_point_swap", potential={"kind": "explicit_table", "params": [1e308, 1e308]}, checks=[{"type": "basic"}])
    for config in (raw, basic):
        ExperimentConfig.from_dict(config)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "Birkhoff sums are not finite" in capsys.readouterr().err


def test_a_spanning_run_whose_least_cover_underflows_exits_0(tmp_path):
    # one ball covers both points; the lighter one's Birkhoff sum is -2000,
    # whose weight exp(-2000 - max S) is 0.0 in the frame of max S
    raw = dict(
        TINY_ESTIMATE,
        schedule={"prefix": [], "cycle": [[{"kind": "identity"}]]},
        potential={"kind": "explicit_table", "params": [0.0, -1000.0]},
        kind="spanning",
        n_range=[1, 1],
        eps_list=[1.0],
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = list(csv.DictReader((tmp_path / "out" / "pressure_curve.csv").read_text().splitlines()[1:]))
    assert [(r["log_avg"], r["method"], r["exact"]) for r in rows] == [("-2000.0", "exhaustive", "True")]


# check parameters that pass the schema but that no check can run with
BAD_CHECKS = {
    "zero_n": {"type": "basic", "n": 0},
    "p_above_one": {"type": "basic", "p": 1.5},
    "zero_eps": {"type": "basic", "eps": 0},
    "nan_eps": {"type": "basic", "eps": float("nan")},
    "infinite_c": {"type": "basic", "c": float("inf")},
    "i_after_j": {"type": "truncation", "i": 2, "j": 1},
    "j_past_n_limit": {"type": "truncation", "j": 2000},
    "reversed_m_range": {"type": "power", "m_range": [3, 1]},
    "power_past_n_limit": {"type": "power", "n": 600, "m_range": [1, 2]},
    "c_past_float_range": {"type": "basic", "c": 10**400},
    # two maps per generation: 2**25 and 2**21 words, more than WORD_ENUMERATION_CAP
    "basic_words_past_cap": {"type": "basic", "n": 25},
    "power_words_past_cap": {"type": "power", "n": 7, "m_range": [1, 3]},
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKS))
def test_bad_check_parameters_are_config_errors(tmp_path, case):
    raw = _example("two_point_swap", checks=[BAD_CHECKS[case]])
    with pytest.raises(ConfigError, match=r"\$\.checks\[0\]"):
        ExperimentConfig.from_dict(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["verify", str(cfg), "--out", str(tmp_path / "out")]) == 2


def _fiber_sample(count):
    raw = _example("four_point_quotient")
    raw["checks"][2]["fiber_sample"] = count
    return raw


# checks that cannot run as the config sets them up: refused at load time,
# not at run time (a fiber_sample below 1 once read as one sampled fiber)
CHECK_SETUP_ERRORS = {
    "zero_fiber_sample": (_fiber_sample(0), r"\$\.checks\[2\]\.fiber_sample: need fiber_sample >= 1, got 0"),
    "negative_fiber_sample": (_fiber_sample(-5), r"\$\.checks\[2\]\.fiber_sample: need fiber_sample >= 1, got -5"),
    "conjugacy_of_a_quotient": (
        _example("four_point_quotient", checks=[{"type": "conjugacy"}]),
        r"\$\.checks\[0\]: factor is not invertible: index table is not a bijection",
    ),
    "power_rule_of_a_negative_potential": (
        _example("two_point_swap", potential={"kind": "explicit_table", "params": [-1.0, 1.0]}),
        r"\$\.checks\[1\]: power-rule spanning transfer needs a nonnegative potential",
    ),
    "finite_projection_onto_fewer_points": (
        _example("four_point_quotient", factor=dict(EXAMPLE_CONFIGS["four_point_quotient"]["factor"], kind="coordinate_projection")),
        r"\$\.factor: coordinate_projection of a finite space needs a target cloud at least as large",
    ),
}


@pytest.mark.parametrize("case", sorted(CHECK_SETUP_ERRORS))
def test_checks_that_cannot_run_are_config_errors(tmp_path, case):
    raw, message = CHECK_SETUP_ERRORS[case]
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_dict(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_a_factor_that_is_no_semiconjugacy_reads_violated(tmp_path):
    # each factor inequality reports its failed premise in its place
    raw = _example("four_point_quotient")
    raw["factor"]["table"] = [1, 1, 0, 1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    rows = list(csv.DictReader((tmp_path / "out" / "verdicts.csv").read_text().splitlines()[1:]))
    assert [(r["theorem"], r["verdict"]) for r in rows] == [("factor/semiconjugacy", VIOLATED)] * 3


def test_conjugacy_check_runs_through_the_cli(tmp_path):
    # the swap system is conjugate to itself through the bijection x -> 1 - x
    system = {k: EXAMPLE_CONFIGS["two_point_swap"][k] for k in ("space", "schedule")}
    raw = _example(
        "two_point_swap",
        factor=dict(system, kind="index_table", table=[1, 0]),
        potential_target={"kind": "explicit_table", "params": [0, 1]},
        checks=[{"type": "conjugacy"}],
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["verify", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = list(csv.DictReader((tmp_path / "out" / "verdicts.csv").read_text().splitlines()[1:]))
    assert [r["theorem"] for r in rows] == ["factor/pullback-lower", "factor/pullback-lower", "factor/conjugacy-equality"]
    assert "direction='forward'" in rows[0]["context"] and "direction='backward'" in rows[1]["context"]
    assert [r["verdict"] for r in rows] == [HOLDS_WITHIN_TOL] * 3


def test_check_tol_is_refused_except_on_semiconjugacy(tmp_path, capsys):
    # every other check reads the config tol; its own tol would be ignored
    raw = _example("four_point_quotient")
    for chk in raw["checks"]:
        chk["tol"] = 1e-30
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["verify", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "$.checks[1].tol: only a semiconjugacy check takes its own tol" in capsys.readouterr().err
    for kind in ("basic", "power", "truncation", "equicontinuity", "factor_lower", "factor_upper", "conjugacy"):
        with pytest.raises(ConfigError, match=r"\$\.checks\[0\]\.tol"):
            ExperimentConfig.from_dict(_example("four_point_quotient", checks=[{"type": kind, "tol": 0.1}]))
    raw["checks"] = raw["checks"][:1]
    assert ExperimentConfig.from_dict(raw).checks[0]["tol"] == 1e-30


def test_truncation_words_past_the_cap_are_a_config_error(tmp_path):
    # 38**4 words of the net-counting length 4 at n_max = 6
    raw = _example("two_point_swap", checks=[{"type": "truncation"}], schedule={"prefix": [], "cycle": [[{"kind": "identity"}] * 38]})
    with pytest.raises(ConfigError, match=r"\$\.checks\[0\]\.j: the check enumerates 2085136 words"):
        ExperimentConfig.from_dict(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["verify", str(cfg), "--out", str(tmp_path / "out")]) == 2
    # 37**4 words fit
    raw["schedule"]["cycle"][0].pop()
    assert ExperimentConfig.from_dict(raw).checks[0]["type"] == "truncation"


def test_word_budget_past_the_cap_is_a_config_error(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "WORD_ENUMERATION_CAP", 10)
    raw = dict(TINY_ESTIMATE, word_budget=11)
    with pytest.raises(ConfigError, match=r"\$\.word_budget: need word_budget <= 10, got 11"):
        ExperimentConfig.from_dict(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert ExperimentConfig.from_dict(dict(raw, word_budget=10)).word_budget == 10


# configs whose mode or swept spaces cannot run: (command, example, changes, message)
MODE_ERRORS = {
    "verify_without_checks": ("verify", "doubling_circle", {}, r"\$\.checks: verify mode needs at least one check"),
    "sweep_without_resolutions": ("sweep", "doubling_circle", {}, r"\$\.sweep\.resolutions: sweep mode needs resolutions"),
    "sweep_of_a_finite_space": ("sweep", "two_point_swap", {"sweep": {"resolutions": [4]}}, r"\$\.sweep: finite_explicit"),
    "swept_resolution_below_two": ("sweep", "doubling_circle", {"sweep": {"resolutions": [64, 1]}}, r"\$\.sweep\.resolutions\[1\]: resolution must be >= 2"),
    "swept_space_past_point_limit": ("sweep", "doubling_circle", {"sweep": {"resolutions": [2**40]}}, r"\$\.sweep\.resolutions\[0\]: the space has more than"),
    "swept_alphabet_past_point_limit": ("sweep", "shift_pressure", {"sweep": {"resolutions": [10**400]}}, r"\$\.sweep\.resolutions\[0\]"),
    # n_max + log2(1/eps_min) = 3 + 3 words deep: $.space at depth 4 is refused too
    "swept_symbolic_depth_too_small": (
        "sweep", "shift_pressure", {"n_range": [1, 3], "sweep": {"resolutions": [4]}},
        r"\$\.sweep\.resolutions\[0\]: symbolic depth too small; need n_max \+ log2\(1/eps_min\) = 6 < resolution D = 4",
    ),
}


@pytest.mark.parametrize("case", sorted(MODE_ERRORS))
def test_mode_and_swept_space_errors_leave_no_output(tmp_path, case):
    command, name, changes, message = MODE_ERRORS[case]
    raw = _example(name, **changes)
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_dict(dict(raw, mode=command))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, name", [("run", "doubling_circle"), ("verify", "two_point_swap")])
def test_a_sweep_block_outside_sweep_mode_is_a_config_error(tmp_path, command, name, capsys):
    # resolutions that sweep mode would refuse: outside it they were never read
    raw = _example(name, sweep={"resolutions": [1, 2**40]})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    mode = "estimate" if command == "run" else "verify"
    assert f"config field $.sweep: only sweep mode reads a sweep block, and the mode is {mode!r}" in capsys.readouterr().err
    # in sweep mode the same block is read, and its first bad resolution named
    if name == "doubling_circle":
        with pytest.raises(ConfigError, match=r"\$\.sweep\.resolutions\[0\]: resolution must be >= 2"):
            ExperimentConfig.from_dict(dict(raw, mode="sweep"))


def test_a_sweep_builds_only_the_clouds_it_reads(tmp_path, monkeypatch):
    # the 4096-point $.space cloud is read by no sweep without a factor or a check
    built = []
    build = cli.build_cloud
    monkeypatch.setattr(cli, "build_cloud", lambda space: built.append(space.resolution) or build(space))
    raw = _example("doubling_circle", mode="sweep", n_range=[1, 2], sweep={"resolutions": [16, 32]}, output_dir=str(tmp_path / "s"))
    config = ExperimentConfig.from_dict(raw)
    assert config.cloud is None and built == []
    assert run(config) == 0 and built == [16, 32]
    # an estimate reads $.space, and so does a sweep whose check reads the cloud
    assert len(ExperimentConfig.from_dict({k: v for k, v in raw.items() if k != "sweep"} | {"mode": "estimate"}).cloud) == 4096
    checked = ExperimentConfig.from_dict(dict(raw, checks=[{"type": "power"}]))
    assert len(checked.cloud) == 4096 and built == [16, 32, 4096, 4096]


def test_check_parameters_are_parsed_with_defaults(tmp_path):
    raw = _example("two_point_swap", checks=[
        {"type": "basic", "n": 2.0}, {"type": "power", "n": 2.0, "m_range": [1.0, 2.0]}, {"type": "truncation"},
    ])
    basic, power, trunc = ExperimentConfig.from_dict(raw).checks
    assert basic == {"type": "basic", "tol": None, "n": 2, "eps": raw["eps_list"][-1], "p": 0.5, "c": 2.0}
    assert type(basic["n"]) is int and type(power["n"]) is int
    assert power["m_range"] == (1, 2) and all(type(m) is int for m in power["m_range"])
    assert (trunc["i"], trunc["j"]) == (1, 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["verify", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_integral_floats_read_as_integers():
    raw = _example("shift_pressure", n_range=[1.0, 3.0], word_budget=8.0, seed=5.0)
    raw["space"] = {"family": "symbolic_depth", "resolution": 8.0, "alphabet_size": 2.0}
    config = ExperimentConfig.from_dict(raw)
    assert len(config.cloud) == 256 and config.n_range == [1, 2, 3]
    assert (config.word_budget, config.seed) == (8, 5)
    assert all(type(v) is int for v in (config.word_budget, config.seed, config.cloud.space.resolution))


# ---------------------------------------------------------------------------
# fuzzing from_dict: a malformed config is a config error, never another one

# Most random JSON fails the schema, so a third of the mutations write a
# number: the schema passes integral floats as integers, integers past the
# float range overflow a float conversion, and sizes can be huge
_NUMBERS = (
    st.integers(-3, 40) | st.integers(-3, 40).map(float) | st.integers() | st.floats()
    | st.sampled_from([2**40, 10**30, 10**400])
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | _NUMBERS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _value_paths(node, prefix=()):
    """Paths to every value inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _value_paths(child, prefix + (key,))


@st.composite
def _mutated_configs(draw, bases=EXAMPLE_CONFIGS):
    raw = json.loads(json.dumps(bases[draw(st.sampled_from(sorted(bases)))]))
    for _ in range(draw(st.integers(1, 2))):
        action = draw(st.sampled_from(["drop", "json", "number"]))
        paths = list(_value_paths(raw))
        if action == "number":
            paths = [p for p in paths if isinstance(_get(raw, p), (int, float))] or paths
        path = draw(st.sampled_from(paths))
        parent = _get(raw, path[:-1])
        if action == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JSON if action == "json" else _NUMBERS)
    return raw


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_configs())
def test_fuzzed_configs_raise_only_config_error(raw):
    try:
        ExperimentConfig.from_dict(raw)
    except ConfigError:
        pass
    else:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(Path(tmp) / "out")]) == 2


# ---------------------------------------------------------------------------
# fuzzing configs that parse and run: each ends in one of four outcomes

_RUN_BASES = ("two_point_swap", "two_point_swap_sampled", "four_point_quotient")
# small counts keep every run short; the rest are edge values of a float
_RUN_NUMBERS = st.integers(-2, 6) | st.sampled_from([0.0, 0.25, 0.5, 2.0, 1e308, -1e308, math.inf, math.nan])
_RUN_KINDS = st.sampled_from(sorted({*MAP_KINDS, *POTENTIAL_KINDS, *FACTOR_KINDS, "separated", "spanning"}))
_CHECK_TYPES = ("basic", "power", "truncation", "equicontinuity", "semiconjugacy", "factor_lower", "factor_upper", "conjugacy")
_CHECK_PARAMS = ("n", "eps", "p", "c", "m_range", "i", "j", "fiber_sample")


@st.composite
def _perturbed_runs(draw):
    """A bundled finite example with one or two of its numbers, kinds or
    check parameters replaced."""
    raw = _example(draw(st.sampled_from(_RUN_BASES)))
    for _ in range(draw(st.integers(1, 2))):
        action = draw(st.sampled_from(["number", "kind", "check"]))
        if action == "check" and raw.get("checks"):
            chk = draw(st.sampled_from(raw["checks"]))
            key = draw(st.sampled_from(("type",) + _CHECK_PARAMS))
            if key == "type":
                chk[key] = draw(st.sampled_from(_CHECK_TYPES))
            else:
                chk[key] = [draw(_RUN_NUMBERS), draw(_RUN_NUMBERS)] if key == "m_range" else draw(_RUN_NUMBERS)
        elif action == "kind":
            paths = [p for p in _value_paths(raw) if p[-1] == "kind"] + [("kind",)]
            _set(raw, draw(st.sampled_from(paths)), draw(_RUN_KINDS))
        else:
            paths = [p for p in _value_paths(raw) if type(_get(raw, p)) in (int, float)]
            _set(raw, draw(st.sampled_from(paths)), draw(_RUN_NUMBERS))
    return raw


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_perturbed_runs())
@example(_example("four_point_quotient", checks=[{"type": "factor_upper", "fiber_sample": 0}]))
def test_perturbed_configs_run_to_a_documented_outcome(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path, out, err = Path(tmp) / "cfg.json", Path(tmp) / "out", io.StringIO()
        path.write_text(json.dumps(raw))
        with contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--out", str(out)])
        # the verdicts file opens with a seed line, then the CSV header
        verdicts = [row["verdict"] for row in csv.DictReader((out / "verdicts.csv").read_text().splitlines()[1:])] if code == 1 else []
    message = err.getvalue()
    if code == 1:
        assert VIOLATED in verdicts, message
    elif code == 2:
        assert "config error: config field $" in message, message
    elif code == 3:
        assert "the Birkhoff sums are not finite" in message, message
    else:
        assert code == 0, message


def test_catalogs_and_schema_list_the_kinds_in_their_source_order():
    from naifslab import catalog, naifs, pressure, space

    assert tuple(catalog.MAP_CATALOG) == naifs.MAP_KINDS
    assert tuple(catalog.SPACE_CATALOG) == space.FAMILIES
    assert tuple(catalog.POTENTIAL_CATALOG) == space.POTENTIAL_KINDS
    props = cli.CONFIG_SCHEMA["properties"]
    assert tuple(props["factor"]["properties"]["kind"]["enum"]) == naifs.FACTOR_KINDS
    assert tuple(props["kind"]["enum"]) == pressure.KINDS


# ---------------------------------------------------------------------------
# the schema walker against a JSON Schema engine

# every config the benchmark workloads parse (finite_suite parses none)
WORKLOAD_CONFIGS = {
    "circle_estimate": circle_config(3),
    "factor_verify": factor_config(3),
    **{f"explicit_spanning_bb[{i}]": raw for i, raw in enumerate(explicit_spanning_configs(3))},
}

# values a JSON document cannot hold, holds as another type, or holds at a
# bound of the schema
_CONFUSING = st.sampled_from([
    True, False, np.int64(3), np.int64(0), np.float64(2.0), np.float64(0.5), Fraction(3, 2), Fraction(4, 2),
    math.nan, math.inf, -math.inf, [], {}, (), (1, 2), "x", 0, [1, 2, 3],
])


@st.composite
def _confused_configs(draw):
    """A mutated example or workload config, then up to three type
    confusions: a confusing value, a list turned tuple or emptied, or an
    unknown (or known) key added to an object."""
    raw = draw(_mutated_configs(dict(EXAMPLE_CONFIGS, **WORKLOAD_CONFIGS)))
    for _ in range(draw(st.integers(0, 3))):
        paths = [()] + list(_value_paths(raw))
        # shallow paths are a small share of a 24-point config's paths
        if draw(st.booleans()):
            paths = [p for p in paths if len(p) <= 2]
        path = draw(st.sampled_from(paths))
        node = _get(raw, path)
        action = draw(st.sampled_from(["value", "tuple", "empty", "key"]))
        if action == "key" and isinstance(node, dict):
            node[draw(st.sampled_from(["extra", "Kind", "x.y", "", "seed", "params"]))] = draw(_CONFUSING)
        elif action == "tuple" and isinstance(node, list) and path:
            _set(raw, path, tuple(node))
        elif action == "empty" and path:
            _set(raw, path, [])
        elif action == "value" and path:
            _set(raw, path, draw(_CONFUSING))
    return raw


def _walker_error(raw):
    try:
        cli._schema_check(raw)
    except ConfigError as e:
        return str(e)
    return None


def test_config_schema_uses_only_the_keywords_the_walker_reads():
    seen = set()

    def visit(schema):
        seen.update(schema)
        assert all(isinstance(v, str) for v in schema.get("enum", []))
        assert schema.get("additionalProperties", False) is False
        for sub in schema.get("properties", {}).values():
            visit(sub)
        if "items" in schema:
            visit(schema["items"])

    visit(cli.CONFIG_SCHEMA)
    assert seen == {
        "$schema", "type", "enum", "properties", "required", "additionalProperties", "items", "minItems", "maxItems", "minimum",
    }


@pytest.mark.parametrize("name", sorted(EXAMPLE_CONFIGS) + sorted(WORKLOAD_CONFIGS))
def test_bundled_and_workload_configs_validate_clean(name):
    raw = EXAMPLE_CONFIGS.get(name) or WORKLOAD_CONFIGS[name]
    assert _walker_error(raw) is None


_DROP = object()


@pytest.mark.parametrize("change, message", [
    ({"seed": "x"}, "$.seed: 'x' is not of type 'integer'"),
    ({"seed": True}, "$.seed: True is not of type 'integer'"),
    ({"seed": np.int64(3)}, "$.seed: np.int64(3) is not of type 'integer'"),
    ({"seed": 3.5}, "$.seed: 3.5 is not of type 'integer'"),
    ({"eps_list": (0.5,)}, "$.eps_list: (0.5,) is not of type 'array'"),
    ({"eps_list": []}, "$.eps_list: [] should be non-empty"),
    ({"n_range": [1, 2, 3]}, "$.n_range: [1, 2, 3] is too long"),
    ({"word_budget": 0}, "$.word_budget: 0 is less than the minimum of 1"),
    ({"mode": "run"}, "$.mode: 'run' is not one of ['estimate', 'verify', 'sweep']"),
    ({"extra": 1, "seed": _DROP}, "$: 'seed' is a required property"),
    ({"extra": 1, "another": 2}, "$: Additional properties are not allowed ('another', 'extra' were unexpected)"),
    # the least json path as a string: [10] sorts before [2]
    ({"schedule": {"cycle": [[{"kind": "permutation_table", "params": [1, 0] + [0] * 8 + ["a"]}]], "prefix": 1}},
     "$.schedule.cycle[0][0].params[10]: 'a' is not of type 'number'"),
    # random.Random(-3) would draw the words of seed 3
    ({"seed": -3}, "$.seed: -3 is less than the minimum of 0"),
])
def test_schema_errors_name_the_least_path(change, message):
    raw = {k: v for k, v in _example("two_point_swap", **change).items() if v is not _DROP}
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(raw)
    assert str(info.value) == "config field " + message


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_confused_configs())
# each bound of the schema, just past it
@example(_example("two_point_swap", word_budget=0))
@example(_example("two_point_swap", seed=-1))
@example(_example("two_point_swap", n_range=[1]))
@example(_example("two_point_swap", n_range=[1, 2, 3]))
@example(_example("two_point_swap", eps_list=[]))
def test_schema_walker_agrees_with_a_draft_2020_12_validator(raw):
    import jsonschema

    errors = sorted(jsonschema.Draft202012Validator(cli.CONFIG_SCHEMA).iter_errors(raw), key=lambda e: e.json_path)
    got = _walker_error(raw)
    if not errors:
        assert got is None
    else:
        assert got is not None and got.startswith(f"config field {errors[0].json_path}: ")


# a config parsed and run with the jsonschema package unimportable, then a
# config with a bad seed; prints the bad run's exit code
_WITHOUT_JSONSCHEMA = """
import json, sys
sys.modules["jsonschema"] = None
from naifslab.catalog import EXAMPLE_CONFIGS
from naifslab.cli import ExperimentConfig, main
for raw in EXAMPLE_CONFIGS.values():
    ExperimentConfig.from_dict(json.loads(json.dumps(raw)))
out = sys.argv[1]
assert main(["run", "two_point_swap", "--out", out + "/run"]) == 0
with open(out + "/bad.json", "w") as f:
    json.dump(dict(EXAMPLE_CONFIGS["two_point_swap"], seed="x"), f)
print(main(["run", out + "/bad.json", "--out", out + "/bad"]))
"""


def _python(code, *args):
    # the child imports the package this suite imported
    import naifslab

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(naifslab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)


def test_configs_load_and_run_without_jsonschema(tmp_path):
    out = _python(_WITHOUT_JSONSCHEMA, str(tmp_path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "2"
    assert "config error: config field $.seed: 'x' is not of type 'integer'" in out.stderr
    assert (tmp_path / "run" / "verdicts.csv").exists() and not (tmp_path / "bad").exists()


def test_parsing_a_config_imports_no_jsonschema():
    code = (
        "import sys\n"
        "from naifslab.catalog import EXAMPLE_CONFIGS\n"
        "from naifslab.cli import ExperimentConfig\n"
        "ExperimentConfig.from_dict(dict(EXAMPLE_CONFIGS['two_point_swap']))\n"
        "print('jsonschema' in sys.modules)\n"
    )
    out = _python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# the two factor verifications, each followed by whether numpy.random is loaded
_FACTOR_RUNS_WITHOUT_NUMPY_RANDOM = """
import json, sys
from naifslab.catalog import EXAMPLE_CONFIGS
from naifslab.cli import main
out = sys.argv[1]
print(main(["verify", "four_point_quotient", "--out", out + "/q"]), "numpy.random" in sys.modules)
raw = json.loads(json.dumps(EXAMPLE_CONFIGS["shift_to_doubling_factor"]))
raw["space"]["resolution"], raw["factor"]["space"]["resolution"], raw["n_range"] = 10, 256, [1, 3]
with open(out + "/factor.json", "w") as f:
    json.dump(raw, f)
print(main(["run", out + "/factor.json", "--out", out + "/f"]), "numpy.random" in sys.modules)
"""


def test_factor_verification_loads_no_numpy_random(tmp_path):
    # the 1024-point source cloud has more than PAIR_CAP point pairs; no
    # factor check samples them
    out = _python(_FACTOR_RUNS_WITHOUT_NUMPY_RANDOM, str(tmp_path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["0 False", "0 False"]
    assert b"factor/fiber-upper" in (tmp_path / "f" / "verdicts.csv").read_bytes()
