import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from naifslab import Potential, SpaceSpec
from naifslab.catalog import EXAMPLE_CONFIGS, list_builtin
import naifslab.cli as cli
from naifslab.cli import ConfigError, ExperimentConfig, main, run
from naifslab.space import eval_potential_batch
from oracles import eval_potential

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
    assert main(["run", str(path), "--workers", "1"]) == 2
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
    files = sorted(p.name for p in (tmp_path / "s").glob("*.csv"))
    assert files == [
        "pressure_curve_r32_e0.csv",
        "pressure_curve_r32_e1.csv",
        "pressure_curve_r64_e0.csv",
        "pressure_curve_r64_e1.csv",
        "sweep_summary.csv",
    ]


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
    assert main(["run", "two_point_swap_sampled", "--out", str(tmp_path / "a"), "--workers", "1"]) == 0
    text = (tmp_path / "a" / "estimate.txt").read_text()
    value = float(text.split("final_estimate = ")[1].splitlines()[0])
    assert abs(value) < 1e-9


def test_seed_override_changes_output_header(tmp_path):
    assert main(["run", "two_point_swap_sampled", "--out", str(tmp_path / "b"), "--seed", "99", "--workers", "1"]) == 0
    assert (tmp_path / "b" / "pressure_curve.csv").read_text().splitlines()[0] == "# seed=99"


def test_determinism_same_seed_byte_identical(tmp_path):
    for d in ("r1", "r2"):
        assert main(["run", "two_point_swap_sampled", "--out", str(tmp_path / d), "--workers", "1"]) == 0
    a = (tmp_path / "r1" / "pressure_curve.csv").read_bytes()
    b = (tmp_path / "r2" / "pressure_curve.csv").read_bytes()
    assert a == b


def test_workers_flag_preserves_bytes(tmp_path):
    for d, workers in (("w1", "1"), ("w2", "2")):
        assert main(["run", "two_point_swap_sampled", "--out", str(tmp_path / d), "--workers", workers]) == 0
    a = (tmp_path / "w1" / "pressure_curve.csv").read_bytes()
    b = (tmp_path / "w2" / "pressure_curve.csv").read_bytes()
    assert a == b


def test_main_runs_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY_ESTIMATE, output_dir=str(tmp_path / "out"))))
    assert main(["run", str(path), "--workers", "1"]) == 0
    assert (tmp_path / "out" / "estimate.txt").exists()


def test_config_workers_reach_run(tmp_path, monkeypatch):
    import naifslab.cli as cli

    seen = []
    monkeypatch.setattr(cli, "run", lambda config: seen.append(config.workers) or 0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY_ESTIMATE, workers=3, output_dir=str(tmp_path / "out"))))
    assert main(["run", str(path)]) == 0
    assert main(["run", str(path), "--workers", "2"]) == 0
    assert seen == [3, 2]


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
    assert main(["run", str(path), "--workers", "1"]) == 2
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
# they raise other errors, exhaust memory or run with wrong numbers
SCHEMA_VALID_BAD_VALUES = {
    "huge_circle": ("doubling_circle", ("space", "resolution"), 2**40),
    "huge_alphabet": ("shift_pressure", ("space", "alphabet_size"), 10**30),
    "huge_n": ("doubling_circle", ("n_range", 1), 10**12),
    "eps_past_float_range": ("doubling_circle", ("eps_list", 0), 10**400),
    "matrix_past_float_range": ("two_point_swap", ("space", "distance_matrix", 0, 1), 10**400),
    "table_outside_target": ("four_point_quotient", ("factor", "table", 3), 7),
    "negative_table_entry": ("four_point_quotient", ("factor", "table", 3), -1),
    "nan_fiber_tol": ("four_point_quotient", ("factor", "fiber_tol"), float("nan")),
    "nan_tol": ("four_point_quotient", ("tol",), float("nan")),
    "negative_check_tol": ("four_point_quotient", ("checks", 0, "tol"), -1.0),
    "rotation_without_angle": ("doubling_circle", ("schedule", "cycle", 0, 0), {"kind": "rotation"}),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_VALID_BAD_VALUES))
def test_schema_valid_bad_values_are_config_errors(tmp_path, case):
    name, path, value = SCHEMA_VALID_BAD_VALUES[case]
    raw = _set(_example(name), path, value)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2


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
    ExperimentConfig.from_dict(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "Birkhoff sums are not finite" in capsys.readouterr().err


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
    raw = _example("shift_pressure", n_range=[1.0, 3.0], word_budget=8.0, seed=5.0, workers=1.0)
    raw["space"] = {"family": "symbolic_depth", "resolution": 8.0, "alphabet_size": 2.0}
    config = ExperimentConfig.from_dict(raw)
    assert len(config.cloud) == 256 and config.n_range == [1, 2, 3]
    assert (config.word_budget, config.seed, config.workers) == (8, 5, 1)
    assert all(type(v) is int for v in (config.word_budget, config.seed, config.workers, config.cloud.space.resolution))


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
def _mutated_configs(draw):
    raw = _example(draw(st.sampled_from(sorted(EXAMPLE_CONFIGS))))
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


def test_catalogs_and_schema_list_the_kinds_in_their_source_order():
    from naifslab import catalog, naifs, pressure, space

    assert tuple(catalog.MAP_CATALOG) == naifs.MAP_KINDS
    assert tuple(catalog.SPACE_CATALOG) == space.FAMILIES
    assert tuple(catalog.POTENTIAL_CATALOG) == space.POTENTIAL_KINDS
    props = cli.CONFIG_SCHEMA["properties"]
    assert tuple(props["factor"]["properties"]["kind"]["enum"]) == naifs.FACTOR_KINDS
    assert tuple(props["kind"]["enum"]) == pressure.KINDS
