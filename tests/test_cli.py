import json
import math
from pathlib import Path

import pytest

from naifslab.catalog import EXAMPLE_CONFIGS, list_builtin
from naifslab.cli import ConfigError, ExperimentConfig, main, run

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
