"""Each script in scripts/ runs at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# script name -> (its arguments at a small size, a line its output holds);
# {tmp} is a scratch directory
SMALL_RUNS = {
    "doubling_entropy.py": (["--resolutions", "64", "--n-max", "2"], "  estimate=0.693147 (error 0.00%)"),
    "finite_suite.py": (["--count", "2", "--out", "{tmp}/finite_suite.csv"], "2 instances in"),
}


def test_every_script_has_a_small_run():
    assert sorted(path.name for path in SCRIPTS.glob("*.py")) == sorted(SMALL_RUNS)


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_script_runs_at_a_small_size(name, tmp_path):
    # the child imports the package this suite imported
    import naifslab

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(naifslab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    args, line = SMALL_RUNS[name]
    args = [arg.format(tmp=tmp_path) for arg in args]
    out = subprocess.run([sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert any(got.startswith(line) for got in out.stdout.splitlines()), out.stdout
