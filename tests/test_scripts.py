"""The scripts under scripts/ run to completion on small inputs, and its
config files parse and run."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semicon import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("run_synthetic.py", ["--reps", "1", "--per-class", "5"]),
    ("label_budget.py", ["--stream-length", "300", "--sizes", "20",
                         "--trials", "10"]),
])
def test_script_exits_zero(script, args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr


def test_script_configs_parse_and_alpha_sweep_runs(tmp_path):
    configs = sorted((ROOT / "scripts").glob("*.cfg"))
    assert configs
    for path in configs:
        cli.parse_config_file(str(path))
    path = str(ROOT / "scripts" / "alpha_sweep.cfg")
    # the published grid: np.logspace(-1.5, 0.75, 10) at 6 significant digits
    grid = cli.parse_config_file(path)["sweep_alpha"]
    assert grid == [float(f"{a:.6g}") for a in np.logspace(-1.5, 0.75, 10)]
    out = str(tmp_path / "out")
    assert cli.main(["run", path, "--reps", "1", "--out", out]) == 0
    assert cli.main(["plot-data", out]) == 0
    names = sorted(p.name for p in (tmp_path / "out").glob("*.report.jsonl"))
    assert names == sorted(f"ours-alpha{a:g}-rep0.report.jsonl" for a in grid)
    rows = (tmp_path / "out" / "accuracy_vs_alpha.csv").read_text().splitlines()
    assert rows[0] == "method,alpha,mean_final_avg,std_final_avg,reps"
    assert [r.split(",")[1] for r in rows[1:]] == [f"{a:g}" for a in grid]
