"""The scripts under scripts/ run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("run_synthetic.py", ["--reps", "1", "--per-class", "5"]),
    ("label_budget.py", ["--stream-length", "300", "--sizes", "20",
                         "--trials", "10"]),
    ("sweep_alpha.py", ["--points", "2", "--reps", "1", "--out", "{tmp}"]),
])
def test_script_exits_zero(script, args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [a.format(tmp=tmp_path / "out") for a in args]
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
