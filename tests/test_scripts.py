"""The scripts under scripts/ run to completion on small inputs, its
config files parse and run, and README's commands name what exists."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semicon import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("label_budget.py", ["--stream-length", "300", "--sizes", "20"]),
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


def test_methods_config_runs_every_method_on_the_same_seeds(tmp_path):
    path = str(ROOT / "scripts" / "methods.cfg")
    methods = ["ours", "scr", "scr-mo", "er", "er-mo", "finetune", "offline"]
    assert cli.parse_config_file(path)["method"] == methods
    out = tmp_path / "out"
    assert cli.main(["run", path, "--reps", "1", "--out", str(out)]) == 0
    names = sorted(p.name for p in out.glob("*.report.jsonl"))
    assert names == sorted(f"{m}-rep0.report.jsonl" for m in methods)
    rows = (out / "aggregate.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == methods
    assert cli.main(["plot-data", str(out)]) == 0
    rows = (out / "relative_vs_label_fraction.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["ours", "scr-mo"]


def readme_commands():
    """Each command of README's sh blocks as a token list, comments
    dropped and `&&` chains split."""
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for line in block.splitlines():
            tokens = shlex.split(line, comments=True)
            while tokens:
                end = tokens.index("&&") if "&&" in tokens else len(tokens)
                commands.append(tokens[:end])
                tokens = tokens[end + 1:]
    return commands


def test_readme_commands_parse_and_name_existing_files():
    """Every `semicon` command but a synopsis (a line with a [placeholder])
    parses, a `run` also validates every config it would train, and every
    script README runs exists. Nothing is trained."""
    seen = set()
    for tokens in readme_commands():
        if tokens[:1] == ["semicon"] and not any("[" in t for t in tokens):
            args = cli._build_parser().parse_args(tokens[1:])
            seen.add(args.command)
            if args.command != "run":
                continue
            if args.config is not None:
                args.config = str(ROOT / args.config)
            cli._plan(cli._merge_config(args))
        elif tokens[0] == "python3" and tokens[1].startswith("scripts/"):
            seen.add(tokens[1])
            assert (ROOT / tokens[1]).is_file(), tokens
    assert {"run", "plot-data"} <= seen
