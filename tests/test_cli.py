"""Command line: config parsing, runs, sweeps, tables, exit codes."""

import csv
import json
import os
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from semicon import cli
from semicon.errors import ConfigError
from semicon.reports import (
    RunReport,
    canonical_json,
    read_reports,
    to_json,
    write_reports,
)
from semicon.trainers import TrainConfig

SRC = Path(__file__).resolve().parent.parent / "src"


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

def test_config_file_parses_types(tmp_path):
    path = write_cfg(tmp_path, """
# experiment settings
method = ours ,scr-mo
alpha = 0.5   # inline comment
reps = 3
sweep_mem_batch = 10, 20, 50
""")
    cfg = cli.parse_config_file(path)
    assert cfg == {"method": ["ours", "scr-mo"], "alpha": 0.5, "reps": 3,
                   "sweep_mem_batch": [10, 20, 50]}


def test_config_file_rejects_unknown_key(tmp_path):
    path = write_cfg(tmp_path, "method = ours\nmomentum = 0.9\n")
    with pytest.raises(ConfigError, match=r":2: unknown key 'momentum'"):
        cli.parse_config_file(path)


def test_config_file_rejects_duplicate_key(tmp_path):
    path = write_cfg(tmp_path, "seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match=r":2: duplicate key"):
        cli.parse_config_file(path)


def test_config_file_rejects_bad_value(tmp_path):
    path = write_cfg(tmp_path, "alpha = fast\n")
    with pytest.raises(ConfigError, match=r":1: bad value for alpha"):
        cli.parse_config_file(path)


def test_config_file_rejects_bare_line(tmp_path):
    path = write_cfg(tmp_path, "method\n")
    with pytest.raises(ConfigError, match=r":1: expected key = value"):
        cli.parse_config_file(path)


def test_missing_config_file_is_config_error(capsys):
    assert cli.main(["run", "/nonexistent/run.cfg"]) == 1
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------

def run_cli(*argv):
    return cli.main(list(argv))


def small_args(out, extra=()):
    return [
        "run", "--method", "ours", "--mem-size", "30", "--mem-batch", "10",
        "--seed", "3", "--out", out, *extra,
    ]


def test_single_run_writes_one_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path / "reports")
    assert run_cli(*small_args(out)) == 0
    reports = read_reports(tmp_path / "reports" / "ours-rep0.report.jsonl")
    assert len(reports) == 1
    assert reports[0].config["method"] == "ours"
    assert reports[0].config["mem_size"] == 30
    assert 0 < reports[0].label_fraction <= 1


def test_flags_override_config_file(tmp_path):
    path = write_cfg(tmp_path, "method = ours\nseed = 1\nmem_size = 30\n"
                               "mem_batch = 10\nper_class = 10\n")
    out = str(tmp_path / "r")
    assert run_cli("run", path, "--seed", "7", "--out", out) == 0
    rep = read_reports(tmp_path / "r" / "ours-rep0.report.jsonl")[0]
    assert rep.config["seed"] == 7


def test_reps_write_aggregate_with_sample_std(tmp_path):
    out = str(tmp_path / "r")
    assert run_cli(*small_args(out, ["--reps", "3"])) == 0
    files = sorted(p.name for p in (tmp_path / "r").glob("*.report.jsonl"))
    assert files == [f"ours-rep{i}.report.jsonl" for i in range(3)]
    finals = [read_reports(tmp_path / "r" / f)[0].final_avg for f in files]
    rows = read_csv(tmp_path / "r" / "aggregate.csv")
    assert rows[0] == ["method", "run", "mean_final_avg", "std_final_avg",
                       "mean_label_fraction", "reps"]
    assert rows[1][:2] == ["ours", "single"]
    assert float(rows[1][2]) == pytest.approx(np.mean(finals), abs=1e-6)
    assert float(rows[1][3]) == pytest.approx(statistics.stdev(finals),
                                              abs=1e-6)
    assert rows[1][5] == "3"


def test_reps_vary_seed_and_stream(tmp_path):
    out = str(tmp_path / "r")
    assert run_cli(*small_args(out, ["--reps", "2"])) == 0
    a, b = (read_reports(tmp_path / "r" / f"ours-rep{i}.report.jsonl")[0]
            for i in range(2))
    assert a.config["seed"] == 3 and b.config["seed"] == 4
    assert a.accuracy != b.accuracy


def canonical_reports(out):
    return {p.name: canonical_json(read_reports(p)[0])
            for p in sorted(out.glob("*.report.jsonl"))}


def test_method_list_runs_each_method_as_its_own_run(tmp_path):
    methods = ["ours", "scr-mo", "er-mo", "finetune"]
    mem = ["--mem-size", "30", "--mem-batch", "10"]
    out = tmp_path / "all"
    assert run_cli("run", "--method", ", ".join(methods), *mem, "--seed", "3",
                   "--reps", "2", "--out", str(out)) == 0
    together = canonical_reports(out)
    alone = {}
    for method in methods:
        # the memory keys do not apply to finetune, so a run of it alone
        # cannot set them
        flags = [] if method == "finetune" else mem
        assert run_cli("run", "--method", method, *flags, "--seed", "3",
                       "--reps", "2", "--out", str(tmp_path / method)) == 0
        alone.update(canonical_reports(tmp_path / method))
    assert together == alone
    assert sorted(together) == sorted(f"{m}-rep{r}.report.jsonl"
                                      for m in methods for r in range(2))
    reports = {name: read_reports(out / name)[0] for name in together}
    assert reports["finetune-rep0.report.jsonl"].config["mem_size"] is None
    for rep in range(2):
        # one stream and one reservoir seed per repetition: the budgeted
        # methods buy the same labels
        calls = {reports[f"{m}-rep{rep}.report.jsonl"].oracle_calls
                 for m in ("ours", "scr-mo", "er-mo")}
        assert len(calls) == 1
    rows = read_csv(out / "aggregate.csv")
    assert [r[:2] for r in rows[1:]] == [[m, "single"] for m in methods]


@pytest.mark.parametrize("text, message", [
    ("method = ours, er\nepochs = 3", "epochs does not apply to ours, er"),
    ("method = ours, scr\nsweep_alpha = 0.5, 1", "alpha does not apply to scr"),
    ("method = ours, ours", "method ours is listed twice"),
], ids=["key_for_no_method", "sweep_key_beside_scr", "listed_twice"])
def test_bad_method_list_is_config_error(tmp_path, capsys, monkeypatch, text,
                                         message):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["run", write_cfg(tmp_path, text + "\n")])
    err = capsys.readouterr().err
    assert_rejected_cleanly(tmp_path, code, err, 1)
    assert message in err


def test_report_is_the_same_under_any_blas_thread_count(tmp_path):
    """`semicon run` pins one BLAS thread unless the caller sets a count.
    This config's outcome changes with the BLAS thread count, so a run
    with the thread variables unset must match one run at one thread.
    On a 1-core machine BLAS runs one thread either way, and the test
    passes trivially."""
    path = write_cfg(tmp_path, "n_classes = 10\ndim = 32\nper_class = 200\n"
                               "n_tasks = 5\n")
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    unset = {k: v for k, v in os.environ.items() if k not in blas}
    unset["PYTHONPATH"] = str(SRC)
    one = {**unset, **dict.fromkeys(blas, "1")}
    for name, env in [("unset", unset), ("one", one)]:
        done = subprocess.run(
            [sys.executable, "-m", "semicon.cli", "run", path,
             "--out", str(tmp_path / name)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
    assert canonical_reports(tmp_path / "unset") == \
        canonical_reports(tmp_path / "one")


# per sweep axis: the values a config lists, as report names and the
# plot-data table print them (%g), and as aggregate.csv does (str)
SWEEP_CASES = {
    "alpha": ("0.1, 1.0", ["0.1", "1"], ["0.1", "1.0"]),
    "mem_batch": ("5, 10", ["5", "10"], ["5", "10"]),
}


@pytest.mark.parametrize("axis", sorted(cli.SWEEPS))
def test_sweep_from_config(tmp_path, axis):
    values, printed, in_aggregate = SWEEP_CASES[axis]
    path = write_cfg(tmp_path, f"""
method = ours
mem_size = 30
mem_batch = 10
per_class = 10
sweep_{axis} = {values}
reps = 2
""")
    out = tmp_path / "sweep"
    assert run_cli("run", path, "--out", str(out)) == 0
    names = sorted(p.name for p in out.glob("*.jsonl"))
    assert names == sorted(f"ours-{axis}{v}-rep{r}.report.jsonl"
                           for v in printed for r in range(2))
    rows = read_csv(out / "aggregate.csv")
    assert rows[0] == ["method", axis, "mean_final_avg", "std_final_avg",
                       "mean_label_fraction", "reps"]
    assert [r[:2] for r in rows[1:]] == [["ours", v] for v in in_aggregate]
    assert run_cli("plot-data", str(out)) == 0
    # the other axes hold one value here, too few for a curve
    assert [p.name for p in out.glob("accuracy_vs_*.csv")] == \
        [f"accuracy_vs_{axis}.csv"]
    rows = read_csv(out / f"accuracy_vs_{axis}.csv")
    assert rows[0] == ["method", axis, "mean_final_avg", "std_final_avg", "reps"]
    assert [(r[0], r[1], r[4]) for r in rows[1:]] == \
        [("ours", v, "2") for v in printed]


def test_exclusive_sweep_axes(tmp_path, capsys):
    path = write_cfg(tmp_path, "sweep_alpha = 0.1\nsweep_mem_batch = 10\n")
    assert cli.main(["run", path]) == 1
    err = capsys.readouterr().err
    assert "at most one sweep key" in err
    assert "sweep_alpha" in err and "sweep_mem_batch" in err


def test_alpha_on_wrong_method_is_config_error(capsys):
    assert cli.main(["run", "--method", "scr", "--alpha", "0.5"]) == 1
    assert "alpha does not apply" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["--tau=-1", "--tau=inf", "--alpha=-0.5",
                                     "--alpha=nan", "--alpha=inf", "--lr=inf"])
def test_bad_loss_setting_is_config_error(tmp_path, capsys, monkeypatch,
                                          setting):
    monkeypatch.chdir(tmp_path)
    if not setting.startswith("--"):
        setting = write_cfg(tmp_path, setting + "\n")
    assert cli.main(["run", "--method", "ours", setting]) == 1
    assert "config error:" in capsys.readouterr().err


def test_unknown_flag_is_config_error(capsys):
    assert cli.main(["run", "--per-class", "10"]) == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_dataset_is_config_error(capsys):
    assert cli.main(["run", "--dataset", "imagenet"]) == 1
    assert "unknown dataset" in capsys.readouterr().err


def assert_rejected_cleanly(tmp_path, code, err, expected):
    """Exit `expected` (1 config error, 2 data error) with its message prefix,
    no traceback, and no default output directory."""
    prefix = {1: "config error:", 2: "data error:"}[expected]
    assert code == expected and err.startswith(prefix), err
    assert "Traceback" not in err
    assert not (tmp_path / "reports").exists()


# config files that a rejected run reads, by name
REJECTED_CFGS = {
    # the last sweep point is the bad one: every point is checked first
    "sweep.cfg": "sweep_alpha = 0.5, -1\n",
    "tasks.cfg": "n_tasks = 3\n",  # 4 classes do not split into 3 tasks
    "cifar.cfg": ("dataset = cifar10\n"
                  "data_path = missing.bin\ntest_path = missing.bin\n"),
    # a synthetic key on CIFAR: a config error, so its missing files are
    # never read (reading one would be a data error, exit 2)
    "cifar_per_class.cfg": ("dataset = cifar10\nper_class = 1\n"
                            "data_path = missing.bin\ntest_path = missing.bin\n"),
}

REJECTED = [(["--tau", "-1"], 1), (["--dataset", "cifar10"], 1),
            (["sweep.cfg"], 1), (["--tau", "inf"], 1), (["--alpha", "nan"], 1),
            (["--alpha", "inf"], 1), (["--lr", "inf"], 1), (["tasks.cfg"], 1),
            (["cifar.cfg"], 2), (["--out", "sweep.cfg/sub"], 1),
            (["cifar_per_class.cfg"], 1)]


@pytest.mark.parametrize("args, expected", REJECTED,
                         ids=[f"args{i}" for i in range(len(REJECTED))])
def test_rejected_run_leaves_no_output_dir(tmp_path, capsys, monkeypatch, args,
                                           expected):
    monkeypatch.chdir(tmp_path)
    for name in REJECTED_CFGS.keys() & {arg.split("/")[0] for arg in args}:
        write_cfg(tmp_path, REJECTED_CFGS[name], name=name)
    code = cli.main(["run", *args])
    assert_rejected_cleanly(tmp_path, code, capsys.readouterr().err, expected)


# config keys a run takes with any value, and why
ANY_VALUE = {}

# one invalid setting per other config key, and the exit code it gets
INVALID = {
    # the dataset is synthetic: it reads no file
    "data_path": ("data_path = /nonexistent/train.bin", 1),
    "test_path": ("test_path = /nonexistent/test.bin", 1),
    "out": ("out = run.cfg", 1),  # the config file itself: not a directory
    "method": ("method = sgd", 1),
    "dataset": ("dataset = imagenet", 1),
    "reps": ("reps = 0", 1),
    "seed": ("seed = -1", 1),
    "alpha": ("alpha = -0.5", 1),
    "tau": ("tau = -1", 1),
    "stream_batch": ("stream_batch = 0", 1),
    "mem_batch": ("mem_batch = 0", 1),
    "mem_size": ("mem_size = 0", 1),
    "epochs": ("method = offline\nepochs = 0", 1),
    "lr": ("lr = 0", 1),
    "loss_trace": ("loss_trace = yes", 1),
    "sweep_alpha": ("sweep_alpha = 0.5, nan", 1),
    "sweep_mem_batch": ("sweep_mem_batch = 10, 0", 1),
    "n_classes": ("n_classes = 0", 1),
    "dim": ("dim = 0", 1),
    "separation": ("separation = nan", 1),
    "per_class": ("per_class = 0", 1),
    "n_tasks": ("n_tasks = 0", 1),
    "test_per_class": ("test_per_class = 0", 1),
}


def test_every_config_key_has_an_invalid_case_or_a_reason():
    assert not INVALID.keys() & ANY_VALUE.keys()
    assert INVALID.keys() | ANY_VALUE.keys() == set(cli.SCHEMA), \
        "every config key needs an INVALID case or an ANY_VALUE reason"


@pytest.mark.parametrize("key", sorted(INVALID))
def test_invalid_setting_is_rejected_cleanly(tmp_path, capsys, monkeypatch, key):
    monkeypatch.chdir(tmp_path)
    text, expected = INVALID[key]
    code = cli.main(["run", write_cfg(tmp_path, text + "\n")])
    assert_rejected_cleanly(tmp_path, code, capsys.readouterr().err, expected)


@pytest.mark.parametrize("values", ["0.5, 0.5000001", "0.5, 0.5"])
def test_sweep_points_sharing_a_report_name_are_rejected(tmp_path, capsys,
                                                         monkeypatch, values):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, f"method = ours\nsweep_alpha = {values}\n")
    assert cli.main(["run", path]) == 1
    err = capsys.readouterr().err
    first, second = values.split(", ")
    assert err.startswith("config error:")
    assert f"{first} and {second}" in err
    assert "ours-alpha0.5-rep0.report.jsonl" in err
    assert not (tmp_path / "reports").exists()


def test_missing_cifar_file_is_data_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, "dataset = cifar10\n"
                               "data_path = /nonexistent/train.bin\n"
                               "test_path = /nonexistent/test.bin\n")
    assert cli.main(["run", path]) == 2
    assert "dataset file not found" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_run_is_numeric_error(tmp_path, capsys):
    out = str(tmp_path / "r")
    code = cli.main(["run", "--method", "er", "--mem-size", "30",
                     "--mem-batch", "10", "--lr", "1e18", "--out", out])
    assert code == 3
    assert "numeric error" in capsys.readouterr().err


def write_cifar10(path, labels, rng):
    """A CIFAR-10 binary file: one label byte and 3072 random pixels per record."""
    rows = []
    for y in labels:
        pixels = rng.integers(0, 256, 3072, dtype=np.uint8)
        rows.append(np.concatenate([[y], pixels]).astype(np.uint8))
    np.concatenate(rows).tofile(path)
    return str(path)


def test_cifar_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    train = write_cifar10(tmp_path / "train.bin", [0, 1, 2, 3] * 3, rng)
    test = write_cifar10(tmp_path / "test.bin", [0, 1, 2, 3], rng)
    path = write_cfg(tmp_path, f"""
dataset = cifar10
data_path = {train}
test_path = {test}
n_tasks = 2
method = er
mem_size = 8
mem_batch = 4
stream_batch = 3
""")
    out = str(tmp_path / "r")
    assert cli.main(["run", path, "--out", out]) == 0
    rep = read_reports(tmp_path / "r" / "er-rep0.report.jsonl")[0]
    assert len(rep.accuracy) == 2
    assert rep.oracle_calls == 12


def test_task_without_test_rows_is_data_error_before_training(tmp_path, capsys):
    rng = np.random.default_rng(0)
    train = write_cifar10(tmp_path / "train.bin", list(range(10)) * 4, rng)
    # no test row of classes 8 and 9, the fifth task's
    test = write_cifar10(tmp_path / "test.bin", list(range(8)) * 2, rng)
    path = write_cfg(tmp_path, f"""
dataset = cifar10
data_path = {train}
test_path = {test}
method = er
mem_size = 10
mem_batch = 5
""")
    out = tmp_path / "r"
    assert cli.main(["run", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "task 4 (classes [8, 9])" in err
    assert not out.exists()


def test_cifar_path_that_is_a_directory_is_data_error(tmp_path, capsys):
    rng = np.random.default_rng(0)
    test = write_cifar10(tmp_path / "test.bin", [0, 1, 2, 3], rng)
    path = write_cfg(tmp_path, f"""
dataset = cifar10
data_path = {tmp_path}
test_path = {test}
n_tasks = 2
""")
    out = tmp_path / "r"
    assert cli.main(["run", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(tmp_path) in err
    assert not out.exists()


def test_cifar_files_are_read_once_per_run(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    train = write_cifar10(tmp_path / "train.bin", [0, 1, 2, 3] * 3, rng)
    test = write_cifar10(tmp_path / "test.bin", [0, 1, 2, 3], rng)
    path = write_cfg(tmp_path, f"""
dataset = cifar10
data_path = {train}
test_path = {test}
n_tasks = 2
method = er
mem_size = 8
stream_batch = 3
sweep_mem_batch = 4, 5
""")
    reads = []
    load = cli.load_cifar_binary
    monkeypatch.setattr(cli, "load_cifar_binary",
                        lambda p, **kw: reads.append(p) or load(p, **kw))
    out = tmp_path / "r"
    assert cli.main(["run", path, "--reps", "3", "--out", str(out)]) == 0
    assert len(list(out.glob("*.report.jsonl"))) == 6
    assert sorted(reads) == sorted([train, test])


# ---------------------------------------------------------------------------
# plot-data command
# ---------------------------------------------------------------------------

def fake_report(method, seed, final, *, alpha=None, mem_batch=10,
                mem_size=30, label_fraction=0.5):
    kw = {}
    if method in ("ours",):
        kw["alpha"] = alpha if alpha is not None else 1.0
    cfg = asdict(TrainConfig(method=method, seed=seed, mem_size=mem_size,
                             mem_batch=mem_batch, **kw))
    return RunReport(config=cfg, accuracy=[[final, final]], final_avg=final,
                     oracle_calls=10, label_fraction=label_fraction, steps=5)


def write_report_files(dirpath, reports):
    dirpath.mkdir(parents=True, exist_ok=True)
    for i, rep in enumerate(reports):
        write_reports(dirpath / f"r{i}.report.jsonl", [rep])


def test_plot_data_builds_alpha_table(tmp_path):
    reports = [fake_report("ours", s, f, alpha=a)
               for a, finals in [(0.1, (0.8, 0.9)), (1.0, (0.5, 0.7))]
               for s, f in enumerate(finals)]
    write_report_files(tmp_path / "in", reports)
    assert cli.main(["plot-data", str(tmp_path / "in"),
                     "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "accuracy_vs_alpha.csv")
    assert rows[0] == ["method", "alpha", "mean_final_avg", "std_final_avg",
                       "reps"]
    assert rows[1] == ["ours", "0.1", "0.850000",
                       f"{statistics.stdev([0.8, 0.9]):.6f}", "2"]
    assert rows[2][1] == "1"


def test_plot_data_builds_mem_batch_table(tmp_path):
    reports = [fake_report("scr", s, f, mem_batch=mb, mem_size=50)
               for mb, finals in [(10, (0.6, 0.62)), (50, (0.7, 0.72))]
               for s, f in enumerate(finals)]
    write_report_files(tmp_path / "in", reports)
    assert cli.main(["plot-data", str(tmp_path / "in")]) == 0
    rows = read_csv(tmp_path / "in" / "accuracy_vs_mem_batch.csv")
    assert [r[1] for r in rows[1:]] == ["10", "50"]
    assert float(rows[2][2]) == pytest.approx(0.71)


def test_plot_data_relative_table_is_a_ratio(tmp_path):
    reports = [
        fake_report("ours", 0, 0.40, label_fraction=0.056),
        fake_report("scr-mo", 0, 0.35, label_fraction=0.056),
        fake_report("scr", 0, 0.50, label_fraction=1.0),
    ]
    write_report_files(tmp_path / "in", reports)
    assert cli.main(["plot-data", str(tmp_path / "in")]) == 0
    rows = read_csv(tmp_path / "in" / "relative_vs_label_fraction.csv")
    table = {r[0]: r for r in rows[1:]}
    assert float(table["ours"][3]) == pytest.approx(0.80)
    assert float(table["scr-mo"][3]) == pytest.approx(0.70)
    assert float(table["ours"][2]) == pytest.approx(0.056)


def test_plot_data_missing_baseline_size_errors(tmp_path, capsys):
    reports = [
        fake_report("ours", 0, 0.4, mem_size=30),
        fake_report("scr", 0, 0.5, mem_size=60),
    ]
    write_report_files(tmp_path / "in", reports)
    assert cli.main(["plot-data", str(tmp_path / "in")]) == 2
    assert "no scr baseline report for mem_size=30" in capsys.readouterr().err


def test_plot_data_rejects_inconsistent_groups(tmp_path, capsys):
    mixed = fake_report("ours", 1, 0.6, alpha=0.1)
    mixed.config["tau"] = 0.2
    reports = [fake_report("ours", 0, 0.5, alpha=0.1), mixed,
               fake_report("ours", 2, 0.7, alpha=1.0)]
    write_report_files(tmp_path / "in", reports)
    assert cli.main(["plot-data", str(tmp_path / "in")]) == 2
    err = capsys.readouterr().err
    assert "inconsistent configs" in err and "tau" in err


@pytest.mark.parametrize("extra_first", [False, True],
                         ids=["extra_key_second", "extra_key_first"])
def test_plot_data_rejects_a_key_only_one_report_echoes(tmp_path, capsys, extra_first):
    # a group is compared in seed order, so the seeds set which report is first
    extra = fake_report("ours", 0 if extra_first else 1, 0.6, alpha=0.1)
    extra.config["reduction"] = "mean"
    plain = fake_report("ours", 1 if extra_first else 0, 0.5, alpha=0.1)
    write_report_files(tmp_path / "in",
                       [plain, extra, fake_report("ours", 2, 0.7, alpha=1.0)])
    assert cli.main(["plot-data", str(tmp_path / "in")]) == 2
    err = capsys.readouterr().err
    assert "inconsistent configs in alpha=0.1 (ours)" in err
    assert "divergent keys: ['reduction']" in err


def _malformed(edit):
    raw = json.loads(to_json(fake_report("ours", 0, 0.5, alpha=0.1)))
    raw.update(edit)
    return json.dumps(raw)


@pytest.mark.parametrize("line, message", [
    ("[1]", "JSON object"),
    (_malformed({"accuracy": []}), "at least one accuracy row"),
    (_malformed({"label_fraction": 2}), "label fraction out of range"),
    (_malformed({"accuracy": [[1.2, 1.2]], "final_avg": 1.2}), "[0, 1]"),
    (_malformed({"accuracy": [[0.5], [0.5, 0.5]]}), "equal width"),
    (_malformed({"config": [1, 2]}), "string method"),
    (_malformed({"final_avg": float("nan")}), "mean of the last row"),
    # schema 1 summed the contrastive loss over anchors, with a config echo
    # that cannot tell it from schema 2's mean; plot-data must not pool them
    (_malformed({"schema": 1}), "unsupported report schema: 1"),
], ids=["not_an_object", "empty_accuracy", "label_fraction_above_one",
        "accuracy_above_one", "ragged_rows", "config_not_an_object",
        "final_avg_nan", "schema_1"])
def test_malformed_report_line_is_data_error(tmp_path, capsys, line, message):
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "r0.report.jsonl").write_text(line + "\n")
    out = tmp_path / "out"
    assert cli.main(["plot-data", str(tmp_path / "in"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda config: config.pop("seed"), "integer seed"),
    (lambda config: config.update(alpha="x"),
     "alpha 'x' of a report of method ours is not a number"),
], ids=["no_seed", "alpha_not_a_number"])
def test_malformed_report_config_beside_a_valid_one_is_data_error(
        tmp_path, capsys, edit, message):
    (tmp_path / "in").mkdir()
    for i, alpha in enumerate([0.5, 0.7]):
        raw = json.loads(to_json(fake_report("ours", 0, 0.5, alpha=alpha)))
        if i:
            edit(raw["config"])
        (tmp_path / "in" / f"r{i}.report.jsonl").write_text(json.dumps(raw) + "\n")
    assert cli.main(["plot-data", str(tmp_path / "in")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and message in err


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff\xfe not text\n"),
], ids=["directory", "not_utf8"])
def test_unreadable_report_file_is_data_error(tmp_path, capsys, make):
    write_report_files(tmp_path / "in", [fake_report("ours", 0, 0.8, alpha=0.1),
                                         fake_report("ours", 0, 0.6, alpha=1.0)])
    bad = tmp_path / "in" / "d.report.jsonl"
    make(bad)
    out = tmp_path / "out"
    assert cli.main(["plot-data", str(tmp_path / "in"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(bad) in err
    assert not out.exists()


def test_plot_data_empty_dir_errors(tmp_path, capsys):
    (tmp_path / "in").mkdir()
    assert cli.main(["plot-data", str(tmp_path / "in")]) == 2
    assert "no reports found" in capsys.readouterr().err


def test_plot_data_without_axes_errors(tmp_path, capsys):
    write_report_files(tmp_path / "in", [fake_report("er", 0, 0.5)])
    assert cli.main(["plot-data", str(tmp_path / "in")]) == 2
    assert "no sweep axes" in capsys.readouterr().err


def test_plot_data_without_axes_makes_no_out_dir(tmp_path, capsys):
    write_report_files(tmp_path / "in", [fake_report("er", 0, 0.5)])
    out = tmp_path / "new"
    assert cli.main(["plot-data", str(tmp_path / "in"), "--out", str(out)]) == 2
    assert "no sweep axes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_plot_data_out_that_cannot_be_a_directory_is_config_error(
        tmp_path, capsys, out):
    reports = [fake_report("ours", 0, 0.8, alpha=0.1),
               fake_report("ours", 0, 0.6, alpha=1.0)]
    write_report_files(tmp_path / "in", reports)
    (tmp_path / "afile").write_text("")
    assert cli.main(["plot-data", str(tmp_path / "in"),
                     "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err.startswith("config error: cannot make out")
    assert (tmp_path / "afile").read_text() == ""
    assert sorted(p.name for p in (tmp_path / "in").iterdir()) == [
        "r0.report.jsonl", "r1.report.jsonl"]


def test_plot_data_is_order_independent(tmp_path):
    reports = [fake_report("ours", s, f, alpha=a)
               for a, finals in [(0.1, (0.8, 0.9)), (1.0, (0.5, 0.7))]
               for s, f in enumerate(finals)]
    write_report_files(tmp_path / "fwd", reports)
    (tmp_path / "rev").mkdir()
    for i, rep in enumerate(reversed(reports)):
        write_reports(tmp_path / "rev" / f"r{i}.report.jsonl", [rep])
    assert cli.main(["plot-data", str(tmp_path / "fwd")]) == 0
    assert cli.main(["plot-data", str(tmp_path / "rev")]) == 0
    fwd = (tmp_path / "fwd" / "accuracy_vs_alpha.csv").read_text()
    rev = (tmp_path / "rev" / "accuracy_vs_alpha.csv").read_text()
    assert fwd == rev


def test_no_command_is_config_error(capsys):
    assert cli.main([]) == 1
    assert "config error" in capsys.readouterr().err
