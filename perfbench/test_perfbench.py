"""Tests of the benchmark itself: python3 -m pytest perfbench

Each output check must reject a deliberately corrupted output, a very
small run of every workload must complete with every check passing, and
without the program's source the command must fail without a result.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run  # first: it puts the program's src/ on sys.path

import checks
from semicon import autodiff as ad
from semicon import losses, trainers
from semicon.memory import MemoryItem
from tracing import BOUNDARY, Tracer
from workloads import WORKLOADS, set_up

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(w):
    """A few steps per round, easy classes, so a run takes a second or two."""
    if w.encoder == "conv":
        return dataclasses.replace(w, per_class=6, test_per_class=10, mem_size=20,
                                   mem_batch=4, separation=0.2)
    return dataclasses.replace(w, n_classes=w.n_tasks * 2, per_class=30,
                               test_per_class=30, mem_size=20, mem_batch=10,
                               separation=8.0)


@pytest.fixture(scope="module")
def ours_round():
    """One finished `ours` round on a tiny mlp stream, with its captured loss."""
    w = tiny(WORKLOADS["mlp-ours"])
    inputs, _ = set_up(w, 7, run.OUT)
    calls = []
    tracer = Tracer(BOUNDARY)
    tracer.after["losses.semicon"].append(
        lambda args, result: calls.append(([args[0].data, *args[1:]], float(result.data))))
    with tracer.install():
        enc, memory, report = trainers.run(w.config(3), inputs.stream, w.model())
    return SimpleNamespace(w=w, inputs=inputs, enc=enc, memory=memory,
                           report=report, captured=calls[-1])


def test_loss_check_rejects_a_wrong_loss(ours_round):
    args, got = ours_round.captured
    assert checks.check_unified_loss(args, got) == []
    assert checks.check_unified_loss(args, got * (1 + 1e-7))


def test_loss_recomputation_matches_program_for_both_alpha_placements():
    rng = np.random.default_rng(0)
    idx = losses.MultiviewIndex.from_sources([0, 1, 0, None, None, 2])
    z = rng.normal(size=(12, 5))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    for galpha_on in ("unlabeled", "labeled"):
        for reduction in ("sum", "mean"):
            cfg = losses.LossConfig(alpha=0.3, galpha_on=galpha_on, reduction=reduction)
            tape = ad.Tape()
            zv = tape.const(z)
            out = losses.semicon(zv, idx, losses.build_masks(idx), cfg)
            assert checks.check_unified_loss((z, idx, None, cfg), float(out.data)) == []


def test_cross_entropy_check_rejects_a_wrong_loss():
    tape = ad.Tape()
    logits = tape.const(np.random.default_rng(1).normal(size=(6, 4)))
    labels = np.array([0, 3, 1, 1, 2, 0])
    got = float(losses.cross_entropy(logits, labels).data)
    assert checks.check_cross_entropy((logits.data, labels), got) == []
    assert checks.check_cross_entropy((logits.data, labels[::-1].copy()), got)


def test_memory_check_rejects_a_mislabelled_item(ours_round):
    r = ours_round
    feats, y = r.inputs.train_features, r.inputs.train_y
    assert checks.check_memory(r.memory, feats, y, r.w.mem_size) == []
    item = r.memory.items[0]
    r.memory.items[0] = MemoryItem(item.sample, (item.label + 1) % r.w.n_classes)
    try:
        assert any("labels wrong" in p
                   for p in checks.check_memory(r.memory, feats, y, r.w.mem_size))
    finally:
        r.memory.items[0] = item


def test_memory_check_rejects_a_short_memory(ours_round):
    r = ours_round
    short = SimpleNamespace(items=r.memory.items[:-1])
    assert checks.check_memory(short, r.inputs.train_features, r.inputs.train_y,
                               r.w.mem_size)


def test_steps_check_rejects_a_wrong_step_count(ours_round):
    r = ours_round
    want = r.w.steps_per_round
    assert checks.check_steps(r.report, want, want) == []
    assert checks.check_steps(dataclasses.replace(r.report, steps=want + 1), want, want)
    assert checks.check_steps(r.report, want, want - 1)


def test_oracle_check_rejects_implausible_store_counts(ours_round):
    r = ours_round
    n, m = r.w.n_train, r.w.mem_size
    assert checks.check_oracle(r.report, r.memory, m, n, supervised=False) == []
    mean, var = checks.reservoir_stores(m, n)
    far = SimpleNamespace(oracle_calls=int(mean + 8 * var ** 0.5))
    report = dataclasses.replace(r.report, oracle_calls=far.oracle_calls,
                                 label_fraction=far.oracle_calls / n)
    assert checks.check_oracle(report, far, m, n, supervised=False)
    # a supervised method is charged one call per stream sample
    assert checks.check_oracle(r.report, r.memory, m, n, supervised=True)


def test_reservoir_expectation_is_m_times_one_plus_harmonic_gap():
    mean, _ = checks.reservoir_stores(50, 400)
    harmonic = sum(1.0 / t for t in range(51, 401))
    assert mean == pytest.approx(50 * (1 + harmonic))


def test_last_row_check_rejects_a_wrong_accuracy(ours_round):
    r = ours_round
    args = (r.enc, r.memory, r.inputs.train_features, r.inputs.train_y,
            r.inputs.test_by_task(r.w))
    row = list(r.report.accuracy[-1])
    assert checks.check_last_row(*args, row) == []
    row[0] = row[0] + 0.1 if row[0] < 0.9 else row[0] - 0.1
    assert checks.check_last_row(*args, row)


def test_final_avg_check_rejects_chance_accuracy(ours_round):
    r = ours_round
    n_test = len(r.inputs.test_y)
    assert checks.check_final_avg(r.report, r.w.n_classes, n_test) == []
    chance = [1.0 / r.w.n_classes] * len(r.report.accuracy[-1])
    report = dataclasses.replace(r.report, accuracy=[chance],
                                 final_avg=1.0 / r.w.n_classes)
    assert checks.check_final_avg(report, r.w.n_classes, n_test)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_a_small_run_of_each_workload_passes_every_check(name, trace):
    result = run.run(tiny(WORKLOADS[name]), seed=0, seconds=0.0, trace=trace,
                     min_steps=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlp-ours", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metrics_must_be_the_ones_benchmark_json_lists():
    with pytest.raises(RuntimeError):
        run.with_units({"setup_s": 1.0}, "end_to_end")
