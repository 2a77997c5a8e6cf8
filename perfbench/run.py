#!/usr/bin/env python3
"""The semicon benchmark: one workload, whole rounds of `trainers.run`.

    python3 perfbench/run.py --workload mlp-ours --seed 0 --seconds 25 --trace 0

The program is imported from the ``src/`` next to this directory. A run
sets up five datasets from the seed (timing each set-up), then calls
`trainers.run` round after round, each round on the next dataset with
its own training seed, until ``--seconds`` of training time and at
least MIN_STEPS steps are done. Every round's outputs are checked (see
checks.py).
The last line of standard output is one JSON object: correct,
attempted, failed, and the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).
"""

import os
import sys

# Results depend on the BLAS thread count (summation order), so it is
# pinned before numpy loads, and reported by `machine()`.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import json
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MIN_STEPS = 200  # so the quieter half of the rounds holds 100 steps
DATASETS = 5
SETUP_REPEATS = 8  # per dataset; set-up takes milliseconds, so its median needs many
WALL_LIMIT_S = 140.0  # no round starts after this, so a run ends within 180 s


def import_program():
    """Import semicon from this checkout's src/, and from nowhere else."""
    pkg = ROOT / "src" / "semicon"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import semicon
    if Path(semicon.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported semicon from {semicon.__file__}, not {pkg}")


import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from semicon import autodiff, reports, trainers  # noqa: E402
from tracing import BOUNDARY, LAYERS, HeapWatch, Tracer, max_rss_mb  # noqa: E402
from workloads import WORKLOADS, set_up  # noqa: E402


def with_units(values: dict, section: str) -> dict:
    """Each metric with its unit, in the order BENCHMARK.json lists the
    `section` ("end_to_end" or "per_layer"); the code must compute exactly
    the metrics listed there."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    units = {m["name"]: m["unit"] for m in spec}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(values) ^ set(units))}")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def set_up_all(w, seed: int, trace: bool):
    """Set up DATASETS inputs, each from its own data seed drawn from `seed`.

    Rounds cycle through them, so the accuracy a run reports averages
    over several datasets. Each set-up is repeated SETUP_REPEATS times.
    Returns the inputs, the median set-up seconds and the median seconds
    spent in the program's stream loaders (traced runs only).
    """
    all_inputs, setup_s, load_s = [], [], []
    for k in range(DATASETS):
        data_seed = int(np.random.SeedSequence([seed, 5, k]).generate_state(1)[0])
        for _ in range(SETUP_REPEATS):
            tracer = Tracer([t for t in LAYERS if t[2] in layers.LOAD_SPANS])
            with tracer.install() if trace else nullcontext():
                inputs, seconds = set_up(w, data_seed, OUT)
            setup_s.append(seconds)
            spans = tracer.spans()
            load_s.append(float((spans["end"] - spans["start"]).sum()))
        all_inputs.append(inputs)
    return all_inputs, statistics.median(setup_s), statistics.median(load_s)


@dataclass
class Round:
    run_s: float
    report: object = None
    memory_stores: int = 0
    step_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    eval_s: float = 0.0
    problems: list = field(default_factory=list)


def check_round(w, inputs, enc, memory, report, captured, iterations) -> list[str]:
    problems = []
    if captured is None:
        problems.append("no loss call was captured")
    elif w.method == "ours":
        problems += checks.check_unified_loss(*captured)
    else:
        problems += checks.check_cross_entropy(*captured)
    problems += checks.check_memory(memory, inputs.train_features, inputs.train_y,
                                    w.mem_size)
    problems += checks.check_oracle(report, memory, w.mem_size, w.n_train,
                                    supervised=w.method in trainers.SUPERVISED_METHODS)
    problems += checks.check_steps(report, w.steps_per_round, iterations)
    problems += checks.check_final_avg(report, w.n_classes, len(inputs.test_y))
    problems += checks.check_last_row(enc, memory, inputs.train_features, inputs.train_y,
                                      inputs.test_by_task(w), report.accuracy[-1])
    return problems


def one_round(w, inputs, cfg, tracer, last_loss, heap, report_path) -> Round:
    """Run `trainers.run` once under the tracer, then check its outputs.

    The heap is collected first, so garbage left by earlier rounds
    (training tapes are freed only by the cyclic collector) neither
    inflates this round's memory peak nor lands in its timing; and again
    before the checks, so they run on a heap holding only the outputs.
    """
    gc.collect()
    first = len(tracer.start)
    last_loss.clear()
    with tracer.install(), heap.install() if heap is not None else nullcontext():
        t0 = time.perf_counter()
        try:
            enc, memory, report = trainers.run(cfg, inputs.stream, w.model())
        except Exception as exc:  # a failed round is counted, not fatal
            return Round(time.perf_counter() - t0, problems=[repr(exc)])
        out = Round(time.perf_counter() - t0, report, memory.oracle_calls)
        reports.write_reports(report_path, [report])

    names = tracer.names
    span = tracer.spans(first)
    retrieve = np.flatnonzero(span["name"] == names.index("memory.retrieve"))
    offer = np.flatnonzero(span["name"] == names.index("memory.reservoir_update_batch"))
    if len(retrieve) == len(offer):
        out.step_ms = 1000.0 * (span["end"][offer] - span["start"][retrieve])
    evals = np.isin(span["name"], [names.index("evaluation.evaluate"),
                                   names.index("evaluation.head_accuracy")])
    out.eval_s = float((span["end"] - span["start"])[evals].sum())

    gc.collect()
    out.problems = check_round(w, inputs, enc, memory, report, last_loss.get("call"),
                               len(retrieve))
    if reports.read_reports(report_path) != [report]:
        out.problems.append("report does not read back equal")
    if heap is not None:
        heap.note_rss("checks and report")
    return out


def run(w, seed: int, seconds: float, trace: bool, min_steps: int = MIN_STEPS) -> dict:
    """One benchmark run of workload `w`; returns the object run.py prints."""
    started = time.perf_counter()
    OUT.mkdir(parents=True, exist_ok=True)
    datasets, setup_s, load_s = set_up_all(w, seed, trace)

    tracer = Tracer(LAYERS if trace else BOUNDARY)
    heap = HeapWatch() if trace else None
    if trace:
        heap.note_rss("set-up")
        tracer.after["memory.reservoir_update_batch"].append(heap.after_step)
        for span in layers.EVAL_SPANS:
            tracer.after[span].append(heap.after_evaluate)

    last_loss = {}

    def keep_loss(args, result):
        """Keep the step's loss inputs as arrays, not tape variables, so
        that holding them does not keep the step's tape alive."""
        last_loss["call"] = ([a.data if isinstance(a, autodiff.Var) else a
                              for a in args], float(result.data))

    tracer.after["losses.semicon" if w.method == "ours"
                 else "losses.cross_entropy"].append(keep_loss)
    ops_per_round = w.steps_per_round + w.n_tasks

    rounds: list[Round] = []
    attempted = failed = 0
    measured = 0.0
    steps = 0
    while (measured < seconds or steps < min_steps) and \
            time.perf_counter() - started < WALL_LIMIT_S:
        seed_r = int(np.random.SeedSequence([seed, 4, len(rounds)]).generate_state(1)[0])
        r = one_round(w, datasets[len(rounds) % DATASETS], w.config(seed_r),
                      tracer, last_loss, heap, OUT / f"{w.name}.report.jsonl")
        rounds.append(r)
        measured += r.run_s
        attempted += ops_per_round
        if r.report is None or r.problems:
            failed += ops_per_round
        else:
            steps += r.report.steps
            failed += sum(not math.isfinite(v) for v in r.report.loss_trace)
        for p in r.problems:
            print(f"perfbench: FAIL round {len(rounds) - 1}: {p}", file=sys.stderr)

    good = [r for r in rounds if r.report is not None]
    if trace:
        run_peak_phase = heap.peak_phase
        spans = tracer.spans()
        metrics = with_units(layers.per_layer(tracer.names, spans, tracer.counts,
                                              heap, good, load_s), "per_layer")
        tracer.save(OUT / f"trace-{w.name}.npz")
        heap.note_rss("trace export")
        summary = {
            "run_s": statistics.median(r.run_s for r in quiet_half(good)),
            "peak_rss_mb": max_rss_mb(),
            "peak_rss_phase": run_peak_phase,
            "peak_rss_rise_mb_by_phase": heap.rss_rise_mb,
            "layers": layers.span_table(tracer.names, spans, len(rounds)),
        }
        (OUT / f"trace-{w.name}.json").write_text(json.dumps(summary, indent=1))
        print(f"perfbench: peak RSS before trace export set in {run_peak_phase}; "
              f"rise by phase (MB): "
              f"{json.dumps(heap.rss_rise_mb)}", file=sys.stderr)
    else:
        metrics = with_units(end_to_end(w, rounds, good, tracer.counts, setup_s),
                             "end_to_end")
    return {
        "correct": not any(r.problems for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def quiet_half(rounds: list[Round]) -> list[Round]:
    """The faster half of the rounds. Other tenants of the machine slow
    it for spells of several seconds, by up to a third, so timings are
    taken from the rounds such a spell spared."""
    return sorted(rounds, key=lambda r: r.run_s)[: (len(rounds) + 1) // 2]


def end_to_end(w, rounds, good, counts, setup_s) -> dict:
    """End-to-end metrics; timings from the quieter half of the rounds."""
    quiet = quiet_half(good)
    step_ms = np.concatenate([r.step_ms for r in quiet])
    test_samples = (counts["evaluation.evaluate"]
                    + counts["evaluation.head_accuracy"]) / len(rounds)
    values = {
        "setup_s": setup_s,
        "run_s": statistics.median(r.run_s for r in quiet),
        "stream_samples_per_s":
            w.n_train / statistics.median(r.run_s - r.eval_s for r in quiet),
        "step_ms_p50": float(np.percentile(step_ms, 50)),
        "step_ms_p90": float(np.percentile(step_ms, 90)),
        "eval_samples_per_s": test_samples / statistics.median(r.eval_s for r in quiet),
        "peak_rss_mb": max_rss_mb(),
        # median: a few rounds of `ours` collapse to far lower accuracy
        "final_avg": statistics.median(r.report.final_avg for r in good),
    }
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(f"perfbench: {json.dumps(machine())}", file=sys.stderr)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
