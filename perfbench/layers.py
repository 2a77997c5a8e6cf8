"""Per-layer metrics from the spans and counters of a traced run.

Normalisation, stated in each metric's unit in BENCHMARK.json:
training-path times and counts are per step (only spans outside
evaluation count), evaluation and memory counts are per round (one
`trainers.run` call), and `stream.load_s` is the median over the run's
set-ups.
"""

from __future__ import annotations

import numpy as np

from tracing import PRIMITIVES

LOAD_SPANS = ("stream.split_dataset", "stream.load_cifar_binary")
EVAL_SPANS = ("evaluation.evaluate", "evaluation.head_accuracy")
LOSS_SPANS = ("losses.semicon", "losses.loss_mem", "losses.loss_unlab",
              "losses.cross_entropy")


def _in_eval(names, name, parent) -> np.ndarray:
    """True for spans inside an evaluation call (ancestors precede children)."""
    inside = np.isin(name, [names.index(n) for n in EVAL_SPANS])
    has_parent = parent >= 0
    while True:
        grown = inside.copy()
        grown[has_parent] |= inside[parent[has_parent]]
        if (grown == inside).all():
            return inside
        inside = grown


def _self_seconds(spans) -> np.ndarray:
    dur = spans["end"] - spans["start"]
    child = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][child], weights=dur[child],
                          minlength=len(dur))
    return dur - covered


def span_table(names, spans, rounds: int) -> dict:
    """Calls, inclusive ms and self ms per round, for every span name."""
    dur = spans["end"] - spans["start"]
    own = _self_seconds(spans)
    table = {}
    for nid, n in enumerate(names):
        hit = spans["name"] == nid
        if hit.any():
            table[n] = {
                "calls": int(hit.sum()) / rounds,
                "ms": 1000.0 * float(dur[hit].sum()) / rounds,
                "self_ms": 1000.0 * float(own[hit].sum()) / rounds,
            }
    return table


def per_layer(names, spans, counts, heap, rounds, load_s) -> dict:
    """Every per-layer metric's value, from a traced run's spans and counters."""
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    train = ~_in_eval(names, name, parent)
    steps = sum(r.report.steps for r in rounds)
    n_rounds = len(rounds)

    def sel(span, train_only=False):
        hit = name == names.index(span)
        return hit & train if train_only else hit

    def ms(span, train_only=False):
        return 1000.0 * float(dur[sel(span, train_only)].sum())

    def per_step_ms(span):
        return ms(span, train_only=True) / steps

    loss_ids = [names.index(n) for n in LOSS_SPANS]
    outer_loss = np.isin(name, loss_ids) & train
    outer_loss[outer_loss] &= ~np.isin(name[parent[outer_loss]], loss_ids)
    offers = counts["memory.reservoir_update_batch"] / n_rounds
    stores = sum(r.memory_stores for r in rounds) / n_rounds

    values = {
        "losses.loss_fwd_ms": 1000.0 * float(dur[outer_loss].sum()) / steps,
        "losses.masks_ms": per_step_ms("losses.build_masks"),
        "losses.anchors": counts["losses.semicon"] / steps,
        "autodiff.backward_ms": per_step_ms("autodiff.backward"),
        "autodiff.sgd_ms": per_step_ms("autodiff.sgd_step"),
        "autodiff.nodes_per_step": counts["autodiff.backward"] / steps,
    }
    for p in PRIMITIVES:
        values[f"autodiff.op.{p}.calls"] = int(sel(f"autodiff.{p}", True).sum()) / steps
        values[f"autodiff.op.{p}.fwd_ms"] = per_step_ms(f"autodiff.{p}")
    values.update({
        "autodiff.tapes_live_max": heap.tapes_live_max,
        "autodiff.gc_ms": 1000.0 * heap.gc_seconds / n_rounds,
        "autodiff.gc_collections": heap.gc_collections / n_rounds,
        "models.encoder_fwd_ms": per_step_ms("models.Encoder.apply"),
        "models.head_fwd_ms": per_step_ms("models.ProjectionHead.apply"),
        "models.prepare_ms": per_step_ms("models.Encoder.prepare"),
        "models.encode_ms": ms("models.encode") / n_rounds,
        "models.encoded_samples": counts["models.encode"] / n_rounds,
        "evaluation.fit_ncm_ms": ms("evaluation.fit_ncm") / n_rounds,
        "evaluation.predict_ms": ms("evaluation.predict") / n_rounds,
        "evaluation.head_ms": ms("evaluation.head_accuracy") / n_rounds,
        "evaluation.test_samples": sum(counts[n] for n in EVAL_SPANS) / n_rounds,
        "memory.retrieve_ms": per_step_ms("memory.retrieve"),
        "memory.retrieve_calls": int(sel("memory.retrieve").sum()) / n_rounds,
        "memory.reservoir_ms": per_step_ms("memory.reservoir_update_batch"),
        "memory.offers": offers,
        "memory.oracle_calls": stores,
        "memory.stores_per_offer": stores / offers,
        "stream.load_s": load_s,
        "stream.multiview_ms": per_step_ms("stream.make_multiview"),
        "stream.views": counts["stream.make_multiview"] / steps,
        "trainers.steps": steps / n_rounds,
        "trainers.self_ms": 1000.0 * float(_self_seconds(spans)[sel("trainers.run")].sum())
        / n_rounds,
        "reports.write_ms": ms("reports.write_reports") / n_rounds,
    })
    return values
