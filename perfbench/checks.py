"""Output checks, each against a computation made apart from the program.

Every check returns a list of problems; an empty list means it passed.
The recomputations use only numpy and the benchmark's own ground truth
(the labels and features it generated), never the program's helpers,
with one stated exception: NCM latents come from `models.encode`, since
the encoder is what was trained.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from semicon import models

LOSS_RTOL = 1e-9
TIE_TOL = 1e-9
ORACLE_SIGMAS = 6.0
ENCODE_CHUNK = 16


def _close(ours: float, theirs: float) -> bool:
    return abs(ours - theirs) <= LOSS_RTOL * max(1.0, abs(ours))


def unified_loss(z, labels, pair, tau, alpha, galpha_on="unlabeled",
                 reduction="sum") -> float:
    """L = L_m + alpha * L_u of a 2b-view batch, from the definition.

    Anchor i scores log softmax over every other view of z_i.z_j / tau.
    A labeled anchor (label >= 0) averages that over the other labeled
    views of its class, an unlabeled one takes its paired view. L_m sums
    labeled anchors, L_u unlabeled ones (or averages, for "mean").
    """
    z = np.asarray(z, dtype=np.float64)
    n = len(z)
    others = ~np.eye(n, dtype=bool)
    logits = z @ z.T / tau
    top = np.where(others, logits, -np.inf).max(axis=1, keepdims=True)
    den = np.where(others, np.exp(logits - top), 0.0).sum(axis=1, keepdims=True)
    log_prob = logits - top - np.log(den)

    labeled = labels >= 0
    same_class = (labeled[:, None] & labeled[None, :]
                  & (labels[:, None] == labels[None, :]) & others)
    paired = np.zeros((n, n), dtype=bool)
    paired[np.arange(n), pair] = True
    positives = np.where(labeled[:, None], same_class, paired)
    per_anchor = -np.where(positives, log_prob, 0.0).sum(axis=1) / positives.sum(axis=1)

    def reduce(rows):
        if not rows.any():
            return 0.0
        total = per_anchor[rows].sum()
        return total / rows.sum() if reduction == "mean" else total

    l_m, l_u = reduce(labeled), reduce(~labeled)
    if galpha_on == "labeled":
        return alpha * l_m + l_u
    return l_m + alpha * l_u


def mean_cross_entropy(logits, labels) -> float:
    logits = np.asarray(logits, dtype=np.float64)
    top = logits.max(axis=1, keepdims=True)
    log_den = top[:, 0] + np.log(np.exp(logits - top).sum(axis=1))
    return float(np.mean(log_den - logits[np.arange(len(labels)), labels]))


def check_unified_loss(args, got: float) -> list[str]:
    """`losses.semicon(z, idx, mask, cfg)` as captured during a step, with
    the projections `z` as an array."""
    z, idx, _mask, cfg = args
    want = unified_loss(z, np.asarray(idx.labels), np.asarray(idx.pair),
                        cfg.tau, cfg.alpha, cfg.galpha_on, cfg.reduction)
    if not _close(want, got):
        return [f"unified loss {got!r} != recomputed {want!r}"]
    return []


def check_cross_entropy(args, got: float) -> list[str]:
    """`losses.cross_entropy(logits, labels)` as captured during a step,
    with the logits as an array."""
    logits, labels = args
    want = mean_cross_entropy(logits, np.asarray(labels))
    if not _close(want, got):
        return [f"cross entropy {got!r} != recomputed {want!r}"]
    return []


def check_memory(memory, truth_features, truth_y, capacity: int) -> list[str]:
    """Memory holds min(M, N) distinct stream samples, each with its true label.

    `truth_features(ids)` gives the generated feature rows of train ids.
    """
    problems = []
    n = len(truth_y)
    if len(memory.items) != min(capacity, n):
        problems.append(f"memory holds {len(memory.items)} items, "
                        f"expected min({capacity}, {n})")
    ids = np.array([it.sample.source_id for it in memory.items], dtype=np.int64)
    if len(np.unique(ids)) != len(ids):
        problems.append("memory stores a stream sample twice")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        return problems + ["memory source id out of range"]
    labels = np.array([it.label for it in memory.items], dtype=np.int64)
    wrong = np.flatnonzero(labels != truth_y[ids])
    if wrong.size:
        i = wrong[0]
        problems.append(f"{wrong.size} memory labels wrong, e.g. source "
                        f"{ids[i]} stored as {labels[i]}, truth {truth_y[ids[i]]}")
    stored = np.stack([it.sample.features for it in memory.items])
    if not np.array_equal(stored, truth_features(ids)):
        problems.append("memory features differ from the generated samples")
    return problems


def reservoir_stores(capacity: int, n: int) -> tuple[float, float]:
    """Mean and variance of Algorithm R's store count after n offers.

    The first M offers are stored; offer t > M is stored independently
    with probability M / t.
    """
    if n <= capacity:
        return float(n), 0.0
    p = capacity / np.arange(capacity + 1, n + 1)
    return capacity + float(p.sum()), float((p * (1.0 - p)).sum())


def check_oracle(report, memory, capacity: int, n: int, supervised: bool) -> list[str]:
    """Store count near M(1 + H_N - H_M); reported calls and fraction agree."""
    problems = []
    mean, var = reservoir_stores(capacity, n)
    calls = memory.oracle_calls
    if abs(calls - mean) > ORACLE_SIGMAS * sqrt(var) + 1e-9:
        problems.append(f"{calls} reservoir stores, expected {mean:.1f} "
                        f"+- {ORACLE_SIGMAS:g} x {sqrt(var):.1f}")
    charged = n if supervised else calls
    if report.oracle_calls != charged:
        problems.append(f"report oracle_calls {report.oracle_calls}, expected {charged}")
    if report.label_fraction != report.oracle_calls / n:
        problems.append(f"label_fraction {report.label_fraction} != "
                        f"{report.oracle_calls} / {n}")
    return problems


def check_steps(report, expected: int, iterations: int) -> list[str]:
    """Steps equal the sum over tasks of ceil(len(task) / batch)."""
    problems = []
    if report.steps != expected:
        problems.append(f"report steps {report.steps}, expected {expected}")
    if iterations != expected:
        problems.append(f"{iterations} stream iterations seen, expected {expected}")
    if report.loss_trace is None or len(report.loss_trace) != report.steps:
        problems.append("loss trace does not hold one loss per step")
    return problems


def ncm_accuracy_bounds(latents_mem, labels_mem, latents_test, labels_test):
    """(lowest, highest) NCM accuracy over ways of breaking near-ties.

    Class means of unit latents, re-normalized; a query goes to the
    Euclidean-nearest mean. A query whose two nearest means lie within
    TIE_TOL counts as right in the high bound only.
    """
    def unit(x):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        return x / np.where(norms == 0.0, 1.0, norms)

    classes = np.unique(labels_mem)
    mem = unit(latents_mem)
    means = unit(np.stack([mem[labels_mem == c].mean(axis=0) for c in classes]))
    q = unit(latents_test)
    d2 = (q ** 2).sum(axis=1)[:, None] + (means ** 2).sum(axis=1)[None] - 2.0 * q @ means.T
    best = d2.min(axis=1, keepdims=True)
    near = d2 <= best + TIE_TOL
    truth_near = (classes[None, :] == labels_test[:, None]) & near
    sure = truth_near.any(axis=1) & (near.sum(axis=1) == 1)
    maybe = truth_near.any(axis=1)
    n = len(labels_test)
    return sure.sum() / n, maybe.sum() / n


def encode_in_chunks(enc, x: np.ndarray) -> np.ndarray:
    """`models.encode` over slices of ENCODE_CHUNK rows, so the check adds
    little to the process's peak memory (a conv image costs about 1 MB)."""
    return np.concatenate([models.encode(enc, x[i:i + ENCODE_CHUNK])
                           for i in range(0, len(x), ENCODE_CHUNK)])


def check_last_row(enc, memory, truth_features, truth_y, test_by_task,
                   row) -> list[str]:
    """The last accuracy row, recomputed by NCM over the final memory."""
    ids = np.array([it.sample.source_id for it in memory.items], dtype=np.int64)
    latents_mem = encode_in_chunks(enc, truth_features(ids))
    problems = []
    for k, ((x, y), got) in enumerate(zip(test_by_task, row)):
        low, high = ncm_accuracy_bounds(latents_mem, truth_y[ids],
                                        encode_in_chunks(enc, x), y)
        if not low - 1e-12 <= got <= high + 1e-12:
            problems.append(f"task {k} accuracy {got} outside recomputed "
                            f"[{low}, {high}]")
    if len(row) != len(test_by_task):
        problems.append(f"last row has {len(row)} entries, expected {len(test_by_task)}")
    return problems


def chance_floor(n_classes: int, n_test: int) -> float:
    """Three binomial standard deviations above guessing among n_classes."""
    p = 1.0 / n_classes
    return p + 3.0 * sqrt(p * (1.0 - p) / n_test)


def check_final_avg(report, n_classes: int, n_test: int) -> list[str]:
    problems = []
    last = report.accuracy[-1]
    if abs(report.final_avg - sum(last) / len(last)) > 1e-12:
        problems.append("final_avg is not the mean of the last row")
    floor = chance_floor(n_classes, n_test)
    if not report.final_avg > floor:
        problems.append(f"final_avg {report.final_avg} not above chance floor {floor:.4f}")
    return problems
