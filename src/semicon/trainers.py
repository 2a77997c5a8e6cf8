"""Training strategies over one shared stream/memory/eval loop.

Seven methods train on the same stream, through one loop in `run`.
The contrastive group (ours, scr, scr-mo) trains encoder + projection
head on a multiview batch; er, er-mo, finetune and offline train
encoder + linear head on raw features. The five memory methods follow
the online protocol strictly: retrieve memory, SGD step, then offer the
stream batch to the reservoir, so a batch can never replay itself.
finetune is er without memory, and offline is finetune over cfg.epochs
shuffled passes of the whole training set, scored once.

Label accounting: the -mo methods and ours obtain labels only through
reservoir insertion (budgeted, p = oracle calls / N). scr, er, finetune
and offline are supervised reference points: they read stream labels
directly and report p = 1.0.

Method-specific evaluation: contrastive methods and er/er-mo are scored
by NCM over memory latents after each task; er/er-mo additionally
report their native linear-head accuracy; finetune and offline have no
memory, so their accuracy matrix is head-based.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from math import isfinite
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import losses
from .errors import ConfigError, NumericError
from .evaluation import evaluate, head_accuracy
from .memory import MemoryBuffer, reservoir_update_batch, retrieve
from .models import (
    ConvSpec,
    Encoder,
    MlpSpec,
    ProjectionHead,
    bind,
    init_params,
)
from .reports import RunReport
from .stream import TaskStream, make_multiview

METHODS = ("ours", "scr", "scr-mo", "er", "er-mo", "finetune", "offline")
CONTRASTIVE_METHODS = ("ours", "scr", "scr-mo")
MEMORY_METHODS = ("ours", "scr", "scr-mo", "er", "er-mo")
SUPERVISED_METHODS = ("scr", "er", "finetune", "offline")


# optional field -> (methods it applies to, default there); the field
# stays None on every other method, and setting it there is an error
APPLIES = {
    "alpha": (("ours",), losses.LossConfig.alpha),
    "tau": (CONTRASTIVE_METHODS, losses.LossConfig.tau),
    "mem_size": (MEMORY_METHODS, 200),
    "mem_batch": (MEMORY_METHODS, 100),
    "epochs": (("offline",), 50),
}


@dataclass(frozen=True)
class TrainConfig:
    """Method choice plus hyperparameters; the fields in `APPLIES` are
    filled with their defaults when left None and rejected when set on a
    method they do not apply to."""

    method: str
    alpha: float | None = None
    tau: float | None = None
    stream_batch: int = 10
    mem_batch: int | None = None
    mem_size: int | None = None
    learning_rate: float = 0.1
    seed: int = 0
    epochs: int | None = None
    loss_trace: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        for name, (methods, default) in APPLIES.items():
            if self.method in methods:
                if getattr(self, name) is None:
                    object.__setattr__(self, name, default)
            elif getattr(self, name) is not None:
                raise ConfigError(f"{name} does not apply to {self.method}")

        if self.method in MEMORY_METHODS:
            if self.mem_size < 1 or self.mem_batch < 1:
                raise ConfigError("memory sizes must be >= 1")
            if self.mem_batch > self.mem_size:
                raise ConfigError(
                    f"mem_batch {self.mem_batch} exceeds mem_size {self.mem_size}"
                )
        if self.method == "offline" and self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.stream_batch < 1:
            raise ConfigError(f"stream batch must be >= 1, got {self.stream_batch}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(
                f"learning rate must be finite and > 0, got {self.learning_rate}")
        # validate loss hyperparameters eagerly
        if self.method in CONTRASTIVE_METHODS:
            self.loss_config()

    def loss_config(self) -> losses.LossConfig:
        """Contrastive loss settings, each term a mean over its anchors;
        `LossConfig` fills what is unset and owns the checks, whose
        failures surface as `ConfigError`."""
        given = {name: getattr(self, name) for name in ("tau", "alpha")
                 if getattr(self, name) is not None}
        try:
            return losses.LossConfig(reduction="mean", **given)
        except ValueError as e:
            raise ConfigError(str(e)) from None


def _spawn_rngs(seed: int) -> dict[str, np.random.Generator]:
    """Independent streams per concern, all derived from one seed."""
    names = ("init", "augment", "reservoir", "retrieval", "shuffle")
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {n: np.random.default_rng(c) for n, c in zip(names, children)}


def _head_init(rngs: dict, latent_dim: int, n_classes: int) -> dict[str, np.ndarray]:
    bound = 1.0 / np.sqrt(latent_dim)
    return {
        "head/w": rngs["init"].uniform(-bound, bound, (latent_dim, n_classes)),
        "head/b": np.zeros((1, n_classes)),
    }


def _contrastive_forward(enc: Encoder, proj: ProjectionHead, views: np.ndarray,
                         idx, loss_cfg: losses.LossConfig):
    """On the all-labeled batches of scr and scr-mo the unified loss is
    exactly the supervised term: the unlabeled term is a constant 0."""
    mask = losses.build_masks(idx)
    prepared = enc.prepare(views)

    def forward(bound, tape):
        z = proj.apply(bound, enc.apply(bound, tape.const(prepared)))
        return losses.semicon(z, idx, mask, loss_cfg)

    return forward


def _ce_forward(enc: Encoder, feats: np.ndarray, labels: np.ndarray):
    prepared = enc.prepare(feats)

    def forward(bound, tape):
        h = enc.apply(bound, tape.const(prepared))
        logits = ad.add(ad.matmul(h, bound["head/w"]), bound["head/b"])
        return losses.cross_entropy(logits, labels)

    return forward


def _schedule(cfg: TrainConfig, stream: TaskStream, rng: np.random.Generator):
    """(task index, batches of source ids) for each point the run is
    scored at: every task in turn, or for offline a single point of
    cfg.epochs shuffled passes over the whole training set (task None)."""
    if cfg.method != "offline":
        yield from stream.iter_tasks()
        return
    n, size = len(stream.data), cfg.stream_batch
    yield None, (order[start:start + size]
                 for order in (rng.permutation(n) for _ in range(cfg.epochs))
                 for start in range(0, n, size))


def _diverged(cfg: TrainConfig, what: str, task: int | None) -> NumericError:
    where = "all tasks" if task is None else f"task {task}"
    return NumericError(f"{cfg.method}: {what} ({where}); the run diverged")


def _step(params: dict[str, np.ndarray],
          forward: Callable[[dict[str, ad.Var], ad.Tape], ad.Var],
          cfg: TrainConfig, step: int, task: int | None) -> float:
    """SGD step number `step` on `params` through a traced forward
    computation. A non-finite loss stops the run before the update is
    applied; `task` is None for the offline pass over every task at once.
    """
    tape = ad.Tape()
    bound = bind(tape, params)
    loss = forward(bound, tape)
    value = float(loss.data)
    if not isfinite(value):
        raise _diverged(cfg, f"loss {value} at step {step}", task)
    grads = ad.grads_for(ad.backward(loss), [bound[n] for n in sorted(params)])
    ad.sgd_step([params[n] for n in sorted(params)], grads, cfg.learning_rate)
    return value


def run(cfg: TrainConfig, stream: TaskStream,
        model: MlpSpec | ConvSpec) -> tuple[Encoder, MemoryBuffer | None, RunReport]:
    """Train cfg.method on the stream.

    Each step trains on a memory batch, when the method has a memory,
    joined by the stream batch for ours (unlabeled) and the supervised
    methods (labeled by direct lookup); the stream batch is offered to
    the reservoir only after the step. The contrastive methods train a
    projection head on two views per sample, the others a linear head by
    cross entropy. A run with memory is scored by NCM over memory after
    each task, a run without by its head.
    """
    if cfg.stream_batch != stream.batch_size:
        raise ConfigError(
            f"config stream_batch {cfg.stream_batch} != "
            f"stream batch size {stream.batch_size}"
        )
    started = time.perf_counter()
    memory = (MemoryBuffer(cfg.mem_size, stream.data.features)
              if cfg.method in MEMORY_METHODS else None)
    rngs = _spawn_rngs(cfg.seed)
    enc, proj = init_params(int(rngs["init"].integers(0, 2**63 - 1)), model)
    contrastive = cfg.method in CONTRASTIVE_METHODS
    if contrastive:
        params = {**enc.params, **proj.params}
        loss_cfg = cfg.loss_config()
    else:
        n_classes = int(stream.oracle.labels.max()) + 1
        params = {**enc.params, **_head_init(rngs, enc.out_dim, n_classes)}

    def head_scores():
        return head_accuracy(enc, params["head/w"], params["head/b"][0],
                             stream.test_tasks, stream.test)

    # row k: accuracy on each task's test rows after schedule item k
    rows: list[list[float]] = []
    missing: list[int] = []
    trace: list[float] = []
    steps = 0
    for task, batches in _schedule(cfg, stream, rngs["shuffle"]):
        for b_s in batches:
            if memory is None:
                ids = labels = np.empty(0, dtype=np.int64)
            else:
                ids, labels = retrieve(memory, cfg.mem_batch, rngs["retrieval"])
            if cfg.method == "ours":
                ids = np.concatenate([ids, b_s])
                labels = np.concatenate([labels, np.full(len(b_s), -1)])
            elif cfg.method in SUPERVISED_METHODS:
                # direct label lookup for the supervised baselines (uncharged)
                ids = np.concatenate([ids, b_s])
                labels = np.concatenate([labels, stream.oracle.label(b_s)])
            steps += 1
            if not len(ids):  # nothing to train on yet: a counted step
                loss = 0.0
            elif contrastive:
                views, idx = make_multiview(stream.data.features[ids], labels,
                                            rngs["augment"])
                loss = _step(params, _contrastive_forward(
                    enc, proj, views, idx, loss_cfg), cfg, steps, task)
            else:
                loss = _step(params, _ce_forward(
                    enc, stream.data.features[ids], labels), cfg, steps, task)
            if cfg.loss_trace:
                trace.append(loss)
            if memory is not None:
                reservoir_update_batch(memory, b_s, stream.oracle, rngs["reservoir"])
        # a last step can leave a finite loss but weights unfit to score
        for name, value in params.items():
            if not np.isfinite(value).all():
                raise _diverged(cfg, f"parameter {name} is not finite", task)
        if memory is None:
            rows.append(head_scores())
        else:
            row, missing = evaluate(enc, memory, stream.test_tasks, stream.test)
            rows.append(row)

    if contrastive:
        head_row = None
    else:
        head_row = rows[-1] if memory is None else head_scores()
    oracle_calls = (len(stream.data) if cfg.method in SUPERVISED_METHODS
                    else memory.oracle_calls)
    report = RunReport(
        config=asdict(cfg),
        accuracy=rows,
        final_avg=float(np.mean(rows[-1])),
        oracle_calls=oracle_calls,
        label_fraction=oracle_calls / len(stream.data),
        steps=steps,
        missing_classes=missing,
        head_accuracy=head_row,
        loss_trace=trace if cfg.loss_trace else None,
        wall_clock=time.perf_counter() - started,
    )
    return enc, memory, report
