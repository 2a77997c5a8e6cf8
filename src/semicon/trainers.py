"""Training strategies over one shared stream/memory/eval harness.

Seven methods act on the same single-pass stream, through two loops.
The replay loop serves the five memory methods: the contrastive group
(ours, scr, scr-mo) trains encoder + projection head on a multiview
batch, er and er-mo train encoder + linear head on raw features.
Per-iteration order follows the online protocol strictly: retrieve
memory, SGD step, then offer the stream batch to the reservoir, so a
batch can never replay itself. The head-only loop serves finetune and
offline, which train encoder + linear head with no memory.

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
from math import ceil, isfinite
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import losses
from .errors import ConfigError, NumericError
from .evaluation import AccuracyMatrix, evaluate, head_accuracy
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
from .stream import AugmentationSpec, Sample, TaskStream, make_multiview

METHODS = ("ours", "scr", "scr-mo", "er", "er-mo", "finetune", "offline")
CONTRASTIVE_METHODS = ("ours", "scr", "scr-mo")
MEMORY_METHODS = ("ours", "scr", "scr-mo", "er", "er-mo")
SUPERVISED_METHODS = ("scr", "er", "finetune", "offline")


@dataclass(frozen=True)
class TrainConfig:
    """Method choice plus hyperparameters; method-specific fields are
    filled with their defaults when left None and rejected when set on a
    method they do not apply to."""

    method: str
    alpha: float | None = None
    tau: float | None = None
    galpha_on: str | None = None
    stream_batch: int = 10
    mem_batch: int | None = None
    mem_size: int | None = None
    learning_rate: float = 0.1
    seed: int = 0
    epochs: int | None = None
    augmentation: AugmentationSpec | None = None
    loss_trace: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        set_default = lambda name, value: object.__setattr__(self, name, value)

        if self.method == "ours":
            if self.alpha is None:
                set_default("alpha", 1.0)
            if self.galpha_on is None:
                set_default("galpha_on", "unlabeled")
        else:
            if self.alpha is not None:
                raise ConfigError(f"alpha does not apply to {self.method}")
            if self.galpha_on is not None:
                raise ConfigError(f"galpha_on does not apply to {self.method}")

        if self.method in CONTRASTIVE_METHODS:
            if self.tau is None:
                set_default("tau", 0.07)
        elif self.tau is not None:
            raise ConfigError(f"tau does not apply to {self.method}")

        if self.method in MEMORY_METHODS:
            if self.mem_size is None:
                set_default("mem_size", 200)
            if self.mem_batch is None:
                set_default("mem_batch", 100)
            if self.mem_size < 1 or self.mem_batch < 1:
                raise ConfigError("memory sizes must be >= 1")
        else:
            if self.mem_size is not None or self.mem_batch is not None:
                raise ConfigError(f"{self.method} does not use a memory")

        if self.method == "offline":
            if self.epochs is None:
                set_default("epochs", 50)
            if self.epochs < 1:
                raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        elif self.epochs is not None:
            raise ConfigError(f"epochs only applies to offline, got {self.method}")

        if self.stream_batch < 1:
            raise ConfigError(f"stream batch must be >= 1, got {self.stream_batch}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning rate must be > 0, got {self.learning_rate}")
        # validate loss hyperparameters eagerly
        if self.method in CONTRASTIVE_METHODS:
            self.loss_config()

    def loss_config(self) -> losses.LossConfig:
        """Contrastive loss settings; unset alpha and galpha_on take defaults."""
        alpha = 1.0 if self.alpha is None else self.alpha
        return losses.LossConfig(tau=self.tau, alpha=alpha,
                                 galpha_on=self.galpha_on or "unlabeled")


def _spawn_rngs(seed: int) -> dict[str, np.random.Generator]:
    """Independent streams per concern, all derived from one seed."""
    names = ("init", "augment", "reservoir", "retrieval", "shuffle")
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {n: np.random.default_rng(c) for n, c in zip(names, children)}


def _init_seed(rngs: dict) -> int:
    return int(rngs["init"].integers(0, 2**63 - 1))


def _default_augmentation(model: MlpSpec | ConvSpec) -> AugmentationSpec:
    kind = "image" if isinstance(model, ConvSpec) else "vector"
    return AugmentationSpec(kind=kind)


class _Harness:
    """Shared plumbing: parameter updates, step/loss accounting, eval."""

    def __init__(self, cfg: TrainConfig, stream: TaskStream):
        if cfg.stream_batch != stream.batch_size:
            raise ConfigError(
                f"config stream_batch {cfg.stream_batch} != "
                f"stream batch size {stream.batch_size}"
            )
        self.started = time.perf_counter()
        self.cfg = cfg
        self.stream = stream
        self.sgd = ad.SgdConfig(learning_rate=cfg.learning_rate)
        self.matrix = AccuracyMatrix()
        self.steps = 0
        self.trace: list[float] = []
        self.missing: list[int] = []

    def step(self, params: dict[str, np.ndarray],
             forward: Callable[[dict[str, ad.Var], ad.Tape], ad.Var],
             task: int | None) -> float:
        """One SGD step on `params` through a traced forward computation.

        A non-finite loss stops the run before the update is applied;
        `task` is None for the offline passes over every task at once.
        """
        tape = ad.Tape()
        bound = bind(tape, params)
        loss = forward(bound, tape)
        value = float(loss.data)
        if not isfinite(value):
            where = "all tasks" if task is None else f"task {task}"
            raise NumericError(
                f"{self.cfg.method}: loss {value} at step {self.steps + 1} "
                f"({where}); the run diverged"
            )
        grads = ad.grads_for(ad.backward(loss), [bound[n] for n in sorted(params)])
        ad.sgd_step([params[n] for n in sorted(params)], grads, self.sgd)
        return self._count(value)

    def _count(self, loss: float) -> float:
        self.steps += 1
        if self.cfg.loss_trace:
            self.trace.append(loss)
        return loss

    def skip_step(self) -> float:
        """Counted step with nothing to train on (empty batch)."""
        return self._count(0.0)

    def report(self, *, oracle_calls: int,
               head_row: list[float] | None) -> RunReport:
        return RunReport(
            config=asdict(self.cfg),
            accuracy=self.matrix.rows,
            final_avg=self.matrix.final_avg,
            oracle_calls=oracle_calls,
            label_fraction=oracle_calls / self.stream.n_samples,
            steps=self.steps,
            missing_classes=self.missing,
            head_accuracy=head_row,
            loss_trace=self.trace if self.cfg.loss_trace else None,
            wall_clock=time.perf_counter() - self.started,
        )


def _head_init(rngs: dict, latent_dim: int, n_classes: int) -> dict[str, np.ndarray]:
    bound = 1.0 / np.sqrt(latent_dim)
    return {
        "head/w": rngs["init"].uniform(-bound, bound, (latent_dim, n_classes)),
        "head/b": np.zeros((1, n_classes)),
    }


def _n_classes(stream: TaskStream) -> int:
    return int(stream.oracle.labels.max()) + 1


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


def _stream_labels(stream: TaskStream, batch: list[Sample]) -> list[int]:
    """Direct label lookup for the supervised baselines (uncharged)."""
    return [stream.oracle.label(s.source_id) for s in batch]


def _train_replay(cfg: TrainConfig, stream: TaskStream,
                  model: MlpSpec | ConvSpec):
    """ours, scr, scr-mo, er and er-mo: one online pass with replay.

    Each step trains on a memory batch, joined by the stream batch for
    ours (unlabeled), scr and er (labeled by direct lookup); the stream
    batch is offered to the reservoir only after the step. The
    contrastive methods train a projection head on two views per
    sample, the others a linear head by cross entropy. Every method is
    scored by NCM over memory after each task.
    """
    harness = _Harness(cfg, stream)
    memory = MemoryBuffer(cfg.mem_size)
    rngs = _spawn_rngs(cfg.seed)
    enc, proj = init_params(_init_seed(rngs), model)
    contrastive = cfg.method in CONTRASTIVE_METHODS
    if contrastive:
        params = {**enc.params, **proj.params}
        aug = cfg.augmentation or _default_augmentation(model)
        loss_cfg = cfg.loss_config()
    else:
        params = {**enc.params,
                  **_head_init(rngs, enc.out_dim, _n_classes(stream))}

    for task, batches in stream.iter_tasks():
        for b_s in batches:
            b_m = retrieve(memory, cfg.mem_batch, rngs["retrieval"])
            samples = [it.sample for it in b_m]
            labels: list[int | None] = [it.label for it in b_m]
            if cfg.method == "ours":
                samples += b_s
                labels += [None] * len(b_s)
            elif cfg.method in SUPERVISED_METHODS:
                samples += b_s
                labels += _stream_labels(stream, b_s)
            if not samples:
                harness.skip_step()
            elif contrastive:
                views, idx = make_multiview(list(zip(samples, labels)), aug,
                                            rngs["augment"])
                harness.step(params, _contrastive_forward(
                    enc, proj, views, idx, loss_cfg), task.index)
            else:
                feats = np.stack([s.features for s in samples])
                harness.step(params, _ce_forward(enc, feats, np.array(labels)),
                             task.index)
            reservoir_update_batch(memory, b_s, stream.oracle, rngs["reservoir"])
        row, harness.missing = evaluate(enc, memory, stream.test_sets)
        harness.matrix.add_row(row)

    head_row = None if contrastive else head_accuracy(
        enc, params["head/w"], params["head/b"][0], stream.test_sets)
    supervised = cfg.method in SUPERVISED_METHODS
    report = harness.report(
        oracle_calls=stream.n_samples if supervised else memory.oracle_calls,
        head_row=head_row,
    )
    return enc, memory, report


def _train_head_only(cfg: TrainConfig, stream: TaskStream,
                     model: MlpSpec | ConvSpec):
    """finetune and offline: cross entropy on stream labels, no memory.

    finetune makes one pass over the stream and is scored by its head
    after each task; offline, the upper reference, makes cfg.epochs
    shuffled passes over the whole training set and is scored once.
    """
    harness = _Harness(cfg, stream)
    rngs = _spawn_rngs(cfg.seed)
    enc, _ = init_params(_init_seed(rngs), model)
    params = {**enc.params, **_head_init(rngs, enc.out_dim, _n_classes(stream))}

    def score():
        harness.matrix.add_row(head_accuracy(
            enc, params["head/w"], params["head/b"][0], stream.test_sets))

    if cfg.method == "finetune":
        for task, batches in stream.iter_tasks():
            for b_s in batches:
                feats = np.stack([s.features for s in b_s])
                labels = np.array(_stream_labels(stream, b_s))
                harness.step(params, _ce_forward(enc, feats, labels), task.index)
            score()
    else:
        feats = stream.data.features
        labels = stream.oracle.labels
        for _ in range(cfg.epochs):
            order = rngs["shuffle"].permutation(len(labels))
            for start in range(0, len(labels), cfg.stream_batch):
                take = order[start:start + cfg.stream_batch]
                harness.step(params, _ce_forward(enc, feats[take], labels[take]),
                             None)
        score()

    report = harness.report(oracle_calls=stream.n_samples,
                            head_row=harness.matrix.rows[-1])
    return enc, None, report


def run(cfg: TrainConfig, stream: TaskStream,
        model: MlpSpec | ConvSpec) -> tuple[Encoder, MemoryBuffer | None, RunReport]:
    """Train cfg.method on the stream: replay for the memory methods,
    head-only training for finetune and offline."""
    if cfg.method in MEMORY_METHODS:
        return _train_replay(cfg, stream, model)
    return _train_head_only(cfg, stream, model)


def expected_steps(cfg: TrainConfig, stream: TaskStream) -> int:
    """The step-count contract: ceil(N / |B_s|) per pass."""
    per_pass = sum(
        ceil(len(t) / stream.batch_size) for t in stream.tasks
    )
    if cfg.method == "offline":
        return cfg.epochs * ceil(stream.n_samples / cfg.stream_batch)
    return per_pass
