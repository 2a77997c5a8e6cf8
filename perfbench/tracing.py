"""Spans around the program's public functions, installed from outside.

`Tracer.install` swaps each target function for a wrapper in every
loaded ``semicon`` module namespace (and methods on their classes), so
calls through ``from .x import f`` bindings are caught too, and puts
the originals back on exit. A span is (name, parent span, start, end);
spans are appended to flat arrays in memory and saved when the run ends.

Two target sets: `BOUNDARY` marks only stream iterations, loss calls
and evaluations (what the end-to-end metrics and the loss check need,
three spans per step); `LAYERS` adds every public function a run calls,
for per-layer numbers. Hooks in `Tracer.after` run after a call with
its (args, result).
"""

from __future__ import annotations

import gc
import resource
import sys
import time
import weakref
from array import array
from contextlib import contextmanager

import numpy as np

from semicon import autodiff, evaluation, losses, memory, models, reports, stream, trainers

PRIMITIVES = (
    "matmul", "gram", "gather", "add", "mul", "scale", "exp", "log", "relu",
    "row_sum", "row_max", "l2_normalize_rows", "reshape", "total_sum", "mean",
)

# (owner, attribute, span name, work counted per call from (args, result))
BOUNDARY = [
    (memory, "retrieve", "memory.retrieve", None),
    (memory, "reservoir_update_batch", "memory.reservoir_update_batch",
     lambda a, r: len(a[1])),
    (evaluation, "evaluate", "evaluation.evaluate",
     lambda a, r: sum(len(ts) for ts in a[2])),
    (evaluation, "head_accuracy", "evaluation.head_accuracy",
     lambda a, r: sum(len(ts) for ts in a[3])),
    (losses, "semicon", "losses.semicon", lambda a, r: a[1].n_views),
    (losses, "cross_entropy", "losses.cross_entropy", None),
]

LAYERS = BOUNDARY + [
    *[(autodiff, p, f"autodiff.{p}", None) for p in PRIMITIVES],
    (autodiff, "backward", "autodiff.backward", lambda a, r: len(a[0].tape.nodes)),
    (autodiff, "sgd_step", "autodiff.sgd_step", None),
    (autodiff, "grads_for", "autodiff.grads_for", None),
    (losses, "loss_mem", "losses.loss_mem", None),
    (losses, "loss_unlab", "losses.loss_unlab", None),
    (losses, "build_masks", "losses.build_masks", None),
    (models.Encoder, "apply", "models.Encoder.apply", None),
    (models.Encoder, "prepare", "models.Encoder.prepare", None),
    (models.ProjectionHead, "apply", "models.ProjectionHead.apply", None),
    (models, "encode", "models.encode", lambda a, r: len(a[1])),
    (models, "init_params", "models.init_params", None),
    (models, "bind", "models.bind", None),
    (memory, "reservoir_update", "memory.reservoir_update", None),
    (stream, "make_multiview", "stream.make_multiview", lambda a, r: len(r[0])),
    (stream, "augment", "stream.augment", None),
    (stream, "split_dataset", "stream.split_dataset", None),
    (stream, "load_cifar_binary", "stream.load_cifar_binary", None),
    (evaluation, "fit_ncm", "evaluation.fit_ncm", None),
    (evaluation, "predict", "evaluation.predict", None),
    (evaluation, "class_means", "evaluation.class_means", None),
    (evaluation, "nearest_mean", "evaluation.nearest_mean", None),
    (trainers, "run", "trainers.run", None),
    (reports, "write_reports", "reports.write_reports", None),
]


@contextmanager
def swapped(owner_attr_wrapper):
    """Replace functions by wrappers until the block exits.

    Takes (owner, attribute, wrapper) triples. A method is replaced on
    its class; a module function is replaced under every name any
    ``semicon`` module binds it to.
    """
    undo = []
    by_id = {}
    for owner, attr, wrapper in owner_attr_wrapper:
        fn = vars(owner)[attr]
        if isinstance(owner, type):
            undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        else:
            by_id[id(fn)] = (fn, wrapper)
    modules = [m for name, m in list(sys.modules.items())
               if name == "semicon" or name.startswith("semicon.")]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    try:
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


class Tracer:
    """Flat in-memory span log plus per-span-name work counters."""

    def __init__(self, targets):
        self.targets = targets
        self.names = [name for _, _, name, _ in targets]
        self.counts = dict.fromkeys(self.names, 0)
        self.after: dict[str, list] = {name: [] for name in self.names}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _wrap(self, fn, nid: int, count):
        name = self.names[nid]
        hooks = self.after[name]
        counts = self.counts
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends = self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if count is not None:
                counts[name] += count(args, result)
            for hook in hooks:
                hook(args, result)
            return result

        return wrapper

    def install(self):
        return swapped([
            (owner, attr, self._wrap(vars(owner)[attr], nid, count))
            for nid, (owner, attr, _, count) in enumerate(self.targets)
        ])

    def spans(self, first: int = 0) -> dict[str, np.ndarray]:
        """Copies of the spans from `first` on (a view would pin the buffers).

        Parent ids stay absolute span indices.
        """
        return {
            "name": np.array(self.name[first:], dtype=np.int32),
            "parent": np.array(self.parent[first:], dtype=np.int32),
            "start": np.array(self.start[first:], dtype=np.float64),
            "end": np.array(self.end[first:], dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HeapWatch:
    """Live `Tape` objects (found by weakref), cyclic-GC passes, and the
    phase in which each rise of the process's peak RSS happened.

    `note_rss(phase)` charges any rise of `ru_maxrss` since the last note
    to `phase`, so it is called at the end of every phase; `peak_phase`
    is the phase of the last rise, the one that set the final peak.
    """

    def __init__(self):
        self.live = weakref.WeakSet()
        self.tapes_live_max = 0
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._gc_started = 0.0
        self.rss_rise_mb: dict[str, float] = {}
        self.peak_phase = ""
        self._rss_mb = 0.0

    def note_rss(self, phase: str) -> None:
        now = max_rss_mb()
        if now > self._rss_mb:
            self.rss_rise_mb[phase] = self.rss_rise_mb.get(phase, 0.0) + now - self._rss_mb
            self.peak_phase = phase
            self._rss_mb = now

    def after_step(self, args, result) -> None:
        self.tapes_live_max = max(self.tapes_live_max, len(self.live))
        self.note_rss("train step")

    def after_evaluate(self, args, result) -> None:
        self.note_rss("evaluation")

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    @contextmanager
    def install(self):
        init = autodiff.Tape.__init__
        live = self.live

        def tracked_init(tape, *args, **kwargs):
            init(tape, *args, **kwargs)
            live.add(tape)

        with swapped([(autodiff.Tape, "__init__", tracked_init)]):
            gc.callbacks.append(self._on_gc)
            try:
                yield self
            finally:
                gc.callbacks.remove(self._on_gc)
