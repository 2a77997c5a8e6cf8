"""What the benchmark in perfbench/ reads of the program stays defined.

The benchmark's tracer swaps functions looked up as `vars(owner)[attr]`,
its output checks read memory records through `MemoryBuffer.items`, and
its loss check reads the labels and pair map of a `MultiviewIndex` and
the settings of a `LossConfig`, and its evaluation throughput counts the
test rows from the third argument of `evaluate` and the fourth of
`head_accuracy`. A refactor that drops any of these would otherwise
fail only the benchmark's own tests. Its per-layer metrics
count training ops as those outside an evaluation span, so ops that
`models.encode` runs on worker threads must still land inside one.
"""

import importlib
import importlib.util
import threading
from pathlib import Path

import numpy as np
import pytest

from semicon import autodiff as ad
from semicon import losses, models, trainers
from semicon.models import ConvSpec, MlpSpec, bind, init_params
from semicon.stream import LabeledDataset, make_multiview, make_synthetic, split_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load("tracing")
    for owner, attr, span, _ in tracing.BOUNDARY + tracing.LAYERS:
        assert callable(vars(owner).get(attr)), f"{span}: {attr} is not defined"


@pytest.mark.parametrize("method, head_scorings", [("ours", 0), ("er", 1)])
def test_traced_evaluations_count_every_test_row_per_scoring(method, head_scorings):
    tracing = load("tracing")
    stream = make_synthetic(6, 5, 4.0, 10, 3, seed=3, batch_size=5, test_per_class=7)
    cfg = trainers.TrainConfig(method, stream_batch=5, mem_size=12, mem_batch=5)
    tracer = tracing.Tracer(tracing.BOUNDARY)
    with tracer.install():
        trainers.run(cfg, stream, MlpSpec(in_dim=5, hidden=(8,)))
    n_test = 6 * 7
    assert tracer.counts["evaluation.evaluate"] == n_test * len(stream.tasks)
    assert tracer.counts["evaluation.head_accuracy"] == n_test * head_scorings


@pytest.fixture(scope="module")
def run_memory():
    stream = make_synthetic(6, 5, 4.0, 20, 3, seed=2, batch_size=5)
    cfg = trainers.TrainConfig("er-mo", stream_batch=5, mem_size=25, mem_batch=5)
    _, memory, _ = trainers.run(cfg, stream, MlpSpec(in_dim=5, hidden=(8,)))
    return stream, memory


def test_memory_items_mirror_the_arrays(run_memory):
    stream, memory = run_memory
    items = memory.items
    assert len(items) == memory.size == 25
    ids = np.array([it.sample.source_id for it in items])
    assert np.array_equal(ids, memory.ids[:memory.size])
    assert np.array_equal([it.label for it in items], memory.labels[:memory.size])
    assert np.array_equal(np.stack([it.sample.features for it in items]),
                          stream.data.features[ids])
    assert [it.sample.source_id for it in items[:-1]] == ids[:-1].tolist()


def test_benchmark_memory_check_passes_and_sees_a_replaced_record(run_memory):
    stream, memory = run_memory
    checks = load("checks")
    truth = (lambda ids: stream.data.features[ids]), stream.oracle.labels
    assert checks.check_memory(memory, *truth, 25) == []
    item = memory.items[0]
    memory.items[0] = type(item)(item.sample, item.label + 1)
    try:
        assert memory.labels[0] == item.label + 1
        assert any("labels wrong" in p for p in checks.check_memory(memory, *truth, 25))
    finally:
        memory.items[0] = item
    assert checks.check_memory(memory, *truth, 25) == []


def test_benchmark_loss_check_passes_on_a_captured_step():
    rng = np.random.default_rng(4)
    labels = np.array([0, 2, 0, -1, 1, -1])
    views, idx = make_multiview(rng.normal(size=(6, 5)), labels, rng)
    enc, proj = init_params(5, MlpSpec(in_dim=5, hidden=(8,)))
    cfg = trainers.TrainConfig("ours", alpha=0.4).loss_config()
    tape = ad.Tape()
    bound = bind(tape, {**enc.params, **proj.params})
    z = proj.apply(bound, enc.apply(bound, tape.const(enc.prepare(views))))
    args = (z, idx, losses.build_masks(idx), cfg)
    got = float(losses.semicon(*args).data)
    captured = [a.data if isinstance(a, ad.Var) else a for a in args]
    checks = load("checks")
    assert checks.check_unified_loss(captured, got) == []
    assert checks.check_unified_loss(captured, got + 1e-3)


class ThreadTagged(list):
    """A span column that also notes the thread that appended each entry."""

    def __init__(self):
        super().__init__()
        self.threads = []
        self._lock = threading.Lock()

    def append(self, value):
        with self._lock:
            super().append(value)
            self.threads.append(threading.get_ident())


def test_ops_of_encode_worker_threads_trace_inside_evaluation(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    layers = importlib.import_module("layers")
    spec = ConvSpec(in_shape=(2, 12, 12), channels=(2, 3), out_dim=5)
    monkeypatch.setattr(models, "ENCODE_SLICE_VALUES", 3 * 2 * 12 * 12)
    monkeypatch.setattr(models, "_usable_cpus", lambda: 2)
    rng = np.random.default_rng(5)

    def images(per_class):
        labels = np.repeat(np.arange(4), per_class)
        return LabeledDataset(rng.uniform(size=(len(labels), 2, 12, 12)), labels)

    stream = split_dataset(images(6), 2, seed=5, batch_size=4, test_data=images(4))
    cfg = trainers.TrainConfig("ours", stream_batch=4, mem_size=8, mem_batch=4)
    tracer = tracing.Tracer(tracing.LAYERS)
    tracer.name = ThreadTagged()
    with tracer.install():
        trainers.run(cfg, stream, spec)

    spans = tracer.spans()
    inside = layers._in_eval(tracer.names, spans["name"], spans["parent"])
    primitive = np.isin(spans["name"], [tracer.names.index(f"autodiff.{p}")
                                        for p in tracing.PRIMITIVES])
    worker = np.array(tracer.name.threads) != threading.get_ident()
    assert (primitive & worker).any() and (primitive & ~inside).any()
    assert inside[primitive & worker].all()
