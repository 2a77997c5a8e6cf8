"""Training loops: determinism, budgets, step counts, method contracts."""

import dataclasses
import gc

import numpy as np
import pytest

import reference
from reference import CountingOracle
from semicon import autodiff as ad
from semicon import losses, trainers
from semicon.errors import ConfigError, NumericError
from semicon.models import ConvSpec, MlpSpec, bind, init_params
from semicon.reports import canonical_json, from_json, to_json
from semicon.stream import (
    LabeledDataset,
    make_multiview,
    make_synthetic,
    split_dataset,
)
from semicon.trainers import TrainConfig, run


def small_stream(seed=0, separation=3.0, per_class=10, n_classes=4,
                 n_tasks=2, dim=5, batch_size=5):
    return make_synthetic(n_classes, dim, separation, per_class, n_tasks,
                          seed, batch_size=batch_size, test_per_class=10)


MODEL = MlpSpec(in_dim=5, hidden=(12,), out_dim=8)


def cfg_for(method, **kw):
    kw.setdefault("stream_batch", 5)
    if method in trainers.MEMORY_METHODS:
        kw.setdefault("mem_size", 30)
        kw.setdefault("mem_batch", 8)
    return TrainConfig(method=method, **kw)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_fills_method_defaults():
    cfg = TrainConfig(method="ours")
    assert cfg.alpha == 1.0
    assert cfg.tau == 0.07
    assert cfg.mem_size == 200 and cfg.mem_batch == 100
    off = TrainConfig(method="offline")
    assert off.epochs == 50
    assert off.tau is None and off.mem_size is None


def test_loss_config_fills_unified_defaults():
    ours = TrainConfig(method="ours", alpha=0.3, tau=0.2)
    assert ours.loss_config() == losses.LossConfig(
        tau=0.2, alpha=0.3, reduction="mean")
    # scr leaves alpha unset; the report keeps it None
    scr = TrainConfig(method="scr")
    assert scr.loss_config() == losses.LossConfig(tau=0.07, reduction="mean")
    assert scr.alpha is None
    # the trainer's defaults are the loss's own; it averages over anchors
    assert TrainConfig("ours").loss_config() == losses.LossConfig(reduction="mean")


def test_config_rejects_foreign_fields():
    with pytest.raises(ConfigError, match="alpha does not apply"):
        TrainConfig(method="scr", alpha=0.5)
    with pytest.raises(ConfigError, match="tau does not apply"):
        TrainConfig(method="er", tau=0.07)
    with pytest.raises(ConfigError, match="epochs does not apply to ours"):
        TrainConfig(method="ours", epochs=3)
    with pytest.raises(ConfigError, match="mem_size does not apply to finetune"):
        TrainConfig(method="finetune", mem_size=100)
    with pytest.raises(ConfigError, match="mem_batch does not apply to finetune"):
        TrainConfig(method="finetune", mem_batch=10)
    with pytest.raises(ConfigError, match="unknown method"):
        TrainConfig(method="dreaming")


def test_config_validates_numbers():
    with pytest.raises(ConfigError, match="learning rate"):
        TrainConfig(method="ours", learning_rate=0.0)
    with pytest.raises(ConfigError, match="stream batch"):
        TrainConfig(method="ours", stream_batch=0)
    with pytest.raises(ValueError, match="temperature"):
        TrainConfig(method="ours", tau=-1.0)


def test_config_rejects_memory_batch_larger_than_memory():
    with pytest.raises(ConfigError, match=r"mem_batch 31 .* mem_size 30"):
        TrainConfig(method="ours", mem_size=30, mem_batch=31)
    with pytest.raises(ConfigError, match=r"mem_batch 100 .* mem_size 50"):
        TrainConfig(method="er", mem_size=50)
    assert TrainConfig(method="er", mem_size=30, mem_batch=30).mem_batch == 30


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method, where", [
    ("er", r"task \d"),
    ("offline", "all tasks"),  # the one pass over every task at once
], ids=["er", "offline"])
def test_diverging_loss_stops_the_run(method, where):
    stream = small_stream(seed=5)
    with pytest.raises(NumericError,
                       match=rf"^{method}: loss .* at step \d+ \({where}\)"):
        run(cfg_for(method, seed=1, learning_rate=1e18), stream, MODEL)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method, separation, where", [
    ("ours", 3.0, "task 0"),
    ("offline", 30.0, "all tasks"),  # only its linear head overflows
], ids=["ours", "offline"])
def test_diverged_parameters_are_never_scored(method, separation, where):
    # one step on one batch: its loss is finite, the update overflows; the
    # anchor-mean gradient of ours is large enough only at a sharp tau
    stream = make_synthetic(4, 6, separation, 5, 1, seed=0, batch_size=20,
                            test_per_class=5)
    kw = ({"mem_size": 20, "mem_batch": 10, "tau": 0.01} if method == "ours"
          else {"epochs": 1})
    cfg = TrainConfig(method, stream_batch=20, learning_rate=1e308, **kw)
    with pytest.raises(NumericError,
                       match=rf"^{method}: parameter \S+ is not finite \({where}\)"):
        run(cfg, stream, MlpSpec(in_dim=6))


def test_stream_batch_mismatch_rejected():
    stream = small_stream(batch_size=5)
    cfg = cfg_for("ours", stream_batch=10)
    with pytest.raises(ConfigError, match="stream_batch"):
        run(cfg, stream, MODEL)


# ---------------------------------------------------------------------------
# determinism and reporting
# ---------------------------------------------------------------------------

def test_run_report_is_byte_identical_across_runs():
    stream1 = small_stream(seed=4)
    stream2 = small_stream(seed=4)
    cfg = cfg_for("ours", seed=9, loss_trace=True)
    _, _, rep1 = run(cfg, stream1, MODEL)
    _, _, rep2 = run(cfg, stream2, MODEL)
    assert canonical_json(rep1) == canonical_json(rep2)
    assert rep1 == rep2  # wall clock excluded from equality


def test_trained_encoder_is_deterministic():
    enc1, _, _ = run(cfg_for("ours", seed=5), small_stream(seed=1), MODEL)
    enc2, _, _ = run(cfg_for("ours", seed=5), small_stream(seed=1), MODEL)
    for name in enc1.params:
        assert np.array_equal(enc1.params[name], enc2.params[name])


def test_seed_changes_the_run():
    _, _, rep1 = run(cfg_for("ours", seed=5), small_stream(seed=1), MODEL)
    _, _, rep2 = run(cfg_for("ours", seed=6), small_stream(seed=1), MODEL)
    assert canonical_json(rep1) != canonical_json(rep2)


def test_report_round_trips_through_json():
    _, _, rep = run(cfg_for("er", seed=2, loss_trace=True),
                    small_stream(seed=2), MODEL)
    again = from_json(to_json(rep))
    assert again == rep
    assert canonical_json(again) == canonical_json(rep)


def test_report_echoes_config():
    cfg = cfg_for("ours", seed=3, alpha=0.18)
    _, _, rep = run(cfg, small_stream(seed=3), MODEL)
    assert rep.config["method"] == "ours"
    assert rep.config["alpha"] == 0.18
    assert rep.config["mem_size"] == 30


# ---------------------------------------------------------------------------
# step counts and budgets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", trainers.METHODS)
def test_step_count_contract(method):
    stream = small_stream(seed=6)
    kw = {"epochs": 2} if method == "offline" else {}
    cfg = cfg_for(method, seed=1, **kw)
    _, _, rep = run(cfg, stream, MODEL)
    assert rep.steps == reference.expected_steps(cfg, stream)
    if method != "offline":
        assert rep.steps == sum(1 for _, batches in stream.iter_tasks()
                                for _ in batches)


def test_ragged_tasks_step_count():
    # 2 tasks x 15 samples, batch 4 -> 4 batches per task
    stream = small_stream(seed=7, per_class=15, n_classes=2, batch_size=4)
    cfg = cfg_for("ours", stream_batch=4, seed=0)
    _, _, rep = run(cfg, stream, MODEL)
    assert rep.steps == 8 == reference.expected_steps(cfg, stream)


def test_budgeted_methods_report_partial_labels():
    stream = small_stream(seed=8, per_class=25)  # N = 100
    for method in ("ours", "scr-mo", "er-mo"):
        cfg = cfg_for(method, seed=1, mem_size=10, mem_batch=5)
        _, mem, rep = run(cfg, stream, MODEL)
        assert rep.oracle_calls == mem.oracle_calls
        assert rep.label_fraction == mem.oracle_calls / 100 < 1.0


def test_supervised_methods_report_full_labels():
    stream = small_stream(seed=9)
    for method in ("scr", "er", "finetune", "offline"):
        kw = {"epochs": 1} if method == "offline" else {}
        _, _, rep = run(cfg_for(method, seed=1, **kw), stream, MODEL)
        assert rep.label_fraction == 1.0
        assert rep.oracle_calls == len(stream.data)


def test_full_memory_means_full_label_budget():
    stream = small_stream(seed=10)  # N = 80
    cfg = cfg_for("ours", seed=2, mem_size=200, mem_batch=8)
    _, mem, rep = run(cfg, stream, MODEL)
    assert mem.size == len(stream.data)
    assert rep.label_fraction == 1.0


def test_er_with_huge_memory_holds_everything():
    stream = small_stream(seed=11)
    cfg = cfg_for("er-mo", seed=2, mem_size=500, mem_batch=8)
    _, mem, rep = run(cfg, stream, MODEL)
    assert mem.size == len(stream.data)
    assert rep.label_fraction == 1.0


# ---------------------------------------------------------------------------
# order fidelity and oracle isolation
# ---------------------------------------------------------------------------

def test_memory_update_follows_the_sgd_step(monkeypatch):
    # nothing retrieved at step k may come from step k's own batch
    stream = small_stream(seed=12)
    offered: list[set] = []
    retrieved: list[set] = []
    real_retrieve = trainers.retrieve
    real_update = trainers.reservoir_update_batch

    def spy_retrieve(buf, k, rng):
        got = real_retrieve(buf, k, rng)
        retrieved.append(set(got[0].tolist()))
        return got

    def spy_update(buf, batch, oracle, rng):
        offered.append(set(batch.tolist()))
        return real_update(buf, batch, oracle, rng)

    monkeypatch.setattr(trainers, "retrieve", spy_retrieve)
    monkeypatch.setattr(trainers, "reservoir_update_batch", spy_update)
    run(cfg_for("ours", seed=3), stream, MODEL)
    seen: set = set()
    for step, ids in enumerate(retrieved):
        assert ids <= seen, f"step {step} retrieved unoffered samples"
        seen |= offered[step]


def test_scr_mo_batch_is_mem_batch_once_full(monkeypatch):
    stream = small_stream(seed=13)
    sizes = []
    real = trainers.make_multiview

    def spy(feats, labels, rng):
        sizes.append(len(labels))
        return real(feats, labels, rng)

    monkeypatch.setattr(trainers, "make_multiview", spy)
    cfg = cfg_for("scr-mo", seed=4, mem_size=100, mem_batch=5)
    _, _, rep = run(cfg, stream, MODEL)
    # step 1 trains on nothing (empty memory) and is still counted
    assert rep.steps == reference.expected_steps(cfg, stream)
    assert len(sizes) == rep.steps - 1
    assert sizes[0] == 5  # batch 1 already left 5 items in memory
    assert all(s == 5 for s in sizes)


def test_budgeted_methods_never_touch_stream_labels():
    # every label a budgeted run reads is bought by a reservoir store;
    # scr also looks up each stream sample's label directly, once
    base = small_stream(seed=14)
    for method in ("ours", "scr-mo", "er-mo", "scr"):
        stream = dataclasses.replace(base, oracle=CountingOracle(base.oracle.labels))
        _, mem, _ = run(cfg_for(method, seed=5), stream, MODEL)
        direct = len(stream.data) if method == "scr" else 0
        assert stream.oracle.calls[0] == mem.oracle_calls + direct


@pytest.mark.parametrize("method", ["ours", "scr-mo", "er-mo"])
def test_budgeted_memory_labels_come_from_oracle_stores(method):
    # every label a budgeted run holds was bought by one oracle call per
    # store, and the memory holds exactly the true labels of its ids
    base = small_stream(seed=14, per_class=25)
    stream = dataclasses.replace(base, oracle=CountingOracle(base.oracle.labels))
    _, mem, rep = run(cfg_for(method, seed=5, mem_size=10, mem_batch=5),
                      stream, MODEL)
    assert stream.oracle.calls[0] == mem.oracle_calls == rep.oracle_calls
    assert mem.oracle_calls < len(stream.data)
    ids = mem.ids[:mem.size]
    assert np.array_equal(mem.labels[:mem.size], base.oracle.labels[ids])


# ---------------------------------------------------------------------------
# step-0 loss oracles
# ---------------------------------------------------------------------------

def replay_first_batch(stream):
    _, batches = next(stream.iter_tasks())
    return next(batches)


def test_er_step0_loss_matches_ce_oracle():
    stream = small_stream(seed=15)
    cfg = cfg_for("er", seed=7, loss_trace=True)
    _, _, rep = run(cfg, stream, MODEL)

    rngs = trainers._spawn_rngs(cfg.seed)
    enc, _ = init_params(int(rngs["init"].integers(0, 2**63 - 1)), MODEL)
    head = trainers._head_init(rngs, enc.out_dim, 4)
    batch = replay_first_batch(small_stream(seed=15))
    feats = stream.data.features[batch]
    labels = stream.oracle.label(batch)
    latents = feats  # recompute through the same forward
    tape = ad.Tape()
    bound = bind(tape, {**enc.params, **head})
    h = enc.apply(bound, tape.const(enc.prepare(feats)))
    logits = (h.data @ head["head/w"]) + head["head/b"]
    want = reference.cross_entropy(logits, labels)
    assert rep.loss_trace[0] == pytest.approx(want, rel=1e-10)


def test_scr_step0_loss_matches_semicon_on_all_labeled_batch():
    # an all-labeled multiview batch makes SemiCon and SupCon coincide,
    # so the supervised trainer's first loss is predictable from either
    stream = small_stream(seed=16)
    cfg = cfg_for("scr", seed=8, loss_trace=True)
    _, _, rep = run(cfg, stream, MODEL)

    rngs = trainers._spawn_rngs(cfg.seed)
    enc, proj = init_params(int(rngs["init"].integers(0, 2**63 - 1)), MODEL)
    batch = replay_first_batch(small_stream(seed=16))
    views, idx = make_multiview(
        stream.data.features[batch], stream.oracle.label(batch), rngs["augment"],
    )
    tape = ad.Tape()
    bound = bind(tape, {**enc.params, **proj.params})
    z = proj.apply(bound, enc.apply(bound, tape.const(enc.prepare(views))))
    want = float(losses.semicon(z, idx, losses.build_masks(idx),
                                losses.LossConfig(tau=0.07, alpha=0.31,
                                                  reduction="mean")).data)
    assert rep.loss_trace[0] == pytest.approx(want, rel=1e-10)


def test_ours_and_scr_mo_losses_differ_with_alpha_zero():
    # unlabeled stream views crowd our denominators even at alpha=0;
    # scr-mo never sees them
    stream1 = small_stream(seed=17)
    stream2 = small_stream(seed=17)
    ours = cfg_for("ours", seed=9, alpha=0.0, loss_trace=True)
    scrmo = cfg_for("scr-mo", seed=9, loss_trace=True)
    _, _, rep_ours = run(ours, stream1, MODEL)
    _, _, rep_scrmo = run(scrmo, stream2, MODEL)
    later = slice(2, None)
    assert any(
        a > 0 and b > 0 and abs(a - b) > 1e-6
        for a, b in zip(rep_ours.loss_trace[later], rep_scrmo.loss_trace[later])
    )


def test_single_class_stream_gives_zero_ce_loss():
    stream = make_synthetic(1, 4, 1.0, 20, 1, seed=18, batch_size=5)
    cfg = cfg_for("er", seed=10, loss_trace=True)
    _, _, rep = run(cfg, stream, MODEL.__class__(in_dim=4, hidden=(6,), out_dim=4))
    assert all(abs(v) < 1e-12 for v in rep.loss_trace)


# ---------------------------------------------------------------------------
# learning outcomes
# ---------------------------------------------------------------------------

def test_ours_beats_finetune_on_synthetic_tasks():
    # the qualitative continual-learning ordering, seed-paired means
    model = MlpSpec(in_dim=6, hidden=(16,), out_dim=8)
    ours, ft = [], []
    for seed in range(4):
        make = lambda: make_synthetic(4, 6, 3.0, 50, 2, seed=100 + seed,
                                      batch_size=10, test_per_class=25)
        ours_cfg = TrainConfig(method="ours", seed=seed, stream_batch=10,
                               mem_size=50, mem_batch=20)
        ft_cfg = TrainConfig(method="finetune", seed=seed, stream_batch=10)
        _, _, rep_ours = run(ours_cfg, make(), model)
        _, _, rep_ft = run(ft_cfg, make(), model)
        ours.append(rep_ours.final_avg)
        ft.append(rep_ft.final_avg)
    assert np.mean(ours) > np.mean(ft)


def test_finetune_forgets_early_tasks():
    stream = make_synthetic(4, 6, 3.0, 50, 2, seed=100, batch_size=10,
                            test_per_class=25)
    cfg = TrainConfig(method="finetune", seed=0, stream_batch=10)
    _, _, rep = run(cfg, stream, MlpSpec(in_dim=6, hidden=(16,), out_dim=8))
    acc = rep.accuracy
    # after task 2, task 1 has collapsed relative to its own heyday
    assert acc[1][0] < acc[0][0] - 0.3
    # forgetting signature on the final row
    assert acc[1][1] > acc[1][0]


def test_offline_masters_separable_data():
    stream = make_synthetic(4, 6, 10.0, 25, 2, seed=22, batch_size=10,
                            test_per_class=15)
    cfg = TrainConfig(method="offline", seed=2, stream_batch=10, epochs=30)
    _, _, rep = run(cfg, stream, MlpSpec(in_dim=6, hidden=(16,), out_dim=8))
    assert rep.final_avg > 0.95
    assert rep.steps == 30 * 10


def test_offline_single_epoch_is_one_pass():
    stream = small_stream(seed=23)
    cfg = cfg_for("offline", seed=3, epochs=1)
    _, _, rep = run(cfg, stream, MODEL)
    assert rep.steps == len(stream.data) // 5


def test_er_mo_reports_head_and_ncm_separately():
    _, _, rep = run(cfg_for("er-mo", seed=4), small_stream(seed=24), MODEL)
    assert rep.head_accuracy is not None
    assert len(rep.head_accuracy) == 2
    assert len(rep.accuracy[-1]) == 2


def test_ours_reports_no_head_accuracy():
    _, _, rep = run(cfg_for("ours", seed=4), small_stream(seed=25), MODEL)
    assert rep.head_accuracy is None


TINY_CONV = ConvSpec(in_shape=(2, 12, 12), channels=(2, 3), out_dim=5)


def tiny_image_stream(seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(4), 6)
    train = LabeledDataset(rng.uniform(size=(24, 2, 12, 12)), labels)
    test = LabeledDataset(rng.uniform(size=(8, 2, 12, 12)), labels[::3])
    return split_dataset(train, 2, seed, batch_size=5, test_data=test)


def _live_tapes() -> int:
    return sum(isinstance(o, ad.Tape) for o in gc.get_objects())


@pytest.mark.parametrize("method,stream,model", [
    ("ours", small_stream, MODEL),
    ("ours", tiny_image_stream, TINY_CONV),
    ("er", small_stream, MODEL),
], ids=["ours-mlp", "ours-conv", "er-mlp"])
def test_run_frees_every_tape_without_the_cyclic_gc(method, stream, model):
    data = stream(seed=26)
    gc.collect()
    before = _live_tapes()
    gc.disable()
    try:
        _, _, rep = run(cfg_for(method, seed=5), data, model)
        after = _live_tapes()
    finally:
        gc.enable()
    assert rep.steps > 0
    assert after == before
