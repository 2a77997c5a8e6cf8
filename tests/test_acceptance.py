"""Acceptance gate: nine checks, one printed verdict line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
verdict lines. Every check pins its tolerance and, where relevant, its
runtime budget.
"""

import time

import numpy as np
import pytest
from scipy import stats

import reference
from reference import loss_value
from semicon import autodiff as ad
from semicon import losses
from semicon.errors import DataError
from semicon.losses import LossConfig, MultiviewIndex, build_masks, semicon
from semicon.memory import (MemoryBuffer, Oracle, expected_oracle_calls,
                            reservoir_update_batch)
from semicon.models import MlpSpec, bind, init_params
from semicon.reports import canonical_json
from semicon.stream import load_cifar_binary, make_synthetic
from semicon.trainers import TrainConfig, run

N_CHECKS = 9


def verdict(index, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{index}/{N_CHECKS}] {status} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_batch(rng, *, kind="mixed", max_sources=8, max_dim=16):
    """Unit-row projections plus view bookkeeping for a random batch."""
    b = rng.integers(2, max_sources + 1)
    d = rng.integers(2, max_dim + 1)
    if kind == "labeled":
        source_labels = [int(v) for v in rng.integers(0, 3, b)]
    elif kind == "unlabeled":
        source_labels = [-1] * b
    else:
        source_labels = [int(v) if v >= 0 else -1
                         for v in rng.integers(-2, 3, b)]
        source_labels[0] = 0  # at least one labeled and one unlabeled
        source_labels[1] = -1
    idx = MultiviewIndex.from_sources(source_labels)
    z = rng.normal(size=(2 * b, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z, idx


def reference_semicon(z, idx, tau, alpha):
    labeled = np.asarray(idx.labeled)
    mem = reference.loss_mem(z, labeled, np.asarray(idx.labels), tau)
    unlab = reference.loss_unlab(z, labeled, np.asarray(idx.pair), tau)
    return mem + alpha * unlab


def test_1_loss_matches_scalar_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(120):
        z, idx = random_batch(rng)
        tau = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(0.0, 2.0))
        got = loss_value(semicon, z, idx, build_masks(idx),
                         LossConfig(tau=tau, alpha=alpha))
        want = reference_semicon(z, idx, tau, alpha)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.perf_counter() - started
    verdict(1, "loss equals scalar oracle", worst < 1e-10 and elapsed < 10,
            f"max rel err {worst:.2e} (<1e-10) on 120 mixed batches, "
            f"{elapsed:.1f}s (<10s)")


def test_2_reductions_to_known_losses():
    rng = np.random.default_rng(12)
    worst_sup = worst_pair = 0.0
    for _ in range(100):
        z, idx = random_batch(rng, kind="labeled")
        tau = float(rng.uniform(0.05, 1.0))
        want = reference.supcon(z, np.asarray(idx.labels), tau)
        for alpha in (0.0, 0.18, 1.0, 1.78):
            got = loss_value(semicon, z, idx, build_masks(idx),
                             LossConfig(tau=tau, alpha=alpha))
            worst_sup = max(worst_sup, abs(got - want) / max(1.0, abs(want)))
    for _ in range(100):
        z, idx = random_batch(rng, kind="unlabeled")
        tau = float(rng.uniform(0.05, 1.0))
        got = loss_value(semicon, z, idx, build_masks(idx),
                         LossConfig(tau=tau, alpha=1.0))
        want = reference.pair_contrastive(z, np.asarray(idx.pair), tau)
        worst_pair = max(worst_pair, abs(got - want) / max(1.0, abs(want)))
    ok = worst_sup < 1e-10 and worst_pair < 1e-10
    verdict(2, "reductions to known losses", ok,
            f"all-labeled vs supervised-contrastive {worst_sup:.2e}, "
            f"all-unlabeled vs pair-contrastive {worst_pair:.2e} (<1e-10, "
            f"100 batches each)")


def test_3_gradients_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(13)
    worst = 0.0
    for trial in range(14):
        in_dim = int(rng.integers(3, 6))
        spec = MlpSpec(in_dim=in_dim,
                       hidden=(int(rng.integers(4, 7)),),
                       out_dim=int(rng.integers(4, 7)))
        head_hidden = None if trial % 2 else int(rng.integers(3, 6))
        enc, proj = init_params(int(rng.integers(2**31)), spec,
                                head_hidden=head_hidden,
                                proj_dim=int(rng.integers(4, 7)))
        b = int(rng.integers(2, 4))
        source_labels = [0, -1] + [int(v) for v in rng.integers(-1, 2, b - 2)]
        idx = MultiviewIndex.from_sources(source_labels)
        mask = build_masks(idx)
        cfg = LossConfig(tau=float(rng.uniform(0.2, 1.0)),
                         alpha=float(rng.uniform(0.0, 2.0)))
        x = rng.normal(size=(2 * b, in_dim))
        names = sorted({**enc.params, **proj.params})
        values = {**enc.params, **proj.params}

        def f(pvars, names=names, x=x, enc=enc, proj=proj, idx=idx,
              mask=mask, cfg=cfg):
            tape = pvars[0].tape
            bound = dict(zip(names, pvars))
            h = enc.apply(bound, tape.const(x))
            return losses.semicon(proj.apply(bound, h), idx, mask, cfg)

        # stiff composition: shrink the step so truncation error, which
        # falls off quadratically, sits well under the tolerance
        err = reference.finite_diff_check(f, [values[n] for n in names], step=1e-7)
        worst = max(worst, err)
    for _ in range(8):
        z_raw, idx = random_batch(rng, max_sources=3, max_dim=5)
        mask = build_masks(idx)
        cfg = LossConfig(tau=float(rng.uniform(0.2, 1.0)),
                         alpha=float(rng.uniform(0.0, 2.0)))

        def g(pvars, idx=idx, mask=mask, cfg=cfg):
            return losses.semicon(ad.l2_normalize_rows(pvars[0]), idx,
                                  mask, cfg)

        worst = max(worst, reference.finite_diff_check(g, [z_raw], step=1e-7))
    elapsed = time.perf_counter() - started
    verdict(3, "gradients match finite differences",
            worst < 1e-6 and elapsed < 60,
            f"max rel err {worst:.2e} (<1e-6) over 22 configurations, "
            f"{elapsed:.1f}s (<60s)")


def test_4_label_budget_fractions():
    # the closed form is exact, so it misses the table only by its rounding
    n = 50_000
    expected = {200: 2.6, 500: 5.6, 1000: 9.8, 2000: 16.9, 5000: 33.0}
    offsets = {m: 100.0 * expected_oracle_calls(m, n) / n - pct
               for m, pct in expected.items()}
    worst = max(abs(v) for v in offsets.values())
    detail = ", ".join(f"M={m}: {expected[m] + off:.2f}%"
                       for m, off in offsets.items())
    verdict(4, "label budget fractions", worst <= 0.05,
            f"{detail}; max offset {worst:.3f}pp (<=0.05pp, the table's rounding)")


def test_5_reservoir_uniformity():
    m, n, trials = 10, 100, 10_000
    rng = np.random.default_rng(0)
    oracle = Oracle(np.zeros(n, dtype=np.int64))
    stream = np.arange(n)
    rows = np.zeros((n, 1))  # a feature row per source id

    counts = np.zeros(n)
    for _ in range(trials):
        buf = MemoryBuffer(m, rows)
        reservoir_update_batch(buf, stream, oracle, rng)
        counts[buf.ids[:buf.size]] += 1
    chi2, p = stats.chisquare(counts, f_exp=np.full(n, trials * m / n))
    verdict(5, "reservoir inclusion is uniform", p > 0.01,
            f"chi-square {chi2:.1f} over {n} cells, p={p:.3f} (>0.01), "
            f"{trials} trials")


def test_6_method_ordering_on_synthetic_streams():
    started = time.perf_counter()
    model = MlpSpec(in_dim=6)
    finals = {"ours": [], "finetune": [], "scr-mo": []}
    last_rows = []
    for rep in range(10):
        for method in finals:
            stream = make_synthetic(4, 6, 3.0, 50, 2, seed=100 + rep,
                                    batch_size=10, test_per_class=25)
            kw = {} if method == "finetune" else {"mem_size": 50,
                                                  "mem_batch": 20}
            cfg = TrainConfig(method=method, seed=rep, stream_batch=10, **kw)
            _, _, report = run(cfg, stream, model)
            finals[method].append(report.final_avg)
            if method == "finetune":
                last_rows.append(report.accuracy[-1])
    elapsed = time.perf_counter() - started
    ours = np.mean(finals["ours"])
    ft = np.mean(finals["finetune"])
    scrmo = np.mean(finals["scr-mo"])
    last = np.mean(last_rows, axis=0)
    forgetting = last[-1] > np.mean(last[:-1])
    ok = ours > ft and ours >= scrmo - 0.02 and forgetting and elapsed < 300
    verdict(6, "method ordering on synthetic streams", ok,
            f"ours {ours:.3f} > finetune {ft:.3f}; "
            f"ours >= scr-mo {scrmo:.3f} - 0.02; finetune last row "
            f"{np.round(last, 3).tolist()} shows forgetting; "
            f"10 seed-paired reps, {elapsed:.1f}s (<300s)")


def test_7_alpha_zero_still_differs_from_memory_only():
    rng = np.random.default_rng(17)
    gaps = []
    for _ in range(20):
        z, idx = random_batch(rng)
        full = loss_value(semicon, z, idx, build_masks(idx),
                          LossConfig(tau=0.07, alpha=0.0))
        labeled = np.asarray(idx.labeled)
        z_mem = z[labeled]
        mem_only = reference.supcon(z_mem, np.asarray(idx.labels)[labeled],
                                    0.07)
        gaps.append(full - mem_only)
    gaps = np.asarray(gaps)
    ok = bool((gaps > 1e-6).all())
    verdict(7, "alpha=0 keeps unlabeled negatives", ok,
            f"loss gap to memory-only batches in "
            f"[{gaps.min():.2e}, {gaps.max():.2e}] (>1e-6 on 20 batches)")


def test_8_reports_are_deterministic():
    def one_run():
        stream = make_synthetic(4, 5, 3.0, 10, 2, seed=42, batch_size=5,
                                test_per_class=5)
        cfg = TrainConfig(method="ours", seed=7, stream_batch=5,
                          mem_size=20, mem_batch=8, loss_trace=True)
        _, _, report = run(cfg, stream, MlpSpec(in_dim=5))
        return canonical_json(report)

    first, second = one_run(), one_run()
    verdict(8, "reports are deterministic", first == second,
            f"two identical runs serialize to the same {len(first)} bytes")


def test_9_cifar_ingestion(tmp_path):
    labels = [5, 0, 9]
    records = []
    for i, label in enumerate(labels):
        pixels = (np.arange(3072) + i) % 256
        records.append(np.concatenate([[label], pixels]).astype(np.uint8))
    path = tmp_path / "batch.bin"
    np.concatenate(records).tofile(path)
    data = load_cifar_binary(path)
    expected = np.stack([((np.arange(3072) + i) % 256).reshape(3, 32, 32)
                         for i in range(3)]) / 255.0
    exact = (data.features == expected).all() and list(data.labels) == labels

    broken = tmp_path / "broken.bin"
    broken.write_bytes(path.read_bytes()[: 2 * 3073 + 100])
    with pytest.raises(DataError, match="truncated record at byte 6146"):
        load_cifar_binary(broken)
    verdict(9, "cifar binary ingestion", bool(exact),
            "3-record fixture parses exactly; truncation reports byte 6146")
