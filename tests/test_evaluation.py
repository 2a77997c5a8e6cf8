"""NCM classifier and accuracy bookkeeping."""

import numpy as np
import pytest

import reference
from semicon.errors import DataError
from semicon.evaluation import (
    AccuracyMatrix,
    ClassMeans,
    class_means,
    evaluate,
    fit_ncm,
    head_accuracy,
    nearest_mean,
    normalize_rows,
    predict,
)
from semicon.memory import MemoryBuffer, MemoryItem
from semicon.models import MlpSpec, encode, init_params
from semicon.stream import LabeledDataset, Sample


def make_memory(feats, labels):
    buf = MemoryBuffer(capacity=len(feats))
    for i, (x, y) in enumerate(zip(feats, labels)):
        buf.items.append(MemoryItem(Sample(np.asarray(x, float), i), int(y)))
        buf.seen += 1
        buf.oracle_calls += 1
    return buf


def make_encoder(in_dim, out_dim=6, seed=0):
    enc, _ = init_params(seed, MlpSpec(in_dim=in_dim, hidden=(8,), out_dim=out_dim))
    return enc


# ---------------------------------------------------------------------------
# class means
# ---------------------------------------------------------------------------

def test_single_item_per_class_mean_is_the_latent():
    latents = np.array([[3.0, 4.0], [0.0, 2.0]])
    cm = class_means(latents, [1, 0])
    assert np.array_equal(cm.class_ids, [0, 1])
    assert np.allclose(cm.means, [[0.0, 1.0], [0.6, 0.8]], atol=1e-15)


def test_identical_items_mean_is_the_item():
    latents = np.array([[1.0, 0.0], [1.0, 0.0]])
    cm = class_means(latents, [3, 3])
    assert np.allclose(cm.means, [[1.0, 0.0]], atol=1e-15)


def test_class_means_match_scalar_loop():
    rng = np.random.default_rng(0)
    latents = rng.normal(size=(12, 5))
    labels = rng.integers(0, 3, size=12)
    cm = class_means(latents, labels)
    normed = latents / np.linalg.norm(latents, axis=1, keepdims=True)
    for k, c in enumerate(cm.class_ids):
        rows = [normed[i] for i in range(12) if labels[i] == c]
        want = np.mean(rows, axis=0)
        want = want / np.linalg.norm(want)
        assert np.allclose(cm.means[k], want, atol=1e-12)


def test_class_means_requires_classes():
    with pytest.raises(DataError):
        ClassMeans(np.array([]), np.zeros((0, 2)))


# ---------------------------------------------------------------------------
# nearest-mean classification
# ---------------------------------------------------------------------------

def test_single_class_always_wins():
    cm = class_means(np.array([[1.0, 0.0]]), [4])
    rng = np.random.default_rng(1)
    preds = nearest_mean(cm, rng.normal(size=(10, 2)))
    assert np.all(preds == 4)


def test_separated_blobs_classify_by_proximity():
    cm = class_means(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 1])
    preds = nearest_mean(cm, np.array([[0.9, 0.1], [0.05, 2.0]]))
    assert list(preds) == [0, 1]


def test_nearest_mean_matches_brute_force():
    rng = np.random.default_rng(2)
    cm = class_means(rng.normal(size=(20, 6)), rng.integers(0, 5, size=20))
    queries = rng.normal(size=(30, 6))
    got = nearest_mean(cm, queries)
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    want = [cm.class_ids[reference.nearest_mean(q, cm.means)] for q in qn]
    assert list(got) == want


def test_tie_breaks_to_lowest_class_id():
    cm = ClassMeans(np.array([2, 7]), np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert nearest_mean(cm, np.array([[0.3, 0.7]]))[0] == 2


def test_rotation_invariance():
    rng = np.random.default_rng(3)
    latents = rng.normal(size=(15, 4))
    labels = rng.integers(0, 3, size=15)
    queries = rng.normal(size=(25, 4))
    base = nearest_mean(class_means(latents, labels), queries)
    for seed in range(5):
        q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))
        rotated = nearest_mean(class_means(latents @ q, labels), queries @ q)
        assert np.array_equal(base, rotated)


# ---------------------------------------------------------------------------
# encoder-level NCM
# ---------------------------------------------------------------------------

def test_fit_ncm_rejects_empty_memory():
    enc = make_encoder(3)
    with pytest.raises(DataError, match="empty memory"):
        fit_ncm(enc, MemoryBuffer(capacity=5))


def test_ncm_classify_single_sample():
    enc = make_encoder(3)
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(8, 3))
    buf = make_memory(feats, [0, 0, 1, 1, 2, 2, 0, 1])
    means = fit_ncm(enc, buf)
    batch_pred = predict(means, enc, feats)
    assert predict(means, enc, feats[5:6])[0] == batch_pred[5]


def test_evaluate_flags_missing_classes():
    enc = make_encoder(2)
    buf = make_memory([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    rng = np.random.default_rng(5)
    test_sets = (
        LabeledDataset(rng.normal(size=(6, 2)), [0, 0, 1, 1, 2, 2]),
        LabeledDataset(rng.normal(size=(4, 2)), [3, 3, 1, 0]),
    )
    row, missing = evaluate(enc, buf, test_sets)
    assert len(row) == 2
    assert missing == [2, 3]
    # absent classes stay in the denominator
    assert row[0] <= 4 / 6


def test_evaluate_perfect_on_separated_blobs():
    # identity-ish check at the evaluate() level: well-separated blobs,
    # plenty of memory, MLP encoder with random weights
    rng = np.random.default_rng(6)
    centers = np.array([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]])
    feats = np.concatenate([c + 0.1 * rng.normal(size=(20, 3)) for c in centers])
    labels = np.repeat([0, 1, 2], 20)
    enc = make_encoder(3, seed=1)
    buf = make_memory(feats, labels)
    row, missing = evaluate(enc, buf, (LabeledDataset(feats, labels),))
    assert missing == []
    assert row[0] == 1.0


def test_evaluate_is_projection_independent():
    enc, proj = init_params(2, MlpSpec(in_dim=3, hidden=(8,), out_dim=6))
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(10, 3))
    buf = make_memory(feats, rng.integers(0, 2, size=10))
    ts = (LabeledDataset(rng.normal(size=(12, 3)), rng.integers(0, 2, 12)),)
    before = evaluate(enc, buf, ts)
    for name in proj.params:
        proj.params[name] += 100.0
    assert evaluate(enc, buf, ts) == before


def test_chance_level_on_unstructured_latents():
    rng = np.random.default_rng(8)
    n_classes = 4
    enc = make_encoder(5, seed=3)
    feats = rng.normal(size=(400, 5))
    labels = rng.integers(0, n_classes, size=400)
    buf = make_memory(feats[:200], labels[:200])
    row, _ = evaluate(enc, buf, (LabeledDataset(feats[200:], labels[200:]),))
    assert abs(row[0] - 1 / n_classes) < 0.12


# ---------------------------------------------------------------------------
# accuracy matrix
# ---------------------------------------------------------------------------

def test_accuracy_matrix_final_avg():
    m = AccuracyMatrix()
    m.add_row([0.9, 0.1])
    m.add_row([0.8, 0.6])
    assert m.final_avg == pytest.approx(0.7)


def test_accuracy_matrix_validation():
    m = AccuracyMatrix()
    with pytest.raises(ValueError, match="0, 1"):
        m.add_row([1.2])
    m.add_row([0.5, 0.5])
    with pytest.raises(ValueError, match="equal width"):
        m.add_row([0.5])
    with pytest.raises(ValueError, match="no evaluation rows"):
        AccuracyMatrix().final_avg


# ---------------------------------------------------------------------------
# linear heads
# ---------------------------------------------------------------------------

def test_head_accuracy_on_a_hand_built_head():
    enc = make_encoder(2, out_dim=4, seed=9)
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(30, 2))
    latents = encode(enc, feats)
    cut = float(np.median(latents[:, 0]))
    labels = (latents[:, 0] > cut).astype(int)
    # class-1 logit reads the split coordinate, class-0 logit is the cut
    weight = np.zeros((4, 2))
    weight[0, 1] = 1.0
    bias = np.array([cut, 0.0])
    row = head_accuracy(enc, weight, bias, (LabeledDataset(feats, labels),))
    assert row[0] > 0.9
