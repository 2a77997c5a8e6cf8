"""NCM classifier and head accuracy."""

import numpy as np
import pytest

import reference
from semicon import evaluation
from semicon.errors import DataError
from semicon.evaluation import (
    ClassMeans,
    class_means,
    evaluate,
    fit_ncm,
    head_accuracy,
    nearest_mean,
    normalize_rows,
    predict,
)
from semicon.memory import MemoryBuffer, Oracle, reservoir_update_batch
from semicon.models import MlpSpec, encode, init_params
from semicon.stream import LabeledDataset, split_dataset


def make_memory(feats, labels):
    """A memory that stored every row of `feats`, in order."""
    feats = np.asarray(feats, float)
    buf = MemoryBuffer(capacity=len(feats), features=feats)
    return reservoir_update_batch(buf, np.arange(len(feats)), Oracle(labels),
                                  np.random.default_rng(0))


def make_encoder(in_dim, out_dim=6, seed=0):
    enc, _ = init_params(seed, MlpSpec(in_dim=in_dim, hidden=(8,), out_dim=out_dim))
    return enc


def one_task(test):
    """(test_tasks, test) for a single task holding every row of `test`."""
    return (np.arange(len(test)),), test


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


@pytest.mark.parametrize("labels", [
    [2, 0, 1, 0, 2, 1, 1, 0, 2, 0, 1, 2],  # interleaved
    [5, 3, 9, 3, 3, 7, 3, 3, 3, 3, 3, 1],  # one-row classes
    [0] * 12,
])
def test_class_means_equal_the_per_class_loop_bitwise(labels):
    rng = np.random.default_rng(len(set(labels)))
    latents = rng.normal(size=(12, 5))
    latents[[1, 4, 6]] = 0.0  # zero latent rows pass through normalization
    cm = class_means(latents, labels)
    ids, means = reference.class_means_loop(latents, labels)
    assert np.array_equal(cm.class_ids, ids)
    assert np.array_equal(cm.means, means)


def test_class_means_equal_the_per_class_loop_on_memory_scale():
    rng = np.random.default_rng(3)
    latents = rng.normal(size=(2000, 64))
    labels = rng.integers(0, 100, size=2000)
    _, means = reference.class_means_loop(latents, labels)
    assert np.array_equal(class_means(latents, labels).means, means)


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


def test_nearest_mean_matches_brute_force_on_zero_rows():
    rng = np.random.default_rng(2)
    fitted = class_means(rng.normal(size=(20, 6)), rng.integers(0, 5, size=20))
    # a class whose latents cancel out keeps a zero mean row
    cm = ClassMeans(np.append(fitted.class_ids, 9),
                    np.vstack([fitted.means, np.zeros((1, 6))]))
    queries = rng.normal(size=(30, 6))
    queries[[4, 17]] = 0.0
    got = nearest_mean(cm, queries)
    want = [cm.class_ids[reference.nearest_mean(q, cm.means)]
            for q in normalize_rows(queries)]
    assert list(got) == want
    assert got[4] == got[17] == 9


def test_tie_breaks_to_lowest_class_id():
    cm = ClassMeans(np.array([2, 7]), np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert nearest_mean(cm, np.array([[0.3, 0.7]]))[0] == 2


@pytest.mark.parametrize("means, query, want", [
    ([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 2),
    ([[0.0, 0.0], [0.0, 0.0]], [0.6, 0.8], 2),
    ([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [0.0, 1.0], 7),
])
def test_zero_row_ties_break_to_lowest_class_id(means, query, want):
    cm = ClassMeans(np.array([2, 7, 8][:len(means)]), np.array(means))
    assert nearest_mean(cm, np.array([query]))[0] == want


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
        fit_ncm(enc, MemoryBuffer(capacity=5, features=np.zeros((0, 3))))


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
    test = LabeledDataset(rng.normal(size=(10, 2)),
                          [0, 0, 1, 1, 2, 2, 3, 3, 1, 0])
    row, missing = evaluate(enc, buf, (np.arange(6), np.arange(6, 10)), test)
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
    row, missing = evaluate(enc, buf, *one_task(LabeledDataset(feats, labels)))
    assert missing == []
    assert row[0] == 1.0


def test_evaluate_is_projection_independent():
    enc, proj = init_params(2, MlpSpec(in_dim=3, hidden=(8,), out_dim=6))
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(10, 3))
    buf = make_memory(feats, rng.integers(0, 2, size=10))
    ts = one_task(LabeledDataset(rng.normal(size=(12, 3)), rng.integers(0, 2, 12)))
    before = evaluate(enc, buf, *ts)
    for name in proj.params:
        proj.params[name] += 100.0
    assert evaluate(enc, buf, *ts) == before


def uneven_tasks(rng, dim, sizes=(7, 50, 13), n_classes=3):
    """Tasks of the given sizes over one test set, their rows interleaved."""
    n = sum(sizes)
    test = LabeledDataset(rng.normal(size=(n, dim)), rng.integers(0, n_classes, size=n))
    cuts = np.cumsum(sizes)[:-1]
    return tuple(np.sort(ids) for ids in np.split(rng.permutation(n), cuts)), test


def count_encodes(monkeypatch):
    rows = []

    def counted(enc, batch):
        rows.append(len(batch))
        return encode(enc, batch)

    monkeypatch.setattr(evaluation, "encode", counted)
    return rows


def test_evaluate_predicts_every_test_row_in_one_call(monkeypatch):
    enc = make_encoder(3, seed=4)
    rng = np.random.default_rng(12)
    buf = make_memory(rng.normal(size=(9, 3)), rng.integers(0, 3, size=9))
    test_tasks, test = uneven_tasks(rng, 3)
    means = fit_ncm(enc, buf)
    alone = [float(np.mean(predict(means, enc, test.features[ids]) == test.labels[ids]))
             for ids in test_tasks]
    rows = count_encodes(monkeypatch)
    row, missing = evaluate(enc, buf, test_tasks, test)
    assert row == alone and missing == []
    assert rows == [9, 70]  # the memory, then every test row at once


def test_head_accuracy_encodes_every_test_row_in_one_call(monkeypatch):
    enc = make_encoder(3, out_dim=4, seed=5)
    rng = np.random.default_rng(13)
    weight, bias = rng.normal(size=(4, 3)), rng.normal(size=3)
    test_tasks, test = uneven_tasks(rng, 3)
    alone = [float(np.mean(np.argmax(encode(enc, test.features[ids]) @ weight + bias,
                                     axis=1) == test.labels[ids]))
             for ids in test_tasks]
    rows = count_encodes(monkeypatch)
    assert head_accuracy(enc, weight, bias, test_tasks, test) == alone
    assert rows == [70]


def test_shuffled_test_rows_score_as_class_sorted_ones():
    # real CIFAR files hold test rows in shuffled class order
    rng = np.random.default_rng(14)
    n_classes, dim = 6, 4
    centers = 3.0 * rng.normal(size=(n_classes, dim))

    def blobs(per_class):
        labels = rng.permutation(np.repeat(np.arange(n_classes), per_class))
        return LabeledDataset(centers[labels] + rng.normal(size=(len(labels), dim)),
                              labels)

    train, shuffled = blobs(8), blobs(15)
    order = np.argsort(shuffled.labels, kind="stable")
    ordered = LabeledDataset(shuffled.features[order], shuffled.labels[order])
    streams = [split_dataset(train, 3, seed=1, test_data=test)
               for test in (shuffled, ordered)]

    stream = streams[0]
    assert np.shares_memory(stream.test.features, shuffled.features)
    assert np.array_equal(np.sort(np.concatenate(stream.test_tasks)),
                          np.arange(len(shuffled)))
    for k, ids in enumerate(stream.test_tasks):
        assert np.all(np.diff(ids) > 0)
        assert np.unique(shuffled.labels[ids]).tolist() == [2 * k, 2 * k + 1]

    enc = make_encoder(dim, out_dim=5, seed=6)
    buf = make_memory(train.features, train.labels)
    weight, bias = rng.normal(size=(5, n_classes)), rng.normal(size=n_classes)
    scores = [(evaluate(enc, buf, s.test_tasks, s.test),
               head_accuracy(enc, weight, bias, s.test_tasks, s.test))
              for s in streams]
    assert scores[0] == scores[1]
    (row, missing), head_row = scores[0]
    assert len(row) == len(head_row) == 3 and missing == []
    assert len(set(row)) > 1 and len(set(head_row)) > 1


def test_chance_level_on_unstructured_latents():
    rng = np.random.default_rng(8)
    n_classes = 4
    enc = make_encoder(5, seed=3)
    feats = rng.normal(size=(400, 5))
    labels = rng.integers(0, n_classes, size=400)
    buf = make_memory(feats[:200], labels[:200])
    row, _ = evaluate(enc, buf, *one_task(LabeledDataset(feats[200:], labels[200:])))
    assert abs(row[0] - 1 / n_classes) < 0.12


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
    row = head_accuracy(enc, weight, bias, *one_task(LabeledDataset(feats, labels)))
    assert row[0] > 0.9
