"""Task splitting, single-pass iteration, augmentation, data loading."""

import numpy as np
import pytest

from reference import expected_steps
from semicon.errors import ConfigError, DataError
from semicon.stream import (
    DROPOUT_P,
    LabeledDataset,
    augment,
    load_cifar_binary,
    make_multiview,
    make_synthetic,
    split_dataset,
)
from semicon.trainers import TrainConfig


def toy_dataset(n_classes=4, per_class=6, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes), per_class)
    return LabeledDataset(rng.normal(size=(len(labels), dim)), labels)


# ---------------------------------------------------------------------------
# task splitting
# ---------------------------------------------------------------------------

def task_classes(stream):
    """The classes of each task's source ids, ascending."""
    return [np.unique(stream.data.labels[ids]).tolist() for ids in stream.tasks]


def test_split_partitions_classes_ascending():
    data = toy_dataset()
    stream = split_dataset(data, n_tasks=2, seed=0, test_data=data)
    assert task_classes(stream) == [[0, 1], [2, 3]]


def test_split_single_task_keeps_everything():
    data = toy_dataset()
    stream = split_dataset(data, n_tasks=1, seed=0, test_data=data)
    assert task_classes(stream) == [[0, 1, 2, 3]]
    assert len(stream.tasks[0]) == len(data)


def test_split_rejects_non_divisible():
    with pytest.raises(ConfigError, match="divide"):
        data = toy_dataset(n_classes=5)
        split_dataset(data, n_tasks=2, seed=0, test_data=data)


def flat_batches(stream):
    """(task index, batch) pairs in emission order."""
    return [(k, batch) for k, batches in stream.iter_tasks() for batch in batches]


def emitted_ids(stream):
    return [int(i) for _, batch in flat_batches(stream) for i in batch]


def test_task_class_purity():
    data = toy_dataset()
    stream = split_dataset(data, n_tasks=2, seed=1, batch_size=4, test_data=data)
    for k, batch in flat_batches(stream):
        hidden = set(stream.oracle.label(batch).tolist())
        assert hidden <= {2 * k, 2 * k + 1}


def test_stream_samples_carry_no_labels():
    # a batch is a plain integer array of source ids: it has no room for
    # a label, and its ids are not the labels in disguise
    data = toy_dataset()
    stream = split_dataset(data, n_tasks=2, seed=0, test_data=data)
    batches = [batch for _, batch in flat_batches(stream)]
    for batch in batches:
        assert type(batch) is np.ndarray
        assert batch.dtype == np.int64 and batch.ndim == 1
    ids = np.concatenate(batches)
    assert not np.array_equal(ids, data.labels[ids])


def test_single_pass_emits_each_sample_once():
    data = toy_dataset()
    stream = split_dataset(data, n_tasks=2, seed=3, batch_size=5, test_data=data)
    emitted = emitted_ids(stream)
    assert sorted(emitted) == list(range(len(data)))


def test_batch_sizes_and_count():
    # 12 samples per task, batch 5 -> 5, 5, 2 per task
    data = toy_dataset(n_classes=2, per_class=6)
    stream = split_dataset(data, n_tasks=2, seed=0, batch_size=5, test_data=data)
    sizes = [len(batch) for _, batch in flat_batches(stream)]
    assert sizes == [5, 1, 5, 1]
    assert expected_steps(TrainConfig("ours", stream_batch=5), stream) == 4


def test_5000_steps_arithmetic():
    # the full-scale stream geometry: 50k samples in batches of 10
    data = LabeledDataset(
        np.zeros((50_000, 1)), np.repeat(np.arange(10), 5_000)
    )
    stream = split_dataset(data, n_tasks=5, seed=0, batch_size=10, test_data=data)
    assert expected_steps(TrainConfig("ours"), stream) == 5_000


def test_emission_order_deterministic():
    data = toy_dataset()
    a = split_dataset(data, n_tasks=2, seed=7, batch_size=3, test_data=data)
    b = split_dataset(data, n_tasks=2, seed=7, batch_size=3, test_data=data)
    assert emitted_ids(a) == emitted_ids(b)
    c = split_dataset(data, n_tasks=2, seed=8, batch_size=3, test_data=data)
    assert emitted_ids(a) != emitted_ids(c)




def test_split_rejects_test_class_absent_from_train():
    # train classes 0-3; two test rows of class 4 would be dropped silently
    test = LabeledDataset(np.zeros((6, 3)), [0, 1, 2, 3, 4, 4])
    with pytest.raises(DataError, match="test class 4 is absent"):
        split_dataset(toy_dataset(), n_tasks=2, seed=0, test_data=test)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(bad):
    features = np.zeros((5, 2, 3))
    features[3, 1, 2] = bad
    features[4, 0, 0] = bad
    with pytest.raises(DataError, match="row 3 "):
        LabeledDataset(features, np.zeros(5))


def test_split_rejects_a_task_with_no_test_rows():
    # test rows of classes 0-1 only: task 1 (classes 2 and 3) has none
    test = LabeledDataset(np.zeros((4, 3)), [0, 1, 0, 1])
    with pytest.raises(DataError, match=r"task 1 \(classes \[2, 3\]\) has no test"):
        split_dataset(toy_dataset(), n_tasks=2, seed=0, test_data=test)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_dataset_accepts_empty_and_huge_finite_features():
    # an empty dataset is legal, though not as a task's test set
    assert len(LabeledDataset(np.zeros((0, 2, 3)), [])) == 0
    # finite values whose sum overflows to inf are still finite
    assert len(LabeledDataset(np.full((2, 3), 1e308), [0, 1])) == 2


def test_test_sets_follow_task_classes():
    data = toy_dataset(seed=0)
    test = toy_dataset(seed=1)
    stream = split_dataset(data, n_tasks=2, seed=0, test_data=test)
    for classes, ids in zip(task_classes(stream), stream.test_tasks):
        assert np.unique(test.labels[ids]).tolist() == classes


@pytest.mark.parametrize("n_classes, n_tasks", [(4, 2), (10, 5), (100, 20), (4, 1)],
                         ids=["synthetic", "cifar10", "cifar100", "one_task"])
def test_split_is_a_partition_of_equal_ascending_class_groups(n_classes, n_tasks):
    rng = np.random.default_rng(n_classes)
    labels = rng.permutation(np.repeat(np.arange(n_classes), 3))
    data = LabeledDataset(rng.normal(size=(len(labels), 2)), labels)
    test_labels = rng.permutation(np.repeat(np.arange(n_classes), 2))
    test = LabeledDataset(np.zeros((len(test_labels), 2)), test_labels)
    stream = split_dataset(data, n_tasks, seed=0, batch_size=4, test_data=test)
    groups = task_classes(stream)
    per_task = n_classes // n_tasks
    # ascending within and across tasks, so disjoint
    flat = [c for g in groups for c in g]
    assert flat == sorted(set(flat))
    # equal class counts that together hold every training class
    assert [len(g) for g in groups] == [per_task] * n_tasks
    assert flat == data.classes.tolist()
    assert sorted(emitted_ids(stream)) == list(range(len(data)))
    assert len(stream.test_tasks) == n_tasks
    for g, ids in zip(groups, stream.test_tasks):
        assert np.unique(test.labels[ids]).tolist() == g


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def test_vector_views_differ():
    x = np.ones((4, 6))
    rng = np.random.default_rng(1)
    a, b = augment(x, rng), augment(x, rng)
    assert not np.array_equal(a, b)
    assert a.shape == b.shape == x.shape


def test_vector_dropout_zeroes_coordinates():
    out = augment(np.ones((200, 10)), np.random.default_rng(2))
    zero_rate = np.mean(out == 0.0)
    assert abs(zero_rate - DROPOUT_P) < 0.03


def test_image_augmentation_shape_and_variety():
    rng = np.random.default_rng(3)
    x = rng.random((5, 3, 12, 12))
    a = augment(x, rng)
    b = augment(x, rng)
    assert a.shape == x.shape
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(10,), (4, 3, 10), (2, 1, 3, 4, 4)],
                         ids=["1d", "3d", "5d"])
def test_augmentation_rejects_other_batch_shapes(shape):
    with pytest.raises(DataError, match=r"\(batch, d\) or \(batch, C, H, W\)"):
        augment(np.zeros(shape), np.random.default_rng(0))


def test_multiview_layout():
    feats = np.repeat(np.arange(3.0)[:, None], 3, axis=1)
    views, idx = make_multiview(feats, np.array([4, -1, 4]),
                                np.random.default_rng(0))
    assert views.shape == (6, 3)
    assert np.array_equal(idx.pair, [3, 4, 5, 0, 1, 2])
    assert np.array_equal(idx.labels, [4, -1, 4, 4, -1, 4])
    # first views, then second views, from two draws of one generator
    rng = np.random.default_rng(0)
    assert np.array_equal(views[:3], augment(feats, rng))
    assert np.array_equal(views[3:], augment(feats, rng))


def test_multiview_image_views_are_two_augment_draws():
    feats = np.random.default_rng(5).random((3, 3, 32, 32))
    views, _ = make_multiview(feats, np.array([0, -1, 1]),
                              np.random.default_rng(6))
    rng = np.random.default_rng(6)
    want = np.concatenate([augment(feats, rng), augment(feats, rng)])
    assert views.shape == (6, 3, 32, 32)
    assert np.array_equal(views, want)


def test_multiview_deterministic_given_seed():
    feats, labels = np.stack([np.arange(4.0), np.ones(4)]), np.array([-1, 2])
    v1, _ = make_multiview(feats, labels, np.random.default_rng(9))
    v2, _ = make_multiview(feats, labels, np.random.default_rng(9))
    assert np.array_equal(v1, v2)


def test_multiview_empty_batch_rejected():
    with pytest.raises(DataError, match="no sources"):
        make_multiview(np.zeros((0, 3)), np.zeros(0, dtype=np.int64),
                       np.random.default_rng(0))


# ---------------------------------------------------------------------------
# CIFAR binary loading
# ---------------------------------------------------------------------------

def write_cifar(path, labels, pixel_fn, label_bytes=1):
    recs = []
    for i, lab in enumerate(labels):
        head = [lab] if label_bytes == 1 else [lab // 100, lab % 100]
        recs.append(bytes(head) + bytes(pixel_fn(i)))
    path.write_bytes(b"".join(recs))


def test_cifar_roundtrip(tmp_path):
    f = tmp_path / "batch.bin"
    write_cifar(f, list(range(10)), lambda i: [i] * 3072)
    data = load_cifar_binary(f)
    assert len(data) == 10
    assert data.features.shape == (10, 3, 32, 32)
    assert list(data.labels) == list(range(10))
    assert data.features[3].max() == pytest.approx(3 / 255)


def test_cifar_known_fixture(tmp_path):
    f = tmp_path / "one.bin"
    pixels = [0] * 3072
    pixels[0] = 255
    write_cifar(f, [7], lambda i: pixels)
    data = load_cifar_binary(f)
    assert data.labels[0] == 7
    assert data.features[0, 0, 0, 0] == 1.0
    assert data.features[0].sum() == 1.0


def test_cifar_zero_record(tmp_path):
    f = tmp_path / "zero.bin"
    write_cifar(f, [0], lambda i: [0] * 3072)
    assert np.all(load_cifar_binary(f).features == 0.0)


def test_cifar_two_label_bytes(tmp_path):
    f = tmp_path / "c100.bin"
    write_cifar(f, [142, 201], lambda i: [i] * 3072, label_bytes=2)
    data = load_cifar_binary(f, label_bytes=2)
    assert list(data.labels) == [42, 1]  # fine label = second byte


@pytest.mark.parametrize("label_bytes, heads, value", [
    (1, [[3], [9], [10], [4]], 10),
    (2, [[1, 42], [19, 99], [0, 100]], 100),  # (coarse, fine) bytes
])
def test_cifar_label_out_of_range(tmp_path, label_bytes, heads, value):
    f = tmp_path / "labels.bin"
    f.write_bytes(b"".join(bytes(h) + bytes(3072) for h in heads))
    with pytest.raises(DataError, match=rf"record 2 has label {value}\b") as err:
        load_cifar_binary(f, label_bytes=label_bytes)
    assert str(err.value).startswith(f"{f}: ")


def test_cifar_truncation_reports_offset(tmp_path):
    f = tmp_path / "bad.bin"
    f.write_bytes(bytes(3073 * 2 + 100))
    with pytest.raises(DataError, match="byte 6146"):
        load_cifar_binary(f)


def test_cifar_directory_is_data_error(tmp_path):
    with pytest.raises(DataError, match="dataset file not found") as err:
        load_cifar_binary(tmp_path)
    assert str(tmp_path) in str(err.value)


# ---------------------------------------------------------------------------
# synthetic streams
# ---------------------------------------------------------------------------

def test_synthetic_geometry():
    stream = make_synthetic(n_classes=4, dim=5, separation=3.0, per_class=20,
                            n_tasks=2, seed=0)
    assert task_classes(stream) == [[0, 1], [2, 3]]
    assert len(stream.data) == 80
    assert len(stream.test_tasks) == 2
    assert sorted(np.concatenate(stream.test_tasks)) == list(range(len(stream.test)))


def test_synthetic_deterministic():
    a = make_synthetic(4, 5, 3.0, 10, 2, seed=1)
    b = make_synthetic(4, 5, 3.0, 10, 2, seed=1)
    assert np.array_equal(a.data.features, b.data.features)
    assert emitted_ids(a) == emitted_ids(b)


def test_synthetic_separation_zero_mixes_classes():
    stream = make_synthetic(2, 3, 0.0, 50, 1, seed=2)
    feats, labels = stream.data.features, stream.oracle.labels
    gap = np.linalg.norm(feats[labels == 0].mean(0) - feats[labels == 1].mean(0))
    assert gap < 0.8


def test_synthetic_separation_large_separates_classes():
    stream = make_synthetic(2, 3, 10.0, 50, 1, seed=3)
    feats, labels = stream.data.features, stream.oracle.labels
    gap = np.linalg.norm(feats[labels == 0].mean(0) - feats[labels == 1].mean(0))
    assert gap > 5.0


@pytest.mark.parametrize("separation", [np.nan, np.inf, -np.inf])
def test_synthetic_rejects_non_finite_separation(separation):
    with pytest.raises(ConfigError, match="separation"):
        make_synthetic(4, 8, separation, 10, 2, seed=0)
