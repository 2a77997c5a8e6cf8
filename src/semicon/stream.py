"""Task streams: split datasets, single-pass batch iteration, augmentation.

A stream presents K tasks of disjoint classes, one pass, in task order,
as small unlabeled batches of source ids. Labels never ride along with
stream samples, though `TaskStream.data.labels` holds them. The training
loop reads a stream label in one of two ways: through the Oracle carried
by the stream when the reservoir stores a sample (charged), or by the
supervised baselines' direct lookup (uncharged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError, DataError
from .losses import MultiviewIndex
from .memory import Oracle

CIFAR_PIXELS = 3072
CIFAR_SHAPE = (3, 32, 32)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if len(self.features) != len(self.labels):
            raise DataError(
                f"{len(self.features)} feature rows vs {len(self.labels)} labels"
            )
        # a finite sum proves every value finite, with no per-value temporary
        if not np.isfinite(np.sum(self.features)):
            finite = np.isfinite(self.features).reshape(len(self), -1).all(axis=1)
            if not finite.all():
                raise DataError(f"feature row {np.argmin(finite)} holds a NaN or inf")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.labels)

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices])


@dataclass(frozen=True, eq=False)
class Task:
    index: int
    class_ids: tuple[int, ...]
    sample_ids: np.ndarray  # into the train dataset, in emission order

    def __len__(self) -> int:
        return len(self.sample_ids)


@dataclass(frozen=True, eq=False)
class TaskStream:
    """Ordered tasks over one training dataset, iterated exactly once."""

    tasks: tuple[Task, ...]
    data: LabeledDataset
    batch_size: int
    oracle: Oracle
    test_sets: tuple[LabeledDataset, ...] = ()

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        seen: set[int] = set()
        for task in self.tasks:
            if seen & set(task.class_ids):
                raise ConfigError("tasks must have disjoint class sets")
            seen |= set(task.class_ids)
        sizes = {len(t.class_ids) for t in self.tasks}
        if len(sizes) > 1:
            raise ConfigError(f"unequal class counts per task: {sorted(sizes)}")
        if self.test_sets and len(self.test_sets) != len(self.tasks):
            raise ConfigError("need one test set per task (or none)")

    @property
    def n_samples(self) -> int:
        return sum(len(t) for t in self.tasks)

    def iter_tasks(self) -> Iterator[tuple[Task, Iterator[np.ndarray]]]:
        """Each task with its batches: arrays of source ids, no labels."""
        size = self.batch_size
        for task in self.tasks:
            ids = task.sample_ids
            yield task, (ids[i:i + size] for i in range(0, len(ids), size))


def split_dataset(
    data: LabeledDataset,
    n_tasks: int,
    seed: int,
    *,
    batch_size: int = 10,
    test_data: LabeledDataset | None = None,
) -> TaskStream:
    """Partition classes into n_tasks disjoint groups of equal size.

    Class groups are ascending by id; within-task sample order is
    shuffled by the seed. Train labels are reachable only through the
    stream's oracle. A test class that no train sample has raises
    `DataError`, since no task could score its rows.
    """
    if n_tasks < 1:
        raise ConfigError(f"task count must be >= 1, got {n_tasks}")
    classes = data.classes
    if len(classes) % n_tasks:
        raise ConfigError(
            f"{len(classes)} classes do not divide into {n_tasks} tasks"
        )
    # the second of two children, so every seed keeps its sample order
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    per_task = len(classes) // n_tasks

    tasks = []
    test_sets = []
    for k in range(n_tasks):
        group = np.sort(classes[k * per_task:(k + 1) * per_task])
        ids = np.where(np.isin(data.labels, group))[0]
        tasks.append(Task(k, tuple(int(c) for c in group),
                          shuffle_rng.permutation(ids)))
        if test_data is not None:
            test_sets.append(
                test_data.subset(np.where(np.isin(test_data.labels, group))[0])
            )
    if test_data is not None and sum(map(len, test_sets)) < len(test_data):
        absent = np.setdiff1d(test_data.classes, classes)
        raise DataError(f"test class {absent[0]} is absent from training")
    return TaskStream(
        tasks=tuple(tasks),
        data=data,
        batch_size=batch_size,
        oracle=Oracle(data.labels),
        test_sets=tuple(test_sets),
    )


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

# vector views: additive Gaussian noise, then coordinate dropout
NOISE_SIGMA = 0.1
DROPOUT_P = 0.1
# image views: pad-and-crop, horizontal flip, per-channel brightness and
# contrast jitter, occasional grayscale; values are not re-clipped
PAD = 4
FLIP_P = 0.5
JITTER = 0.4
GRAYSCALE_P = 0.2


def _augment_images(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    b, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (PAD, PAD), (PAD, PAD)))
    out = np.empty_like(x)
    offsets = rng.integers(0, 2 * PAD + 1, size=(b, 2))
    for i in range(b):
        dy, dx = offsets[i]
        out[i] = padded[i, :, dy:dy + h, dx:dx + w]
    flips = rng.random(b) < FLIP_P
    out[flips] = out[flips, :, :, ::-1]
    bright = 1.0 + rng.uniform(-JITTER, JITTER, size=(b, c, 1, 1))
    out *= bright
    contrast = 1.0 + rng.uniform(-JITTER, JITTER, size=(b, c, 1, 1))
    means = out.mean(axis=(2, 3), keepdims=True)
    out = (out - means) * contrast + means
    gray = rng.random(b) < GRAYSCALE_P
    if gray.any():
        out[gray] = out[gray].mean(axis=1, keepdims=True)
    return out


def augment(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One stochastic view of each row of `x` (independent per row): vector
    views for a (batch, d) array, image views for (batch, C, H, W)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        noisy = x + NOISE_SIGMA * rng.normal(size=x.shape)
        keep = rng.random(x.shape) >= DROPOUT_P
        return noisy * keep
    if x.ndim == 4:
        return _augment_images(x, rng)
    raise DataError(
        f"augmentation expects (batch, d) or (batch, C, H, W), got {x.shape}"
    )


def make_multiview(
    features: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, MultiviewIndex]:
    """Two independent views per source, stacked [first views; second views].

    Row i of `features` has label `labels[i]` if one is known (memory
    items) or -1 (stream items); view i pairs with view (i+b) mod 2b.
    """
    if not len(features):
        raise DataError("cannot build a multiview batch from no sources")
    feats = np.asarray(features, dtype=np.float64)
    views = np.concatenate([augment(feats, rng), augment(feats, rng)])
    return views, MultiviewIndex.from_sources(np.asarray(labels, dtype=np.int64))


# ---------------------------------------------------------------------------
# data sources
# ---------------------------------------------------------------------------

def load_cifar_binary(path, *, label_bytes: int = 1) -> LabeledDataset:
    """Read CIFAR-style binary records: label byte(s), then 3072 pixels.

    CIFAR-10 files carry 1 label byte per record; CIFAR-100 carries 2
    (coarse then fine; the fine label is kept). Pixels are scaled to
    [0, 1]. A kept label outside the dataset's 10 or 100 classes raises
    `DataError`.
    """
    if label_bytes not in (1, 2):
        raise ConfigError(f"label_bytes must be 1 or 2, got {label_bytes}")
    raw = np.fromfile(path, dtype=np.uint8)
    record = label_bytes + CIFAR_PIXELS
    n, extra = divmod(raw.size, record)
    if extra:
        raise DataError(
            f"{path}: truncated record at byte {n * record} "
            f"({extra} trailing bytes, record size {record})"
        )
    if n == 0:
        raise DataError(f"{path}: no records")
    rows = raw.reshape(n, record)
    labels = rows[:, label_bytes - 1].astype(np.int64)
    n_classes = 10 if label_bytes == 1 else 100
    bad = np.flatnonzero(labels >= n_classes)
    if bad.size:
        raise DataError(
            f"{path}: record {bad[0]} has label {labels[bad[0]]}, "
            f"expected 0..{n_classes - 1}"
        )
    pixels = rows[:, label_bytes:].astype(np.float64) / 255.0
    return LabeledDataset(pixels.reshape(n, *CIFAR_SHAPE), labels)


def make_synthetic(
    n_classes: int,
    dim: int,
    separation: float,
    per_class: int,
    n_tasks: int,
    seed: int,
    *,
    batch_size: int = 10,
    test_per_class: int = 25,
) -> TaskStream:
    """Gaussian-blob stream: unit-covariance classes at scaled random means.

    Separation 0 collapses every class onto the origin; separations well
    above 1 make classes linearly separable. Train and test splits are
    drawn from the same blobs.
    """
    if n_classes < 1 or per_class < 1 or test_per_class < 1 or dim < 1:
        raise ConfigError("class and sample counts and dim must be >= 1")
    if not np.isfinite(separation):
        raise ConfigError(f"separation must be finite, got {separation}")
    seed_seq = np.random.SeedSequence(seed)
    mean_rng, data_rng, split_seed = seed_seq.spawn(3)
    rng = np.random.default_rng(mean_rng)
    dirs = rng.normal(size=(n_classes, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = separation * dirs

    rng = np.random.default_rng(data_rng)
    total = per_class + test_per_class
    feats = np.concatenate([
        means[c] + rng.normal(size=(total, dim)) for c in range(n_classes)
    ])
    labels = np.repeat(np.arange(n_classes), total)
    train_mask = np.tile(
        np.arange(total) < per_class, n_classes
    )
    train = LabeledDataset(feats[train_mask], labels[train_mask])
    test = LabeledDataset(feats[~train_mask], labels[~train_mask])
    return split_dataset(
        train,
        n_tasks,
        int(split_seed.generate_state(1)[0]),
        batch_size=batch_size,
        test_data=test,
    )
