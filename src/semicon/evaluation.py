"""Testing-phase classification: NCM over memory and linear-head accuracy.

Classification is Nearest Class Mean over encoder latents of the memory
contents: latents are L2-normalized, averaged per class, and the means
re-normalized; queries are assigned the class of the nearest mean in
Euclidean distance (equivalent ranking to cosine similarity on the unit
sphere). The projection head plays no part here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .memory import MemoryBuffer
from .models import Encoder, encode
from .stream import LabeledDataset


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Unit L2 rows; zero rows pass through."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms == 0.0, 1.0, norms)


@dataclass(frozen=True, eq=False)
class ClassMeans:
    """Normalized per-class mean latents, classes ascending."""

    class_ids: np.ndarray
    means: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "class_ids", np.asarray(self.class_ids, dtype=np.int64)
        )
        if self.class_ids.size == 0:
            raise DataError("no classes to build means from")
        if np.any(np.diff(self.class_ids) <= 0):
            raise DataError("class ids must be strictly ascending")
        if self.means.shape[0] != self.class_ids.size:
            raise DataError("one mean row per class required")


def class_means(latents: np.ndarray, labels: np.ndarray) -> ClassMeans:
    """Mean of normalized latents per class, re-normalized. A weighted
    `bincount` per coordinate adds each class's rows in row order, as a
    per-class `mean(axis=0)` does, without an index the size of `latents`."""
    normed = normalize_rows(np.asarray(latents, dtype=np.float64))
    ids, inv, counts = np.unique(np.asarray(labels, dtype=np.int64),
                                 return_inverse=True, return_counts=True)
    sums = np.column_stack([np.bincount(inv, col, ids.size) for col in normed.T])
    return ClassMeans(ids, normalize_rows(sums / counts[:, None]))


def nearest_mean(means: ClassMeans, latents: np.ndarray) -> np.ndarray:
    """Class of the Euclidean-nearest mean per row; ties take the lowest id."""
    x = normalize_rows(np.asarray(latents, dtype=np.float64))
    m = means.means
    d2 = ((x * x).sum(axis=1)[:, None] - 2.0 * (x @ m.T)
          + (m * m).sum(axis=1)[None, :])
    return means.class_ids[np.argmin(d2, axis=1)]


def fit_ncm(enc: Encoder, memory: MemoryBuffer) -> ClassMeans:
    """Class means over encoder latents of everything stored in memory."""
    if not memory.size:
        raise DataError("cannot fit NCM on an empty memory")
    ids = memory.ids[:memory.size]
    return class_means(encode(enc, memory.features[ids]),
                       memory.labels[:memory.size])


def predict(means: ClassMeans, enc: Encoder, xs: np.ndarray) -> np.ndarray:
    return nearest_mean(means, encode(enc, xs))


def _per_task(hits: np.ndarray, test_tasks: tuple[np.ndarray, ...]) -> list[float]:
    """Mean of `hits`, one per test row, over each task's row ids."""
    return [float(np.mean(hits[ids])) for ids in test_tasks]


def evaluate(
    enc: Encoder,
    memory: MemoryBuffer,
    test_tasks: tuple[np.ndarray, ...],
    test: LabeledDataset,
) -> tuple[list[float], list[int]]:
    """NCM accuracy per task, plus test classes unrepresented in memory.

    Task k scores the rows `test_tasks[k]` of `test`. All test rows are
    predicted in one call, in their stored order. Test samples of an
    absent class can never be predicted correctly; they stay in the
    denominator and the class is reported back.
    """
    means = fit_ncm(enc, memory)
    hits = predict(means, enc, test.features) == test.labels
    return (_per_task(hits, test_tasks),
            np.setdiff1d(test.labels, means.class_ids).tolist())


def head_accuracy(
    enc: Encoder,
    weight: np.ndarray,
    bias: np.ndarray,
    test_tasks: tuple[np.ndarray, ...],
    test: LabeledDataset,
) -> list[float]:
    """Accuracy of a linear head over encoder latents, per task.

    Used by the cross-entropy baselines, whose native classifier is the
    trained head rather than NCM over memory. Task k scores the rows
    `test_tasks[k]` of `test`; all test rows are encoded in one call.
    """
    logits = encode(enc, test.features) @ weight + bias
    return _per_task(np.argmax(logits, axis=1) == test.labels, test_tasks)
