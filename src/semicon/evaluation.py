"""Testing-phase classification and continual-learning accuracy tracking.

Classification is Nearest Class Mean over encoder latents of the memory
contents: latents are L2-normalized, averaged per class, and the means
re-normalized; queries are assigned the class of the nearest mean in
Euclidean distance (equivalent ranking to cosine similarity on the unit
sphere). The projection head plays no part here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Mean of normalized latents per class, re-normalized."""
    labels = np.asarray(labels, dtype=np.int64)
    normed = normalize_rows(np.asarray(latents, dtype=np.float64))
    ids = np.unique(labels)
    means = np.stack([normed[labels == c].mean(axis=0) for c in ids])
    return ClassMeans(ids, normalize_rows(means))


def nearest_mean(means: ClassMeans, latents: np.ndarray) -> np.ndarray:
    """Class of the Euclidean-nearest mean per row; ties take the lowest id."""
    x = normalize_rows(np.asarray(latents, dtype=np.float64))
    d2 = ((x[:, None, :] - means.means[None, :, :]) ** 2).sum(axis=2)
    return means.class_ids[np.argmin(d2, axis=1)]


def fit_ncm(enc: Encoder, memory: MemoryBuffer) -> ClassMeans:
    """Class means over encoder latents of everything stored in memory."""
    if not memory.items:
        raise DataError("cannot fit NCM on an empty memory")
    feats = np.stack([it.sample.features for it in memory.items])
    labels = np.array([it.label for it in memory.items], dtype=np.int64)
    return class_means(encode(enc, feats), labels)


def predict(means: ClassMeans, enc: Encoder, xs: np.ndarray) -> np.ndarray:
    return nearest_mean(means, encode(enc, xs))


@dataclass
class AccuracyMatrix:
    """Row k: accuracy on every task's test set after training task k."""

    rows: list[list[float]] = field(default_factory=list)

    def add_row(self, row) -> None:
        row = [float(a) for a in row]
        if any(not 0.0 <= a <= 1.0 for a in row):
            raise ValueError(f"accuracies must lie in [0, 1]: {row}")
        if self.rows and len(row) != len(self.rows[-1]):
            raise ValueError("accuracy rows must have equal width")
        self.rows.append(row)

    @property
    def final_avg(self) -> float:
        if not self.rows:
            raise ValueError("no evaluation rows recorded")
        return float(np.mean(self.rows[-1]))


def evaluate(
    enc: Encoder,
    memory: MemoryBuffer,
    test_sets: tuple[LabeledDataset, ...],
) -> tuple[list[float], list[int]]:
    """NCM accuracy per test set, plus classes unrepresented in memory.

    Test samples of an absent class can never be predicted correctly;
    they stay in the denominator and the class is reported back.
    """
    means = fit_ncm(enc, memory)
    row = []
    missing: set[int] = set()
    for ts in test_sets:
        preds = predict(means, enc, ts.features)
        row.append(float(np.mean(preds == ts.labels)))
        missing |= set(np.setdiff1d(ts.labels, means.class_ids).tolist())
    return row, sorted(missing)


def head_accuracy(
    enc: Encoder,
    weight: np.ndarray,
    bias: np.ndarray,
    test_sets: tuple[LabeledDataset, ...],
) -> list[float]:
    """Accuracy of a linear head over encoder latents, per test set.

    Used by the cross-entropy baselines, whose native classifier is the
    trained head rather than NCM over memory.
    """
    row = []
    for ts in test_sets:
        logits = encode(enc, ts.features) @ weight + bias
        row.append(float(np.mean(np.argmax(logits, axis=1) == ts.labels)))
    return row
