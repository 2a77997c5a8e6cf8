"""The benchmark's workloads and the seeded inputs each one runs on.

Every input is generated here, from the workload seed, so the benchmark
holds its own ground truth (class of every train and test row) and the
program only ever sees the generated arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from semicon import models, stream, trainers

STREAM_BATCH = 10
DIM = 32  # mlp input width


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    encoder: str  # "mlp" or "conv"
    n_classes: int
    n_tasks: int
    per_class: int
    test_per_class: int
    mem_size: int
    mem_batch: int
    separation: float = 3.0  # mlp blob spacing / conv template contrast

    def model(self):
        if self.encoder == "mlp":
            return models.MlpSpec(DIM)
        return models.ConvSpec()

    def config(self, seed: int) -> trainers.TrainConfig:
        return trainers.TrainConfig(
            method=self.method,
            stream_batch=STREAM_BATCH,
            mem_size=self.mem_size,
            mem_batch=self.mem_batch,
            seed=seed,
            loss_trace=True,
        )

    @property
    def n_train(self) -> int:
        return self.n_classes * self.per_class

    @property
    def steps_per_round(self) -> int:
        """Sum over tasks of ceil(task length / stream batch)."""
        task_len = self.n_classes // self.n_tasks * self.per_class
        return self.n_tasks * -(-task_len // STREAM_BATCH)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mlp-ours",
            method="ours", encoder="mlp", n_classes=10, n_tasks=5,
            per_class=200, test_per_class=50, mem_size=200, mem_batch=100,
            separation=5.0,
        ),
        Workload(
            name="conv-ours",
            method="ours", encoder="conv", n_classes=10, n_tasks=5,
            per_class=30, test_per_class=20, mem_size=200, mem_batch=10,
            separation=0.07,
        ),
        Workload(
            name="mlp-er-wide",
            method="er", encoder="mlp", n_classes=100, n_tasks=20,
            per_class=50, test_per_class=20, mem_size=2000, mem_batch=10,
        ),
    )
}


@dataclass
class Inputs:
    """Ground truth held by the benchmark, and the stream built from it.

    Features are float64 rows (mlp) or the uint8 pixels written to disk
    (conv); `train_features` and `test_by_task` give what the program
    should hold.
    """

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    stream: stream.TaskStream

    @staticmethod
    def _as_features(x: np.ndarray) -> np.ndarray:
        if x.dtype == np.uint8:
            return x.reshape(len(x), *models.ConvSpec().in_shape).astype(np.float64) / 255.0
        return x

    def train_features(self, ids: np.ndarray) -> np.ndarray:
        return self._as_features(self.train_x[ids])

    def test_by_task(self, w: Workload) -> list[tuple[np.ndarray, np.ndarray]]:
        """Test rows of each task, tasks holding consecutive class ids."""
        per_task = w.n_classes // w.n_tasks
        out = []
        for k in range(w.n_tasks):
            rows = (self.test_y >= k * per_task) & (self.test_y < (k + 1) * per_task)
            out.append((self._as_features(self.test_x[rows]), self.test_y[rows]))
        return out


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _directions(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n unit rows: orthonormal when n <= dim, so every seed spaces the
    classes equally and accuracy varies little from seed to seed."""
    g = rng.normal(size=(dim, n))
    if n <= dim:
        return np.linalg.qr(g)[0].T
    return (g / np.linalg.norm(g, axis=0)).T


def blobs(w: Workload, seed: int):
    """Unit-covariance Gaussian blobs centred `separation` from the origin."""
    rng = _rng(seed, 1)
    means = w.separation * _directions(rng, w.n_classes, DIM)
    train_y = np.repeat(np.arange(w.n_classes), w.per_class)
    test_y = np.repeat(np.arange(w.n_classes), w.test_per_class)
    train_x = means[train_y] + rng.normal(size=(train_y.size, DIM))
    test_x = means[test_y] + rng.normal(size=(test_y.size, DIM))
    return train_x, train_y, test_x, test_y


def images(w: Workload, seed: int):
    """uint8 3x32x32 images: a coarse per-class colour template plus noise.

    Class templates are orthogonal patterns over 3x8x8 cells (unit
    variance per cell) blown up to 32x32; an image is mid-grey plus
    `separation` times its class template plus pixel noise, so classes
    overlap and accuracy stays well below 1.
    """
    rng = _rng(seed, 2)
    cells = 3 * 8 * 8
    grid = np.sqrt(cells) * _directions(rng, w.n_classes, cells)
    templates = grid.reshape(-1, 3, 8, 8).repeat(4, axis=2).repeat(4, axis=3)

    def draw(labels):
        x = 0.5 + w.separation * templates[labels]
        x += 0.2 * rng.normal(size=x.shape)
        return np.clip(np.rint(x * 255.0), 0, 255).astype(np.uint8).reshape(len(labels), -1)

    train_y = np.repeat(np.arange(w.n_classes), w.per_class)
    test_y = np.repeat(np.arange(w.n_classes), w.test_per_class)
    return draw(train_y), train_y, draw(test_y), test_y


def write_cifar10(path: Path, pixels: np.ndarray, labels: np.ndarray) -> None:
    """CIFAR-10 binary records: one label byte, then 3072 pixel bytes."""
    np.concatenate([labels.astype(np.uint8)[:, None], pixels], axis=1).tofile(path)


def set_up(w: Workload, seed: int, scratch: Path) -> tuple[Inputs, float]:
    """Generate (or write and load) the data and split it into tasks.

    Returns the inputs and the seconds this took. Conv images go through
    CIFAR-10 binary files in `scratch`, read back by the program; mlp
    rows are handed over as copies, so the truth stays the benchmark's.
    """
    started = time.perf_counter()
    if w.encoder == "mlp":
        train_x, train_y, test_x, test_y = blobs(w, seed)
        train = stream.LabeledDataset(train_x.copy(), train_y.copy())
        test = stream.LabeledDataset(test_x.copy(), test_y.copy())
    else:
        train_x, train_y, test_x, test_y = images(w, seed)
        scratch.mkdir(parents=True, exist_ok=True)
        paths = scratch / f"{w.name}-train.bin", scratch / f"{w.name}-test.bin"
        write_cifar10(paths[0], train_x, train_y)
        write_cifar10(paths[1], test_x, test_y)
        try:
            train = stream.load_cifar_binary(paths[0])
            test = stream.load_cifar_binary(paths[1])
        finally:
            for p in paths:
                p.unlink()
    task_stream = stream.split_dataset(
        train, w.n_tasks, int(_rng(seed, 3).integers(2**31)),
        batch_size=STREAM_BATCH, test_data=test,
    )
    elapsed = time.perf_counter() - started
    return Inputs(train_x, train_y, test_x, test_y, task_stream), elapsed
