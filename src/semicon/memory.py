"""Reservoir-sampled labeled memory and oracle-call accounting.

The buffer is the only place labels enter the training loop: a stream
sample gets a label (one oracle call) exactly when reservoir sampling
decides to store it, including items that are later evicted. Offers are
decided one at a time, in stream order, by Algorithm R (Vitter, 1985),
so the expected number of calls after N offers is M * (1 + H_N - H_M),
which for M << N is about M * (1 + ln(N / M)). Offer t > M is stored by
its own slot draw, independently, with probability M/t, so the variance
is the sum of (M/t)(1 - M/t) over t = M+1..N.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

@dataclass(frozen=True)
class Oracle:
    """Ground-truth labels by sample source id. Deterministic and total."""

    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "labels", np.asarray(self.labels, dtype=np.int64)
        )

    def label(self, source_ids):
        """The label of one source id, or the labels of an array of ids."""
        return self.labels[source_ids]


@dataclass(frozen=True, eq=False)
class Sample:
    """A stored stream element, as `MemoryBuffer.items` shows it: its
    feature row, read from the buffer's `features` by source id."""

    features: np.ndarray
    source_id: int


@dataclass(frozen=True)
class MemoryItem:
    sample: Sample
    label: int


@dataclass(eq=False)
class MemoryBuffer:
    """Fixed-capacity reservoir over the stream seen so far.

    Slots 0..size-1 of `ids` and `labels` hold the stored source ids and
    their oracle labels. `features` holds the stream's rows by source id,
    so a stored sample's row is `features[ids[i]]` and nothing is copied.
    """

    capacity: int
    features: np.ndarray = field(repr=False)
    seen: int = field(default=0, init=False)
    oracle_calls: int = field(default=0, init=False)
    ids: np.ndarray = field(init=False, repr=False)
    labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        self.ids = np.zeros(self.capacity, dtype=np.int64)
        self.labels = np.zeros(self.capacity, dtype=np.int64)

    @property
    def size(self) -> int:
        """Stored slots: every offer is stored until the buffer is full."""
        return min(self.capacity, self.seen)

    @property
    def items(self) -> "_Items":
        """The stored slots as (sample, label) records, built on access."""
        return _Items(self)


@dataclass(frozen=True)
class _Items(Sequence):
    """Records of a buffer's stored slots; assigning one stores its id and label."""

    buf: MemoryBuffer

    def __len__(self) -> int:
        return self.buf.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        sid = int(self.buf.ids[:len(self)][i])
        return MemoryItem(Sample(self.buf.features[sid], sid),
                          int(self.buf.labels[:len(self)][i]))

    def __setitem__(self, i: int, item: MemoryItem) -> None:
        self.buf.ids[:len(self)][i] = item.sample.source_id
        self.buf.labels[:len(self)][i] = item.label


def reservoir_update_batch(
    buf: MemoryBuffer, batch, oracle: Oracle, rng: np.random.Generator
) -> MemoryBuffer:
    """Offer a batch of stream source ids to the buffer in order (Algorithm R).

    Offer t (counting from 0) goes to slot t while t < M; after that it
    draws a slot uniformly from 0..t and is stored when that slot is
    below M, so it replaces a uniform slot with probability M/(t + 1).
    Every store costs one oracle call.
    """
    for sid in np.asarray(batch, dtype=np.int64).tolist():
        t = buf.seen
        slot = t if t < buf.capacity else int(rng.integers(0, t + 1))
        if slot < buf.capacity:
            buf.ids[slot], buf.labels[slot] = sid, oracle.label(sid)
            buf.oracle_calls += 1
        buf.seen += 1
    return buf


def reservoir_update(
    buf: MemoryBuffer, source_id: int, oracle: Oracle, rng: np.random.Generator
) -> MemoryBuffer:
    """Offer one stream source id: a batch of one."""
    return reservoir_update_batch(buf, [source_id], oracle, rng)


def retrieve(
    buf: MemoryBuffer, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(ids, labels) of min(k, stored) slots, uniform without replacement."""
    if k < 0:
        raise ValueError(f"batch size must be >= 0, got {k}")
    take = min(k, buf.size)
    if take == 0:
        return buf.ids[:0], buf.labels[:0]
    chosen = rng.choice(buf.size, size=take, replace=False)
    return buf.ids[chosen], buf.labels[chosen]


def expected_oracle_calls(capacity: int, stream_length: int) -> float:
    """E[oracle_calls] after a stream of the given length: M(1 + H_N - H_M)."""
    m, n = capacity, stream_length
    if n <= m:
        return float(n)
    return m * (1.0 + np.sum(1.0 / np.arange(m + 1, n + 1)))


def oracle_calls_std(capacity: int, stream_length: int) -> float:
    """Standard deviation of oracle_calls after a stream of the given
    length: sqrt(sum over t = M+1..N of (M/t)(1 - M/t))."""
    m, n = capacity, stream_length
    p = m / np.arange(m + 1, n + 1)
    return float(np.sqrt(np.sum(p * (1.0 - p))))
