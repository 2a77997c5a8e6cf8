"""Reservoir-sampled labeled memory and oracle-call accounting.

The buffer is the only place labels enter the training loop: a stream
sample gets a label (one oracle call) exactly when reservoir sampling
decides to store it, including items that are later evicted. Under
Algorithm R the expected number of calls after N offers is
M * (1 + H_N - H_M), which for M << N is about M * (1 + ln(N / M)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .stream import Sample


@dataclass(frozen=True)
class Oracle:
    """Ground-truth labels by sample source id. Deterministic and total."""

    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "labels", np.asarray(self.labels, dtype=np.int64)
        )

    def label(self, source_id: int) -> int:
        return int(self.labels[source_id])


@dataclass(frozen=True)
class MemoryItem:
    sample: "Sample"
    label: int


@dataclass
class MemoryBuffer:
    """Fixed-capacity reservoir over the stream seen so far."""

    capacity: int
    items: list[MemoryItem] = field(default_factory=list)
    seen: int = 0
    oracle_calls: int = 0

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")


def reservoir_update(
    buf: MemoryBuffer, sample: "Sample", oracle: Oracle, rng: np.random.Generator
) -> MemoryBuffer:
    """Offer one stream sample to the buffer (Algorithm R).

    The first M offers are stored outright; offer n > M replaces a
    uniform slot with probability M/n. Every store costs one oracle call.
    """
    if buf.seen < buf.capacity:
        buf.items.append(MemoryItem(sample, oracle.label(sample.source_id)))
        buf.oracle_calls += 1
    else:
        j = int(rng.integers(0, buf.seen + 1))
        if j < buf.capacity:
            buf.items[j] = MemoryItem(sample, oracle.label(sample.source_id))
            buf.oracle_calls += 1
    buf.seen += 1
    return buf


def reservoir_update_batch(
    buf: MemoryBuffer, batch, oracle: Oracle, rng: np.random.Generator
) -> MemoryBuffer:
    for sample in batch:
        reservoir_update(buf, sample, oracle, rng)
    return buf


def retrieve(
    buf: MemoryBuffer, k: int, rng: np.random.Generator
) -> list[MemoryItem]:
    """Uniform sample without replacement of min(k, stored) items."""
    if k < 0:
        raise ValueError(f"batch size must be >= 0, got {k}")
    stored = len(buf.items)
    take = min(k, stored)
    if take == 0:
        return []
    chosen = rng.choice(stored, size=take, replace=False)
    return [buf.items[i] for i in chosen]


def expected_oracle_calls(capacity: int, stream_length: int) -> float:
    """E[oracle_calls] after a stream of the given length: M(1 + H_N - H_M)."""
    m, n = capacity, stream_length
    if n <= m:
        return float(n)
    return m * (1.0 + np.sum(1.0 / np.arange(m + 1, n + 1)))


def simulate_oracle_calls(
    capacity: int,
    stream_length: int,
    trials: int,
    rng: np.random.Generator,
    chunk: int = 4096,
) -> np.ndarray:
    """Monte-Carlo draw of per-trial oracle-call totals.

    Samples the insertion law of Algorithm R directly (offer t > M
    inserts independently with probability M/t), which has exactly the
    distribution of oracle_calls without materializing any buffer.
    """
    m, n = capacity, stream_length
    counts = np.full(trials, float(min(m, n)))
    for start in range(m + 1, n + 1, chunk):
        steps = np.arange(start, min(start + chunk, n + 1))
        hits = rng.random((trials, steps.size)) < (m / steps)
        counts += hits.sum(axis=1)
    return counts
