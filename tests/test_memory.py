"""Reservoir buffer: Algorithm R law, oracle accounting, retrieval."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from semicon.memory import (
    MemoryBuffer,
    Oracle,
    expected_oracle_calls,
    reservoir_update,
    reservoir_update_batch,
    retrieve,
    simulate_oracle_calls,
)


@dataclass(frozen=True)
class FakeSample:
    source_id: int
    features: np.ndarray = None


def make_stream(n):
    return [FakeSample(i) for i in range(n)]


def ids_oracle(n, mod=10):
    return Oracle(np.arange(n) % mod)


class CountingOracle(Oracle):
    """Oracle that tallies its own label calls."""

    def __init__(self, labels):
        super().__init__(labels)
        object.__setattr__(self, "calls", [0])

    def label(self, source_id):
        self.calls[0] += 1
        return super().label(source_id)


def fill(capacity, n, seed=0, oracle=None):
    buf = MemoryBuffer(capacity)
    oracle = oracle or ids_oracle(n)
    rng = np.random.default_rng(seed)
    reservoir_update_batch(buf, make_stream(n), oracle, rng)
    return buf


# ---------------------------------------------------------------------------
# basic accounting
# ---------------------------------------------------------------------------

def test_short_stream_stores_everything():
    buf = fill(capacity=50, n=20)
    assert len(buf.items) == 20
    assert buf.seen == 20
    assert buf.oracle_calls == 20
    assert [it.sample.source_id for it in buf.items] == list(range(20))


def test_items_carry_oracle_labels():
    buf = fill(capacity=10, n=8)
    assert [it.label for it in buf.items] == [i % 10 for i in range(8)]


def test_capacity_validation():
    with pytest.raises(ValueError, match="capacity"):
        MemoryBuffer(0)


def test_size_clamps_at_capacity():
    buf = fill(capacity=10, n=500)
    assert len(buf.items) == 10
    assert buf.seen == 500
    assert 10 <= buf.oracle_calls <= 500


@settings(max_examples=30, deadline=None)
@given(capacity=st.integers(1, 20), n=st.integers(0, 60), seed=st.integers(0, 99))
def test_size_invariant_along_any_prefix(capacity, n, seed):
    buf = MemoryBuffer(capacity)
    oracle = ids_oracle(max(n, 1))
    rng = np.random.default_rng(seed)
    for t, sample in enumerate(make_stream(n), start=1):
        reservoir_update(buf, sample, oracle, rng)
        assert len(buf.items) == min(t, capacity)
        assert buf.seen == t


def test_oracle_charged_once_per_insertion():
    oracle = CountingOracle(np.arange(1000) % 7)
    buf = fill(capacity=20, n=1000, seed=3, oracle=oracle)
    assert oracle.calls[0] == buf.oracle_calls
    assert buf.oracle_calls >= len(buf.items)


def test_determinism_same_seed_same_trajectory():
    a = fill(capacity=15, n=400, seed=11)
    b = fill(capacity=15, n=400, seed=11)
    assert [it.sample.source_id for it in a.items] == [
        it.sample.source_id for it in b.items
    ]
    assert a.oracle_calls == b.oracle_calls
    c = fill(capacity=15, n=400, seed=12)
    assert [it.sample.source_id for it in a.items] != [
        it.sample.source_id for it in c.items
    ]


# ---------------------------------------------------------------------------
# inclusion uniformity (Monte Carlo)
# ---------------------------------------------------------------------------

def test_final_inclusion_is_uniform():
    capacity, n, trials = 10, 100, 10_000
    rng = np.random.default_rng(0)
    oracle = ids_oracle(n)
    stream = make_stream(n)
    counts = np.zeros(n)
    for _ in range(trials):
        buf = MemoryBuffer(capacity)
        reservoir_update_batch(buf, stream, oracle, rng)
        for it in buf.items:
            counts[it.sample.source_id] += 1
    p = capacity / n
    bound = 3 * np.sqrt(p * (1 - p) / trials)
    freqs = counts / trials
    assert np.all(np.abs(freqs - p) < bound)
    # chi-square over the n inclusion cells
    expected = trials * p
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.999, df=n - 1)


def test_retrieval_is_uniform():
    buf = fill(capacity=200, n=200)
    rng = np.random.default_rng(2)
    trials = 3000
    counts = np.zeros(200)
    for _ in range(trials):
        for it in retrieve(buf, 100, rng):
            counts[it.sample.source_id] += 1
    freqs = counts / trials
    bound = 3 * np.sqrt(0.5 * 0.5 / trials)
    assert np.all(np.abs(freqs - 0.5) < bound)


# ---------------------------------------------------------------------------
# retrieval clamping
# ---------------------------------------------------------------------------

def test_retrieve_clamps_to_stored():
    buf = fill(capacity=10, n=5)
    got = retrieve(buf, 100, np.random.default_rng(0))
    assert sorted(it.sample.source_id for it in got) == list(range(5))


def test_retrieve_zero_and_empty():
    buf = fill(capacity=10, n=5)
    assert retrieve(buf, 0, np.random.default_rng(0)) == []
    assert retrieve(MemoryBuffer(10), 4, np.random.default_rng(0)) == []
    with pytest.raises(ValueError):
        retrieve(buf, -1, np.random.default_rng(0))


def test_retrieve_without_replacement():
    buf = fill(capacity=50, n=50)
    for trial in range(20):
        got = retrieve(buf, 30, np.random.default_rng(trial))
        ids = [it.sample.source_id for it in got]
        assert len(ids) == len(set(ids)) == 30


# ---------------------------------------------------------------------------
# oracle budget
# ---------------------------------------------------------------------------

def test_expected_calls_closed_form():
    assert expected_oracle_calls(10, 10) == 10.0
    assert expected_oracle_calls(10, 5) == 5.0
    # M=1, N=3: 1 + 1/2 + 1/3
    assert expected_oracle_calls(1, 3) == pytest.approx(11 / 6, rel=1e-12)
    # large-N log approximation
    m, n = 200, 50_000
    assert expected_oracle_calls(m, n) == pytest.approx(
        m * (1 + np.log(n / m)), rel=2e-3)


def test_table_level_budget_fraction():
    # M=200 over a 50k stream costs about 2.6% of the labels
    frac = expected_oracle_calls(200, 50_000) / 50_000
    assert round(100 * frac, 1) == 2.6
    frac = expected_oracle_calls(500, 50_000) / 50_000
    assert round(100 * frac, 1) == 5.6


def test_simulator_matches_closed_form():
    rng = np.random.default_rng(9)
    counts = simulate_oracle_calls(200, 50_000, trials=200, rng=rng)
    want = expected_oracle_calls(200, 50_000)
    assert counts.mean() == pytest.approx(want, rel=0.01)


def test_simulator_matches_real_buffer_distribution():
    # same law at desk scale: Algorithm R runs vs the direct
    # insertion-probability sampler
    capacity, n, trials = 5, 60, 1500
    oracle = ids_oracle(n)
    stream = make_stream(n)
    rng = np.random.default_rng(10)
    real = np.array([
        reservoir_update_batch(MemoryBuffer(capacity), stream, oracle, rng)
        .oracle_calls
        for _ in range(trials)
    ], dtype=float)
    sim = simulate_oracle_calls(capacity, n, trials=trials,
                                rng=np.random.default_rng(11))
    se = np.sqrt(real.var() / trials + sim.var() / trials)
    assert abs(real.mean() - sim.mean()) < 3 * se
    assert stats.ks_2samp(real, sim).pvalue > 1e-3
    assert real.mean() == pytest.approx(
        expected_oracle_calls(capacity, n), abs=3 * np.sqrt(real.var() / trials))
