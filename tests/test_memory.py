"""Reservoir buffer: Algorithm R law, oracle accounting, retrieval."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import reference
from reference import CountingOracle
from semicon.memory import (
    MemoryBuffer,
    Oracle,
    expected_oracle_calls,
    oracle_calls_std,
    reservoir_update,
    reservoir_update_batch,
    retrieve,
)


# a feature row for each source id of every stream here
ROWS = np.zeros((1000, 1))


def make_stream(n):
    """A stream batch: source ids only."""
    return np.arange(n)


def ids_oracle(n, mod=10):
    return Oracle(np.arange(n) % mod)


def fill(capacity, n, seed=0, oracle=None):
    buf = MemoryBuffer(capacity, ROWS)
    oracle = oracle or ids_oracle(n)
    rng = np.random.default_rng(seed)
    reservoir_update_batch(buf, make_stream(n), oracle, rng)
    return buf


# ---------------------------------------------------------------------------
# basic accounting
# ---------------------------------------------------------------------------

def stored(buf):
    return buf.ids[:buf.size]


def test_short_stream_stores_everything():
    buf = fill(capacity=50, n=20)
    assert buf.size == 20
    assert buf.seen == 20
    assert buf.oracle_calls == 20
    assert stored(buf).tolist() == list(range(20))


def test_items_carry_oracle_labels():
    buf = fill(capacity=10, n=8)
    assert buf.labels[:buf.size].tolist() == [i % 10 for i in range(8)]


def test_capacity_validation():
    with pytest.raises(ValueError, match="capacity"):
        MemoryBuffer(0, ROWS)


def test_size_clamps_at_capacity():
    buf = fill(capacity=10, n=500)
    assert buf.size == 10
    assert buf.seen == 500
    assert 10 <= buf.oracle_calls <= 500


@settings(max_examples=30, deadline=None)
@given(capacity=st.integers(1, 20), n=st.integers(0, 60), seed=st.integers(0, 99))
def test_size_invariant_along_any_prefix(capacity, n, seed):
    buf = MemoryBuffer(capacity, ROWS)
    oracle = ids_oracle(max(n, 1))
    rng = np.random.default_rng(seed)
    for t, sample in enumerate(make_stream(n), start=1):
        reservoir_update(buf, sample, oracle, rng)
        assert buf.size == min(t, capacity)
        assert buf.seen == t


def test_oracle_charged_once_per_insertion():
    oracle = CountingOracle(np.arange(1000) % 7)
    buf = fill(capacity=20, n=1000, seed=3, oracle=oracle)
    assert oracle.calls[0] == buf.oracle_calls
    assert buf.oracle_calls >= buf.size


def test_determinism_same_seed_same_trajectory():
    a = fill(capacity=15, n=400, seed=11)
    b = fill(capacity=15, n=400, seed=11)
    assert np.array_equal(stored(a), stored(b))
    assert a.oracle_calls == b.oracle_calls
    c = fill(capacity=15, n=400, seed=12)
    assert not np.array_equal(stored(a), stored(c))


# ---------------------------------------------------------------------------
# the batch path against one draw per offer
# ---------------------------------------------------------------------------

def assert_matches_scalar(buf, ref, seen, calls):
    ids, labels, ref_seen, _ = ref
    assert stored(buf).tolist() == ids
    assert buf.labels[:buf.size].tolist() == labels
    assert buf.seen == ref_seen == seen
    assert buf.oracle_calls == calls


@pytest.mark.parametrize("capacity,n,seed", [(20, 300, 0), (7, 120, 1), (50, 60, 2)])
def test_batch_update_equals_scalar_algorithm_r(capacity, n, seed):
    labels = np.arange(n) % 9
    oracle = Oracle(labels)
    sizes = np.random.default_rng(100 + seed).integers(1, 26, size=n)
    sizes[:2] = capacity - 3, 7  # the second batch fills the buffer and draws
    buf, rng = MemoryBuffer(capacity, ROWS), np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    ref, calls, start = ([], [], 0, 0), 0, 0
    straddled = False
    for size in sizes:
        batch = np.arange(start, min(start + size, n))
        if not batch.size:
            break
        straddled |= buf.seen < capacity < buf.seen + batch.size
        reservoir_update_batch(buf, batch, oracle, rng)
        ref = reference.reservoir_scalar(capacity, ref[0], ref[1], ref[2],
                                         batch, labels, ref_rng)
        calls += ref[3]
        assert_matches_scalar(buf, ref, batch[-1] + 1, calls)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        start += size
    assert straddled


class Draws:
    """Generator stand-in that hands out prescribed slot draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def integers(self, low, high):
        n = np.size(high)
        out, self.draws = self.draws[:n], self.draws[n:]
        assert all(0 <= d < h for d, h in zip(out, np.atleast_1d(high)))
        return np.array(out, dtype=np.int64) if np.ndim(high) else out[0]


def test_two_stores_into_one_slot_keep_the_later_offer():
    # capacity 3: offers 0-1 fill slots 0-1; in the next batch offer 2
    # fills slot 2, then offers 3..6 draw 2 (slot 2 again), 4 (no store),
    # 1 and 1 (slot 1 twice)
    draws = [2, 4, 1, 1]
    oracle = CountingOracle(np.arange(10) * 10)
    buf = MemoryBuffer(3, ROWS)
    reservoir_update_batch(buf, [0, 1], oracle, Draws([]))
    reservoir_update_batch(buf, [2, 3, 4, 5, 6], oracle, Draws(draws))
    ref = reference.reservoir_scalar(3, [], [], 0, range(7), oracle.labels,
                                     Draws(draws))
    assert ref[0] == [0, 6, 3]
    assert_matches_scalar(buf, ref, 7, 6)
    assert oracle.calls[0] == buf.oracle_calls == ref[3]


def test_single_offer_wrapper_is_a_batch_of_one():
    oracle = ids_oracle(200)
    a, b = MemoryBuffer(12, ROWS), MemoryBuffer(12, ROWS)
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    for i in range(200):
        reservoir_update(a, i, oracle, rng_a)
    reservoir_update_batch(b, np.arange(200), oracle, rng_b)
    assert np.array_equal(stored(a), stored(b))
    assert np.array_equal(a.labels, b.labels)
    assert a.oracle_calls == b.oracle_calls
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


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
        buf = MemoryBuffer(capacity, ROWS)
        reservoir_update_batch(buf, stream, oracle, rng)
        counts[stored(buf)] += 1
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
        ids, _ = retrieve(buf, 100, rng)
        counts[ids] += 1
    freqs = counts / trials
    bound = 3 * np.sqrt(0.5 * 0.5 / trials)
    assert np.all(np.abs(freqs - 0.5) < bound)


# ---------------------------------------------------------------------------
# retrieval clamping
# ---------------------------------------------------------------------------

def test_retrieve_clamps_to_stored():
    buf = fill(capacity=10, n=5)
    ids, labels = retrieve(buf, 100, np.random.default_rng(0))
    assert sorted(ids.tolist()) == list(range(5))
    assert np.array_equal(labels, ids % 10)


def test_retrieve_zero_and_empty():
    buf = fill(capacity=10, n=5)
    for got in (retrieve(buf, 0, np.random.default_rng(0)),
                retrieve(MemoryBuffer(10, ROWS), 4, np.random.default_rng(0))):
        assert [len(a) for a in got] == [0, 0]
    with pytest.raises(ValueError):
        retrieve(buf, -1, np.random.default_rng(0))


def test_retrieve_without_replacement():
    buf = fill(capacity=50, n=50)
    for trial in range(20):
        ids, _ = retrieve(buf, 30, np.random.default_rng(trial))
        assert len(ids) == len(set(ids.tolist())) == 30


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


def test_real_buffer_matches_closed_form_mean_and_std():
    # Algorithm R runs against the exact mean and standard deviation
    capacity, n, trials = 5, 60, 1500
    oracle = ids_oracle(n)
    stream = make_stream(n)
    rng = np.random.default_rng(10)
    real = np.array([
        reservoir_update_batch(MemoryBuffer(capacity, ROWS), stream, oracle, rng)
        .oracle_calls
        for _ in range(trials)
    ], dtype=float)
    sigma = oracle_calls_std(capacity, n)
    assert real.mean() == pytest.approx(
        expected_oracle_calls(capacity, n), abs=3 * sigma / np.sqrt(trials))
    # the sample std of T trials has standard error about sigma / sqrt(2(T - 1))
    # (a sum of many independent Bernoullis is near normal): allow 4 of those
    assert real.std(ddof=1) == pytest.approx(
        sigma, abs=4 * sigma / np.sqrt(2 * (trials - 1)))


def test_std_closed_form():
    assert oracle_calls_std(10, 5) == 0.0
    assert oracle_calls_std(10, 10) == 0.0
    # M=1, N=3: offers 2 and 3 are Bernoulli(1/2) and Bernoulli(1/3)
    assert oracle_calls_std(1, 3) == pytest.approx(
        np.sqrt(1 / 4 + 2 / 9), rel=1e-12)
