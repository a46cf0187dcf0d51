import gc
import tracemalloc

import numpy as np
import pytest

from mcrl.replay import ReplayBuffer


def row(i, sdim=2, adim=1):
    return (np.full(sdim, float(i)), np.full(adim, 0.1 * i), float(i),
            np.full(sdim, float(i) + 0.5))


def filled(n, capacity=16):
    buf = ReplayBuffer(capacity, state_dim=2, action_dim=1)
    for i in range(n):
        buf.push(*row(i))
    return buf


def stored(buf):
    """Copies of the filled rows of every column, in slot order."""
    return {k: v[:len(buf)].copy() for k, v in buf._cols.items()}


def test_push_grows_then_rings():
    buf = ReplayBuffer(capacity=2, state_dim=2, action_dim=1)
    buf.push(*row(1))
    assert len(buf) == 1
    buf.push(*row(2))
    buf.push(*row(3))
    assert len(buf) == 2
    assert sorted(stored(buf)["r"][:, 0]) == [2.0, 3.0]


def test_ring_overwrite_keeps_newest_rows_in_slot_order():
    buf = filled(10, capacity=4)
    assert len(buf) == 4
    cols = stored(buf)
    # rows 0-3 fill slots 0-3; rows 4-9 then replace the oldest slot in turn
    np.testing.assert_array_equal(cols["r"][:, 0], [8.0, 9.0, 6.0, 7.0])
    np.testing.assert_array_equal(cols["s"][:, 0], [8.0, 9.0, 6.0, 7.0])
    np.testing.assert_array_equal(cols["s_next"][:, 0], [8.5, 9.5, 6.5, 7.5])


def test_shape_and_reward_validation():
    buf = ReplayBuffer(capacity=4, state_dim=2, action_dim=1)
    shape = r"a transition is a \(2,\) state, a \(1,\) action, a scalar reward"
    with pytest.raises(ValueError, match=shape):
        buf.push(np.zeros(3), np.zeros(1), 0.0, np.zeros(2))
    with pytest.raises(ValueError, match=shape):
        buf.push(np.zeros(2), np.zeros(1), 0.0, np.zeros(3))
    with pytest.raises(ValueError, match=shape):
        buf.push(np.zeros(2), np.zeros(2), 0.0, np.zeros(2))
    # nested elements pass the length checks; the row write must not take them
    for s, a, s_next in ((np.zeros((2, 1)), np.zeros(1), np.zeros(2)),
                         (np.zeros(2), np.zeros((1, 1)), np.zeros(2)),
                         (np.zeros(2), [[0.0]], np.zeros(2)),
                         ((0.0, 0.0), (0.0,), [[0.0], [0.0]])):
        with pytest.raises(ValueError, match=shape):
            buf.push(s, a, 0.0, s_next)
    for bad in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            buf.push(np.zeros(2), np.zeros(1), bad, np.zeros(2))
    for bad in (np.zeros(2), np.ones(1), [1.0]):
        with pytest.raises(ValueError, match="scalar"):
            buf.push(np.zeros(2), np.zeros(1), bad, np.zeros(2))
    assert len(buf) == 0


def test_roundtrip_fields():
    buf = ReplayBuffer(capacity=4, state_dim=2, action_dim=1)
    s, a, r, s_next = row(7)
    buf.push(s, a, r, s_next)
    got = buf.sample_batch(1, np.random.default_rng(0))
    np.testing.assert_array_equal(got.s, [s])
    np.testing.assert_array_equal(got.a, [a])
    np.testing.assert_array_equal(got.r, [[r]])
    np.testing.assert_array_equal(got.s_next, [s_next])


def test_push_copies_caller_arrays():
    buf = ReplayBuffer(capacity=4, state_dim=2, action_dim=1)
    s, a, r, s_next = row(3)
    buf.push(s, a, r, s_next)
    s[:] = -1.0
    a[:] = -1.0
    s_next[:] = -1.0
    cols = stored(buf)
    np.testing.assert_array_equal(cols["s"], [[3.0, 3.0]])
    np.testing.assert_array_equal(cols["a"], [[0.1 * 3]])
    np.testing.assert_array_equal(cols["s_next"], [[3.5, 3.5]])


def test_push_allocates_no_per_transition_objects():
    buf = ReplayBuffer(capacity=10_000, state_dim=2, action_dim=1)
    s, a, s_next = np.zeros(2), np.zeros(1), np.ones(2)
    gc.collect()
    before = len(gc.get_objects())
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        for i in range(10_000):
            buf.push(s, a, float(i), s_next)
        held = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    gc.collect()
    assert len(gc.get_objects()) - before < 100
    # gc does not see tuples of arrays; a byte count does (10,000 rows kept
    # as objects would hold several hundred KB)
    assert held < 16_384
    assert len(buf) == 10_000


def test_single_item_sampled_with_replacement():
    buf = ReplayBuffer(capacity=4, state_dim=2, action_dim=1)
    buf.push(*row(1))
    out = buf.sample_batch(4, np.random.default_rng(1))
    assert len(out) == 4
    np.testing.assert_array_equal(out.r, np.ones((4, 1)))


def test_empty_buffer_sampling_rejected():
    with pytest.raises(ValueError):
        ReplayBuffer(4, 2, 1).sample_batch(1, np.random.default_rng(0))


def test_fixed_seed_reproduces_sample_sequence():
    buf = filled(10)
    rng1, rng2 = np.random.default_rng(42), np.random.default_rng(42)
    seq1 = [buf.sample_batch(3, rng1).r for _ in range(5)]
    seq2 = [buf.sample_batch(3, rng2).r for _ in range(5)]
    np.testing.assert_array_equal(seq1, seq2)


def test_sampling_does_not_mutate_buffer():
    buf = filled(10)
    before = stored(buf)
    batch = buf.sample_batch(64, np.random.default_rng(3))
    # the batch holds copies: writing to it leaves the ring alone
    batch.s[:] = -1.0
    batch.r[:] = -1.0
    after = stored(buf)
    for k in before:
        np.testing.assert_array_equal(after[k], before[k])


def test_uniformity_within_three_sigma():
    buf = filled(10)
    rng = np.random.default_rng(123)
    draws = 100_000
    idx = buf.sample_indices(draws, rng)
    counts = np.bincount(idx, minlength=10)
    p = 0.1
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) <= 3 * sigma)


def test_train_and_validation_draws_are_independent():
    buf = filled(10)
    rng = np.random.default_rng(9)
    # consecutive draws from one stream must not reuse the index list
    agree = 0
    trials = 200
    for _ in range(trials):
        i1 = buf.sample_indices(8, rng)
        i2 = buf.sample_indices(8, rng)
        if np.array_equal(i1, i2):
            agree += 1
    assert agree == 0


def test_sample_batch_shapes():
    b = filled(5).sample_batch(7, np.random.default_rng(0))
    assert b.s.shape == (7, 2) and b.a.shape == (7, 1)
    assert b.r.shape == (7, 1)
    assert b.s_next.shape == (7, 2)
    assert len(b) == 7
