"""The tape's contract: u_{s,e,j} is a pure function of (seed, s, e, j)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respark import tape as tape_module
from respark.tape import RandomTape


def test_same_key_same_stream():
    a = RandomTape(42).uniforms(3, 17, 50)
    b = RandomTape(42).uniforms(3, 17, 50)
    assert np.array_equal(a, b)


def test_single_draw_indexes_the_stream():
    tape = RandomTape(7)
    block = tape.uniforms(2, 5, 10)
    for j in range(10):
        assert tape.uniform(2, 5, j) == block[j]


def test_prefix_consistency():
    # shorter draws are prefixes of longer ones from the same key
    tape = RandomTape(99)
    assert np.array_equal(tape.uniforms(1, 4, 8), tape.uniforms(1, 4, 20)[:8])


def test_call_order_irrelevant():
    t1 = RandomTape(5)
    first = t1.uniforms(2, 9, 16)
    second = t1.uniforms(1, 0, 16)
    t2 = RandomTape(5)
    assert np.array_equal(t2.uniforms(1, 0, 16), second)
    assert np.array_equal(t2.uniforms(2, 9, 16), first)


def test_distinct_keys_distinct_streams():
    tape = RandomTape(11)
    base = tape.uniforms(1, 1, 32)
    assert not np.array_equal(base, tape.uniforms(2, 1, 32))
    assert not np.array_equal(base, tape.uniforms(1, 2, 32))
    assert not np.array_equal(base, RandomTape(12).uniforms(1, 1, 32))


def test_unit_interval_and_moments():
    u = RandomTape(0).uniforms(1, 0, 100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    # mean 1/2 and variance 1/12; 5 sigma tolerance at this sample size
    assert abs(u.mean() - 0.5) < 5 * np.sqrt(1 / 12 / len(u))
    assert abs(u.var() - 1 / 12) < 5e-3


def test_labeled_streams():
    tape = RandomTape(3)
    a = tape.labeled("alpha-noise", 16)
    b = tape.labeled("alpha-noise", 16)
    c = tape.labeled("other", 16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0 and a.max() < 1.0


def test_negative_counts_are_rejected():
    tape = RandomTape(3)
    with pytest.raises(ValueError, match="count must be non-negative"):
        tape.uniforms(1, 1, -1)
    with pytest.raises(ValueError, match="count must be non-negative"):
        tape.labeled("alpha-noise", -1)


def test_labeled_and_keyed_streams_disjoint():
    tape = RandomTape(3)
    assert not np.array_equal(tape.labeled("1", 8), tape.uniforms(1, 1, 8))


def test_child_seeds():
    tape = RandomTape(21)
    s1 = tape.child_seed("trial/0")
    assert s1 == RandomTape(21).child_seed("trial/0")
    assert s1 != tape.child_seed("trial/1")
    assert 0 <= s1 < 2**64


def _u64(x):
    return (x & (2**64 - 1)).to_bytes(8, "little")


def _fresh_philox_reference(seed, tag, payload, count):
    # the tape's keying with a newly built Philox per stream
    import hashlib

    h = hashlib.blake2b(digest_size=16, person=b"respark.tape")
    h.update(tag)
    h.update((seed & (2**64 - 1)).to_bytes(8, "little"))
    h.update(payload)
    key = np.frombuffer(h.digest(), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(count)


def test_rekeyed_draws_equal_fresh_philox_streams():
    # one tape re-keyed across interleaved calls of every kind and mixed
    # counts (odd ones leave the generator's buffer part-used) draws what a
    # fresh Philox per key draws
    tape = RandomTape(-17)
    calls = [
        ("uniforms", 1, 0, 7), ("labeled", "noise/1", 3), ("uniform", 1, 0, 5),
        ("uniforms", 2, 9, 0), ("uniforms", 2, 9, 1), ("uniform", 3, 4, 12),
        ("labeled", "", 5), ("uniforms", 1, 0, 2001), ("uniforms", 7, 2**40, 4),
        ("uniform", 1, 0, 0), ("labeled", "noise/1", 9), ("uniforms", 1, 0, 7),
    ]
    for kind, *args in calls:
        if kind == "uniforms":
            step, edge, count = args
            got = tape.uniforms(step, edge, count)
            want = _fresh_philox_reference(-17, b"c", _u64(step) + _u64(edge), count)
            assert np.array_equal(got, want)
        elif kind == "uniform":
            step, edge, copy = args
            want = _fresh_philox_reference(-17, b"c", _u64(step) + _u64(edge), copy + 1)[copy]
            assert tape.uniform(step, edge, copy) == want
        else:
            label, count = args
            want = _fresh_philox_reference(-17, b"l", label.encode(), count)
            assert np.array_equal(tape.labeled(label, count), want)


def _keyed_reference(seed, step, edge, count):
    return _fresh_philox_reference(seed, b"c", _u64(step) + _u64(edge), count)


def _kernel_pays(count, copies):
    per_call, per_copy = tape_module._ADDRESSED_COST
    return count > per_call + per_copy * copies


# counts on either side of the cost rule for every `at` below
@pytest.mark.parametrize("count, kernel", [(4_001, False), (200_003, True)])
def test_addressed_draws_index_the_fresh_philox_stream(count, kernel, kernel_calls):
    want = _keyed_reference(-17, 3, 11, count)
    tape = RandomTape(-17)
    cases = [
        [0, 1, 2, 3],  # the four lanes of counter block 1
        [4, 9, 14, 19],  # lanes 0, 1, 2, 3 of blocks 2 to 5
        [count - 1],  # the last draw, alone
        [0],
        [],
        [count - 1, 5, 0, 5, 6, 7, 5],  # unsorted, with repeats
        np.arange(2, count, 97),
        np.array([count - 2, 1], dtype=np.uint32),
    ]
    for at in cases:
        got = tape.uniforms(3, 11, count, at=at)
        assert got.dtype == np.float64
        assert np.array_equal(got, want[np.asarray(at, dtype=np.int64)]), at
    assert len(kernel_calls) == (len(cases) if kernel else 0)


@pytest.mark.parametrize("count", [4_001, 200_003])
@pytest.mark.parametrize(
    "at",
    [
        [-1], [0, -5], "last+1", [0.0, 1.0], [True, False], [[0, 1]], [2**64 - 1],
        # 1-D int64 arrays skip the conversion, not the range check
        np.array([-1]), np.array([0, 2**62]), np.array([2, -(2**63)]), np.array([[0, 1]]),
    ],
)
def test_addressed_draws_reject_indices_outside_the_stream(count, at, kernel_calls):
    at = [0, count] if isinstance(at, str) else at
    with pytest.raises(ValueError, match="at must"):
        RandomTape(1).uniforms(1, 1, count, at=at)
    assert kernel_calls == []


def test_kernel_matches_numpy_philox_at_theorem_alive_fractions():
    # N = 484,918 is the theorem budget of ER(40, 0.25) at eps 0.5; thinned
    # edges there keep 0.5-2.6% of their copies
    rng = np.random.default_rng(2013)
    n = 484_918
    for _ in range(2):
        key = rng.integers(0, 2**64, 2, dtype=np.uint64, endpoint=False)
        want = np.random.Generator(np.random.Philox(key=key)).random(n)
        for fraction in (0.005, 0.01, 0.026, 0.1):
            idx = np.sort(rng.choice(n, int(fraction * n), replace=False))
            assert np.array_equal(tape_module._philox_at(key, idx), want[idx])


def test_single_draw_reads_one_address(kernel_calls):
    tape = RandomTape(8)
    copy = 300_000
    assert tape.uniform(4, 2, copy) == _keyed_reference(8, 4, 2, copy + 1)[copy]
    assert kernel_calls == [1]
    with pytest.raises(ValueError):
        tape.uniform(4, 2, -1)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(-(2**63), 2**64 - 1),
    step=st.integers(0, 2**20),
    edge=st.integers(0, 2**40),
    count=st.integers(1, 120_000),
    data=st.data(),
)
def test_addressed_draws_property(seed, step, edge, count, data):
    at = data.draw(st.lists(st.integers(0, count - 1), max_size=60))
    got = RandomTape(seed).uniforms(step, edge, count, at=at)
    want = _keyed_reference(seed, step, edge, count)
    assert np.array_equal(got, want[np.asarray(at, dtype=np.int64)])


def test_cost_rule_keeps_small_budgets_on_the_full_path():
    # the mc-stress (N = 2000) and stream-n400 (N = 500) budgets never pay
    # for the kernel, even for a single alive copy
    assert not _kernel_pays(2000, 1) and not _kernel_pays(500, 0)
    assert _kernel_pays(484_918, math.ceil(0.026 * 484_918))
