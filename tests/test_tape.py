"""The tape's contract: u_{s,e,j} is a pure function of (seed, s, e, j)."""

import numpy as np

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


def test_labeled_and_keyed_streams_disjoint():
    tape = RandomTape(3)
    assert not np.array_equal(tape.labeled("1", 8), tape.uniforms(1, 1, 8))


def test_child_seeds():
    tape = RandomTape(21)
    s1 = tape.child_seed("trial/0")
    assert s1 == RandomTape(21).child_seed("trial/0")
    assert s1 != tape.child_seed("trial/1")
    assert 0 <= s1 < 2**64


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
    def u64(x):
        return (x & (2**64 - 1)).to_bytes(8, "little")

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
            want = _fresh_philox_reference(-17, b"c", u64(step) + u64(edge), count)
            assert np.array_equal(got, want)
        elif kind == "uniform":
            step, edge, copy = args
            want = _fresh_philox_reference(-17, b"c", u64(step) + u64(edge), copy + 1)[copy]
            assert tape.uniform(step, edge, copy) == want
        else:
            label, count = args
            want = _fresh_philox_reference(-17, b"l", label.encode(), count)
            assert np.array_equal(tape.labeled(label, count), want)
