"""Counter-based random tape: every draw is a pure function of its key.

u_{s,e,j} depends only on (seed, step, edge, copy), never on call order, so
any decision in a run can be replayed bit-exactly and two formulations of
the same algorithm consume identical randomness without coordinating.

The keying follows the keyed-hash counter pattern: blake2b over
(seed, step, edge) selects a Philox4x64-10 key, and the copy index picks a
position inside that stream. Draw j of a key is lane j mod 4 of the Philox
output for counter block floor(j/4) + 1, mapped to a double in [0, 1) by
(x >> 11) * 2**-53; that is what NumPy's ``Philox(key).random`` yields at
position j. One NumPy Philox generator is kept per tape and re-keyed for
each stream (key set, counter zeroed, buffer emptied), which draws exactly
what a freshly built one would.

``uniforms(..., at=js)`` returns only the draws at copies js. Because draw j
is addressed by its counter block, a vectorised NumPy Philox kernel can
compute just the blocks holding js instead of all ``count`` draws. The
kernel costs a fixed 0.15-0.3 ms a call plus about 0.2 us a copy, against
6-10 ns a draw for the full stream, so it is taken only when the cost rule
``count > per_call + per_copy * len(at)`` (``_ADDRESSED_COST``) says it is
the cheaper path. The other path draws the stream only through max(js),
a prefix of the count draws. Both paths return identical bits.

``uniforms(..., at=range(a, b))`` with step 1 and 0 <= a, b <= count is a
window: the generator is re-keyed, advanced past the a // 4 counter blocks
before the window (``Philox.advance``), and draws only the blocks that hold
copies a to b - 1, so a caller can read a long stream a window at a time in
bounded memory, bit for bit ``uniforms(step, edge, count)[a:b]``. Any other
range is an index sequence like any other.

A tape re-keys its one generator on every call, so it is not safe to share
across threads: each thread draws from its own ``RandomTape(seed)``, whose
draws are the same pure functions of their keys.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .graph import _integer

__all__ = ["RandomTape"]

_MASK64 = (1 << 64) - 1
_PERSON = b"respark.tape"

# The addressed kernel's cost in full-path draws, (per call, per copy): it
# runs when count > per_call + per_copy * len(at). Measured on one core of a
# 2-vCPU Xeon VM with NumPy 2.4 at count 60,000 to 484,918: the kernel cost
# as much as 18,000-23,000 draws a call plus 20-28 draws a copy.
_ADDRESSED_COST = (25_000, 28)

# Philox4x64-10 (Salmon et al., SC 2011): multipliers and Weyl key increments
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_INT64 = np.dtype(np.int64)
_UINT64 = np.dtype(np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# the kernel keeps words in row order (c0, c2, c1, c3); lane l sits in row _LANE_ROW[l]
_LANE_ROW = np.array([0, 2, 1, 3])


def _u64(x: int) -> bytes:
    return (int(x) & _MASK64).to_bytes(8, "little")


def _philox_at(key: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Draws idx of NumPy's ``Philox(key).random`` stream, one counter block per index.

    idx is a 1-D int64 array of non-negative positions. Each position j
    computes block floor(j/4) + 1 (the counter NumPy increments before its
    first block) and keeps lane j mod 4.
    """
    k0, k1 = int(key[0]), int(key[1])
    m_lo, m_hi = _PHILOX_M & _LO32, _PHILOX_M >> _SHIFT32
    s = np.zeros((4, len(idx)), dtype=np.uint64)
    s[0] = (idx >> 2) + 1
    x = s[:2]  # the words each round multiplies: c0 by M0, c2 by M1
    for r in range(_PHILOX_ROUNDS):
        round_key = np.array(
            [[(k0 + r * _PHILOX_W[0]) & _MASK64], [(k1 + r * _PHILOX_W[1]) & _MASK64]],
            dtype=np.uint64,
        )
        # 128-bit product x * M from 32-bit halves; every partial sum fits 64 bits
        x_lo, x_hi = x & _LO32, x >> _SHIFT32
        t = x_hi * m_lo + ((x_lo * m_lo) >> _SHIFT32)
        w = (t & _LO32) + x_lo * m_hi
        hi = x_hi * m_hi + (t >> _SHIFT32) + (w >> _SHIFT32)
        lo = x * _PHILOX_M
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        hi = hi[::-1] ^ s[2:] ^ round_key
        s[2:] = lo[::-1]
        s[:2] = hi
    words = s[_LANE_ROW[idx & 3], np.arange(len(idx))]
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _copy_indices(at, count: int) -> tuple[np.ndarray, int]:
    """(at as an int64 array, its largest index + 1 or 0 when empty), after
    checking it holds integers in [0, count).

    A 1-D int64 ndarray, which is what resparsify passes, skips the
    conversion and its dimension and dtype checks; only its range is checked.
    """
    if type(at) is np.ndarray and at.dtype == _INT64 and at.ndim == 1:
        given = idx = at
    else:
        given = np.asarray(at)
        if given.ndim != 1:
            raise ValueError(
                f"at must be a 1-D sequence of copy indices, got {given.ndim} dimensions"
            )
        if given.size and given.dtype.kind not in "iu":
            raise ValueError(f"at must hold integers, got dtype {given.dtype}")
        idx = given.astype(np.int64, copy=False)
    if not len(idx):
        return idx, 0
    # read as unsigned, a negative index (or a uint64 past 2**63) is >= 2**63,
    # so one bound checks both ends of the range; argmax skips the ufunc
    # set-up that makes a max reduction cost microseconds
    wide = idx.view(_UINT64)
    top = int(wide[wide.argmax()])
    if top >= count:
        raise ValueError(f"at must lie in [0, {count}), got [{given.min()}, {given.max()}]")
    return idx, top + 1


class RandomTape:
    """Deterministic uniform streams keyed by (step, edge, copy) or by label."""

    def __init__(self, seed: int):
        self.seed = _integer("seed", seed)
        # blake2b over (tag, seed) for each tag: a key copies one and adds its payload
        self._prefix = {
            tag: hashlib.blake2b(tag + _u64(self.seed), digest_size=16, person=_PERSON)
            for tag in (b"c", b"l")
        }
        self._bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)
        # the state of a fresh Philox: counter 0, buffer empty; only the key changes
        self._fresh = self._bitgen.state

    def _key(self, tag: bytes, payload: bytes) -> np.ndarray:
        h = self._prefix[tag].copy()
        h.update(payload)
        return np.frombuffer(h.digest(), dtype=np.uint64)

    def _philox(self, tag: bytes, payload: bytes) -> np.random.Generator:
        self._fresh["state"]["key"] = self._key(tag, payload)
        self._bitgen.state = self._fresh
        return self._gen

    def uniforms(self, step: int, edge: int, count: int, at=None) -> np.ndarray:
        """The vector (u_{step,edge,0}, ..., u_{step,edge,count-1}).

        With ``at``, a 1-D sequence of copy indices in [0, count) in any
        order and with repeats, returns ``uniforms(step, edge, count)[at]``
        bit for bit, computing only the requested draws when that is cheaper.
        A ``range(a, b)`` with step 1 inside [0, count] is read as the window
        ``uniforms(step, edge, count)[a:b]``, drawing only its counter blocks.
        Raises ValueError for a negative count or an index outside [0, count).
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        payload = _u64(step) + _u64(edge)
        if at is None:
            return self._philox(b"c", payload).random(count)
        if type(at) is range and at.step == 1 and 0 <= at.start and at.stop <= count:
            gen = self._philox(b"c", payload)
            self._bitgen.advance(at.start // 4)  # counter blocks of 4 draws each
            skip = at.start % 4
            return gen.random(skip + len(at))[skip:]
        idx, stop = _copy_indices(at, count)
        per_call, per_copy = _ADDRESSED_COST
        if count > per_call + per_copy * len(idx):
            return _philox_at(self._key(b"c", payload), idx)
        # draws are a prefix of the stream: none past the largest index asked for
        return self._philox(b"c", payload).random(stop)[idx]

    def uniform(self, step: int, edge: int, copy: int) -> float:
        """Single u_{step,edge,copy}; equals uniforms(step, edge, n)[copy] for any n > copy."""
        return float(self.uniforms(step, edge, copy + 1, at=[copy])[0])

    def labeled(self, label: str, count: int) -> np.ndarray:
        """An auxiliary uniform stream addressed by a string label."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return self._philox(b"l", label.encode("utf-8")).random(count)

    def child_seed(self, label: str) -> int:
        """A derived 64-bit seed, stable in (seed, label)."""
        h = hashlib.blake2b(digest_size=8, person=_PERSON)
        h.update(b"s")
        h.update(_u64(self.seed))
        h.update(label.encode("utf-8"))
        return int.from_bytes(h.digest(), "little")
