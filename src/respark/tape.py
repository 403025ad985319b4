"""Counter-based random tape: every draw is a pure function of its key.

u_{s,e,j} depends only on (seed, step, edge, copy), never on call order, so
any decision in a run can be replayed bit-exactly and two formulations of
the same algorithm consume identical randomness without coordinating.

The keying follows the keyed-hash counter pattern: blake2b over
(seed, step, edge) selects a Philox key, and the copy index picks a position
inside that stream's first block of uniforms. One Philox generator is kept
per tape and re-keyed for each stream (key set, counter zeroed, buffer
emptied), which draws exactly what a freshly built one would.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_PERSON = b"respark.tape"


def _u64(x: int) -> bytes:
    return (int(x) & _MASK64).to_bytes(8, "little")


class RandomTape:
    """Deterministic uniform streams keyed by (step, edge, copy) or by label."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)
        # the state of a fresh Philox: counter 0, buffer empty; only the key changes
        self._fresh = self._bitgen.state

    def _philox(self, tag: bytes, payload: bytes) -> np.random.Generator:
        h = hashlib.blake2b(digest_size=16, person=_PERSON)
        h.update(tag)
        h.update(_u64(self.seed))
        h.update(payload)
        self._fresh["state"]["key"] = np.frombuffer(h.digest(), dtype=np.uint64)
        self._bitgen.state = self._fresh
        return self._gen

    def uniforms(self, step: int, edge: int, count: int) -> np.ndarray:
        """The vector (u_{step,edge,0}, ..., u_{step,edge,count-1})."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return self._philox(b"c", _u64(step) + _u64(edge)).random(count)

    def uniform(self, step: int, edge: int, copy: int) -> float:
        """Single u_{step,edge,copy}; equals uniforms(step, edge, n)[copy] for any n > copy."""
        return float(self.uniforms(step, edge, copy + 1)[copy])

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
