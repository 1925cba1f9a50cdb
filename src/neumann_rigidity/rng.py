"""Deterministic 64-bit splitmix generator.

All randomness in the toolkit (multi-start seeds, random test fields) is
drawn from this single generator so that a run is reproducible from one
integer seed, independently of numpy's global state.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64: state advances by a fixed odd gamma, output is mixed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniforms(self, shape) -> np.ndarray:
        """``uniform()`` drawn prod(shape) times, in C order, vectorized.

        The k-th state is seed + k*gamma, so the whole block is computed in
        wrapping uint64 arithmetic and gives the bits of the scalar loop.
        """
        n = int(np.prod(shape))
        k = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + k * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        self._state = (self._state + n * _GAMMA) & _MASK
        out = (z >> np.uint64(11)).astype(float) * (1.0 / (1 << 53))
        return out.reshape(shape)

    def spawn(self, key: int) -> "SplitMix64":
        """Independent child stream; deterministic in (seed, key)."""
        return SplitMix64(_mix((self._state + (key + 1) * _GAMMA) & _MASK))
