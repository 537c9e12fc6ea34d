"""Seeded linear-congruential generator for bit-reproducible checks.

Consistency reports and seeded demos must produce identical numbers on
every platform, so randomness is drawn from a fixed 64-bit LCG rather
than from library generators whose streams may change between releases.
``floats`` draws a block at once, ``s_i = a^i s_0 + c (1 + a + ... + a^(i-1))``
in wrapping ``uint64`` arrays: the stream of ``next_u64``, bit for bit.
"""

import numpy as np

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    """64-bit linear congruential generator (Knuth MMIX constants)."""

    def __init__(self, seed: int):
        self._state = (int(seed) ^ 0x9E3779B97F4A7C15) & _MASK

    def next_u64(self) -> int:
        self._state = (_MULT * self._state + _INC) & _MASK
        return self._state

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def floats(self, k: int, low: float = -1.0, high: float = 1.0) -> np.ndarray:
        powers = np.cumprod(np.r_[1, np.full(k, _MULT)].astype(np.uint64))  # a^0 ... a^k
        states = powers * np.uint64(self._state) + (np.cumsum(powers) - powers) * np.uint64(_INC)
        self._state = int(states[-1])
        return low + (high - low) * ((states[1:] >> np.uint64(11)) * 2.0**-53)

    def matrix(self, rows: int, cols: int, low: float = -1.0, high: float = 1.0) -> np.ndarray:
        return self.floats(rows * cols, low, high).reshape(rows, cols)

