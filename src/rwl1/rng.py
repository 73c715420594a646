"""splitmix64 generator: the reproducibility backbone of the benchmark suite.

Integer-exact implementation so identical seeds regenerate identical
instances in any environment.  The unit-interval mapping uses the top 53
bits offset by half a ulp, which keeps every draw strictly inside (0, 1)
and so keeps downstream log/Box-Muller transforms free of edge cases.

Integer draws come one at a time (``next_u64``) or as a block
(``next_u64s``), and unit draws as a block (``next_units``): unit i is
``((next_u64() >> 11) + 0.5) * 2^-53`` of output i, the scalar mapping
that ``tests/oracles.py`` keeps as ``next_unit``.  A block is the same
outputs in the same order: the state is a counter stepped by a fixed odd
constant, so output i of a block is the mix of ``state + i*gamma``,
computed in numpy ``uint64`` arithmetic, which wraps modulo 2^64 exactly
like the masked Python ints.
Only exact steps run in numpy: the integer mix, the uint64 -> float64
conversion of a 53-bit value, one correctly rounded add and a power-of-two
scale.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SplitMix64", "mix64"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_UNIT = 2.0 ** -53


def mix64(value: int) -> int:
    """One splitmix64 output for the given state value (stateless form)."""
    z = (value + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit state; full 2^64 period; one multiply-xorshift mix per output."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        z = mix64(self.state)
        self.state = (self.state + _GAMMA) & _MASK64
        return z

    def next_below(self, bound: int) -> int:
        """Integer in [0, bound) by modulo reduction (bias < 2^-40 for our bounds)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def next_u64s(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a uint64 array; the state advances
        by ``count`` steps, as after ``count`` calls of ``next_u64``."""
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self.state)
        self.skip(count)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def next_units(self, count: int) -> np.ndarray:
        """The next ``count`` unit draws: ``((z >> 11) + 0.5) * 2^-53`` for each
        of the next ``count`` outputs z, bit for bit."""
        return ((self.next_u64s(count) >> np.uint64(11)).astype(np.float64) + 0.5) * _UNIT

    def skip(self, count: int) -> None:
        """Advance the state by ``count`` outputs without producing them;
        a negative count steps back over outputs already produced."""
        self.state = (self.state + count * _GAMMA) & _MASK64
