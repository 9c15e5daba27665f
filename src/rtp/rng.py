"""Deterministic 64-bit seed derivation.

Every random decision in the package (instance generation, the algebraic
sieve) is fed from one user-supplied seed through splitmix64 streams, so
whole runs replay bit-for-bit.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # splitmix64's fixed state increment


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state, returning (next_state, output)."""
    state = (state + GAMMA) & MASK64
    x = state
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, x ^ (x >> 31)


class SeedStream:
    """An endless, reproducible stream of 64-bit values."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next(self) -> int:
        self._state, value = splitmix64(self._state)
        return value
