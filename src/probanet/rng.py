"""Seeded, portable pseudo-random generator used by the simulator and trainer.

The generator is counter-based splitmix64: output ``i`` is the splitmix64
finalizer applied to ``seed + (i + 1) * GOLDEN`` in 64-bit wrapping
arithmetic.  Being counter-based makes bulk generation a pure vectorized
map over a range of counters, and makes the sequence trivial to reproduce
in any language from the constants below.

Constants (all uint64):

    GOLDEN = 0x9E3779B97F4A7C15    (increment)
    MIX1   = 0xBF58476D1CE4E5B9    (first multiplier,  z ^= z >> 30 before)
    MIX2   = 0x94D049BB133111EB    (second multiplier, z ^= z >> 27 before)
    final  z ^= z >> 31

Doubles in [0, 1) are ``(u64 >> 11) * 2**-53``.
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_INV53 = 2.0**-53


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> _U64(30))) * _U64(MIX1)
    z = (z ^ (z >> _U64(27))) * _U64(MIX2)
    return z ^ (z >> _U64(31))


def mix64(value: int) -> int:
    """splitmix64 finalizer for a single Python integer."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(root: int, *path: int | str) -> int:
    """Derive a child seed from a root seed and a path of components.

    Strings hash by their UTF-8 bytes; the fold is order-sensitive, so
    ("scene", 3) and ("scene", 4) give unrelated streams.
    """
    acc = root & _MASK64
    for part in path:
        if isinstance(part, str):
            for byte in part.encode("utf-8"):
                acc = mix64((acc + GOLDEN + byte) & _MASK64)
        else:
            acc = mix64((acc + GOLDEN + (int(part) & _MASK64)) & _MASK64)
    return acc


class SplitMix64:
    """Counter-based splitmix64 stream with bulk (vectorized) output."""

    def __init__(self, seed: int):
        self._seed = _U64(seed & _MASK64)
        self._counter = 0

    @property
    def counter(self) -> int:
        return self._counter

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 outputs."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix(self._seed + idx * _U64(GOLDEN))

    def next_u64(self) -> int:
        return int(self.u64(1)[0])

    def uniform(self, shape=None) -> np.ndarray | float:
        """Doubles in [0, 1); scalar when ``shape`` is None."""
        if shape is None:
            return float(self.u64(1)[0] >> _U64(11)) * _INV53
        n = int(np.prod(shape))
        out = (self.u64(n) >> _U64(11)).astype(np.float64) * _INV53
        return out.reshape(shape)

    def uniform_range(self, low: float, high: float, shape=None):
        return low + (high - low) * self.uniform(shape)

    def randint(self, low: int, high: int) -> int:
        """Integer in [low, high] inclusive, by rejection-free modulo.

        The modulo bias is below 2**-32 for the small ranges used here.
        """
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + int(self.u64(1)[0] % _U64(span))

