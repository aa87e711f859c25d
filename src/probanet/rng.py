"""Seeded, portable pseudo-random generator used by the simulator and trainer.

The generator is counter-based splitmix64: output ``i`` is the splitmix64
finalizer applied to ``seed + (i + 1) * GOLDEN`` in 64-bit wrapping
arithmetic.  Being counter-based makes bulk generation a pure vectorized
map over a range of counters, drawn here in place ``_BLOCK`` at a time so
scratch stays in cache (any split into blocks equals one full draw), and
makes the sequence trivial to reproduce in any language from the
constants below.

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
_BLOCK = 1 << 16  # two uint64 scratch blocks take 1 MiB
_STRIDES = np.arange(1, _BLOCK + 1, dtype=np.uint64)
_STRIDES *= _U64(GOLDEN)  # (k + 1) * GOLDEN, k < _BLOCK, in place


def _mix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array, in place; tmp is scratch
    of z's size.  Arrays wrap on overflow without a warning."""
    z ^= np.right_shift(z, _U64(30), out=tmp)
    z *= _U64(MIX1)
    z ^= np.right_shift(z, _U64(27), out=tmp)
    z *= _U64(MIX2)
    z ^= np.right_shift(z, _U64(31), out=tmp)
    return z


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
        self._seed = seed & _MASK64
        self._counter = 0

    @property
    def counter(self) -> int:
        return self._counter

    def _raw(self, z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """Overwrite z (uint64, at most _BLOCK long) with the next z.size
        outputs: _mix(seed + (counter + k + 1) * GOLDEN) for each k."""
        base = _U64((self._seed + self._counter * GOLDEN) & _MASK64)
        self._counter += z.size
        return _mix(np.add(_STRIDES[: z.size], base, out=z), tmp[: z.size])

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 outputs."""
        out = np.empty(n, dtype=np.uint64)  # n < 0 raises before any draw
        tmp = np.empty(min(n, _BLOCK), dtype=np.uint64)
        for start in range(0, n, _BLOCK):
            self._raw(out[start : start + _BLOCK], tmp)
        return out

    def fill_uniform(self, out: np.ndarray, low: float, high: float) -> None:
        """Write ``low + (high - low) * u`` into the C-contiguous float64
        array ``out``, u the next ``out.size`` doubles in [0, 1)."""
        if out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError("fill_uniform needs a C-contiguous float64 array")
        flat = out.reshape(-1)
        z = np.empty(min(flat.size, _BLOCK), dtype=np.uint64)
        tmp = np.empty_like(z)
        for start in range(0, flat.size, _BLOCK):
            block = flat[start : start + _BLOCK]
            u = self._raw(z[: block.size], tmp)
            np.multiply(np.right_shift(u, _U64(11), out=u), _INV53, out=block)
            block *= high - low
            block += low

    def next_u64(self) -> int:
        return int(self.u64(1)[0])

    def uniform(self, shape=None) -> np.ndarray | float:
        """Doubles in [0, 1); scalar when ``shape`` is None."""
        if shape is None:
            return float(self.u64(1)[0] >> _U64(11)) * _INV53
        return self.uniform_range(0.0, 1.0, shape)

    def uniform_range(self, low: float, high: float, shape=None):
        if shape is None:
            return low + (high - low) * self.uniform()
        out = np.empty(shape)
        self.fill_uniform(out, low, high)
        return out

    def randint(self, low: int, high: int) -> int:
        """Integer in [low, high] inclusive, by rejection-free modulo.

        The modulo bias is below 2**-32 for the small ranges used here.
        """
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + int(self.u64(1)[0] % _U64(span))

