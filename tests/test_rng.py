"""Tests for the counter-based SplitMix64 generator and seed derivation."""

import numpy as np
import pytest

from probanet import SplitMix64, derive_seed, mix64
from probanet.rng import _BLOCK

MASK = (1 << 64) - 1


def reference_splitmix64(seed, n):
    """Sequential textbook SplitMix64, kept independent of the package.

    Advances an internal state by the golden-ratio increment and applies
    the standard two-round finalizer. Used as the oracle for the
    counter-based implementation, which must produce the same stream.
    """
    state = seed & MASK
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_known_vector_seed_zero():
    # First output for seed 0 is the widely published SplitMix64 value.
    assert reference_splitmix64(0, 1)[0] == 0xE220A8397B1DCDAF
    rng = SplitMix64(0)
    assert int(rng.u64(1)[0]) == 0xE220A8397B1DCDAF


def test_matches_sequential_reference():
    for seed in (0, 1, 42, 0xDEADBEEF, MASK, (1 << 63) + 12345):
        expected = reference_splitmix64(seed, 32)
        got = SplitMix64(seed).u64(32)
        assert [int(v) for v in got] == expected


def test_blockwise_draws_match_single_block():
    # Chunked consumption must walk the same counter sequence.
    whole = SplitMix64(99).u64(20)
    rng = SplitMix64(99)
    parts = np.concatenate([rng.u64(7), rng.u64(5), rng.u64(8)])
    assert np.array_equal(whole, parts)


def test_draws_over_several_blocks_match_sequential_reference():
    # Bulk draws run in blocks of _BLOCK; a draw over more than three of
    # them, and one starting off a block boundary, equal one full draw.
    n = 3 * _BLOCK + 5
    expected = reference_splitmix64(MASK, n + 7)
    assert [int(v) for v in SplitMix64(MASK).u64(n)] == expected[:n]
    rng = SplitMix64(MASK)
    head = rng.u64(7)
    raw = np.array(expected[7:], dtype=np.uint64)
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
    got = rng.uniform_range(-0.3, 0.3, (n,))
    assert [int(v) for v in head] == expected[:7]
    assert got.tobytes() == (-0.3 + 0.6 * u).tobytes()
    assert rng.counter == n + 7


def test_negative_draw_counts_leave_the_counter_alone():
    rng = SplitMix64(1)
    rng.u64(3)
    with pytest.raises(ValueError):
        rng.u64(-2)
    with pytest.raises(ValueError):
        rng.uniform((2, -1))
    assert rng.counter == 3
    assert int(rng.u64(1)[0]) == reference_splitmix64(1, 4)[3]


def test_next_u64_advances_counter():
    rng = SplitMix64(5)
    first = rng.next_u64()
    assert rng.counter == 1
    assert int(first) == reference_splitmix64(5, 1)[0]
    second = rng.next_u64()
    assert int(second) == reference_splitmix64(5, 2)[1]


def test_uniform_bounds_and_scalar_shape():
    rng = SplitMix64(3)
    value = rng.uniform()
    assert isinstance(value, float)
    assert 0.0 <= value < 1.0
    block = SplitMix64(3).uniform(shape=(1000,))
    assert block.shape == (1000,)
    assert np.all(block >= 0.0)
    assert np.all(block < 1.0)
    # Mean of U(0, 1) should sit near one half over a thousand draws.
    assert abs(block.mean() - 0.5) < 0.05


def test_uniform_matches_u64_mapping():
    # uniform is the top 53 bits of the u64 stream scaled by 2**-53.
    raw = SplitMix64(12).u64(64)
    expected = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
    got = SplitMix64(12).uniform(shape=(64,))
    assert np.array_equal(expected, got)


def test_uniform_range():
    rng = SplitMix64(8)
    block = rng.uniform_range(-2.0, 3.0, shape=(500,))
    assert np.all(block >= -2.0)
    assert np.all(block < 3.0)


def test_randint_inclusive_hits_endpoints():
    rng = SplitMix64(21)
    draws = [rng.randint(0, 3) for _ in range(4000)]
    assert all(0 <= d <= 3 for d in draws)
    assert set(draws) == {0, 1, 2, 3}


def test_randint_degenerate_and_empty_range():
    rng = SplitMix64(2)
    assert all(rng.randint(5, 5) == 5 for _ in range(10))
    with pytest.raises(ValueError):
        rng.randint(4, 3)


def test_mix64_is_finalizer_of_incremented_state():
    for seed in (0, 9, 1 << 40):
        expected = reference_splitmix64(seed, 1)[0]
        assert mix64((seed + 0x9E3779B97F4A7C15) & MASK) == expected


def test_derive_seed_deterministic_and_distinct():
    root = 1234
    a = derive_seed(root, "scene", 0)
    b = derive_seed(root, "scene", 0)
    c = derive_seed(root, "scene", 1)
    d = derive_seed(root, "sampler", 0)
    assert a == b
    assert a != c
    assert a != d
    assert c != d
    assert 0 <= a <= MASK


def test_derive_seed_mixes_types_and_order():
    assert derive_seed(0, 1, "x") != derive_seed(0, "x", 1)
    assert derive_seed(0, "ab") != derive_seed(0, "ba")
    assert derive_seed(0) != derive_seed(1)


def test_streams_for_distinct_seeds_differ():
    a = SplitMix64(1000).u64(8)
    b = SplitMix64(1001).u64(8)
    assert not np.array_equal(a, b)
