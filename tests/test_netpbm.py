"""Tests for the hand-rolled PGM/PPM writers."""

import numpy as np
import pytest
from reference import read_pgm, read_ppm

from probanet import DimensionError, DomainError, SplitMix64
from probanet.netpbm import write_pgm, write_ppm


def test_raw_pgm_golden_bytes():
    img = np.array([[0, 128, 255], [1, 2, 3]], dtype=np.uint8)
    data = write_pgm(img)
    assert data == b"P5\n3 2\n255\n" + bytes([0, 128, 255, 1, 2, 3])


def test_plain_pgm_golden_bytes():
    img = np.array([[0, 128, 255], [1, 2, 3]], dtype=np.uint8)
    data = write_pgm(img, raw=False)
    assert data == b"P2\n3 2\n255\n0 128 255\n1 2 3\n"


def test_raw_ppm_golden_bytes():
    img = np.zeros((1, 2, 3), dtype=np.uint8)
    img[0, 0] = (255, 0, 0)
    img[0, 1] = (0, 0, 255)
    data = write_ppm(img)
    assert data == b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255])


def test_plain_ppm_golden_bytes():
    img = np.zeros((1, 2, 3), dtype=np.uint8)
    img[0, 0] = (10, 20, 30)
    img[0, 1] = (40, 50, 60)
    assert write_ppm(img, raw=False) == b"P3\n2 1\n255\n10 20 30 40 50 60\n"


def test_comments_are_embedded_after_magic():
    img = np.zeros((1, 1), dtype=np.uint8)
    data = write_pgm(img, comments=("made by hand", "second line"))
    assert data.startswith(b"P5\n# made by hand\n# second line\n1 1\n255\n")
    with pytest.raises(DomainError):
        write_pgm(img, comments=("bad\ncomment",))


def test_value_and_rank_validation():
    with pytest.raises(DomainError):
        write_pgm(np.array([[300]]))
    with pytest.raises(DomainError):
        write_pgm(np.array([[-2]]))
    with pytest.raises(DimensionError):
        write_pgm(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionError):
        write_ppm(np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        write_ppm(np.zeros((2, 2, 4), dtype=np.uint8))


def test_float_pixels_in_range_are_accepted():
    img = np.array([[0.0, 254.6]])
    data = write_pgm(img)
    # Conversion truncates toward zero like astype.
    assert data.endswith(bytes([0, 254]))


def test_pgm_roundtrip_raw_and_plain():
    rng = SplitMix64(0)
    img = (rng.uniform(shape=(7, 5)) * 255).astype(np.uint8)
    assert np.array_equal(read_pgm(write_pgm(img)), img)
    assert np.array_equal(read_pgm(write_pgm(img, raw=False)), img)


def test_ppm_roundtrip_raw_and_plain():
    rng = SplitMix64(1)
    img = (rng.uniform(shape=(4, 6, 3)) * 255).astype(np.uint8)
    assert np.array_equal(read_ppm(write_ppm(img)), img)
    assert np.array_equal(read_ppm(write_ppm(img, raw=False)), img)


def test_roundtrip_with_comments():
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    data = write_pgm(img, comments=("alpha", "beta"))
    assert np.array_equal(read_pgm(data), img)


def test_write_is_deterministic():
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    assert write_pgm(img) == write_pgm(img)
    rgb = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
    assert write_ppm(rgb) == write_ppm(rgb)
