"""NetPBM writers: PGM (P2 plain / P5 raw) and PPM (P3 plain / P6 raw).

Written by hand so the package needs no image library; output is a pure
function of the pixel array, the format flag, and the comment lines,
which is what makes image emission byte-reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError


def _check_comments(comments) -> list[str]:
    out = []
    for c in comments:
        if "\n" in c:
            raise DomainError("comment lines must not contain newlines")
        out.append(f"# {c}")
    return out


def _as_uint8(pixels: np.ndarray, ndim: int) -> np.ndarray:
    arr = np.asarray(pixels)
    if arr.ndim != ndim:
        raise DimensionError(f"expected rank {ndim} pixel array, got {arr.shape}")
    if arr.dtype != np.uint8:
        if arr.min() < 0 or arr.max() > 255:
            raise DomainError("pixel values must lie in [0, 255]")
        arr = arr.astype(np.uint8)
    return arr


def _write(arr: np.ndarray, raw_magic: str, plain_magic: str, raw: bool, comments):
    """Header, then the raw bytes or one text line of samples per row."""
    h, w = arr.shape[:2]
    magic = raw_magic if raw else plain_magic
    head = [magic, *_check_comments(comments), f"{w} {h}", "255"]
    header = ("\n".join(head) + "\n").encode("ascii")
    if raw:
        return header + arr.tobytes()
    body = "\n".join(" ".join(str(v) for v in row.reshape(-1)) for row in arr)
    return header + (body + "\n").encode("ascii")


def write_pgm(pixels: np.ndarray, raw: bool = True, comments=()) -> bytes:
    """Grayscale image; pixels is (height, width) with values in 0..255."""
    return _write(_as_uint8(pixels, 2), "P5", "P2", raw, comments)


def write_ppm(pixels: np.ndarray, raw: bool = True, comments=()) -> bytes:
    """RGB image; pixels is (height, width, 3) with values in 0..255."""
    arr = _as_uint8(pixels, 3)
    if arr.shape[2] != 3:
        raise DimensionError(f"PPM needs 3 channels, got {arr.shape[2]}")
    return _write(arr, "P6", "P3", raw, comments)
