"""Plain references the tests compare the program against: dense
truncation, the scalar box overlap, and readers for the images the
program writes."""

import numpy as np


def truncate(a_prime, t2, threshold):
    """Training's truncation over a whole map: zero every entry whose gate
    weight is at or below the threshold."""
    return np.where(t2 > threshold, a_prime, 0.0)


def area(box) -> float:
    return (box.x_max - box.x_min) * (box.y_max - box.y_min)


def iou(a, b) -> float:
    """Intersection area over union area of two boxes, in [0, 1]."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (area(a) + area(b) - inter)


def read_pgm(data: bytes) -> np.ndarray:
    """Parse P2/P5 (maxval 255) back to (height, width) uint8."""
    return _read_netpbm(data, (b"P2", b"P5"), 1)


def read_ppm(data: bytes) -> np.ndarray:
    """Parse P3/P6 (maxval 255) back to (height, width, 3) uint8."""
    return _read_netpbm(data, (b"P3", b"P6"), 3)


def _read_netpbm(data: bytes, magics, depth: int) -> np.ndarray:
    magic = data[:2]
    assert magic in magics, magic
    # Header: magic, comment lines, width, height, maxval, then a single
    # whitespace byte before the pixels.
    pos, fields = 2, []
    while len(fields) < 3:
        while data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            pos = data.index(b"\n", pos)
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    w, h, maxval = fields
    assert maxval == 255, maxval
    n = w * h * depth
    rest = data[pos + 1 :]
    if magic == magics[1]:  # raw bytes; plain text otherwise
        arr = np.frombuffer(rest[:n], dtype=np.uint8)
    else:
        arr = np.array(rest.split()[:n], dtype=np.uint8)
    assert arr.size == n, "pixel payload shorter than header promises"
    return arr.reshape((h, w, depth) if depth > 1 else (h, w))
