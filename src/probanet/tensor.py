"""Activations, the 1x1 conv and hadamard ops, and their hand-written
backward passes; a finite-difference oracle; the feature-map text dump.

The activations act elementwise, in the gate on (N, C) feature rows.  A
feature map, as the conv, hadamard and dump take it, is a C-contiguous
float64 (height, width, channels) ndarray whose ``ravel()`` gives the
row-major (h, w, c) order of the dump format and of every flattened view
in the package.  No op writes into its inputs.  finite_diff_gradient
differences a functional of a stack of perturbed copies of x, a bounded
block at a time; when the functional computes each copy's value on its
own (as more rows, or along a leading stack axis), the differences are
bit for bit those of a per-element loop.

Gradients are explicit per-op vector-Jacobian products rather than a
general tape; the network that uses them is small and fixed, and the
finite-difference oracle below checks every pair.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, NumericError

FeatureMap = np.ndarray

# Open-interval bounds for sigmoid: the nearest float64 neighbours of 0 and 1.
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)

# Values per block of perturbed copies in finite_diff_gradient.
_BLOCK = 8192


@dataclass(frozen=True)
class Conv1x1Params:
    """Weights of a pointwise (1x1) convolution: per-pixel affine map."""

    weight: np.ndarray  # (out_channels, in_channels)
    bias: np.ndarray    # (out_channels,)

    def __post_init__(self):
        w = np.ascontiguousarray(self.weight, dtype=np.float64)
        b = np.ascontiguousarray(self.bias, dtype=np.float64)
        if w.ndim != 2:
            raise DimensionError(f"weight must be a matrix, got shape {w.shape}")
        if b.shape != (w.shape[0],):
            raise DimensionError(
                f"bias shape {b.shape} does not match {w.shape[0]} output channels"
            )
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]


def conv1x1_forward(x: FeatureMap, p: Conv1x1Params) -> FeatureMap:
    """Apply the per-pixel affine map: out(i,j) = weight @ x(i,j) + bias."""
    h, w, c = x.shape
    if c != p.weight.shape[1]:
        raise DimensionError(
            f"input has {c} channels but conv expects {p.weight.shape[1]}"
        )
    out = x.reshape(h * w, c) @ p.weight.T + p.bias
    return out.reshape(h, w, p.out_channels)


def conv1x1_backward(
    x: FeatureMap, p: Conv1x1Params, grad_out: FeatureMap
) -> tuple[FeatureMap, np.ndarray, np.ndarray]:
    """VJPs of conv1x1_forward w.r.t. input, weight and bias."""
    h, w, c = x.shape
    if grad_out.shape != (h, w, p.out_channels) or c != p.weight.shape[1]:
        raise DimensionError(
            f"input {x.shape} and grad_out {grad_out.shape} do not fit a conv "
            f"of weight shape {p.weight.shape}"
        )
    g = grad_out.reshape(h * w, p.out_channels)
    return (g @ p.weight).reshape(h, w, c), g.T @ x.reshape(h * w, c), g.sum(axis=0)


def relu_backward(x: FeatureMap, grad_out: FeatureMap) -> FeatureMap:
    """Pass gradient where x > 0; subgradient 0 at exactly 0.  Bit for bit
    np.where(x > 0, grad_out, 0.0), without a branch on the mask."""
    _check_same_shape(x, grad_out)
    grad = np.asarray(grad_out, dtype=np.float64)
    return (grad.view(np.int64) * (x > 0.0)).view(np.float64)


def _logistic(x: np.ndarray) -> np.ndarray:
    """Stable logistic, unclipped: with e = exp(-|x|), 1/(1+e) where
    x >= 0 and e/(1+e) elsewhere, so exp never overflows."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    y = np.where(x >= 0, 1.0, e)
    e += 1.0
    y /= e
    return y


def sigmoid(x: FeatureMap) -> FeatureMap:
    """Numerically stable logistic, clipped into the open interval (0, 1).

    Without the clip, float64 saturates to exactly 0 or 1 for |x| > ~37;
    the clip keeps the strict-bounds contract at a sub-ulp perturbation.
    """
    y = _logistic(x)
    np.maximum(y, _SIG_LO, out=y)
    return np.minimum(y, _SIG_HI, out=y)


def sigmoid_backward(y: FeatureMap, grad_out: FeatureMap) -> FeatureMap:
    """VJP given the forward output y: y * (1 - y) * grad_out."""
    _check_same_shape(y, grad_out)
    return y * (1.0 - y) * grad_out


def hadamard(a: FeatureMap, b: FeatureMap) -> FeatureMap:
    _check_same_shape(a, b)
    return a * b


def hadamard_backward(
    a: FeatureMap, b: FeatureMap, grad_out: FeatureMap
) -> tuple[FeatureMap, FeatureMap]:
    _check_same_shape(a, b)
    _check_same_shape(a, grad_out)
    return b * grad_out, a * grad_out


def _mean(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=-1): the same sum and quotient per leading index, an
    np.float64 for 1-D x, without np.mean's wrapper."""
    return np.add.reduce(x, axis=-1) / x.shape[-1]


def finite_diff_gradient(
    f: Callable[[np.ndarray], np.ndarray], x: FeatureMap, h: float = 1e-5
) -> FeatureMap:
    """Central-difference gradient estimate of a scalar functional at x,
    per element: (f(x + h e_k) - f(x - h e_k)) / (2h).

    f is stacked: it maps a block of m perturbed copies of x, shaped
    (m, *x.shape) and read-only, to their m values.  The copies
    x + h e_k and x - h e_k sit side by side, element by element in
    order, and a block holds at most _BLOCK values (one pair if x is
    larger).  in_place(f, x)
    adapts a functional that reads x itself.  A non-finite value names
    the lowest element whose plus or minus value is not finite."""
    if not 0 < h < np.inf:
        raise DomainError(f"difference step must be finite and positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    flat, n = x.reshape(-1), x.size
    values = np.empty((n, 2))  # each element's plus and minus value
    # One block, reused: per element of x a pair of copies of x.  Copy
    # pair i of a block holds element start + i, at flat positions
    # start + i * (2n + 1) (plus) and n after (minus), so one strided
    # slice reaches each side.
    per_block = max(1, min(n, _BLOCK // (2 * n or 1)))
    block = np.empty((per_block, 2, n))
    block[...] = flat
    buf, stride = block.reshape(-1), 2 * n + 1
    for start in range(0, n, per_block):
        orig = flat[start : start + per_block]
        plus = buf[start :: stride][: orig.size]
        minus = buf[start + n :: stride][: orig.size]
        plus[...] = orig + h
        minus[...] = orig - h
        copies = block[: orig.size].reshape(-1, *x.shape)
        copies.flags.writeable = False  # the next block reuses it
        got = values[start : start + orig.size]
        got[...] = np.reshape(f(copies), got.shape)
        plus[...] = minus[...] = orig
        if not np.isfinite(got).all():
            k = start + int(np.argmin(np.isfinite(got).all(axis=1)))
            raise NumericError(
                f"non-finite function value while differencing element {k}"
            )
    # As with floats: a difference past the float64 range is inf.
    with np.errstate(over="ignore", invalid="ignore"):
        return ((values[:, 0] - values[:, 1]) / (2.0 * h)).reshape(x.shape)


def in_place(
    f: Callable[[FeatureMap], float], x: FeatureMap
) -> Callable[[np.ndarray], np.ndarray]:
    """The stacked form of f, a scalar functional of x, for
    finite_diff_gradient: each copy is written into x, a writable
    C-contiguous float64 ndarray, and f(x) evaluated, so f may read x
    through a closure; x is restored after the block, also if f raises.
    Evaluation stops at the first non-finite value (the rest read NaN),
    where differencing fails."""
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.flags.carray):
        raise DimensionError("x must be a writable C-contiguous float64 ndarray")

    def stacked(copies: np.ndarray) -> np.ndarray:
        values = np.full(len(copies), np.nan)
        saved = x.copy()
        try:
            for i, copy in enumerate(copies):
                x[...] = copy
                values[i] = value = f(x)
                if not math.isfinite(value):
                    break
        finally:
            x[...] = saved
        return values

    return stacked


def dump_feature_map(x: FeatureMap) -> bytes:
    """Text dump as ASCII bytes: header "H W C", then H*W lines of C
    values, row-major, each line ending in a newline.

    Each value is printed with "%.17g", which round-trips float64.
    """
    h, w, c = x.shape
    row_format = b" ".join([b"%.17g"] * c) + b"\n"
    out = io.BytesIO()
    out.write(b"%d %d %d\n" % (h, w, c))
    for row in x.reshape(h * w, c):
        out.write(row_format % tuple(row.tolist()))
    return out.getvalue()


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
