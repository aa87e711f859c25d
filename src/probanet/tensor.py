"""Activations, the 1x1 conv and hadamard ops, and their hand-written
backward passes; a finite-difference oracle; the feature-map text dump.

The activations act elementwise, in the gate on (N, C) feature rows.  A
feature map, as the conv, hadamard and dump take it, is a C-contiguous
float64 (height, width, channels) ndarray whose ``ravel()`` gives the
row-major (h, w, c) order of the dump format and of every flattened view
in the package.  No op writes into its inputs; finite_diff_gradient
perturbs its x in place, so it takes only a writable C-contiguous
float64 ndarray, and restores each element it moved, even when the
differenced function raises.

Gradients are explicit per-op vector-Jacobian products rather than a
general tape; the network that uses them is small and fixed, and the
finite-difference oracle below checks every pair.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, NumericError

FeatureMap = np.ndarray

# Open-interval bounds for sigmoid: the nearest float64 neighbours of 0 and 1.
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


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


def _mean(x: np.ndarray) -> np.float64:
    """x.mean(): the same sum and quotient, without np.mean's wrapper."""
    return np.add.reduce(x, axis=None) / x.size


def finite_diff_gradient(
    f: Callable[[FeatureMap], float], x: FeatureMap, h: float = 1e-5
) -> FeatureMap:
    """Central-difference gradient estimate of a scalar function, per
    element.  x, a writable C-contiguous float64 ndarray, is perturbed in
    place, so f may read it through a closure, and restored if f raises."""
    if not 0 < h < np.inf:
        raise DomainError(f"difference step must be finite and positive, got {h}")
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.flags.carray):
        raise DimensionError("x must be a writable C-contiguous float64 ndarray")
    grad = np.zeros_like(x)
    flat_x, flat_g = x.reshape(-1), grad.reshape(-1)
    for k in range(flat_x.size):
        orig = flat_x[k]
        try:
            flat_x[k] = orig + h
            f_plus = float(f(x))
            flat_x[k] = orig - h
            f_minus = float(f(x))
        finally:
            flat_x[k] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(
                f"non-finite function value while differencing element {k}"
            )
        flat_g[k] = (f_plus - f_minus) / (2.0 * h)
    return grad


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
