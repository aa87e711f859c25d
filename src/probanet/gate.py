"""Proposal-weighting gate: two 1x1 convolutions with a sigmoid output,
a variance floor on the gate weights, and the variance-driven auxiliary
loss with its auto-adjusted coefficient.

The gate network reads only the backbone features.  Weighting the
proposal map by t2 and truncating it are elementwise, so a caller that
needs the weighted map at a few anchors only (training reads the sampled
mini-batch) applies them there, and passes the gradient that reaches t2
back into gate_backward.

Complexity accounting (parameter and multiply-accumulate counts) lives
here too, since both formulas are functions of the gate geometry alone.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .rng import SplitMix64
from .tensor import FeatureMap, _mean, relu_backward, sigmoid, sigmoid_backward

_KEYS = ("reduce_weight", "reduce_bias", "expand_weight", "expand_bias")


@dataclass(frozen=True)
class GateOutput:
    """Everything the forward pass of the gate network produces.

    t1: reduced hidden map, after ReLU.
    t2: per-proposal weights, strictly inside (0, 1).
    """

    t1: FeatureMap
    t2: FeatureMap


def _arrays(params: Mapping[str, np.ndarray], c: int) -> list[np.ndarray]:
    """params' gate arrays, checked to map c channels to a hidden layer and back."""
    rw, rb, ew, eb = arrays = [params[key] for key in _KEYS]
    shapes = rw.shape[1:], rb.shape, ew.shape[1:], eb.shape
    if shapes != ((c,), rw.shape[:1], rb.shape, ew.shape[:1]):
        raise DimensionError(f"gate arrays of shapes {shapes} do not fit {c} channels")
    return arrays


def gate_forward(x: FeatureMap, params: Mapping[str, np.ndarray]) -> GateOutput:
    """Score every proposal channel from the features.

    params maps reduce_weight, reduce_bias, expand_weight and
    expand_bias to the arrays of the two convolutions: reduce maps the C
    feature channels down to C/r, expand maps them up to one weight per
    proposal channel (C').  Other keys are ignored.

    t1 = relu(reduce(x)); t2 = sigmoid(expand(t1)).  The weighted map is
    a * t2, and truncation keeps the entries with t2 strictly above the
    threshold.
    """
    h, w, c = x.shape
    rw, rb, ew, eb = _arrays(params, c)
    # Each 1x1 convolution is one product over the map's (H*W, C) rows.
    t1 = x.reshape(h * w, c) @ rw.T
    t1 += rb
    np.maximum(t1, 0.0, out=t1)
    z2 = t1 @ ew.T
    z2 += eb
    return GateOutput(t1.reshape(h, w, len(rb)), sigmoid(z2).reshape(h, w, len(eb)))


def gate_backward(
    out: GateOutput,
    x: FeatureMap,
    params: Mapping[str, np.ndarray],
    grad_t2: FeatureMap,
) -> tuple[FeatureMap, dict[str, np.ndarray]]:
    """Reverse pass through the gate network from the gradient at t2.

    Returns (grad_z1, the four parameter gradients keyed as in params),
    where grad_z1 is the gradient at the reduce conv's output.  The
    features x are data to training, so their gradient is not formed
    here; conv1x1_input_grad(reduce conv, grad_z1) gives it.

    A caller that weights and truncates the proposal map sums every
    path into grad_t2: the weighted map's gradient times a at the kept
    entries (zero where truncation dropped them) plus any loss on t2
    itself, such as the variance loss.
    """
    h, w, c = x.shape
    _, rb, ew, _ = _arrays(params, c)
    grad_z2 = sigmoid_backward(out.t2, grad_t2).reshape(h * w, len(ew))
    t1 = out.t1.reshape(h * w, len(rb))
    # t1 > 0 exactly where the pre-activation was > 0, so t1 doubles as
    # the ReLU mask carrier.
    grad_z1 = relu_backward(t1, grad_z2 @ ew)
    return grad_z1.reshape(h, w, len(rb)), {
        "reduce_weight": grad_z1.T @ x.reshape(h * w, c),
        "reduce_bias": grad_z1.sum(axis=0),
        "expand_weight": grad_z2.T @ t1,
        "expand_bias": grad_z2.sum(axis=0),
    }


def variance_constraint(t2: FeatureMap, epsilon: float) -> tuple[float, np.ndarray]:
    """Floor-clamped population variance of the gate weights, with gradient.

    Returns (v, dv/dt2).  When the raw variance sits at or below the
    floor the clamp is active and the gradient is identically zero.
    """
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if t2.size == 0:
        raise DimensionError("variance_constraint of an empty tensor")
    centered = t2 - _mean(t2)
    raw = float(_mean(centered * centered))
    if raw <= epsilon:
        return epsilon, np.zeros_like(t2)
    return raw, 2.0 * centered / t2.size


def probanet_loss(
    v: float, cls_loss: float, alpha: float
) -> tuple[float, float, float]:
    """Auxiliary loss L = beta * e^(1/v) with beta = alpha * cls_loss * e^(-1/v).

    Returns (L, beta, dL/dv).  beta is recomputed from the current
    cls_loss at every call and treated as a constant by the backward
    pass, so dL/dv = -alpha * cls_loss / v^2: never positive, so the loss
    can only push the variance upward.  Substituting beta makes the loss
    value alpha * cls_loss exactly, which is how it is computed here:
    e^(1/v) alone overflows for v near the variance floor, while the
    product is always finite.  Clamping at the variance floor is handled
    by variance_constraint, whose gradient is zero there.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if cls_loss < 0.0:
        raise DomainError(f"cls_loss must be non-negative, got {cls_loss}")
    if v <= 0.0:
        raise DomainError(f"variance must be positive, got {v}")
    beta = alpha * cls_loss * np.exp(-1.0 / v)
    return alpha * cls_loss, float(beta), -alpha * cls_loss / (v * v)


def param_count(c: int, c_prime: int, r: int) -> int:
    """Extra-parameter count of the gate: C(C/r + 1) + (C/r)(C' + 1)."""
    _check_geometry(c, c_prime, r)
    mid = c // r
    return c * (mid + 1) + mid * (c_prime + 1)


def mac_count(h: int, w: int, c: int, c_prime: int, r: int) -> int:
    """Multiply-accumulate count of the two gate convolutions over an HxW grid."""
    if h < 1 or w < 1:
        raise DomainError(f"grid dimensions must be positive, got {h}x{w}")
    _check_geometry(c, c_prime, r)
    mid = c // r
    return h * w * (c * mid + mid * c_prime)


def param_megabytes(count: int, bytes_per_param: int = 4) -> float:
    return count * bytes_per_param / 2**20


def init_gate_params(
    c: int, c_prime: int, r: int, rng: SplitMix64
) -> dict[str, np.ndarray]:
    """Fresh gate arrays by name (see gate_forward): weights uniform in
    +-1/sqrt(fan_in), biases zero.

    Zero biases put the initial weights near 0.5, so a 0.5 threshold is
    non-degenerate from the first step.  Draw order (reduce weights row
    by row, then expand weights) is part of the determinism contract.
    """
    _check_geometry(c, c_prime, r)
    mid = c // r
    s1 = 1.0 / np.sqrt(c)
    s2 = 1.0 / np.sqrt(mid)
    reduce_w = rng.uniform_range(-s1, s1, (mid, c))
    expand_w = rng.uniform_range(-s2, s2, (c_prime, mid))
    return {
        "reduce_weight": reduce_w,
        "reduce_bias": np.zeros(mid),
        "expand_weight": expand_w,
        "expand_bias": np.zeros(c_prime),
    }


def _check_geometry(c: int, c_prime: int, r: int) -> None:
    if c < 1 or c_prime < 1 or r < 1:
        raise DomainError(
            f"channel counts and reduction must be positive, got c={c}, "
            f"c_prime={c_prime}, r={r}"
        )
    if c % r != 0:
        raise DomainError(f"channels {c} not divisible by reduction {r}")
