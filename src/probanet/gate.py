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

import numpy as np

from .errors import DimensionError, DomainError
from .rng import SplitMix64
from .tensor import _mean, relu_backward, sigmoid, sigmoid_backward

_KEYS = ("reduce_weight", "reduce_bias", "expand_weight", "expand_bias")


def _arrays(params: Mapping[str, np.ndarray], x: np.ndarray) -> list[np.ndarray]:
    """params' gate arrays, checked to map the C channels of the (N, C)
    rows x to a hidden layer and back.  A weight may carry leading stack
    axes, and its bias then carries the same ones; where both layers are
    stacked, they carry the same stack axes."""
    rw, rb, ew, eb = arrays = [params[key] for key in _KEYS]
    rs, es = rw.shape, ew.shape
    if (
        x.ndim != 2 or len(rs) < 2 or len(es) < 2
        or rb.shape != rs[:-1] or eb.shape != es[:-1]
        or (rs[-1], es[-1]) != (x.shape[1], rs[-2])
        or len(rs) > 2 < len(es) and rs[:-2] != es[:-2]
    ):
        raise DimensionError(
            f"gate arrays of shapes {[a.shape for a in arrays]} do not fit rows "
            f"of shape {x.shape}"
        )
    return arrays


def gate_forward(
    x: np.ndarray, params: Mapping[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Score every proposal cell from its feature row: (t1, t2), the
    (N, C/r) hidden rows after ReLU and the (N, C') per-proposal weights,
    strictly inside (0, 1), of the (N, C) rows x.

    params maps reduce_weight, reduce_bias, expand_weight and
    expand_bias to the arrays of the two 1x1 convolutions, each one
    product over the rows: reduce maps the C feature channels down to
    C/r, expand maps them up to one weight per proposal channel (C').
    Other keys are ignored.

    A layer's weight and bias may carry leading stack axes, one copy of
    the layer per index (np.broadcast_to stacks the one of the pair that
    does not vary): x and t1 meet each copy of a weight transposed on
    its last two axes, so the stack axes lead t1 and t2.

    t1 = relu(reduce(x)); t2 = sigmoid(expand(t1)).  The weighted map is
    a * t2, and truncation keeps the entries with t2 strictly above the
    threshold.
    """
    rw, rb, ew, eb = _arrays(params, x)
    t1 = x @ rw.swapaxes(-1, -2)
    # A stacked bias gets a row axis, so each copy's bias meets its N
    # rows; a 1-D one needs none, and training would pay for the view.
    t1 += rb if rb.ndim == 1 else rb[..., None, :]
    np.maximum(t1, 0.0, out=t1)
    z2 = t1 @ ew.swapaxes(-1, -2)
    z2 += eb if eb.ndim == 1 else eb[..., None, :]
    return t1, sigmoid(z2)


def gate_backward(
    t1: np.ndarray,
    t2: np.ndarray,
    x: np.ndarray,
    params: Mapping[str, np.ndarray],
    grad_t2: np.ndarray,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Reverse pass through the gate network, whose forward pass on the
    rows x gave t1 and t2, from the gradient at t2.

    Returns (grad_z1, the four parameter gradients keyed as in params),
    where grad_z1 is the gradient at the reduce conv's output.  The
    features x are data to training, so their gradient is not formed
    here; grad_z1 @ params["reduce_weight"] gives it.

    A caller that weights and truncates the proposal map sums every
    path into grad_t2: the weighted map's gradient times a at the kept
    entries (zero where truncation dropped them) plus any loss on t2
    itself, such as the variance loss.  Rows are independent and the
    gradients linear in grad_t2, so x may hold any cells' rows, a cell
    in several rows each carrying part of its gradient.  It takes one
    copy of the gate arrays, not a stack.
    """
    rw, _, ew, _ = _arrays(params, x)
    if max(rw.ndim, ew.ndim) > 2:
        raise DimensionError("gate_backward takes one copy of the gate arrays")
    grad_z2 = sigmoid_backward(t2, grad_t2)
    # t1 > 0 exactly where the pre-activation was > 0, so t1 doubles as
    # the ReLU mask carrier.
    grad_z1 = relu_backward(t1, grad_z2 @ ew)
    return grad_z1, {
        "reduce_weight": grad_z1.T @ x,
        "reduce_bias": grad_z1.sum(axis=0),
        "expand_weight": grad_z2.T @ t1,
        "expand_bias": grad_z2.sum(axis=0),
    }


def _variance(t2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Population variance over t2's last axis, and t2 centered on its
    mean there."""
    mean = _mean(t2)
    centered = t2 - (mean[..., None] if t2.ndim > 1 else mean)  # 1-D: a scalar
    return _mean(centered * centered), centered


def variance_constraint(t2: np.ndarray, epsilon: float) -> tuple[float, np.ndarray]:
    """Floor-clamped population variance of the gate weights, with gradient.

    Returns (v, dv/dt2).  When the raw variance sits at or below the
    floor the clamp is active and the gradient is identically zero.
    """
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if t2.size == 0:
        raise DimensionError("variance_constraint of an empty tensor")
    raw, centered = _variance(t2.reshape(-1))
    raw = float(raw)
    if raw <= epsilon:
        return epsilon, np.zeros_like(t2)
    return raw, (2.0 * centered / t2.size).reshape(t2.shape)


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
