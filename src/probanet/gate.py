"""Proposal-weighting gate: two 1x1 convolutions with a sigmoid output,
threshold truncation of the weighted proposal map, a variance floor on the
gate weights, and the variance-driven auxiliary loss with its
auto-adjusted coefficient.

Complexity accounting (parameter and multiply-accumulate counts) lives
here too, since both formulas are functions of the gate geometry alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .rng import SplitMix64
from .tensor import (
    Conv1x1Params,
    FeatureMap,
    conv1x1_backward,
    conv1x1_forward,
    conv1x1_param_grads,
    hadamard,
    mean_and_variance,
    relu,
    relu_backward,
    sigmoid,
    sigmoid_backward,
    variance_backward,
)


@dataclass(frozen=True)
class GateParams:
    """Weights of the gating sub-network plus its two scalar knobs.

    reduce_conv maps the backbone features (C channels) down to C/r;
    expand_conv maps back up to one weight per proposal channel (C').
    """

    reduce_conv: Conv1x1Params
    expand_conv: Conv1x1Params
    reduction: int
    threshold: float

    def __post_init__(self):
        c = self.reduce_conv.in_channels
        if self.reduction < 1:
            raise DomainError(f"reduction must be >= 1, got {self.reduction}")
        if c % self.reduction != 0:
            raise DomainError(
                f"channels {c} not divisible by reduction {self.reduction}"
            )
        mid = c // self.reduction
        if self.reduce_conv.out_channels != mid:
            raise DimensionError(
                f"reduce conv outputs {self.reduce_conv.out_channels} channels, "
                f"expected {mid}"
            )
        if self.expand_conv.in_channels != mid:
            raise DimensionError(
                f"expand conv expects {self.expand_conv.in_channels} channels, "
                f"got {mid} from the reduce stage"
            )
        if not 0.0 <= self.threshold < 1.0:
            raise DomainError(
                f"threshold must lie in [0, 1), got {self.threshold}"
            )

    @property
    def in_channels(self) -> int:
        return self.reduce_conv.in_channels

    @property
    def mid_channels(self) -> int:
        return self.reduce_conv.out_channels

    @property
    def out_channels(self) -> int:
        return self.expand_conv.out_channels


@dataclass(frozen=True)
class GateOutput:
    """Everything the forward pass of the gate produces.

    t1: reduced hidden map, after ReLU.
    t2: per-proposal weights, strictly inside (0, 1).
    a_prime: proposal map scaled elementwise by t2.
    b: a_prime with sub-threshold entries zeroed (the truncated map).
    keep_mask: which entries of a_prime survived truncation.
    """

    t1: FeatureMap
    t2: FeatureMap
    a_prime: FeatureMap
    b: FeatureMap
    keep_mask: np.ndarray


@dataclass(frozen=True)
class GateParamGrads:
    reduce_weight: np.ndarray
    reduce_bias: np.ndarray
    expand_weight: np.ndarray
    expand_bias: np.ndarray


@dataclass(frozen=True)
class LossTerms:
    variance: float
    beta: float
    probanet_loss: float
    cls_loss: float


def truncate(
    a_prime: FeatureMap, t2: FeatureMap, threshold: float, mode: str
) -> tuple[FeatureMap, np.ndarray]:
    """Zero entries whose gate weight is at or below the threshold.

    In test mode every entry is kept regardless of the threshold (the
    cutoff is treated as 0, and weights are strictly positive).
    """
    if mode not in ("train", "test"):
        raise DomainError(f"mode must be 'train' or 'test', got {mode!r}")
    if a_prime.shape != t2.shape:
        raise DimensionError(f"shape mismatch: {a_prime.shape} vs {t2.shape}")
    if mode == "test":
        keep = np.ones(t2.shape, dtype=bool)
    else:
        keep = t2 > threshold
    return np.where(keep, a_prime, 0.0), keep


def gate_forward(
    x: FeatureMap, a: FeatureMap, params: GateParams, mode: str = "train"
) -> GateOutput:
    """Score every proposal channel from the features and gate the map.

    t1 = relu(reduce(x)); t2 = sigmoid(expand(t1)); a_prime = a * t2;
    b keeps a_prime where t2 exceeds the threshold (always, in test mode).
    """
    if x.shape[:2] != a.shape[:2]:
        raise DimensionError(
            f"feature grid {x.shape[:2]} does not match proposal grid {a.shape[:2]}"
        )
    if a.shape[2] != params.out_channels:
        raise DimensionError(
            f"proposal map has {a.shape[2]} channels, gate emits {params.out_channels}"
        )
    t1 = relu(conv1x1_forward(x, params.reduce_conv))
    t2 = sigmoid(conv1x1_forward(t1, params.expand_conv))
    a_prime = hadamard(a, t2)
    b, keep = truncate(a_prime, t2, params.threshold, mode)
    return GateOutput(t1=t1, t2=t2, a_prime=a_prime, b=b, keep_mask=keep)


def gate_backward(
    out: GateOutput,
    x: FeatureMap,
    a: FeatureMap,
    params: GateParams,
    grad_b: FeatureMap,
    grad_t2: FeatureMap | None = None,
) -> tuple[FeatureMap, FeatureMap, GateParamGrads]:
    """Reverse pass through the gate.

    Returns (grad_z1, grad_a, parameter gradients), where grad_z1 is the
    gradient at the reduce conv's output.  The features x are data to
    training, so their gradient is not formed here;
    conv1x1_input_grad(params.reduce_conv, grad_z1) gives it.

    Truncation is a hard mask: positions dropped in the forward pass
    contribute no gradient.  grad_t2, when given, is added to the weight
    gradient before it enters the sigmoid; the variance loss feeds its
    gradient in through that hook.
    """
    if grad_b.shape != out.b.shape:
        raise DimensionError(
            f"grad_b shape {grad_b.shape} does not match output {out.b.shape}"
        )
    grad_a_prime = np.where(out.keep_mask, grad_b, 0.0)
    grad_a = grad_a_prime * out.t2
    grad_weights = grad_a_prime * a
    if grad_t2 is not None:
        grad_weights = grad_weights + grad_t2
    grad_z2 = sigmoid_backward(out.t2, grad_weights)
    grad_t1, grad_ew, grad_eb = conv1x1_backward(out.t1, params.expand_conv, grad_z2)
    # t1 > 0 exactly where the pre-activation was > 0, so t1 doubles as
    # the ReLU mask carrier.
    grad_z1 = relu_backward(out.t1, grad_t1)
    grad_rw, grad_rb = conv1x1_param_grads(x, params.reduce_conv, grad_z1)
    return (
        grad_z1,
        grad_a,
        GateParamGrads(
            reduce_weight=grad_rw,
            reduce_bias=grad_rb,
            expand_weight=grad_ew,
            expand_bias=grad_eb,
        ),
    )


def variance_constraint(
    t2: FeatureMap, epsilon: float = 1e-3
) -> tuple[float, np.ndarray]:
    """Floor-clamped population variance of the gate weights, with gradient.

    Returns (v, dv/dt2).  When the raw variance sits at or below the
    floor the clamp is active and the gradient is identically zero.
    """
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    _, raw = mean_and_variance(t2)
    if raw <= epsilon:
        return epsilon, np.zeros_like(t2)
    return raw, variance_backward(t2)


def probanet_loss(v: float, cls_loss: float, alpha: float = 0.5) -> LossTerms:
    """Auxiliary loss L = beta * e^(1/v) with beta = alpha * cls_loss * e^(-1/v).

    beta is recomputed from the current cls_loss at every call and treated
    as a constant by the backward pass.  Substituting beta makes the loss
    value alpha * cls_loss exactly, which is how it is computed here:
    e^(1/v) alone overflows for v near the variance floor, while the
    product is always finite.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if cls_loss < 0.0:
        raise DomainError(f"cls_loss must be non-negative, got {cls_loss}")
    if v <= 0.0:
        raise DomainError(f"variance must be positive, got {v}")
    beta = alpha * cls_loss * np.exp(-1.0 / v)
    loss = alpha * cls_loss
    return LossTerms(variance=v, beta=float(beta), probanet_loss=loss, cls_loss=cls_loss)


def probanet_loss_grad_v(v: float, cls_loss: float, alpha: float) -> float:
    """dL/dv with beta held constant: -alpha * cls_loss / v^2.

    Always non-positive, so the loss can only push the variance upward.
    Clamping at the variance floor is handled by variance_constraint,
    whose gradient is zero there.
    """
    if v <= 0.0:
        raise DomainError(f"variance must be positive, got {v}")
    return -alpha * cls_loss / (v * v)


def param_count(c: int, c_prime: int, r: int) -> int:
    """Extra-parameter count of the gate: C(C/r + 1) + (C/r)(C' + 1)."""
    _check_geometry(c, c_prime, r)
    mid = c // r
    return c * (mid + 1) + mid * (c_prime + 1)


def allocated_param_count(c: int, c_prime: int, r: int) -> int:
    """Number of scalars actually stored in GateParams for this geometry.

    Differs from param_count by exactly c - c_prime: the closed-form
    count books one bias row per input channel on the reduce stage,
    the allocation one per output channel.
    """
    _check_geometry(c, c_prime, r)
    mid = c // r
    return mid * c + mid + c_prime * mid + c_prime


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
    c: int,
    c_prime: int,
    r: int,
    threshold: float,
    rng: SplitMix64,
    weight_scale: float = 1.0,
) -> GateParams:
    """Fresh gate: weights uniform in +-weight_scale/sqrt(fan_in), biases zero.

    Zero biases put the initial weights near 0.5, so a 0.5 threshold is
    non-degenerate from the first step.  Draw order (reduce weights row
    by row, then expand weights) is part of the determinism contract.
    """
    _check_geometry(c, c_prime, r)
    mid = c // r
    s1 = weight_scale / np.sqrt(c)
    s2 = weight_scale / np.sqrt(mid)
    reduce_w = rng.uniform_range(-s1, s1, (mid, c))
    expand_w = rng.uniform_range(-s2, s2, (c_prime, mid))
    return GateParams(
        reduce_conv=Conv1x1Params(weight=reduce_w, bias=np.zeros(mid)),
        expand_conv=Conv1x1Params(weight=expand_w, bias=np.zeros(c_prime)),
        reduction=r,
        threshold=threshold,
    )


def _check_geometry(c: int, c_prime: int, r: int) -> None:
    if c < 1 or c_prime < 1 or r < 1:
        raise DomainError(
            f"channel counts and reduction must be positive, got c={c}, "
            f"c_prime={c_prime}, r={r}"
        )
    if c % r != 0:
        raise DomainError(f"channels {c} not divisible by reduction {r}")
