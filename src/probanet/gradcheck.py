"""Finite-difference verification of every backward pass, one op at a
time and end to end through the full training loss.

Relative error is measured per element as |analytic - numeric| divided
by max(1, |numeric|), and the worst element must stay below 1e-4.

Two ops are only piecewise smooth.  The ReLU check compares away from
the kink (elements within 10h of zero are skipped, matching the
subgradient convention).  The gate and end-to-end checks instead build
instances whose hidden pre-activations and gate weights sit a safe
margin away from every kink and threshold, redrawing until that holds,
so the composed functional is smooth on the differencing neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .gate import gate_backward, gate_forward, variance_constraint
from .rng import SplitMix64, derive_seed
from .sim import BG, FG, IGNORE, LabelArrays
from .tensor import (
    Conv1x1Params,
    conv1x1_backward,
    conv1x1_forward,
    conv1x1_input_grad,
    finite_diff_gradient,
    hadamard,
    hadamard_backward,
    mean_and_variance,
    relu,
    relu_backward,
    sigmoid,
    sigmoid_backward,
    variance_backward,
)
from .training import (
    TrainConfig,
    TrainState,
    binary_cross_entropy,
    binary_cross_entropy_grad,
    loss_and_grads,
)

REL_TOL = 1e-4
DEFAULT_SHAPES = ((2, 3, 4), (4, 4, 4), (3, 5, 6), (5, 2, 6), (6, 6, 8))
_MARGIN = 1e-3
_MIN_VARIANCE = 1e-2


@dataclass(frozen=True)
class CheckResult:
    op: str
    worst: float

    @property
    def passed(self) -> bool:
        return self.worst < REL_TOL


def relative_error(
    analytic: np.ndarray, numeric: np.ndarray, include: np.ndarray | None = None
) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    err = np.abs(a - n) / np.maximum(1.0, np.abs(n))
    if include is not None:
        if not include.any():
            return 0.0
        err = err[include]
    return float(err.max())


def check_conv1x1(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    hh, ww, c = shape
    out = c + 1
    x = rng.uniform_range(-1.0, 1.0, shape)
    p = Conv1x1Params(
        weight=rng.uniform_range(-1.0, 1.0, (out, c)),
        bias=rng.uniform_range(-1.0, 1.0, out),
    )
    g = rng.uniform_range(-1.0, 1.0, (hh, ww, out))
    grad_x, grad_w, grad_b = conv1x1_backward(x, p, g)
    fd_x = finite_diff_gradient(
        lambda v: float((conv1x1_forward(v, p) * g).sum()), x, h
    )
    fd_w = finite_diff_gradient(
        lambda v: float(
            (conv1x1_forward(x, Conv1x1Params(weight=v, bias=p.bias)) * g).sum()
        ),
        p.weight.copy(),
        h,
    )
    fd_b = finite_diff_gradient(
        lambda v: float(
            (conv1x1_forward(x, Conv1x1Params(weight=p.weight, bias=v)) * g).sum()
        ),
        p.bias.copy(),
        h,
    )
    return max(
        relative_error(grad_x, fd_x),
        relative_error(grad_w, fd_w),
        relative_error(grad_b, fd_b),
    )


def check_relu(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    x = rng.uniform_range(-1.0, 1.0, shape)
    g = rng.uniform_range(-1.0, 1.0, shape)
    analytic = relu_backward(x, g)
    fd = finite_diff_gradient(lambda v: float((relu(v) * g).sum()), x, h)
    include = np.abs(x) > 10 * h
    return relative_error(analytic, fd, include)


def check_sigmoid(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    x = rng.uniform_range(-4.0, 4.0, shape)
    g = rng.uniform_range(-1.0, 1.0, shape)
    analytic = sigmoid_backward(sigmoid(x), g)
    fd = finite_diff_gradient(lambda v: float((sigmoid(v) * g).sum()), x, h)
    return relative_error(analytic, fd)


def check_hadamard(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    a = rng.uniform_range(-1.0, 1.0, shape)
    b = rng.uniform_range(-1.0, 1.0, shape)
    g = rng.uniform_range(-1.0, 1.0, shape)
    grad_a, grad_b = hadamard_backward(a, b, g)
    fd_a = finite_diff_gradient(lambda v: float((hadamard(v, b) * g).sum()), a, h)
    fd_b = finite_diff_gradient(lambda v: float((hadamard(a, v) * g).sum()), b, h)
    return max(relative_error(grad_a, fd_a), relative_error(grad_b, fd_b))


def check_variance(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    x = rng.uniform_range(-1.0, 1.0, shape)
    analytic = variance_backward(x)
    fd = finite_diff_gradient(lambda v: mean_and_variance(v)[1], x, h)
    return relative_error(analytic, fd)


def _safe_threshold(t2: np.ndarray) -> tuple[float, float]:
    """A cutoff in the interior of the sorted gate weights, placed at the
    widest spacing so differencing never flips a keep decision."""
    flat = np.sort(t2.ravel())
    lo, hi = flat.size // 4, max(flat.size // 4 + 1, 3 * flat.size // 4)
    gaps = flat[lo + 1 : hi + 1] - flat[lo:hi]
    best = int(np.argmax(gaps))
    th = float((flat[lo + best] + flat[lo + best + 1]) / 2)
    margin = float(gaps[best] / 2)
    if not 0.0 < th < 1.0:
        return 0.5, 0.0
    return th, margin


def _gate_instance(rng: SplitMix64, shape, k: int, r: int, n: int = 1):
    """Random gate instance with every kink a safe margin away: the
    features of n scenes stacked along the rows as one (n*H, W, C) map,
    the gate arrays by name and one truncation threshold.

    Weights are drawn wide so the gate outputs spread; the truncation
    threshold lands at the widest spacing of the resulting weights over
    all n scenes, and the draw repeats until the hidden pre-activations
    also clear the ReLU kink.  The draw also repeats while the weights'
    variance is below _MIN_VARIANCE: the auxiliary term exp(1/v) curves
    so sharply there that central differences lose the digits the check
    needs.
    """
    hh, ww, c = shape
    mid = c // r
    s1, s2 = 3.0 / np.sqrt(c), 3.0 / np.sqrt(mid)
    for _ in range(64):
        x = rng.uniform_range(-1.0, 1.0, (n * hh, ww, c))
        params = {
            "reduce_weight": rng.uniform_range(-s1, s1, (mid, c)),
            "reduce_bias": rng.uniform_range(-0.5, 0.5, mid),
            "expand_weight": rng.uniform_range(-s2, s2, (k, mid)),
            "expand_bias": rng.uniform_range(-0.5, 0.5, k),
        }
        reduce_conv = Conv1x1Params(
            weight=params["reduce_weight"], bias=params["reduce_bias"]
        )
        z1 = conv1x1_forward(x, reduce_conv)
        t2 = gate_forward(x, params).t2
        th, margin = _safe_threshold(t2)
        if (
            np.abs(z1).min() > _MARGIN
            and margin > _MARGIN
            and mean_and_variance(t2)[1] > _MIN_VARIANCE
        ):
            return x, params, th
    raise NumericError("could not place a gate instance away from its kinks")


def check_gate(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    """The gate network's forward/backward, d/dx included, against
    differencing of sum(t2*G)."""
    hh, ww, c = shape
    k = max(2, c // 2)
    x, params, _ = _gate_instance(rng, shape, k, r=2)
    g_t2 = rng.uniform_range(-1.0, 1.0, (hh, ww, k))

    grad_z1, pg = gate_backward(gate_forward(x, params), x, params, g_t2)
    reduce_conv = Conv1x1Params(
        weight=params["reduce_weight"], bias=params["reduce_bias"]
    )
    grad_x = conv1x1_input_grad(reduce_conv, grad_z1)

    def value(xx, pp) -> float:
        return float((gate_forward(xx, pp).t2 * g_t2).sum())

    worst = relative_error(
        grad_x, finite_diff_gradient(lambda v: value(v, params), x, h)
    )
    for name, array in params.items():
        fd = finite_diff_gradient(
            lambda v, nm=name: value(x, {**params, nm: v}), array.copy(), h
        )
        worst = max(worst, relative_error(pg[name], fd))
    return worst


def check_head(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    """Scalar-affine logits plus mean binary cross-entropy."""
    n = max(4, shape[0] * shape[1])
    values = rng.uniform_range(-2.0, 2.0, n)
    targets = (rng.uniform(n) < 0.5).astype(np.float64)
    scale = 1.0 + rng.uniform()
    shift = rng.uniform() - 0.5

    def loss(v, s, sh) -> float:
        return binary_cross_entropy(s * v + sh, targets)

    dz = binary_cross_entropy_grad(scale * values + shift, targets)
    grad_v = scale * dz
    grad_scale = float(np.dot(dz, values))
    grad_shift = float(dz.sum())

    fd_v = finite_diff_gradient(lambda v: loss(v, scale, shift), values, h)
    fd_scale = finite_diff_gradient(
        lambda v: loss(values, float(v[0]), shift), np.array([scale]), h
    )
    fd_shift = finite_diff_gradient(
        lambda v: loss(values, scale, float(v[0])), np.array([shift]), h
    )
    return max(
        relative_error(grad_v, fd_v),
        relative_error(np.array([grad_scale]), fd_scale),
        relative_error(np.array([grad_shift]), fd_shift),
    )


def check_end_to_end(
    rng: SplitMix64, shape, h: float = 1e-5, alpha: float = 0.5
) -> float:
    """The gradients of one two-scene training step
    (training.loss_and_grads) against differencing of a dense forward
    pass over both scenes, parameter by parameter, with the step's
    mini-batch and auxiliary coefficient frozen at the base point.

    The two scenes are stacked into one map, as training stacks a
    step's scenes, so the step gathers head rows from both and sums the
    gate gradients over both.  The functional is
    cls(p) + exp(ln(alpha*cls0) - 1/v0 + 1/v(p)); at the base point its
    gradient equals the training gradient, in which the coefficient is a
    detached constant.  The exponential is kept in log form so no
    intermediate overflows for small variances.  The labels are redrawn
    until a background anchor survives truncation, since the sampler
    needs one.
    """
    hh, ww, c = shape
    k = max(2, c // 2)
    eps = 1e-9
    x, gate, th = _gate_instance(rng, shape, k, r=2, n=2)
    head_weight = rng.uniform_range(-1.0, 1.0, (k, c)) / np.sqrt(c)
    scale = 1.0 + rng.uniform()
    shift = rng.uniform() - 0.5

    # The stacked map's raveled anchors are the step's, scene by scene.
    n = 2 * hh * ww * k
    kept = gate_forward(x, gate).t2.ravel() > th
    for _ in range(64):
        u = rng.uniform(n)
        category = np.full(n, BG, dtype=np.int8)
        category[u < 0.25] = FG
        category[u > 0.9] = IGNORE
        if (category[kept] == BG).any():
            break
    else:
        raise NumericError("could not label a kept background anchor")
    params = {"head_weight": head_weight, "scale": scale, "shift": shift, **gate}
    state = TrainState(params=params, velocity={})
    config = TrainConfig(alpha=alpha, epsilon=eps, th=th, r=2, seed=rng.next_u64())
    labels = LabelArrays(
        category=category, hard=np.zeros(n, dtype=bool), iou=np.zeros(n)
    )
    _, grads, batch, _ = loss_and_grads(state, x, labels, config)
    targets = (category[batch.indices] == FG).astype(np.float64)

    zero_bias = np.zeros(k)

    def parts(p) -> tuple[float, float]:
        """Classification loss and gate-weight variance, over both maps."""
        a = conv1x1_forward(x, Conv1x1Params(weight=p["head_weight"], bias=zero_bias))
        t2 = gate_forward(x, p).t2
        z = p["scale"] * (a * t2).ravel()[batch.indices] + p["shift"]
        return binary_cross_entropy(z, targets), variance_constraint(t2, eps)[0]

    cls0, v0 = parts(params)
    log_beta0 = np.log(alpha * cls0) - 1.0 / v0

    def total(p) -> float:
        cls, v = parts(p)
        return cls + float(np.exp(log_beta0 + 1.0 / v))

    worst = 0.0
    for name, value in params.items():
        # A copy to difference in place; a float becomes a 0-d array.
        fd = finite_diff_gradient(
            lambda v, nm=name: total({**params, nm: v}), np.array(value), h
        )
        worst = max(worst, relative_error(grads[name], fd))
    return worst


CHECKS = {
    "conv1x1": check_conv1x1,
    "relu": check_relu,
    "sigmoid": check_sigmoid,
    "hadamard": check_hadamard,
    "variance": check_variance,
    "gate": check_gate,
    "head": check_head,
    "end_to_end": check_end_to_end,
}


def run_suite(
    seed: int = 0,
    h: float = 1e-5,
    shapes=DEFAULT_SHAPES,
    ops=None,
    n_seeds: int = 5,
) -> list[CheckResult]:
    """Worst relative error per op over n_seeds seeds and all shapes."""
    if h <= 0:
        raise DomainError(f"step must be positive, got {h}")
    if n_seeds < 1:
        raise DomainError(f"n_seeds must be >= 1, got {n_seeds}")
    for shape in shapes:
        if len(shape) != 3 or any(d < 1 for d in shape):
            raise DomainError(f"bad shape {shape}")
    if ops is None:
        names = list(CHECKS)
    else:
        names = list(ops)
        for name in names:
            if name not in CHECKS:
                raise DomainError(f"unknown op {name!r}")
    results = []
    for name in names:
        worst = 0.0
        for s in range(n_seeds):
            for shape in shapes:
                rng = SplitMix64(derive_seed(seed + s, "gradcheck", name, *shape))
                worst = max(worst, CHECKS[name](rng, tuple(shape), h))
        results.append(CheckResult(op=name, worst=worst))
    return results
