"""Finite-difference verification of every backward pass, one op at a
time and end to end through the full training loss.

Every check runs one differencing loop: a scalar functional is
differenced in each named input, the others held fixed, and compared
with the analytic gradient under the same name.  Relative error is
measured per element as |analytic - numeric| divided by
max(1, |numeric|), and the worst element must stay below 1e-4.

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
)
from .training import (
    TrainConfig,
    TrainState,
    binary_cross_entropy,
    head_backward,
    loss_and_grads,
)

REL_TOL = 1e-4
DEFAULT_SHAPES = ((2, 3, 4), (4, 4, 4), (3, 5, 6), (5, 2, 6), (6, 6, 8))
_MARGIN = 1e-3
_MIN_VARIANCE = 1e-2
# The gate's reduction ratio in the gate and end-to-end checks: a shape
# needs at least _R channels to leave the gate a hidden channel.
_R = 2


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
        err = err[include]
    return float(err.max(initial=0.0))


def _worst_error(f, inputs: dict, grads: dict, h: float, include=None) -> float:
    """Worst relative error of the analytic gradients over every named
    input.  Each array of inputs is differenced in place, the others
    held fixed, for the scalar f() that reads them, and compared with
    grads under the same name, over include[name] only where given."""
    worst = 0.0
    for name, array in inputs.items():
        fd = finite_diff_gradient(lambda _: f(), array, h)
        worst = max(worst, relative_error(grads[name], fd, (include or {}).get(name)))
    return worst


def check_conv1x1(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    hh, ww, c = shape
    x = rng.uniform_range(-1.0, 1.0, shape)
    p = Conv1x1Params(
        weight=rng.uniform_range(-1.0, 1.0, (c + 1, c)),
        bias=rng.uniform_range(-1.0, 1.0, c + 1),
    )
    g = rng.uniform_range(-1.0, 1.0, (hh, ww, c + 1))
    grads = dict(zip(("x", "weight", "bias"), conv1x1_backward(x, p, g)))
    # p holds the drawn arrays themselves, so differencing them moves p.
    inputs = {"x": x, "weight": p.weight, "bias": p.bias}
    return _worst_error(
        lambda: float((conv1x1_forward(x, p) * g).sum()), inputs, grads, h
    )


def check_relu(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    x = rng.uniform_range(-1.0, 1.0, shape)
    g = rng.uniform_range(-1.0, 1.0, shape)
    grads, include = {"x": relu_backward(x, g)}, {"x": np.abs(x) > 10 * h}
    return _worst_error(lambda: float((relu(x) * g).sum()), {"x": x}, grads, h, include)


def check_sigmoid(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    x = rng.uniform_range(-4.0, 4.0, shape)
    g = rng.uniform_range(-1.0, 1.0, shape)
    grads = {"x": sigmoid_backward(sigmoid(x), g)}
    return _worst_error(lambda: float((sigmoid(x) * g).sum()), {"x": x}, grads, h)


def check_hadamard(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    a = rng.uniform_range(-1.0, 1.0, shape)
    b = rng.uniform_range(-1.0, 1.0, shape)
    g = rng.uniform_range(-1.0, 1.0, shape)
    grads = dict(zip("ab", hadamard_backward(a, b, g)))
    return _worst_error(
        lambda: float((hadamard(a, b) * g).sum()), {"a": a, "b": b}, grads, h
    )


def check_variance(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    """The variance gradient training uses, variance_constraint's, with a
    floor far below the variance of x, against differencing of the
    population variance."""
    x = rng.uniform_range(-1.0, 1.0, shape)
    grads = {"x": variance_constraint(x, epsilon=1e-12)[1]}
    return _worst_error(lambda: mean_and_variance(x)[1], {"x": x}, grads, h)


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
        reduce_conv = Conv1x1Params(params["reduce_weight"], params["reduce_bias"])
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
    x, params, _ = _gate_instance(rng, shape, k, r=_R)
    g_t2 = rng.uniform_range(-1.0, 1.0, (hh, ww, k))

    grad_z1, grads = gate_backward(gate_forward(x, params), x, params, g_t2)
    reduce_conv = Conv1x1Params(params["reduce_weight"], params["reduce_bias"])
    grads["x"] = conv1x1_input_grad(reduce_conv, grad_z1)
    return _worst_error(
        lambda: float((gate_forward(x, params).t2 * g_t2).sum()),
        {"x": x, **params},
        grads,
        h,
    )


def check_head(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    """Scalar-affine logits plus mean binary cross-entropy, through the
    head backward pass that training runs (training.head_backward)."""
    n = max(4, shape[0] * shape[1])
    values = rng.uniform_range(-2.0, 2.0, n)
    targets = (rng.uniform(n) < 0.5).astype(np.float64)
    # 0-d arrays, so the loop can difference them in place.
    scale = np.array(1.0 + rng.uniform())
    shift = np.array(rng.uniform() - 0.5)
    grad_values, grads = head_backward(values, scale * values + shift, targets, scale)
    return _worst_error(
        lambda: binary_cross_entropy(scale * values + shift, targets),
        {"values": values, "scale": scale, "shift": shift},
        {"values": grad_values, **grads},
        h,
    )


def check_end_to_end(rng: SplitMix64, shape, h: float = 1e-5) -> float:
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
    x, gate, th = _gate_instance(rng, shape, k, r=_R, n=2)
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
    state = TrainState(params)
    config = TrainConfig(epsilon=eps, th=th, r=_R, seed=rng.next_u64())
    labels = LabelArrays(
        category=category, hard=np.zeros(n, dtype=bool), iou=np.zeros(n)
    )
    _, grads, batch, _ = loss_and_grads(state, x, labels, config)
    targets = (category[batch.indices] == FG).astype(np.float64)

    # A copy of every parameter to difference in place; a float becomes
    # a 0-d array.  head holds point's head_weight itself.
    point = {name: np.array(value) for name, value in params.items()}
    head = Conv1x1Params(weight=point["head_weight"], bias=np.zeros(k))

    def parts() -> tuple[float, float]:
        """Classification loss and gate-weight variance, over both maps."""
        a = conv1x1_forward(x, head)
        t2 = gate_forward(x, point).t2
        z = point["scale"] * (a * t2).ravel()[batch.indices] + point["shift"]
        return binary_cross_entropy(z, targets), variance_constraint(t2, eps)[0]

    cls0, v0 = parts()
    log_beta0 = np.log(config.alpha * cls0) - 1.0 / v0

    def total() -> float:
        cls, v = parts()
        return cls + float(np.exp(log_beta0 + 1.0 / v))

    return _worst_error(total, point, grads, h)


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
    names = list(CHECKS if ops is None else ops)
    for name in names:
        if name not in CHECKS:
            raise DomainError(f"unknown op {name!r}")
        if name in ("gate", "end_to_end") and any(s[2] < _R for s in shapes):
            raise DomainError(f"op {name!r} needs shapes of at least {_R} channels")
    results = []
    for name in names:
        worst = 0.0
        for s in range(n_seeds):
            for shape in shapes:
                rng = SplitMix64(derive_seed(seed + s, "gradcheck", name, *shape))
                worst = max(worst, CHECKS[name](rng, tuple(shape), h))
        results.append(CheckResult(op=name, worst=worst))
    return results
