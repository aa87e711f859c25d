"""Finite-difference verification of every backward pass, one op at a
time and end to end through the full training loss.

Every check differences one scalar functional in each named input, the
others held fixed, and compares it with the analytic gradient under the
same name (_worst_error).  Most inputs are differenced as a stack: a
block of perturbed copies goes through the forward in one call, and
each copy's value reduces over its own trailing axes.  A row-separable
input (the features of relu, sigmoid, gate and conv1x1, both operands
of hadamard) adds its copies as more rows (along H for conv1x1;
hadamard's other operand is broadcast).  The gate's four arrays, the
variance input and the head's values, scale and shift add a leading
stack axis, which gate_forward, the last-axis variance and the BCE
carry through.  Only conv1x1's weight and bias and end_to_end's
parameters are written into their arrays one copy at a time.  Either
way each difference is bit for bit that of a per-element loop over the
scalar functional; only where OpenBLAS picks another kernel for the
taller stack of conv1x1 rows may the last bits move.

Relative error is measured per element as |analytic - numeric|
divided by max(1, |numeric|), and the worst element must stay below
1e-4; a NaN error counts as infinite, so it fails.

Each check differences the forward that training runs: the gate's own
ReLU, np.maximum(x, 0); variance_constraint's value; gate_forward; and
the head as one plain product over the feature rows.  Only the conv1x1
and hadamard checks difference tensor ops that training does not call.

Two ops are only piecewise smooth.  The ReLU check compares away from
the kink (elements within 10h of zero are skipped, matching the
subgradient convention).  The gate and end-to-end checks instead build
instances whose hidden pre-activations and gate weights sit a safe
margin away from every kink and threshold, redrawing until that holds,
so the composed functional is smooth on the differencing neighborhood.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ProbanetError
from .gate import _variance, gate_backward, gate_forward, variance_constraint
from .rng import SplitMix64, derive_seed
from .sim import BG, FG, IGNORE, LabelArrays
from .tensor import (
    Conv1x1Params,
    conv1x1_backward,
    conv1x1_forward,
    finite_diff_gradient,
    hadamard,
    hadamard_backward,
    in_place,
    relu_backward,
    sigmoid,
    sigmoid_backward,
)
from .training import (
    _SEED_END,
    TrainConfig,
    TrainState,
    _fork_map,
    _worker_count,
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
# Values of t1 and t2 one stacked forward of gate arrays may make.
_VALUES = 2**15


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
    return float(np.where(np.isnan(err), np.inf, err).max(initial=0.0))


def _worst_error(
    f, inputs: dict, grads: dict, h: float, include=None, stacked=None
) -> float:
    """Worst relative error of the analytic gradients over every named
    input.  Each array of inputs is differenced, the others held fixed,
    for the scalar f() that reads them, and compared with grads under the
    same name, over include[name] only where given.

    An input named in stacked is differenced through stacked[name], which
    gives f()'s values at a stack of copies of that input in one call;
    any other is written into its array in place, one copy at a time."""
    stacked = stacked or {}
    worst = 0.0
    for name, array in inputs.items():
        try:
            forward = stacked.get(name) or in_place(lambda _: f(), array)
            fd = finite_diff_gradient(forward, array, h)
        except ProbanetError as exc:
            raise type(exc)(f"input {name}: {exc}") from exc
        worst = max(worst, relative_error(grads[name], fd, (include or {}).get(name)))
    return worst


def _sums(stack: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum(v * g) for each copy v in the stack, whose trailing axes hold
    g.size values: float((v * g).sum()) per copy, in the same order."""
    products = stack.reshape(-1, *g.shape) * g
    return products.reshape(len(products), -1).sum(axis=1)


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
    # A stack of copies of x is one map of their rows, stacked along H.
    return _worst_error(
        lambda: float((conv1x1_forward(x, p) * g).sum()), inputs, grads, h,
        stacked={"x": lambda xs: _sums(conv1x1_forward(xs.reshape(-1, ww, c), p), g)},
    )


def check_relu(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    x = rng.uniform_range(-1.0, 1.0, shape)
    g = rng.uniform_range(-1.0, 1.0, shape)
    grads, include = {"x": relu_backward(x, g)}, {"x": np.abs(x) > 10 * h}
    return _worst_error(
        lambda: float((np.maximum(x, 0.0) * g).sum()), {"x": x}, grads, h, include,
        stacked={"x": lambda xs: _sums(np.maximum(xs, 0.0), g)},
    )


def check_sigmoid(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    x = rng.uniform_range(-4.0, 4.0, shape)
    g = rng.uniform_range(-1.0, 1.0, shape)
    grads = {"x": sigmoid_backward(sigmoid(x), g)}
    return _worst_error(
        lambda: float((sigmoid(x) * g).sum()), {"x": x}, grads, h,
        stacked={"x": lambda xs: _sums(sigmoid(xs), g)},
    )


def check_hadamard(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    a = rng.uniform_range(-1.0, 1.0, shape)
    b = rng.uniform_range(-1.0, 1.0, shape)
    g = rng.uniform_range(-1.0, 1.0, shape)
    grads = dict(zip("ab", hadamard_backward(a, b, g)))
    # The fixed operand is broadcast along the stack of the other.
    return _worst_error(
        lambda: float((hadamard(a, b) * g).sum()), {"a": a, "b": b}, grads, h,
        stacked={
            "a": lambda s: _sums(hadamard(s, np.broadcast_to(b, s.shape)), g),
            "b": lambda s: _sums(hadamard(np.broadcast_to(a, s.shape), s), g),
        },
    )


def check_variance(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    """variance_constraint's gradient against differencing of its value,
    the gate-weight variance training logs, with a floor far below the
    variance of x."""
    x = rng.uniform_range(-1.0, 1.0, shape)
    grads = {"x": variance_constraint(x, 1e-12)[1]}
    return _worst_error(
        lambda: variance_constraint(x, 1e-12)[0], {"x": x}, grads, h,
        stacked={
            "x": lambda xs: np.maximum(_variance(xs.reshape(len(xs), -1))[0], 1e-12)
        },
    )


def _safe_threshold(t2: np.ndarray) -> tuple[float, float]:
    """A cutoff in the interior of the sorted gate weights, placed at the
    widest spacing so differencing never flips a keep decision, and its
    margin.  As the midpoint of two weights, it lies in (0, 1)."""
    flat = np.sort(t2.ravel())
    lo, hi = flat.size // 4, max(flat.size // 4 + 1, 3 * flat.size // 4)
    gaps = flat[lo + 1 : hi + 1] - flat[lo:hi]
    best = int(np.argmax(gaps))
    th = float((flat[lo + best] + flat[lo + best + 1]) / 2)
    return th, float(gaps[best] / 2)


def _gate_instance(rng: SplitMix64, shape, k: int, r: int, n: int = 1):
    """Random gate instance with every kink a safe margin away: the
    (n*H*W, C) feature rows of n scenes, the gate arrays by name and one
    truncation threshold.

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
        x = rng.uniform_range(-1.0, 1.0, (n * hh * ww, c))
        params = {
            "reduce_weight": rng.uniform_range(-s1, s1, (mid, c)),
            "reduce_bias": rng.uniform_range(-0.5, 0.5, mid),
            "expand_weight": rng.uniform_range(-s2, s2, (k, mid)),
            "expand_bias": rng.uniform_range(-0.5, 0.5, k),
        }
        z1 = x @ params["reduce_weight"].T + params["reduce_bias"]
        t2 = gate_forward(x, params)[1]
        th, margin = _safe_threshold(t2)
        if (
            np.abs(z1).min() > _MARGIN
            and margin > _MARGIN
            and variance_constraint(t2, _MIN_VARIANCE)[0] > _MIN_VARIANCE
        ):
            return x, params, th
    raise NumericError("could not place a gate instance away from its kinks")


def check_gate(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    """The gate network's forward/backward, d/dx included, against
    differencing of sum(t2*G)."""
    hh, ww, c = shape
    k = max(2, c // 2)
    x, params, _ = _gate_instance(rng, shape, k, r=_R)
    g_t2 = rng.uniform_range(-1.0, 1.0, (hh * ww, k))

    t1, t2 = gate_forward(x, params)
    grad_z1, grads = gate_backward(t1, t2, x, params, g_t2)
    grads["x"] = grad_z1 @ params["reduce_weight"]

    # A copy of a layer's weight or bias goes with the other of the pair
    # broadcast to the stack.  A block of copies goes through the forward
    # a part at a time, so it costs about one forward at any size.
    step = max(1, _VALUES // (t1.size + t2.size))
    pairs = ("reduce_weight", "reduce_bias"), ("expand_weight", "expand_bias")
    partner = {a: b for pair in pairs for a, b in (pair, pair[::-1])}

    def stacked(name: str, s: np.ndarray) -> np.ndarray:
        """sum(t2 * G) at each copy in the stack s of params[name]."""
        other, sums = params[partner[name]], []
        for i in range(0, len(s), step):
            part = s[i : i + step]
            arrays = {**params, name: part, partner[name]: np.broadcast_to(
                other, (len(part), *other.shape)
            )}
            sums.append(_sums(gate_forward(x, arrays)[1], g_t2))
        return np.concatenate(sums)

    # A stack of copies of x is one array of their rows.
    return _worst_error(
        lambda: float((gate_forward(x, params)[1] * g_t2).sum()),
        {"x": x, **params},
        grads,
        h,
        stacked={
            "x": lambda xs: _sums(gate_forward(xs.reshape(-1, c), params)[1], g_t2),
            **{name: functools.partial(stacked, name) for name in params},
        },
    )


def check_head(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    """Scalar-affine logits plus mean binary cross-entropy, through the
    head backward pass that training runs (training.head_backward)."""
    n = max(4, shape[0] * shape[1])
    values = rng.uniform_range(-2.0, 2.0, n)
    targets = (rng.uniform(n) < 0.5).astype(np.float64)
    # 0-d arrays, so that each is an array to difference, as values is.
    scale = np.array(1.0 + rng.uniform())
    shift = np.array(rng.uniform() - 0.5)
    grad_values, grads = head_backward(values, scale * values + shift, targets, scale)

    def loss(values=values, scale=scale, shift=shift):
        return binary_cross_entropy(scale * values + shift, targets)

    inputs = {"values": values, "scale": scale, "shift": shift}
    # A stack of copies of any input, one row each, broadcasts against the others.
    return _worst_error(
        loss, inputs, {"values": grad_values, **grads}, h,
        stacked={
            name: lambda s, name=name: loss(**{name: s.reshape(len(s), -1)})
            for name in inputs
        },
    )


def check_end_to_end(rng: SplitMix64, shape, h: float = 1e-5) -> float:
    """The gradients of one two-scene training step
    (training.loss_and_grads) against differencing of a dense forward
    pass over both scenes, parameter by parameter, with the step's
    mini-batch and auxiliary coefficient frozen at the base point.

    The step reads both scenes' feature rows, as training reads a step's
    scenes, so it gathers head rows from both and sums the gate
    gradients over both.  The functional is
    cls(p) + exp(ln(alpha*cls0) - 1/v0 + 1/v(p)); at the base point its
    gradient equals the training gradient, in which the coefficient is a
    detached constant.  The exponential is kept in log form so no
    intermediate overflows for small variances.  The labels are redrawn
    until a background anchor survives truncation, since the sampler
    needs one.

    It runs at two variance floors: 1e-9, and 1, above any variance in
    (0, 1), where training's gate backward reads the batch's rows only.
    """
    hh, ww, c = shape
    k = max(2, c // 2)
    x, gate, th = _gate_instance(rng, shape, k, r=_R, n=2)
    head_weight = rng.uniform_range(-1.0, 1.0, (k, c)) / np.sqrt(c)
    scale = 1.0 + rng.uniform()
    shift = rng.uniform() - 0.5

    # The rows' anchors are the step's, scene by scene.
    n = 2 * hh * ww * k
    kept = gate_forward(x, gate)[1].ravel() > th
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
    seed = rng.next_u64()
    labels = LabelArrays(
        category=category, hard=np.zeros(n, dtype=bool), iou=np.zeros(n)
    )
    worst = 0.0
    for eps in (1e-9, 1.0):
        config = TrainConfig(epsilon=eps, th=th, r=_R, seed=seed)
        _, grads, batch, _ = loss_and_grads(state, x, labels, config)
        targets = (category[batch.indices] == FG).astype(np.float64)

        # A copy of every parameter to difference in place; a float
        # becomes a 0-d array.
        point = {name: np.array(value) for name, value in params.items()}

        def parts() -> tuple[float, float]:
            """Classification loss and gate-weight variance, over both scenes."""
            a = (x @ point["head_weight"].T).ravel()
            t2 = gate_forward(x, point)[1]
            z = point["scale"] * (a * t2.ravel())[batch.indices] + point["shift"]
            return binary_cross_entropy(z, targets), variance_constraint(t2, eps)[0]

        cls0, v0 = parts()
        log_beta0 = np.log(config.alpha * cls0) - 1.0 / v0

        def total() -> float:
            cls, v = parts()
            return cls if v == eps else cls + float(np.exp(log_beta0 + 1.0 / v))

        worst = max(worst, _worst_error(total, point, grads, h))
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
    """Worst relative error per op over n_seeds seeds and all shapes.

    The (op, seed, shape) checks are dealt round-robin into one chunk per
    process of training's budget (training._worker_count): this process
    runs the first chunk, forked children the others.  The results, and
    the first failing check's error, naming its op, seed and shape, are
    as with one process."""
    if not 0 < h < np.inf:
        raise DomainError(f"step must be finite and positive, got {h}")
    if n_seeds < 1:
        raise DomainError(f"n_seeds must be >= 1, got {n_seeds}")
    if not 0 <= seed <= _SEED_END - n_seeds:  # derive_seed reads seeds mod 2**64
        last = seed + n_seeds - 1
        raise DomainError(f"seeds {seed} to {last} must lie in [0, 2**64)")
    for shape in shapes:
        if len(shape) != 3 or any(d < 1 for d in shape):
            raise DomainError(f"bad shape {shape}")
    names = list(CHECKS if ops is None else ops)
    for argument, given in (("shapes", shapes), ("ops", names)):
        if len(given) == 0:
            raise DomainError(f"{argument} is empty, so the suite would check nothing")
    for name in names:
        if name not in CHECKS:
            raise DomainError(f"unknown op {name!r}")
        if name in ("gate", "end_to_end") and any(s[2] < _R for s in shapes):
            raise DomainError(f"op {name!r} needs shapes of at least {_R} channels")
    seeds = range(seed, seed + n_seeds)
    jobs = list(enumerate(itertools.product(names, seeds, map(tuple, shapes))))
    width = min(_worker_count(), len(jobs))
    run = functools.partial(_run_chunk, h)
    rest = ((f"gradcheck chunk {i}", jobs[i::width]) for i in range(1, width))
    with _fork_map(run, rest, width - 1) as replies:
        chunks = [run(jobs[::width]), *replies]
    failures = [failure for _, failure in chunks if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [
        CheckResult(op=name, worst=max(worst.get(name, 0.0) for worst, _ in chunks))
        for name in names
    ]


def _run_chunk(h: float, jobs) -> tuple[dict, tuple[int, Exception] | None]:
    """The worst error per op over jobs, (index, (op, seed, shape)) each,
    run in order, and the index and error of the first job that raises,
    which ends the chunk, or None."""
    worst = {}
    for index, (name, seed, shape) in jobs:
        rng = SplitMix64(derive_seed(seed, "gradcheck", name, *shape))
        try:
            error = CHECKS[name](rng, shape, h)
        except ProbanetError as exc:
            where = f"{name} check, seed {seed}, shape {'x'.join(map(str, shape))}"
            return worst, (index, type(exc)(f"{where}: {exc}"))
        except Exception as exc:
            return worst, (index, exc)
        worst[name] = max(worst.get(name, 0.0), error)
    return worst, None
