"""Toy end-to-end training: a one-layer objectness head over gated,
truncated proposal maps, SGD with momentum, and a multi-seed experiment
runner training one or more variants on each seed's shared scene pool.

The trainable parameters are the proposal head (a 1x1 convolution from
features to one logit source per anchor shape), the gate convolutions
when the gate is enabled, and a scalar affine (scale, shift) that turns
gathered proposal values into logits.  Scene features are data, never
parameters: their gradient is never formed.

A step reads its scenes as one (N, C) array of feature rows, a row per
grid cell.  Its loss reads only the sampled mini-batch (at most 256
anchors), and the gate's truncation mask reads only the gate weights.
So a step runs the gate network over every row, samples, and evaluates
the head only at the sampled anchors' rows, as it does the gate's
backward while the variance loss has no gradient.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import os
import pickle
import signal
import sys
import threading
from collections import deque
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real
from types import MappingProxyType

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    EmptyPoolError,
    NumericError,
    ProbanetError,
    require_field,
    require_field_kinds,
)
from .gate import (
    gate_backward,
    gate_forward,
    init_gate_params,
    probanet_loss,
    variance_constraint,
)
from .rng import _BLOCK, SplitMix64, derive_seed
from .sim import (
    LabelArrays,
    MiniBatch,
    Scene,
    SimConfig,
    _read_only,
    _synthesize_into,
    hard_ratio,
    label_arrays,
    sample_minibatch,
)
from .tensor import _logistic, _mean

# derive_seed reads a root seed mod 2**64, so a seed outside [0, 2**64)
# would train the same run as one inside it.
_SEED_END = 2**64


def _pin_blas() -> bool:
    """Set numpy's bundled OpenBLAS to one thread and stop the pool threads
    it started with; False if numpy has none."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        set_threads = lib.scipy_openblas_set_num_threads64_
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        shutdown = lib.blas_thread_shutdown_
        shutdown.argtypes, shutdown.restype = (), ctypes.c_int
    except (AttributeError, OSError):
        return False
    set_threads(1)
    shutdown()
    return True


# One BLAS thread per process, inherited by forked workers, so no product's
# bits depend on how many threads the BLAS started with.
_BLAS_PINNED = _pin_blas()


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    learning_rate: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.005
    epochs: int = 10
    steps_per_epoch: int = 200
    alpha: float = 0.5
    epsilon: float = 1e-3
    th: float = 0.5
    r: int = 16
    probanet_enabled: bool = True
    seed: int = 0
    lr_decay_every: int = 0
    lr_decay_factor: float = 0.1
    scenes_per_batch: int = 2

    def __post_init__(self):
        require_field_kinds(self)
        check = functools.partial(require_field, self)
        check("learning_rate", self.learning_rate >= 0, "be >= 0")
        check("momentum", 0 <= self.momentum < 1, "lie in [0, 1)")
        check("weight_decay", self.weight_decay >= 0, "be >= 0")
        check("epochs", self.epochs >= 0, "be >= 0")
        check("steps_per_epoch", self.steps_per_epoch >= 0, "be >= 0")
        check("alpha", 0 <= self.alpha < 1, "lie in [0, 1)")
        check("epsilon", self.epsilon > 0, "be positive")
        check("th", 0 <= self.th < 1, "lie in [0, 1)")
        check("r", self.r >= 1, "be >= 1")
        check("lr_decay_every", self.lr_decay_every >= 0, "be >= 0 (0 disables decay)")
        check("lr_decay_factor", 0 < self.lr_decay_factor <= 1, "lie in (0, 1]")
        check("scenes_per_batch", self.scenes_per_batch >= 1, "be >= 1")
        check("seed", 0 <= self.seed < _SEED_END, "lie in [0, 2**64)")

    @property
    def total_steps(self) -> int:
        return self.epochs * self.steps_per_epoch

    def learning_rate_at(self, step: int) -> float:
        if self.lr_decay_every == 0:
            return self.learning_rate
        epoch = step // self.steps_per_epoch if self.steps_per_epoch else 0
        return self.learning_rate * self.lr_decay_factor ** (
            epoch // self.lr_decay_every
        )


@dataclass(frozen=True)
class MetricsRecord:
    step: int
    cls_loss: float
    probanet_loss: float
    variance: float
    beta: float
    hard_ratio: float
    fg_gate_mean: float
    bg_gate_mean: float
    kept_fraction: float

    def __post_init__(self):
        # metrics.csv holds repr(value), which is "np.float64(0.5)" for numpy's.
        for name in _METRIC_NAMES:
            value = getattr(self, name)
            kind, admits = (int, Integral) if name == "step" else (float, Real)
            if type(value) is not kind:
                if isinstance(value, bool) or not isinstance(value, admits):
                    raise TypeError(f"metric {name} must be a number, got {value!r}")
                object.__setattr__(self, name, kind(value))
            if not math.isfinite(value):
                raise NumericError(f"metric {name} is {value!r} in {self}")


_METRIC_NAMES = tuple(f.name for f in fields(MetricsRecord))


@dataclass(frozen=True)
class ScenePool:
    """The cycled scenes of one run seed, each held once.

    features holds every scene's map as one (P, H, W, C) array, and
    scenes[i].features is a view of features[i].  labels covers the
    P*H*W*K anchors scene by scene; labels depend only on geometry, so
    they are fixed for the pool's lifetime.
    """

    features: np.ndarray
    labels: LabelArrays
    scenes: tuple[Scene, ...]
    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def step_inputs(self, step: int, count: int) -> tuple[np.ndarray, LabelArrays]:
        """The (count*H*W, C) feature rows of scenes (count*step + j) % P
        for j < count, scene by scene, and their labels.  Both are views
        of the pool unless the range wraps past its last scene.  Every
        step of a window (the same first scene and count) gets the same
        read-only arrays, so what derives from them alone is derived
        once."""
        p, c = len(self.features), self.features.shape[-1]
        first = count * step % p
        if (first, count) not in self._windows:
            if first + count <= p:
                sel = slice(first, first + count)
            else:  # at most count - 1 windows wrap, so the memo stays small
                sel = (first + np.arange(count)) % p
            x = _read_only(self.features[sel].reshape(-1, c))
            self._windows[first, count] = x, LabelArrays(*(
                _read_only(col.reshape(p, -1)[sel].ravel())
                for col in (self.labels.category, self.labels.hard, self.labels.iou)
            ))
        return self._windows[first, count]


def build_scene_pool(
    config: TrainConfig, sim_config: SimConfig, cores: int | None = None
) -> ScenePool:
    """Pre-generate the cycled pool of labeled scenes for one run seed,
    each scene synthesized straight into its row of one array.  Scenes of
    a synthesis block or more are dealt out in turn to up to cores threads
    (_worker_count() by default), this one among them; each depends on the
    seed and its index alone, so the bits are the same on any number.  The
    first failing scene's exception is raised; no thread outlives the call."""
    sc = sim_config
    p = sc.scene_pool_size
    features = np.empty((p, sc.height, sc.width, sc.channels))
    cores = _worker_count() if cores is None else cores
    if cores < 1:
        raise DomainError(f"a pool builds on one core or more, got cores={cores}")
    width = min(cores, p) if features[0].size >= _BLOCK else 1
    built = [None] * p  # (scene, labels), or the exception that ended a worker

    def build(first: int) -> None:
        try:
            for i in range(first, p, width):
                seed = derive_seed(config.seed, "scene", i)
                scene = _synthesize_into(sc, seed, features[i])
                built[i] = scene, label_arrays(scene, sc)
        except Exception as exc:  # the worker's later scenes stay None
            built[i] = exc

    helpers = []
    try:
        for first in range(1, width):
            helper = threading.Thread(target=build, args=(first,))
            helper.start()
            helpers.append(helper)
        build(0)
    finally:
        for helper in helpers:
            helper.join()
    for outcome in built:  # a None follows its worker's failure
        if isinstance(outcome, Exception):
            raise outcome
    scenes, labels = zip(*built)
    return ScenePool(
        features=features,
        labels=LabelArrays(
            category=np.concatenate([la.category for la in labels]),
            hard=np.concatenate([la.hard for la in labels]),
            iou=np.concatenate([la.iou for la in labels]),
        ),
        scenes=tuple(scenes),
    )


class TrainState:
    """The trainable parameters by name, their momentum buffers under
    the same names, and the number of steps taken.

    params holds head_weight (anchors_per_cell, channels) and the scalars
    scale and shift, plus, when the gate is enabled, its four arrays
    (reduce_weight, reduce_bias, expand_weight, expand_bias).

    The constructor copies the parameters, then the velocities (zero for
    any not given), into one flat buffer.  params and velocity are
    read-only mappings of views of it, scale and shift 0-d ones, which
    every update writes in place; a copy or an unpickled state packs a
    buffer of its own.
    """

    def __init__(
        self,
        params: Mapping[str, np.ndarray | float],
        velocity: Mapping[str, np.ndarray | float] | None = None,
        step: int = 0,
    ):
        velocity = {} if velocity is None else velocity
        if unknown := velocity.keys() - params.keys():
            raise KeyError(f"velocities of no parameter: {sorted(unknown)}")
        shapes = [np.shape(value) for value in params.values()] * 2
        sizes = [math.prod(shape) for shape in shapes]
        buffer = np.zeros(sum(sizes))
        parts = np.split(buffer, np.cumsum(sizes)[:-1])
        views = [part.reshape(shape) for part, shape in zip(parts, shapes)]
        values = [*params.values(), *(velocity.get(name, 0.0) for name in params)]
        for view, value in zip(views, values):
            view[...] = value
        self.params = MappingProxyType(dict(zip(params, views)))
        self.velocity = MappingProxyType(dict(zip(params, views[len(params) :])))
        self.step = step
        self._theta, self._moment = np.split(buffer, 2)

    def __reduce__(self):
        return TrainState, (dict(self.params), dict(self.velocity), self.step)

    @property
    def gate(self) -> Mapping | None:
        """The parameters gate_forward reads, or None without a gate."""
        return self.params if "reduce_weight" in self.params else None


def init_state(config: TrainConfig, sim_config: SimConfig) -> TrainState:
    """Fresh parameters; the gate draws from its own seed stream so the
    baseline and gated variants start from the same head."""
    _check_gate_geometry(config, sim_config)
    c = sim_config.channels
    k = sim_config.anchors_per_cell
    head_rng = SplitMix64(derive_seed(config.seed, "init"))
    s = 1.0 / np.sqrt(c)
    params = {
        "head_weight": head_rng.uniform_range(-s, s, (k, c)),
        "scale": 1.0,
        "shift": 0.0,
    }
    if config.probanet_enabled:
        gate_rng = SplitMix64(derive_seed(config.seed, "init-gate"))
        params.update(init_gate_params(c, k, config.r, gate_rng))
    return TrainState(params)


def _check_gate_geometry(config: TrainConfig, sim_config: SimConfig) -> None:
    """Raise ConfigError if config trains a gate whose reduction r does not
    divide the channels of sim_config's maps."""
    c, r = sim_config.channels, config.r
    if config.probanet_enabled and c % r != 0:
        raise ConfigError(f"channels {c} not divisible by reduction {r}", field="r")


def binary_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean stabilized BCE: max(z,0) - z*y + log(1 + e^-|z|)."""
    z, y = logits, targets
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(_mean(per))


def binary_cross_entropy_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d(mean BCE)/d(logits) = (sigmoid(z) - y) / n."""
    return (_logistic(logits) - targets) / logits.size


def head_backward(values, logits, targets, scale) -> tuple[np.ndarray, dict]:
    """Backward of the affine-BCE head, the mean BCE of logits = scale *
    values + shift: the gradient at values, and those of scale and shift
    by name."""
    dz = binary_cross_entropy_grad(logits, targets)
    return scale * dz, {"scale": float(np.dot(dz, values)), "shift": float(dz.sum())}


def train_step(
    state: TrainState, x: np.ndarray, labels: LabelArrays, config: TrainConfig
) -> tuple[TrainState, MetricsRecord]:
    """One SGD step over the feature rows of one or more scenes sharing a
    single mini-batch: loss_and_grads, then the momentum update of every
    parameter."""
    record, grads, _, _ = loss_and_grads(state, x, labels, config)
    _sgd_update(state, grads, config)
    state.step += 1
    return state, record


def loss_and_grads(
    state: TrainState, x: np.ndarray, labels: LabelArrays, config: TrainConfig
) -> tuple[MetricsRecord, dict, MiniBatch, np.ndarray]:
    """Forward and backward pass of one step, without the update.

    x holds the (N, C) feature rows of the step's scenes, one per cell,
    and labels covers their anchors in row order, K per row.  Forward:
    the gate network over the rows (when enabled) with every statistic
    of its weights t2, fixed-ratio sampling over the surviving anchors,
    the head at the sampled anchors weighted by their t2 (1.0 without
    the gate), scalar-affine logits, mean BCE, and the auxiliary
    variance loss, whose coefficient is recomputed from the
    classification loss and treated as a constant.  Backward: the head,
    then the gate, which the variance loss's gradient also reaches.

    Returns the step's metrics, the gradient of every trainable
    parameter by name, the mini-batch (indices into labels) and its
    logits.
    """
    step = state.step
    params, gate = state.params, state.gate
    k, c = params["head_weight"].shape
    if x.ndim != 2 or x.shape[1] != c or len(labels) != len(x) * k:
        raise DimensionError(
            f"the feature rows' shape {x.shape}, with {k} anchors per row, "
            f"does not match {len(labels)} labels and {c} channels"
        )

    mask, t2_sel, kept_fraction = None, 1.0, 1.0  # x * 1.0 is x, bit for bit
    aux_loss, beta, variance, grad_v_coeff = 0.0, 0.0, 0.0, 0.0
    fg_gate_mean, bg_gate_mean = 1.0, 1.0
    if gate is not None:
        t1, t2 = gate_forward(x, gate)
        t2_flat = t2.ravel()
        # Truncation keeps the entries weighted strictly above the threshold.
        mask = t2_flat > config.th
        kept_fraction = np.count_nonzero(mask) / mask.size
        variance, grad_v = variance_constraint(t2_flat, config.epsilon)
        fg_gate_mean, bg_gate_mean = _class_means(t2_flat, labels.is_fg, labels.is_bg)
    rng = SplitMix64(derive_seed(_sampler_root(config.seed), step))
    try:
        batch = sample_minibatch(labels, mask, rng)
    except EmptyPoolError as exc:
        raise EmptyPoolError(f"{exc} at {_where(step, config, kept_fraction)}") from exc

    # The head at the sampled anchors only: flat anchor index i sits at
    # anchor slot i % k of row i // k.  The head has no
    # bias: the scalar affine's shift already models a batch-wide offset,
    # and a trainable per-map bias feeds every cell the same constant,
    # drowning per-cell contrast.
    picked = np.arange(batch.size)
    cell, anchor = np.divmod(batch.indices, k)
    rows = x.take(cell, axis=0)
    a_sel = (rows @ params["head_weight"].T)[picked, anchor]
    if gate is not None:
        t2_sel = t2_flat[batch.indices]
    values = a_sel * t2_sel
    logits = params["scale"] * values + params["shift"]
    targets = np.zeros(batch.size)
    targets[: batch.fg_count] = 1.0  # the batch holds its foreground first
    cls_loss = binary_cross_entropy(logits, targets)
    if gate is not None and config.alpha > 0.0:
        aux_loss, beta, grad_v_coeff = probanet_loss(variance, cls_loss, config.alpha)
    try:
        record = MetricsRecord(
            step=step,
            cls_loss=cls_loss,
            probanet_loss=aux_loss,
            variance=variance,
            beta=beta,
            hard_ratio=hard_ratio(batch, labels),
            fg_gate_mean=fg_gate_mean,
            bg_gate_mean=bg_gate_mean,
            kept_fraction=kept_fraction,
        )
    except NumericError as exc:
        raise NumericError(
            f"non-finite metrics at {_where(step, config, kept_fraction)}: {exc}"
        ) from None

    # Backward.
    grad_values, grads = head_backward(values, logits, targets, params["scale"])
    grad_a = np.zeros((batch.size, k))
    grad_a[picked, anchor] = grad_values * t2_sel
    grads["head_weight"] = grad_a.T @ rows
    if gate is not None:
        # Every sampled anchor was kept, so its weighted value a * t2
        # passes grad_values * a to t2; dropped entries pass nothing.
        # Only the variance gradient reaches other cells, so without it
        # the backward reads the head's rows, a cell once per anchor.
        if grad_v_coeff and variance > config.epsilon:
            inputs, grad_t2, slots = (t1, t2, x), grad_v_coeff * grad_v, batch.indices
        else:
            inputs = t1[cell], t2[cell], rows
            grad_t2, slots = np.zeros(batch.size * k), picked * k + anchor
        grad_t2[slots] += grad_values * a_sel
        _, gate_grads = gate_backward(*inputs, gate, grad_t2.reshape(-1, k))
        grads.update(gate_grads)
    return record, grads, batch, logits


@functools.lru_cache(maxsize=64)
def _sampler_root(seed: int) -> int:
    """Step s samples with derive_seed(seed, "sampler", s), this root's child s."""
    return derive_seed(seed, "sampler")


def _where(step: int, config: TrainConfig, kept_fraction: float) -> str:
    return f"step {step}, seed {config.seed}, kept fraction {kept_fraction:.4g}"


def _class_means(values: np.ndarray, is_fg, is_bg) -> tuple[float, float]:
    """Mean of values over the foreground anchors and over the background
    anchors, 0.0 for a class with none."""
    members = (values[is_fg], values[is_bg])
    return tuple(float(_mean(v)) if v.size else 0.0 for v in members)


def _sgd_update(state: TrainState, grads: dict, config: TrainConfig) -> None:
    """v <- momentum*v - lr*(g + weight_decay*w); w <- w + v, for every
    parameter at once over the flat buffers.  Raises NumericError naming
    the first parameter that the update leaves non-finite."""
    lr = config.learning_rate_at(state.step)
    theta, velocity = state._theta, state._moment
    g = np.concatenate([grads[name] for name in state.params], axis=None)
    g += config.weight_decay * theta
    g *= lr
    velocity *= config.momentum
    velocity -= g
    theta += velocity
    if not np.isfinite(theta).all():
        name = next(n for n, v in state.params.items() if not np.isfinite(v).all())
        raise NumericError(
            f"non-finite parameter {name} after the update of step "
            f"{state.step}, seed {config.seed}"
        )


@dataclass(frozen=True)
class RunResult:
    """One trained variant: its per-step records plus final-state
    evaluations."""

    config: TrainConfig
    metrics: tuple[MetricsRecord, ...]
    tail_hard_ratio: float
    fg_gate_mean: float
    bg_gate_mean: float
    gate_gap: float
    logit_gap: float
    final_state: TrainState


def run_partial(
    config: TrainConfig,
    sim_config: SimConfig,
    steps: int,
    pool: ScenePool | None = None,
) -> tuple[TrainState, ScenePool, tuple[MetricsRecord, ...]]:
    """Train from scratch for a given number of steps (replay helper)."""
    if steps < 0 or steps > config.total_steps:
        raise ConfigError(
            f"steps must lie in [0, {config.total_steps}], got {steps}"
        )
    if pool is None:
        pool = build_scene_pool(config, sim_config)
    state = init_state(config, sim_config)
    records = []
    for step in range(steps):
        x, labels = pool.step_inputs(step, config.scenes_per_batch)
        state, record = train_step(state, x, labels, config)
        records.append(record)
    return state, pool, tuple(records)


def run_training(
    config: TrainConfig,
    sim_config: SimConfig,
    pool: ScenePool | None = None,
) -> RunResult:
    """Train one variant from scratch and evaluate its final state."""
    state, pool, metrics = run_partial(config, sim_config, config.total_steps, pool)
    return _finalize_run(config, state, pool, metrics)


def gate_weights(state: TrainState, rows: np.ndarray) -> np.ndarray:
    """The gate's (N, C') weights of the (N, C) feature rows, untruncated;
    all ones without a gate."""
    if state.gate is None:
        return np.ones((len(rows), state.params["head_weight"].shape[0]))
    return gate_forward(rows, state.gate)[1]


def _finalize_run(
    config: TrainConfig,
    state: TrainState,
    pool: ScenePool,
    metrics: tuple[MetricsRecord, ...],
) -> RunResult:
    # Evaluation truncates nothing: every anchor of the pool gets a logit.
    x = pool.features.reshape(-1, pool.features.shape[-1])
    a = (x @ state.params["head_weight"].T).ravel()
    t2_flat = gate_weights(state, x).ravel()
    z = state.params["scale"] * (a * t2_flat) + state.params["shift"]  # a * 1.0 is a
    is_fg, is_bg = pool.labels.is_fg, pool.labels.is_bg
    fg_gate_mean, bg_gate_mean = _class_means(t2_flat, is_fg, is_bg)
    fg_logit_mean, bg_logit_mean = _class_means(z, is_fg, is_bg)
    logit_gap = fg_logit_mean - bg_logit_mean if is_fg.any() and is_bg.any() else 0.0
    return RunResult(
        config=config,
        metrics=metrics,
        tail_hard_ratio=tail_mean_hard_ratio(metrics),
        fg_gate_mean=fg_gate_mean,
        bg_gate_mean=bg_gate_mean,
        gate_gap=fg_gate_mean - bg_gate_mean,
        logit_gap=logit_gap,
        final_state=state,
    )


def tail_mean_hard_ratio(metrics: tuple[MetricsRecord, ...]) -> float:
    """Mean hard ratio over the last quarter of the steps (0.0 if none)."""
    if not metrics:
        return 0.0
    tail = metrics[-math.ceil(len(metrics) / 4) :]
    return sum(r.hard_ratio for r in tail) / len(tail)


@dataclass(frozen=True)
class ExperimentReport:
    """Multi-seed runs of one or more variants on shared scene pools.

    runs[s] holds the results of configs, in order, at seed
    configs[0].seed + s.  The uplift statistics compare variant 1 with
    variant 0, so they need two or more variants.
    """

    configs: tuple[TrainConfig, ...]
    runs: tuple[tuple[RunResult, ...], ...]

    def uplifts(self) -> list[float]:
        if len(self.configs) < 2:
            raise DomainError(
                f"an uplift compares two variants; this report has {len(self.configs)}"
            )
        return [r[1].tail_hard_ratio - r[0].tail_hard_ratio for r in self.runs]

    def mean_uplift(self) -> float:
        ups = self.uplifts()
        return sum(ups) / len(ups) if ups else 0.0

    def uplift_wins(self) -> int:
        return sum(1 for u in self.uplifts() if u > 0)


# Fields allowed to differ between the variants of an experiment: the
# mechanism knobs, nothing else.
_PAIR_KNOBS = {"probanet_enabled", "th", "alpha"}


def run_experiment(
    configs: tuple[TrainConfig, ...],
    n_seeds: int,
    sim_config: SimConfig,
    on_seed: Callable[[tuple[RunResult, ...], object], None] | None = None,
    on_pool: Callable[[Scene], object] | None = None,
) -> ExperimentReport:
    """Train every config on identical scene pools over n_seeds seeds.

    Seed s is the seed configs[0].seed + s: its pool, built once, and
    every config trained on it; the pool and the sampler streams depend
    only on that seed, so the variants are compared draw for draw.
    on_seed gets each seed's results, in seed order, with the picklable
    value of on_pool(scene 0), run in the seed's process, or scene 0.

    Up to _worker_count() seeds train at once, in forked workers if two
    or more, sharing its processes equally.  A seed trains configs[0],
    then runs on_pool, whatever its share; configs[1:] train meanwhile in
    children forked from it if it has two or more processes, else after
    on_pool, in order.
    Outputs and the first failing seed's (then config's) exception,
    raised after on_seed ran for the seeds before it, are as in-process;
    no child outlives the call, nor, on Linux, its parent.
    """
    if not configs:
        raise ConfigError("run_experiment needs at least one config")
    if n_seeds < 1:
        raise ConfigError(f"n_seeds must be >= 1, got {n_seeds}")
    for config in configs[1:]:
        for f in fields(TrainConfig):
            if f.name in _PAIR_KNOBS:
                continue
            if getattr(configs[0], f.name) != getattr(config, f.name):
                raise ConfigError(
                    f"configs may differ only in {sorted(_PAIR_KNOBS)}; "
                    f"field {f.name} differs"
                )
    for config in configs:
        _check_gate_geometry(config, sim_config)
    first = int(configs[0].seed)
    if first + n_seeds > _SEED_END:
        raise ConfigError(
            f"{n_seeds} seeds from {first} run past 2**64 - 1", field="seed"
        )
    budget = _worker_count()
    at_once = min(n_seeds, budget)
    share = budget // at_once
    train = functools.partial(_train_seed, configs, sim_config, share, on_pool)
    seeds = ((f"seed {seed}", seed) for seed in range(first, first + n_seeds))
    runs = []
    with _fork_map(train, seeds, at_once if at_once > 1 else 0) as replies:
        for results, scene0 in replies:
            if on_seed is not None:
                on_seed(results, scene0)
            runs.append(results)
    return ExperimentReport(configs=tuple(configs), runs=tuple(runs))


def variant_name(config: TrainConfig) -> str:
    return "probanet" if config.probanet_enabled else "baseline"


def _train_seed(
    configs: tuple[TrainConfig, ...], sim_config: SimConfig, cores: int, on_pool, seed
) -> tuple[tuple[RunResult, ...], object]:
    """One seed of run_experiment with cores processes: every config at
    that seed, trained on one pool built here on cores threads, and
    on_pool(scene 0)."""
    seeded = [replace(config, seed=seed) for config in configs]
    pool = build_scene_pool(seeded[0], sim_config, cores)
    train = functools.partial(run_training, sim_config=sim_config, pool=pool)
    export = functools.partial(on_pool or (lambda scene: scene), pool.scenes[0])
    rest = ((f"the {variant_name(c)} variant at seed {seed}", c) for c in seeded[1:])
    with _fork_map(train, rest, cores - 1) as replies:
        results = [train(seeded[0])]
        made = export()  # while any children train
        results.extend(replies)
    return tuple(results), made


def _worker_count() -> int:
    """Processes to run at once: the cores of this process's affinity set,
    one BLAS thread each; 1, in-process, where the BLAS is not pinned to
    one thread or the platform lacks fork or sched_getaffinity."""
    if not (_BLAS_PINNED and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def _fork_map(fn: Callable, jobs, width: int):
    """An iterator over fn(arg) for each (label, arg) of jobs, in order:
    computed here as asked for with width 0, else each in a child forked
    from here, at most width at once, the first on entry.  Exceptions are
    raised in job order; every child left on exit is killed and reaped."""
    if width == 0:
        yield (fn(arg) for _, arg in jobs)
        return
    jobs, pending = iter(jobs), deque()  # (label, pid, read end) per child

    def fork_more():
        for label, arg in itertools.islice(jobs, width - len(pending)):
            pending.append((label, *_fork(label, fn, arg)))

    def replies():
        while pending:
            reply = _join(*pending.popleft())
            fork_more()
            yield reply

    try:
        fork_more()
        yield replies()
    finally:
        for _, pid, fd in pending:
            os.kill(pid, signal.SIGKILL)
            os.close(fd)
            os.waitpid(pid, 0)


def _fork(label: str, fn: Callable, arg) -> tuple[int, int]:
    """Fork a child that pickles back fn(arg), or the exception it raised,
    or a ProbanetError naming label if that fails, and exits; its pid and
    the read end of its pipe.  On Linux it dies when this process dies."""
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:  # never return into the caller's loop, nor run its cleanup
            os.close(read_fd)
            if sys.platform == "linux":  # prctl(PR_SET_PDEATHSIG, SIGKILL)
                prctl = ctypes.CDLL(None).prctl
                prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
                prctl.restype = ctypes.c_int
                prctl(1, signal.SIGKILL)
            if os.getppid() != parent:  # died before the request took effect
                os._exit(1)
            try:
                reply = fn(arg)
            except Exception as exc:
                reply = exc
            try:
                payload = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                payload = pickle.dumps(ProbanetError(
                    f"the reply of the worker training {label} does not "
                    f"pickle: {type(exc).__name__}: {exc}"
                ))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    return pid, read_fd


def _join(label: str, pid: int, read_fd: int):
    """Reap the child training label and return its reply, or raise the
    exception it sent back."""
    try:
        with os.fdopen(read_fd, "rb") as fh:
            payload = fh.read()
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise ProbanetError(
            f"the worker training {label} exited with status {status} "
            "without a result"
        )
    reply = pickle.loads(payload)
    if isinstance(reply, Exception):
        raise reply
    return reply
