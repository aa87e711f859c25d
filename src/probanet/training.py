"""Toy end-to-end training: a one-layer objectness head over gated,
truncated proposal maps, SGD with momentum, and a paired experiment
runner comparing a gated variant against a plain baseline.

The trainable parameters are the proposal head (a 1x1 convolution from
features to one logit source per anchor shape), the gate convolutions
when the gate is enabled, and a scalar affine (scale, shift) that turns
gathered proposal values into logits.  Scene features are data, never
parameters: their gradient is never formed.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, DomainError, EmptyPoolError, NumericError
from .gate import (
    GateParams,
    gate_backward,
    gate_forward,
    init_gate_params,
    probanet_loss,
    probanet_loss_grad_v,
    variance_constraint,
)
from .rng import SplitMix64, derive_seed
from .sim import (
    BG,
    FG,
    LabelArrays,
    Scene,
    SimConfig,
    as_label_arrays,
    generate_scene,
    grid_for,
    hard_ratio,
    label_arrays,
    sample_minibatch,
)
from .tensor import Conv1x1Params, FeatureMap, conv1x1_forward, conv1x1_param_grads

METRICS_HEADER = (
    "step,cls_loss,probanet_loss,variance,beta,hard_ratio,"
    "fg_gate_mean,bg_gate_mean,kept_fraction"
)


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
    variance_target: str = "gate"
    probanet_enabled: bool = True
    seed: int = 0
    lr_decay_every: int = 0
    lr_decay_factor: float = 0.1
    scenes_per_batch: int = 2

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epochs < 0 or self.steps_per_epoch < 0:
            raise ConfigError("epochs and steps_per_epoch must be >= 0")
        if not 0 <= self.alpha < 1:
            raise ConfigError(f"alpha must lie in [0, 1), got {self.alpha}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 <= self.th < 1:
            raise ConfigError(f"th must lie in [0, 1), got {self.th}")
        if self.r < 1:
            raise ConfigError(f"r must be >= 1, got {self.r}")
        if self.variance_target not in ("gate", "input"):
            raise ConfigError(
                f"variance_target must be 'gate' or 'input', got "
                f"{self.variance_target!r}"
            )
        if self.lr_decay_every < 0:
            raise ConfigError("lr_decay_every must be >= 0 (0 disables decay)")
        if not 0 < self.lr_decay_factor <= 1:
            raise ConfigError(
                f"lr_decay_factor must lie in (0, 1], got {self.lr_decay_factor}"
            )
        if self.scenes_per_batch < 1:
            raise ConfigError("scenes_per_batch must be >= 1")

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

    def is_finite(self) -> bool:
        """Whether every metric column after step is finite."""
        values = (
            self.cls_loss,
            self.probanet_loss,
            self.variance,
            self.beta,
            self.hard_ratio,
            self.fg_gate_mean,
            self.bg_gate_mean,
            self.kept_fraction,
        )
        return all(math.isfinite(v) for v in values)


@dataclass
class MetricsLog:
    """Per-step records, serialized as CSV under a fixed header."""

    records: list[MetricsRecord] = field(default_factory=list)

    def append(self, rec: MetricsRecord) -> None:
        if not rec.is_finite():
            raise NumericError(f"non-finite metrics at step {rec.step}: {rec}")
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_csv(self) -> str:
        lines = [METRICS_HEADER]
        for r in self.records:
            lines.append(
                f"{r.step},{r.cls_loss!r},{r.probanet_loss!r},{r.variance!r},"
                f"{r.beta!r},{r.hard_ratio!r},{r.fg_gate_mean!r},"
                f"{r.bg_gate_mean!r},{r.kept_fraction!r}"
            )
        return "\n".join(lines) + "\n"

    def tail_mean_hard_ratio(self, fraction: float = 0.25) -> float:
        """Mean hard ratio over the final `fraction` of steps (0.0 if empty)."""
        if not self.records:
            return 0.0
        n_tail = max(1, int(math.ceil(len(self.records) * fraction)))
        tail = self.records[-n_tail:]
        return sum(r.hard_ratio for r in tail) / len(tail)


@dataclass(frozen=True)
class LabeledScene:
    """A scene with its anchor labels precomputed (labels depend only on
    geometry, so they are fixed for the scene's lifetime)."""

    scene: Scene
    labels: LabelArrays


def prepare_scene(scene: Scene, sim_config: SimConfig) -> LabeledScene:
    grid = grid_for(sim_config)
    labels = label_arrays(
        scene,
        grid,
        fg_iou=sim_config.fg_iou,
        bg_iou=sim_config.bg_iou,
        hard_bg_lo=sim_config.hard_bg_lo,
        hard_fg_hi=sim_config.hard_fg_hi,
    )
    return LabeledScene(scene=scene, labels=labels)


def build_scene_pool(config: TrainConfig, sim_config: SimConfig) -> list[LabeledScene]:
    """Pre-generate the cycled pool of labeled scenes for one run seed."""
    return [
        prepare_scene(
            generate_scene(sim_config, derive_seed(config.seed, "scene", i)),
            sim_config,
        )
        for i in range(sim_config.scene_pool_size)
    ]


@dataclass
class TrainState:
    """All trainable parameters plus their momentum buffers."""

    head_weight: np.ndarray  # (anchors_per_cell, channels)
    head_bias: np.ndarray  # (anchors_per_cell,)
    scale: float
    shift: float
    gate: GateParams | None
    velocity: dict
    step: int = 0

    def head_conv(self) -> Conv1x1Params:
        return Conv1x1Params(weight=self.head_weight, bias=self.head_bias)


def init_state(config: TrainConfig, sim_config: SimConfig) -> TrainState:
    """Fresh parameters; the gate draws from its own seed stream so the
    baseline and gated variants start from the same head."""
    c = sim_config.channels
    k = sim_config.anchors_per_cell
    head_rng = SplitMix64(derive_seed(config.seed, "init"))
    s = 1.0 / np.sqrt(c)
    head_weight = head_rng.uniform_range(-s, s, (k, c))
    head_bias = np.zeros(k)  # fixed at zero; shift carries any offset
    gate = None
    velocity = {
        "head_weight": np.zeros_like(head_weight),
        "scale": 0.0,
        "shift": 0.0,
    }
    if config.probanet_enabled:
        if c % config.r != 0:
            raise ConfigError(f"channels {c} not divisible by reduction {config.r}")
        gate_rng = SplitMix64(derive_seed(config.seed, "init-gate"))
        gate = init_gate_params(c, k, config.r, config.th, gate_rng)
        velocity.update(
            reduce_weight=np.zeros_like(gate.reduce_conv.weight),
            reduce_bias=np.zeros_like(gate.reduce_conv.bias),
            expand_weight=np.zeros_like(gate.expand_conv.weight),
            expand_bias=np.zeros_like(gate.expand_conv.bias),
        )
    return TrainState(
        head_weight=head_weight,
        head_bias=head_bias,
        scale=1.0,
        shift=0.0,
        gate=gate,
        velocity=velocity,
    )


def binary_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean stabilized BCE: max(z,0) - z*y + log(1 + e^-|z|)."""
    z, y = logits, targets
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(per.mean())


def binary_cross_entropy_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d(mean BCE)/d(logits) = (sigmoid(z) - y) / n."""
    z = logits
    sig = np.empty_like(z)
    pos = z >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    sig[~pos] = ez / (1.0 + ez)
    return (sig - targets) / z.size


def head_forward(
    b: FeatureMap, labels, batch, scale: float, shift: float
) -> tuple[np.ndarray, float]:
    """Logits for the sampled anchors and their mean BCE against fg/bg.

    Each sampled anchor's logit is the truncated proposal value at its
    (i, j, k), pushed through the scalar affine scale*value + shift.
    """
    if batch.size == 0:
        raise DomainError("head_forward on an empty batch")
    arrs = as_label_arrays(labels)
    values = b.ravel()[batch.indices]
    logits = scale * values + shift
    targets = (arrs.category[batch.indices] == FG).astype(np.float64)
    return logits, binary_cross_entropy(logits, targets)


def evaluate_separation(t2: FeatureMap, labels) -> tuple[float, float, float]:
    """Mean gate weight over fg anchors, over bg anchors, and their gap."""
    arrs = as_label_arrays(labels)
    flat = t2.ravel()
    if flat.size != len(arrs):
        raise DomainError(
            f"gate map covers {flat.size} anchors, labels cover {len(arrs)}"
        )
    fg_sel = arrs.category == FG
    bg_sel = arrs.category == BG
    if not fg_sel.any():
        raise DomainError("no foreground anchors to evaluate")
    if not bg_sel.any():
        raise DomainError("no background anchors to evaluate")
    fg_mean = float(flat[fg_sel].mean())
    bg_mean = float(flat[bg_sel].mean())
    return fg_mean, bg_mean, fg_mean - bg_mean


def train_step(
    state: TrainState, scenes, config: TrainConfig
) -> tuple[TrainState, MetricsRecord]:
    """One SGD step over one or more scenes sharing a single mini-batch.

    Forward: head conv per scene, gate (when enabled), truncation,
    fixed-ratio sampling over the union of the scenes' surviving anchors,
    scalar-affine logits, mean BCE.  The auxiliary variance loss feeds
    its gradient into the gate weights; its coefficient is recomputed
    from the current classification loss and treated as a constant.
    """
    if isinstance(scenes, LabeledScene):
        scenes = [scenes]
    if not scenes:
        raise DomainError("train_step needs at least one scene")
    step = state.step
    head = state.head_conv()

    a_maps, outs, keeps = [], [], []
    for ls in scenes:
        a = conv1x1_forward(ls.scene.features, head)
        if state.gate is not None:
            out = gate_forward(ls.scene.features, a, state.gate, mode="train")
            a_maps.append(a)
            outs.append(out)
            keeps.append(out.keep_mask.ravel())
        else:
            a_maps.append(a)
            outs.append(None)
            keeps.append(np.ones(a.size, dtype=bool))

    labels = _concat_labels([ls.labels for ls in scenes])
    mask = np.concatenate(keeps)
    kept_fraction = float(mask.mean())
    where = f"step {step}, seed {config.seed}, kept fraction {kept_fraction:.4g}"
    rng = SplitMix64(derive_seed(config.seed, "sampler", step))
    try:
        batch = sample_minibatch(labels, mask, rng)
    except EmptyPoolError as exc:
        raise EmptyPoolError(f"{exc} at {where}") from exc

    b_flat = np.concatenate(
        [(outs[i].b if outs[i] is not None else a_maps[i]).ravel()
         for i in range(len(scenes))]
    )
    values = b_flat[batch.indices]
    logits = state.scale * values + state.shift
    targets = (labels.category[batch.indices] == FG).astype(np.float64)
    cls_loss = binary_cross_entropy(logits, targets)

    # Auxiliary loss bookkeeping (the gradient enters through grad_t2).
    aux_loss, beta, variance = 0.0, 0.0, 0.0
    grad_v_coeff, grad_v = 0.0, None
    if state.gate is not None:
        if config.variance_target == "input":
            v_src = np.concatenate([ls.scene.features.ravel() for ls in scenes])
        else:
            v_src = np.concatenate([out.t2.ravel() for out in outs])
        variance, grad_v = variance_constraint(v_src, config.epsilon)
        if config.alpha > 0.0:
            terms = probanet_loss(variance, cls_loss, config.alpha)
            aux_loss, beta = terms.probanet_loss, terms.beta
            if config.variance_target == "gate":
                grad_v_coeff = probanet_loss_grad_v(variance, cls_loss, config.alpha)

    if state.gate is not None:
        t2_flat = np.concatenate([out.t2.ravel() for out in outs])
        fg_sel = labels.category == FG
        bg_sel = labels.category == BG
        fg_gate_mean = float(t2_flat[fg_sel].mean()) if fg_sel.any() else 0.0
        bg_gate_mean = float(t2_flat[bg_sel].mean()) if bg_sel.any() else 0.0
    else:
        fg_gate_mean, bg_gate_mean = 1.0, 1.0
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
    if not record.is_finite():
        raise NumericError(f"non-finite metrics at {where}: {record}")

    # Backward.
    dlogits = binary_cross_entropy_grad(logits, targets)
    grads = {
        "scale": float(np.dot(dlogits, values)),
        "shift": float(dlogits.sum()),
        "head_weight": np.zeros_like(state.head_weight),
    }
    if state.gate is not None:
        grads.update(
            reduce_weight=np.zeros_like(state.gate.reduce_conv.weight),
            reduce_bias=np.zeros_like(state.gate.reduce_conv.bias),
            expand_weight=np.zeros_like(state.gate.expand_conv.weight),
            expand_bias=np.zeros_like(state.gate.expand_conv.bias),
        )
    grad_b_flat = np.zeros_like(b_flat)
    grad_b_flat[batch.indices] = state.scale * dlogits

    offset = 0
    for i, ls in enumerate(scenes):
        size = a_maps[i].size
        grad_b = grad_b_flat[offset : offset + size].reshape(a_maps[i].shape)
        if state.gate is not None:
            grad_t2 = None
            if grad_v is not None and grad_v_coeff != 0.0:
                grad_t2 = (
                    grad_v_coeff * grad_v[offset : offset + size]
                ).reshape(a_maps[i].shape)
            _, grad_a, ggrads = gate_backward(
                outs[i], ls.scene.features, a_maps[i], state.gate, grad_b, grad_t2
            )
            grads["reduce_weight"] += ggrads.reduce_weight
            grads["reduce_bias"] += ggrads.reduce_bias
            grads["expand_weight"] += ggrads.expand_weight
            grads["expand_bias"] += ggrads.expand_bias
        else:
            grad_a = grad_b
        # The proposal-map bias stays at zero: the scalar affine's shift
        # already models a batch-wide offset, and a trainable per-map bias
        # feeds every cell the same constant, drowning per-cell contrast.
        gw, _ = conv1x1_param_grads(ls.scene.features, head, grad_a)
        grads["head_weight"] += gw
        offset += size

    _sgd_update(state, grads, config)
    state.step += 1
    return state, record


def _concat_labels(parts: list[LabelArrays]) -> LabelArrays:
    if len(parts) == 1:
        return parts[0]
    return LabelArrays(
        category=np.concatenate([p.category for p in parts]),
        hard=np.concatenate([p.hard for p in parts]),
        iou=np.concatenate([p.iou for p in parts]),
    )


def _sgd_update(state: TrainState, grads: dict, config: TrainConfig) -> None:
    """v <- momentum*v - lr*(g + weight_decay*w); w <- w + v, every param."""
    lr = config.learning_rate_at(state.step)
    mom, wd = config.momentum, config.weight_decay

    def upd(value, g, vel):
        new_vel = mom * vel - lr * (g + wd * value)
        return value + new_vel, new_vel

    state.head_weight, state.velocity["head_weight"] = upd(
        state.head_weight, grads["head_weight"], state.velocity["head_weight"]
    )
    state.scale, state.velocity["scale"] = upd(
        state.scale, grads["scale"], state.velocity["scale"]
    )
    state.shift, state.velocity["shift"] = upd(
        state.shift, grads["shift"], state.velocity["shift"]
    )
    if state.gate is not None:
        rw, state.velocity["reduce_weight"] = upd(
            state.gate.reduce_conv.weight,
            grads["reduce_weight"],
            state.velocity["reduce_weight"],
        )
        rb, state.velocity["reduce_bias"] = upd(
            state.gate.reduce_conv.bias,
            grads["reduce_bias"],
            state.velocity["reduce_bias"],
        )
        ew, state.velocity["expand_weight"] = upd(
            state.gate.expand_conv.weight,
            grads["expand_weight"],
            state.velocity["expand_weight"],
        )
        eb, state.velocity["expand_bias"] = upd(
            state.gate.expand_conv.bias,
            grads["expand_bias"],
            state.velocity["expand_bias"],
        )
        state.gate = GateParams(
            reduce_conv=Conv1x1Params(weight=rw, bias=rb),
            expand_conv=Conv1x1Params(weight=ew, bias=eb),
            reduction=state.gate.reduction,
            threshold=state.gate.threshold,
        )


@dataclass(frozen=True)
class RunResult:
    """One trained variant: its log plus final-state evaluations."""

    config: TrainConfig
    metrics: MetricsLog
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
    pool: list[LabeledScene] | None = None,
) -> tuple[TrainState, list[LabeledScene], MetricsLog]:
    """Train from scratch for a given number of steps (replay helper)."""
    if steps < 0 or steps > config.total_steps:
        raise ConfigError(
            f"steps must lie in [0, {config.total_steps}], got {steps}"
        )
    if pool is None:
        pool = build_scene_pool(config, sim_config)
    state = init_state(config, sim_config)
    log = MetricsLog()
    p = len(pool)
    spb = config.scenes_per_batch
    for step in range(steps):
        scenes = [pool[(spb * step + j) % p] for j in range(spb)]
        state, record = train_step(state, scenes, config)
        log.append(record)
    return state, pool, log


def run_training(
    config: TrainConfig,
    sim_config: SimConfig,
    pool: list[LabeledScene] | None = None,
) -> RunResult:
    """Train one variant from scratch and evaluate its final state."""
    state, pool, log = run_partial(config, sim_config, config.total_steps, pool)
    return _finalize_run(config, state, pool, log)


def _finalize_run(
    config: TrainConfig,
    state: TrainState,
    pool: list[LabeledScene],
    log: MetricsLog,
) -> RunResult:
    head = state.head_conv()
    fg_t2, bg_t2, fg_z, bg_z = [], [], [], []
    for ls in pool:
        a = conv1x1_forward(ls.scene.features, head)
        if state.gate is not None:
            out = gate_forward(ls.scene.features, a, state.gate, mode="test")
            t2_flat = out.t2.ravel()
            b_flat = out.b.ravel()
        else:
            t2_flat = np.ones(a.size)
            b_flat = a.ravel()
        z = state.scale * b_flat + state.shift
        fg_sel = ls.labels.category == FG
        bg_sel = ls.labels.category == BG
        fg_t2.append(t2_flat[fg_sel])
        bg_t2.append(t2_flat[bg_sel])
        fg_z.append(z[fg_sel])
        bg_z.append(z[bg_sel])
    fg_t2 = np.concatenate(fg_t2)
    bg_t2 = np.concatenate(bg_t2)
    fg_z = np.concatenate(fg_z)
    bg_z = np.concatenate(bg_z)
    fg_gate_mean = float(fg_t2.mean()) if fg_t2.size else 0.0
    bg_gate_mean = float(bg_t2.mean()) if bg_t2.size else 0.0
    logit_gap = (
        float(fg_z.mean() - bg_z.mean()) if fg_z.size and bg_z.size else 0.0
    )
    return RunResult(
        config=config,
        metrics=log,
        tail_hard_ratio=log.tail_mean_hard_ratio(),
        fg_gate_mean=fg_gate_mean,
        bg_gate_mean=bg_gate_mean,
        gate_gap=fg_gate_mean - bg_gate_mean,
        logit_gap=logit_gap,
        final_state=state,
    )


@dataclass(frozen=True)
class SeedPair:
    seed: int
    baseline: RunResult
    variant: RunResult


@dataclass(frozen=True)
class ExperimentReport:
    """Paired multi-seed comparison between two variants."""

    baseline_config: TrainConfig
    variant_config: TrainConfig
    sim_config: SimConfig
    pairs: list[SeedPair]

    def uplifts(self) -> list[float]:
        return [
            p.variant.tail_hard_ratio - p.baseline.tail_hard_ratio
            for p in self.pairs
        ]

    def mean_uplift(self) -> float:
        ups = self.uplifts()
        return sum(ups) / len(ups) if ups else 0.0

    def uplift_wins(self) -> int:
        return sum(1 for u in self.uplifts() if u > 0)

    def gap_wins(self) -> int:
        return sum(
            1 for p in self.pairs if p.variant.gate_gap >= p.baseline.gate_gap
        )

    def summary_rows(self) -> list[dict]:
        rows = []
        for p in self.pairs:
            rows.append(
                {
                    "seed": p.seed,
                    "baseline_hard_ratio": p.baseline.tail_hard_ratio,
                    "probanet_hard_ratio": p.variant.tail_hard_ratio,
                    "hard_ratio_uplift": (
                        p.variant.tail_hard_ratio - p.baseline.tail_hard_ratio
                    ),
                    "baseline_gate_gap": p.baseline.gate_gap,
                    "probanet_gate_gap": p.variant.gate_gap,
                    "baseline_logit_gap": p.baseline.logit_gap,
                    "probanet_logit_gap": p.variant.logit_gap,
                }
            )
        return rows


# Fields allowed to differ between the two sides of a paired experiment:
# the mechanism knobs, nothing else.
_PAIR_KNOBS = {"probanet_enabled", "th", "alpha"}


def run_experiment(
    config_baseline: TrainConfig,
    config_variant: TrainConfig,
    n_seeds: int,
    sim_config: SimConfig | None = None,
    on_pair: Callable[[SeedPair, list[LabeledScene]], None] | None = None,
) -> ExperimentReport:
    """Train both variants on identical scene pools over n_seeds seeds.

    Seed s of the experiment runs both configs with seed field
    config.seed + s; the scene pool and the sampler streams depend only
    on that seed, so the comparison is paired draw for draw.  Each seed's
    pool is built once; on_pair, when given, receives the seed's pair and
    pool before the next seed starts, and no pool outlives its seed.
    """
    if n_seeds < 1:
        raise ConfigError(f"n_seeds must be >= 1, got {n_seeds}")
    if sim_config is None:
        sim_config = SimConfig()
    for f in fields(TrainConfig):
        if f.name in _PAIR_KNOBS:
            continue
        if getattr(config_baseline, f.name) != getattr(config_variant, f.name):
            raise ConfigError(
                f"paired configs may differ only in {sorted(_PAIR_KNOBS)}; "
                f"field {f.name} differs"
            )
    pairs = []
    for s in range(n_seeds):
        seed = config_baseline.seed + s
        cfg_b = replace(config_baseline, seed=seed)
        cfg_v = replace(config_variant, seed=seed)
        pool = build_scene_pool(cfg_b, sim_config)
        base = run_training(cfg_b, sim_config, pool)
        variant = run_training(cfg_v, sim_config, pool)
        pair = SeedPair(seed=seed, baseline=base, variant=variant)
        if on_pair is not None:
            on_pair(pair, pool)
        pairs.append(pair)
    return ExperimentReport(
        baseline_config=config_baseline,
        variant_config=config_variant,
        sim_config=sim_config,
        pairs=pairs,
    )
