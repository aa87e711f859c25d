"""Synthetic proposal-imbalance world: scenes with planted objects on a
noise floor, a dense anchor grid, overlap-based labeling with easy/hard
difficulty tags, and the fixed-ratio mini-batch sampler.

Everything is a pure function of (config, seed): scene geometry, features,
labels, and sampling are all reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    EmptyPoolError,
    require_field_kinds,
)
from .rng import SplitMix64
from .tensor import FeatureMap

BG, FG, IGNORE = 0, 1, 2

BATCH_SIZE = 256
FG_QUOTA = 64


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in feature-grid units."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise DomainError(
                f"degenerate box ({self.x_min}, {self.y_min}, "
                f"{self.x_max}, {self.y_max})"
            )


@dataclass(frozen=True)
class SimConfig:
    """Scene generator and labeling parameters.

    Feature maps are height x width x channels.  Each anchor shape is a
    (box_height, box_width) pair; one anchor of each shape sits at every
    grid cell, so the proposal map has len(anchor_shapes) channels.
    """

    height: int = 16
    width: int = 16
    channels: int = 128
    anchor_shapes: tuple[tuple[int, int], ...] = ((3, 3),)
    n_objects_min: int = 2
    n_objects_max: int = 4
    object_min_size: int = 2
    object_max_size: int = 4
    bump_amplitude: float = 0.4
    core_amplitude: float = 2.2
    noise_level: float = 0.3
    gain_min: float = 0.5
    gain_max: float = 1.5
    fg_iou: float = 0.7
    bg_iou: float = 0.3
    hard_bg_lo: float = 0.1
    hard_fg_hi: float = 0.75
    scene_pool_size: int = 64

    def __post_init__(self):
        require_field_kinds(self)
        if self.height < 1 or self.width < 1 or self.channels < 1:
            raise ConfigError(
                f"grid must be positive, got {self.height}x{self.width}"
                f"x{self.channels}"
            )
        if not self.anchor_shapes:
            raise ConfigError("at least one anchor shape is required")
        for h, w in self.anchor_shapes:
            if h < 1 or w < 1:
                raise ConfigError(f"bad anchor shape ({h}, {w})")
        if not 0 <= self.n_objects_min <= self.n_objects_max:
            raise ConfigError(
                f"bad object count range [{self.n_objects_min}, "
                f"{self.n_objects_max}]"
            )
        if not 1 <= self.object_min_size <= self.object_max_size:
            raise ConfigError(
                f"bad object size range [{self.object_min_size}, "
                f"{self.object_max_size}]"
            )
        if self.object_max_size > min(self.height, self.width):
            raise ConfigError(
                f"objects up to {self.object_max_size} cells do not fit a "
                f"{self.height}x{self.width} grid"
            )
        if self.noise_level < 0 or self.bump_amplitude < 0 or self.core_amplitude < 0:
            raise ConfigError("noise, bump and core amplitudes must be >= 0")
        if not self.gain_min <= self.gain_max:
            raise ConfigError(f"bad gain range [{self.gain_min}, {self.gain_max}]")
        if not 0 <= self.bg_iou <= self.fg_iou <= 1:
            raise ConfigError(
                f"need 0 <= bg_iou <= fg_iou <= 1, got {self.bg_iou}, {self.fg_iou}"
            )
        if not 0 <= self.hard_bg_lo <= self.bg_iou:
            raise ConfigError(f"bad hard background band floor {self.hard_bg_lo}")
        if not self.fg_iou <= self.hard_fg_hi <= 1:
            raise ConfigError(f"bad hard foreground band ceiling {self.hard_fg_hi}")
        if self.scene_pool_size < 1:
            raise ConfigError("scene_pool_size must be >= 1")

    @property
    def anchors_per_cell(self) -> int:
        return len(self.anchor_shapes)


@dataclass(frozen=True)
class Scene:
    """Planted objects plus the synthesized feature map they produced."""

    objects: tuple[Box, ...]
    features: FeatureMap
    seed: int


@dataclass(frozen=True)
class AnchorGrid:
    """One anchor of every shape centered at each cell of an HxW grid.

    Anchor (i, j, k) is shapes[k] centered at (i + 0.5, j + 0.5); border
    anchors may extend past the grid.  Flat order is row-major (i, j, k).
    """

    height: int
    width: int
    shapes: tuple[tuple[int, int], ...]

    @property
    def n_anchors(self) -> int:
        return self.height * self.width * len(self.shapes)

    def anchor_box(self, i: int, j: int, k: int) -> Box:
        bh, bw = self.shapes[k]
        cy, cx = i + 0.5, j + 0.5
        return Box(cx - bw / 2, cy - bh / 2, cx + bw / 2, cy + bh / 2)

    def position(self, flat: int) -> tuple[int, int, int]:
        k = flat % len(self.shapes)
        rest = flat // len(self.shapes)
        return rest // self.width, rest % self.width, k

    def corner_arrays(self) -> tuple[np.ndarray, ...]:
        """(x_min, y_min, x_max, y_max) per anchor, each of length n_anchors."""
        kk = len(self.shapes)
        ii, jj, ks = np.meshgrid(
            np.arange(self.height), np.arange(self.width), np.arange(kk),
            indexing="ij",
        )
        bh = np.array([s[0] for s in self.shapes], dtype=np.float64)[ks]
        bw = np.array([s[1] for s in self.shapes], dtype=np.float64)[ks]
        cy, cx = ii + 0.5, jj + 0.5
        return (
            (cx - bw / 2).ravel(),
            (cy - bh / 2).ravel(),
            (cx + bw / 2).ravel(),
            (cy + bh / 2).ravel(),
        )


def grid_for(config: SimConfig) -> AnchorGrid:
    return AnchorGrid(
        height=config.height, width=config.width, shapes=config.anchor_shapes
    )


@dataclass(frozen=True)
class LabelArrays:
    """Column-oriented labels, aligned with AnchorGrid flat order."""

    category: np.ndarray  # int8, BG/FG/IGNORE
    hard: np.ndarray  # bool
    iou: np.ndarray  # float64

    def __post_init__(self):
        if not (len(self.category) == len(self.hard) == len(self.iou)):
            raise DimensionError("label columns disagree in length")

    def __len__(self) -> int:
        return len(self.category)


def generate_scene(config: SimConfig, seed: int) -> Scene:
    """Synthesize one scene, fully determined by (config, seed).

    Draw order is part of the determinism contract: object count, then
    per object (height, width, y corner, x corner), then the per-object
    per-channel bump gains as one block, then the noise floor as one
    block.

    Features are per-object Gaussian bumps at two spatial scales over a
    zero-mean uniform noise floor.  The first half of the channels
    holds a broad halo (sigma = half the object extent), so cells near
    an object are elevated but blend into the floor (the source of
    borderline anchors).  The second half holds a narrow core (sigma =
    a quarter extent) that dies off before the surrounding ring, a cue
    only object-centered anchors see.  The zero-mean floor keeps the
    flat background off both cue directions.
    """
    rng = SplitMix64(seed)
    h, w, c = config.height, config.width, config.channels
    n = rng.randint(config.n_objects_min, config.n_objects_max)

    boxes = []
    for _ in range(n):
        bh = rng.randint(config.object_min_size, config.object_max_size)
        bw = rng.randint(config.object_min_size, config.object_max_size)
        y0 = rng.uniform_range(0.0, float(h - bh))
        x0 = rng.uniform_range(0.0, float(w - bw))
        boxes.append(Box(x0, y0, x0 + bw, y0 + bh))

    gains = rng.uniform_range(config.gain_min, config.gain_max, (n, c))
    features = rng.uniform_range(
        -config.noise_level, config.noise_level, (h, w, c)
    )

    yc = np.arange(h, dtype=np.float64) + 0.5
    xc = np.arange(w, dtype=np.float64) + 0.5
    half = c // 2
    for o, box in enumerate(boxes):
        cy = (box.y_min + box.y_max) / 2
        cx = (box.x_min + box.x_max) / 2
        sy = (box.y_max - box.y_min) / 2
        sx = (box.x_max - box.x_min) / 2
        dy2 = (yc - cy)[:, None] ** 2
        dx2 = (xc - cx)[None, :] ** 2
        halo = np.exp(-(dy2 / (2 * sy * sy) + dx2 / (2 * sx * sx)))
        core = np.exp(-(dy2 / (2 * (sy / 2) ** 2) + dx2 / (2 * (sx / 2) ** 2)))
        features[:, :, :half] += (
            config.bump_amplitude * halo[:, :, None] * gains[o][None, None, :half]
        )
        features[:, :, half:] += (
            config.core_amplitude * core[:, :, None] * gains[o][None, None, half:]
        )

    return Scene(objects=tuple(boxes), features=features, seed=seed)


def label_arrays(
    scene: Scene,
    grid: AnchorGrid,
    *,
    fg_iou: float = 0.7,
    bg_iou: float = 0.3,
    hard_bg_lo: float = 0.1,
    hard_fg_hi: float = 0.75,
) -> LabelArrays:
    """Vectorized labeling of every anchor against every object.

    Foreground: overlap >= fg_iou, or best-overlap anchor for an object.
    Background: overlap < bg_iou.  Anything between is ignored.  Hard
    means background inside [hard_bg_lo, bg_iou) or foreground inside
    [fg_iou, hard_fg_hi); best-overlap promotions below fg_iou are easy.
    """
    n = grid.n_anchors
    if not scene.objects:
        return LabelArrays(
            category=np.full(n, BG, dtype=np.int8),
            hard=np.zeros(n, dtype=bool),
            iou=np.zeros(n, dtype=np.float64),
        )

    ax0, ay0, ax1, ay1 = grid.corner_arrays()
    a_area = (ax1 - ax0) * (ay1 - ay0)
    ox0 = np.array([b.x_min for b in scene.objects])
    oy0 = np.array([b.y_min for b in scene.objects])
    ox1 = np.array([b.x_max for b in scene.objects])
    oy1 = np.array([b.y_max for b in scene.objects])
    o_area = (ox1 - ox0) * (oy1 - oy0)

    ix = np.minimum(ax1[:, None], ox1[None, :]) - np.maximum(ax0[:, None], ox0[None, :])
    iy = np.minimum(ay1[:, None], oy1[None, :]) - np.maximum(ay0[:, None], oy0[None, :])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    overlap = inter / (a_area[:, None] + o_area[None, :] - inter)

    best = overlap.max(axis=1)
    category = np.full(n, IGNORE, dtype=np.int8)
    category[best < bg_iou] = BG
    category[best >= fg_iou] = FG
    # Best-overlap promotion keeps every object owned by at least one
    # foreground anchor even when no anchor clears the threshold.
    argmax_anchors = overlap.argmax(axis=0)
    positive = overlap[argmax_anchors, np.arange(len(scene.objects))] > 0.0
    category[argmax_anchors[positive]] = FG

    is_fg = category == FG
    is_bg = category == BG
    hard = (is_bg & (best >= hard_bg_lo)) | (is_fg & (best >= fg_iou) & (best < hard_fg_hi))
    return LabelArrays(category=category, hard=hard, iou=best)


@dataclass(frozen=True)
class MiniBatch:
    """Sampled anchor indices into the label sequence, foreground first."""

    indices: np.ndarray  # int64
    fg_count: int
    bg_count: int

    def __post_init__(self):
        if self.fg_count > FG_QUOTA:
            raise DomainError(f"fg_count {self.fg_count} exceeds quota {FG_QUOTA}")
        if self.fg_count + self.bg_count != len(self.indices):
            raise DimensionError("fg_count + bg_count must equal batch size")

    @property
    def size(self) -> int:
        return len(self.indices)


def sample_minibatch(
    labels: LabelArrays, keep_mask, rng: SplitMix64
) -> MiniBatch:
    """Draw up to 256 anchors at a 64:192 foreground:background target.

    Candidates are fg/bg anchors with keep_mask true (ignores are never
    sampled).  A foreground shortfall is padded with extra background;
    sampling is uniform without replacement via random sort keys, with
    ties broken by pool order.  RNG consumption depends only on the two
    pool sizes, so equal pools reproduce equal batches.
    """
    n = len(labels)
    if keep_mask is None:
        mask = np.ones(n, dtype=bool)
    else:
        mask = np.asarray(keep_mask, dtype=bool).ravel()
        if mask.size != n:
            raise DimensionError(
                f"keep_mask covers {mask.size} anchors, labels cover {n}"
            )
    fg_pool = np.flatnonzero((labels.category == FG) & mask)
    bg_pool = np.flatnonzero((labels.category == BG) & mask)
    if bg_pool.size == 0:
        raise EmptyPoolError("no background anchors survive the mask")
    fg_take = min(FG_QUOTA, fg_pool.size)
    bg_take = min(BATCH_SIZE - fg_take, bg_pool.size)
    fg_sel = _draw_without_replacement(fg_pool, fg_take, rng)
    bg_sel = _draw_without_replacement(bg_pool, bg_take, rng)
    return MiniBatch(
        indices=np.concatenate([fg_sel, bg_sel]),
        fg_count=fg_take,
        bg_count=bg_take,
    )


def _draw_without_replacement(
    pool: np.ndarray, take: int, rng: SplitMix64
) -> np.ndarray:
    """The first `take` of pool in a stable sort by one random key each.

    Only the candidates at or below the take-th smallest key can be
    picked, so only they are sorted; they stay in pool order, so ties at
    the cut resolve as in a sort of every key.  The draws depend on
    pool.size alone.
    """
    keys = rng.u64(pool.size)
    if 0 < take < pool.size:
        head = np.flatnonzero(keys <= np.partition(keys, take - 1)[take - 1])
        pool, keys = pool[head], keys[head]
    return pool[np.argsort(keys, kind="stable")[:take]]


def hard_ratio(batch: MiniBatch, labels: LabelArrays) -> float:
    """Fraction of the batch tagged hard."""
    if batch.size == 0:
        raise DomainError("hard_ratio of an empty batch")
    return float(labels.hard[batch.indices].sum()) / batch.size


def boxes_csv(scene: Scene) -> str:
    """One object box per line: x_min,y_min,x_max,y_max."""
    lines = ["x_min,y_min,x_max,y_max"]
    for b in scene.objects:
        lines.append(f"{b.x_min!r},{b.y_min!r},{b.x_max!r},{b.y_max!r}")
    return "\n".join(lines) + "\n"
