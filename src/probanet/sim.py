"""Synthetic proposal-imbalance world: scenes with planted objects on a
noise floor, the boxes of a dense anchor grid, overlap-based labeling
with easy/hard difficulty tags, and the fixed-ratio mini-batch sampler.

Everything is a pure function of (config, seed): scene geometry, features,
labels, and sampling are all reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    EmptyPoolError,
    require_field,
    require_field_kinds,
)
from .rng import _BLOCK, SplitMix64
from .tensor import FeatureMap

BG, FG, IGNORE = 0, 1, 2

BATCH_SIZE = 256
FG_QUOTA = 64


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
        check = partial(require_field, self)

        def at_least(name: str, other: str) -> None:
            low = getattr(self, other)
            check(name, getattr(self, name) >= low, f"be >= {other} = {low}")

        for name in ("height", "width", "channels"):
            check(name, getattr(self, name) >= 1, "be >= 1")
        shapes = self.anchor_shapes
        check("anchor_shapes", bool(shapes), "hold at least one shape")
        check("anchor_shapes", min(map(min, shapes)) >= 1, "hold positive sizes")
        check("n_objects_min", self.n_objects_min >= 0, "be >= 0")
        at_least("n_objects_max", "n_objects_min")
        check("object_min_size", self.object_min_size >= 1, "be >= 1")
        at_least("object_max_size", "object_min_size")
        size_max, side = self.object_max_size, min(self.height, self.width)
        check("object_max_size", size_max <= side, f"be <= min(height, width) = {side}")
        for name in ("noise_level", "bump_amplitude", "core_amplitude"):
            check(name, getattr(self, name) >= 0, "be >= 0")
        at_least("gain_max", "gain_min")
        bg, fg = self.bg_iou, self.fg_iou
        check("bg_iou", bg > 0, "be > 0")  # background is an overlap below it
        check("fg_iou", bg <= fg <= 1, f"lie in [bg_iou = {bg}, 1]")
        check("hard_bg_lo", 0 <= self.hard_bg_lo <= bg, f"lie in [0, bg_iou = {bg}]")
        check("hard_fg_hi", fg <= self.hard_fg_hi <= 1, f"lie in [fg_iou = {fg}, 1]")
        check("scene_pool_size", self.scene_pool_size >= 1, "be >= 1")

    @property
    def anchors_per_cell(self) -> int:
        return len(self.anchor_shapes)


@dataclass(frozen=True)
class Scene:
    """Planted objects plus the synthesized feature map they produced.

    objects is a (4, n) float64 array of box corners in feature-grid
    units, rows x_min, y_min, x_max, y_max and one column per object.
    """

    objects: np.ndarray
    features: FeatureMap
    seed: int


def anchor_boxes(config: SimConfig) -> np.ndarray:
    """The corners of every anchor of config's grid as one read-only
    (4, H*W*K) array with rows x_min, y_min, x_max, y_max.

    Anchor (i, j, k) is anchor_shapes[k] centered at (i + 0.5, j + 0.5);
    border anchors may extend past the grid.  Columns are in row-major
    (i, j, k) order.  The array is built once per grid.
    """
    return _anchor_boxes(config.height, config.width, config.anchor_shapes)


@lru_cache(maxsize=8)
def _anchor_boxes(height: int, width: int, shapes) -> np.ndarray:
    bh, bw = np.array(shapes, dtype=np.float64).T
    cy = np.arange(height)[:, None, None] + 0.5
    cx = np.arange(width)[None, :, None] + 0.5
    boxes = np.empty((4, height, width, len(shapes)))
    boxes[0] = cx - bw / 2
    boxes[1] = cy - bh / 2
    boxes[2] = cx + bw / 2
    boxes[3] = cy + bh / 2
    return _read_only(boxes.reshape(4, -1))


@dataclass(frozen=True)
class LabelArrays:
    """Column-oriented labels, aligned with anchor_boxes' columns; is_fg
    and is_bg, the category's masks, are made on first use, read-only."""

    category: np.ndarray  # int8, BG/FG/IGNORE
    hard: np.ndarray  # bool
    iou: np.ndarray  # float64

    def __post_init__(self):
        if not (len(self.category) == len(self.hard) == len(self.iou)):
            raise DimensionError("label columns disagree in length")

    def __len__(self) -> int:
        return len(self.category)

    is_fg = cached_property(lambda self: _read_only(self.category == FG))
    is_bg = cached_property(lambda self: _read_only(self.category == BG))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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
    shape = (config.height, config.width, config.channels)
    return _synthesize_into(config, seed, np.empty(shape))


def _synthesize_into(config: SimConfig, seed: int, features: np.ndarray) -> Scene:
    """generate_scene into features, a C-contiguous (H, W, C) float64
    array; each cache-sized block of cells is drawn, then bumped."""
    rng = SplitMix64(seed)
    h, w, c = config.height, config.width, config.channels
    n = rng.randint(config.n_objects_min, config.n_objects_max)

    objects = np.empty((4, n))
    yc = np.arange(h, dtype=np.float64) + 0.5
    xc = np.arange(w, dtype=np.float64) + 0.5
    bumps = []  # per object: its (H*W, 1) halo and core amplitudes
    for o in range(n):
        bh = rng.randint(config.object_min_size, config.object_max_size)
        bw = rng.randint(config.object_min_size, config.object_max_size)
        y0 = rng.uniform_range(0.0, float(h - bh))
        x0 = rng.uniform_range(0.0, float(w - bw))
        y1, x1 = y0 + bh, x0 + bw
        objects[:, o] = x0, y0, x1, y1
        cy, cx = (y0 + y1) / 2, (x0 + x1) / 2
        sy, sx = (y1 - y0) / 2, (x1 - x0) / 2
        dy2 = (yc - cy)[:, None] ** 2
        dx2 = (xc - cx)[None, :] ** 2
        halo = np.exp(-(dy2 / (2 * sy * sy) + dx2 / (2 * sx * sx)))
        core = np.exp(-(dy2 / (2 * (sy / 2) ** 2) + dx2 / (2 * (sx / 2) ** 2)))
        bumps.append((config.bump_amplitude * halo.reshape(-1, 1),
                      config.core_amplitude * core.reshape(-1, 1)))

    gains = rng.uniform_range(config.gain_min, config.gain_max, (n, c))
    half = c // 2

    cells, rows = features.reshape(h * w, c), max(1, _BLOCK // c)
    term = np.empty((min(rows, h * w), c))
    for r0 in range(0, h * w, rows):
        block = cells[r0 : r0 + rows]
        t = term[: len(block)]
        rng.fill_uniform(block, -config.noise_level, config.noise_level)
        for (halo, core), gain in zip(bumps, gains):
            np.multiply(halo[r0 : r0 + rows], gain[:half], out=t[:, :half])
            np.multiply(core[r0 : r0 + rows], gain[half:], out=t[:, half:])
            block += t

    return Scene(objects=objects, features=features, seed=seed)


def label_arrays(scene: Scene, sim_config: SimConfig) -> LabelArrays:
    """Vectorized labeling of every anchor of sim_config's grid against
    every object, with sim_config's thresholds.

    Foreground: overlap >= fg_iou, or best-overlap anchor for an object.
    Background: overlap < bg_iou.  Anything between is ignored.  Hard
    means background inside [hard_bg_lo, bg_iou) or foreground inside
    [fg_iou, hard_fg_hi); best-overlap promotions below fg_iou are easy.
    """
    sc = sim_config
    ax0, ay0, ax1, ay1 = anchor_boxes(sc)
    n = ax0.size
    a_area = (ax1 - ax0) * (ay1 - ay0)
    ox0, oy0, ox1, oy1 = scene.objects
    o_area = (ox1 - ox0) * (oy1 - oy0)

    ix = np.minimum(ax1[:, None], ox1[None, :]) - np.maximum(ax0[:, None], ox0[None, :])
    iy = np.minimum(ay1[:, None], oy1[None, :]) - np.maximum(ay0[:, None], oy0[None, :])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    overlap = inter / (a_area[:, None] + o_area[None, :] - inter)

    best = overlap.max(axis=1, initial=0.0)  # 0.0 in a scene without objects
    category = np.full(n, IGNORE, dtype=np.int8)
    category[best < sc.bg_iou] = BG
    category[best >= sc.fg_iou] = FG
    # Best-overlap promotion keeps every object owned by at least one
    # foreground anchor even when no anchor clears the threshold.
    argmax_anchors = overlap.argmax(axis=0)
    positive = overlap[argmax_anchors, np.arange(ox0.size)] > 0.0
    category[argmax_anchors[positive]] = FG

    is_fg = category == FG
    is_bg = category == BG
    hard = (is_bg & (best >= sc.hard_bg_lo)) | (
        is_fg & (best >= sc.fg_iou) & (best < sc.hard_fg_hi)
    )
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


def sample_minibatch(labels: LabelArrays, keep_mask, rng: SplitMix64) -> MiniBatch:
    """Draw up to 256 anchors at a 64:192 foreground:background target.

    Candidates are fg/bg anchors with keep_mask true (ignores are never
    sampled).  A foreground shortfall is padded with extra background;
    sampling is uniform without replacement via random sort keys, with
    ties broken by pool order.  RNG consumption depends only on the two
    pool sizes, so equal pools reproduce equal batches.
    """
    n = len(labels)
    fg, bg = labels.is_fg, labels.is_bg
    if keep_mask is not None:
        mask = np.asarray(keep_mask, dtype=bool)
        mask = mask if mask.ndim == 1 else mask.ravel()
        if mask.size != n:
            raise DimensionError(
                f"keep_mask covers {mask.size} anchors, labels cover {n}"
            )
        fg, bg = fg & mask, bg & mask
    fg_pool, bg_pool = fg.nonzero()[0], bg.nonzero()[0]
    if bg_pool.size == 0:
        raise EmptyPoolError("no background anchors survive the mask")
    fg_take = min(FG_QUOTA, fg_pool.size)
    bg_take = min(BATCH_SIZE - fg_take, bg_pool.size)
    # The generator is counter-based: one draw equals fg_pool's, then bg_pool's.
    keys = rng.u64(fg_pool.size + bg_pool.size)
    fg_sel = _draw_without_replacement(fg_pool, fg_take, keys[: fg_pool.size])
    bg_sel = _draw_without_replacement(bg_pool, bg_take, keys[fg_pool.size :])
    return MiniBatch(
        indices=np.concatenate([fg_sel, bg_sel]),
        fg_count=fg_take,
        bg_count=bg_take,
    )


def _draw_without_replacement(
    pool: np.ndarray, take: int, keys: np.ndarray
) -> np.ndarray:
    """The first `take` of pool in a stable sort by keys, one per candidate.

    Only the candidates at or below the take-th smallest key can be
    picked, so only they are sorted; they stay in pool order, so ties at
    the cut resolve as in a sort of every key.
    """
    if 0 < take < pool.size:
        head = (keys <= np.partition(keys, take - 1)[take - 1]).nonzero()[0]
        pool, keys = pool[head], keys[head]
    return pool[keys.argsort(kind="stable")[:take]]


def hard_ratio(batch: MiniBatch, labels: LabelArrays) -> float:
    """Fraction of the batch tagged hard."""
    if batch.size == 0:
        raise DomainError("hard_ratio of an empty batch")
    return np.count_nonzero(labels.hard[batch.indices]) / batch.size


def boxes_csv(scene: Scene) -> str:
    """One object box per line: x_min,y_min,x_max,y_max."""
    lines = ["x_min,y_min,x_max,y_max"]
    for x0, y0, x1, y1 in scene.objects.T.tolist():
        lines.append(f"{x0!r},{y0!r},{x1!r},{y1!r}")
    return "\n".join(lines) + "\n"
