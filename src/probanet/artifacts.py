"""Run-directory emission: metrics CSV, resolved config, scene exports,
and the two heatmap products (a normalized gate-weight image and a scene
overlay outlining the top-weighted anchors).

Everything written here is a deterministic function of the run's config
and seed; repeated runs reproduce every file byte for byte.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np

from .config import format_config
from .errors import DomainError
from .gate import gate_forward
from .netpbm import write_pgm, write_ppm
from .sim import AnchorGrid, Scene, SimConfig, boxes_csv, grid_for
from .tensor import dump_feature_map
from .training import (
    SUMMARY_COLUMNS,
    ExperimentReport,
    RunResult,
    TrainConfig,
    TrainState,
    variant_name,
)

SUMMARY_HEADER = ",".join(SUMMARY_COLUMNS)


def normalize_gray(values: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Min-max map to 0..255; a constant input becomes uniform 128."""
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        return np.full(values.shape, 128, dtype=np.uint8), lo, hi
    scaled = np.floor((values - lo) / (hi - lo) * 255.0 + 0.5)
    return scaled.astype(np.uint8), lo, hi


def top_fraction_indices(weights: np.ndarray, fraction: float) -> np.ndarray:
    """Flat indices of the ceil(fraction * N) largest weights.

    Ties break toward the smaller flat index, which is (i, j, k) lexical
    order for a row-major weight map.
    """
    if not 0 < fraction <= 1:
        raise DomainError(f"fraction must lie in (0, 1], got {fraction}")
    flat = weights.ravel()
    n = flat.size
    take = int(math.ceil(fraction * n))
    order = np.lexsort((np.arange(n), -flat))
    return order[:take]


def upscale(img: np.ndarray, factor: int) -> np.ndarray:
    if factor < 1:
        raise DomainError(f"scale factor must be >= 1, got {factor}")
    return np.repeat(np.repeat(img, factor, axis=0), factor, axis=1)


def render_gate_pgm(
    t2_channel: np.ndarray,
    channel: int,
    step: int,
    scale: int = 16,
    raw: bool = True,
) -> bytes:
    """Grayscale heatmap of one gate-weight channel."""
    gray, lo, hi = normalize_gray(t2_channel)
    comments = [
        f"gate weights, channel {channel}, after step {step}",
        f"normalization: per-image min-max, min={lo!r} max={hi!r}",
    ]
    return write_pgm(upscale(gray, scale), raw=raw, comments=comments)


def render_overlay_ppm(
    scene: Scene,
    grid: AnchorGrid,
    weights: np.ndarray,
    step: int,
    scale: int = 16,
    raw: bool = True,
) -> bytes:
    """Scene energy in gray with top-5% anchors in blue, top-1% in red.

    Red is drawn over blue, so the highest-weighted anchors always show
    red even where the sets overlap.
    """
    energy = scene.features.mean(axis=2)
    gray, lo, hi = normalize_gray(energy)
    img = np.repeat(gray[:, :, None], 3, axis=2)
    top5 = top_fraction_indices(weights, 0.05)
    top1 = top_fraction_indices(weights, 0.01)
    for flat in top5:
        _outline(img, grid, int(flat), np.array([0, 0, 255], dtype=np.uint8))
    for flat in top1:
        _outline(img, grid, int(flat), np.array([255, 0, 0], dtype=np.uint8))
    comments = [
        f"scene {scene.seed} feature energy with top-weighted anchors, "
        f"after step {step}",
        "blue outline: top 5% anchor weights; red outline: top 1%",
        f"normalization: per-image min-max, min={lo!r} max={hi!r}",
    ]
    return write_ppm(upscale(img, scale), raw=raw, comments=comments)


def _outline(img: np.ndarray, grid: AnchorGrid, flat: int, color: np.ndarray):
    i, j, k = grid.position(flat)
    box = grid.anchor_box(i, j, k)
    h, w = img.shape[:2]
    # floor(x + 0.5) rounds half always up, keeping box edges consistent
    # across the half-integer anchor coordinates.
    y0 = int(np.clip(np.floor(box.y_min + 0.5), 0, h - 1))
    y1 = int(np.clip(np.floor(box.y_max + 0.5) - 1, 0, h - 1))
    x0 = int(np.clip(np.floor(box.x_min + 0.5), 0, w - 1))
    x1 = int(np.clip(np.floor(box.x_max + 0.5) - 1, 0, w - 1))
    img[y0, x0 : x1 + 1] = color
    img[y1, x0 : x1 + 1] = color
    img[y0 : y1 + 1, x0] = color
    img[y0 : y1 + 1, x1] = color


def gate_weights_for(
    state: TrainState, scene: Scene, sim_config: SimConfig
) -> np.ndarray:
    """Final gate weights for one scene, untruncated; all ones without a gate."""
    k = sim_config.anchors_per_cell
    shape = (sim_config.height, sim_config.width, k)
    if state.gate is None:
        return np.ones(shape)
    return gate_forward(scene.features, state.gate).t2


def heatmap_files(
    state: TrainState,
    scene: Scene,
    sim_config: SimConfig,
    channel: int,
    step: int,
    scale: int = 16,
    raw: bool = True,
) -> dict[str, bytes]:
    """Render both heatmap products for one scene at one channel."""
    k = sim_config.anchors_per_cell
    if not 0 <= channel < k:
        raise DomainError(f"channel must lie in [0, {k}), got {channel}")
    weights = gate_weights_for(state, scene, sim_config)
    grid = grid_for(sim_config)
    pgm = render_gate_pgm(
        weights[:, :, channel], channel, step, scale=scale, raw=raw
    )
    ppm = render_overlay_ppm(scene, grid, weights, step, scale=scale, raw=raw)
    return {
        f"gate_step{step}_ch{channel}.pgm": pgm,
        f"overlay_step{step}_ch{channel}.ppm": ppm,
    }


def run_dir_name(config: TrainConfig) -> str:
    return f"{variant_name(config)}_seed{config.seed}"


class SceneExport(NamedTuple):
    """A scene, its feature dump encoded in ASCII and its boxes CSV."""

    scene: Scene
    features: bytes
    boxes: str


def export_scene(scene: Scene) -> SceneExport:
    """The export of a pool's scene 0 as train writes it: its on_pool."""
    dump = dump_feature_map(scene.features).encode("ascii")
    return SceneExport(scene, dump, boxes_csv(scene))


def write_seed_dirs(
    out_dir: str,
    results: list[RunResult],
    sim_config: SimConfig,
    export: SceneExport,
) -> list[str]:
    """Write the run directories of results trained on one seed's pool,
    one out_dir/<variant>_seed<seed>/ per result, creating out_dir if
    need be; export is that of the pool's scene 0.
    """
    run_dirs = []
    for result in results:
        run_dir = os.path.join(out_dir, run_dir_name(result.config))
        os.makedirs(run_dir, exist_ok=True)
        _write_text(
            os.path.join(run_dir, "metrics.csv"), result.metrics.to_csv()
        )
        _write_text(
            os.path.join(run_dir, "resolved-config.txt"),
            format_config(result.config, sim_config),
        )
        _write_bytes(os.path.join(run_dir, "scene0_features.txt"), export.features)
        _write_text(os.path.join(run_dir, "scene0_boxes.csv"), export.boxes)
        files = heatmap_files(
            result.final_state,
            export.scene,
            sim_config,
            channel=0,
            step=result.config.total_steps,
        )
        for name, payload in files.items():
            _write_bytes(os.path.join(run_dir, name), payload)
        run_dirs.append(run_dir)
    return run_dirs


def summary_csv(report: ExperimentReport) -> str:
    lines = [SUMMARY_HEADER]
    for row in report.summary_rows():
        lines.append(",".join(repr(row[name]) for name in SUMMARY_COLUMNS))
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _write_bytes(path: str, payload: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(payload)
