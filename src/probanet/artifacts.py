"""Run-directory emission: metrics CSV, resolved config, scene exports,
and the two heatmap products (a normalized gate-weight image and a scene
overlay outlining the top-weighted anchors); and an experiment's summary
CSV.

Everything written here is a deterministic function of the run's config
and seed; repeated runs reproduce every file byte for byte.
"""

from __future__ import annotations

import math
import os
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .config import format_config
from .errors import DomainError
from .netpbm import write_pgm, write_ppm
from .sim import Scene, SimConfig, anchor_boxes, boxes_csv
from .tensor import dump_feature_map
from .training import (
    _METRIC_NAMES,
    ExperimentReport,
    MetricsRecord,
    RunResult,
    TrainConfig,
    TrainState,
    gate_weights,
    variant_name,
)

# File names read or written outside this module: a run directory's
# config, and the experiment's summary beside the run directories.
RESOLVED_CONFIG = "resolved-config.txt"
SUMMARY_CSV = "summary.csv"

# metrics.csv's columns: the fields of MetricsRecord, in order.
METRICS_HEADER = ",".join(_METRIC_NAMES)
SUMMARY_HEADER = (
    "seed,baseline_hard_ratio,probanet_hard_ratio,hard_ratio_uplift,"
    "baseline_gate_gap,probanet_gate_gap,baseline_logit_gap,probanet_logit_gap"
)


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
    take = int(math.ceil(fraction * flat.size))
    return np.argsort(-flat, kind="stable")[:take]


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
    anchors: np.ndarray,
    weights: np.ndarray,
    step: int,
    scale: int = 16,
    raw: bool = True,
) -> bytes:
    """Scene energy in gray with top-5% anchors in blue, top-1% in red.

    anchors holds the anchor boxes (sim.anchor_boxes) in the flat order
    of weights.  Red is drawn over blue, so the highest-weighted anchors
    always show red even where the sets overlap.
    """
    energy = scene.features.mean(axis=2)
    gray, lo, hi = normalize_gray(energy)
    img = np.repeat(gray[:, :, None], 3, axis=2)
    for fraction, color in ((0.05, (0, 0, 255)), (0.01, (255, 0, 0))):
        _outline(img, anchors[:, top_fraction_indices(weights, fraction)], color)
    comments = [
        f"scene {scene.seed} feature energy with top-weighted anchors, "
        f"after step {step}",
        "blue outline: top 5% anchor weights; red outline: top 1%",
        f"normalization: per-image min-max, min={lo!r} max={hi!r}",
    ]
    return write_ppm(upscale(img, scale), raw=raw, comments=comments)


def _outline(img: np.ndarray, boxes: np.ndarray, color) -> None:
    """Draw the edge of each (4, n) box, in pixel cells, clipped to img."""
    h, w = img.shape[:2]
    # floor(x + 0.5) rounds half always up, keeping box edges consistent
    # across the half-integer anchor coordinates.
    x0, y0, x1, y1 = np.floor(boxes + 0.5)
    cols = np.clip([x0, x1 - 1], 0, w - 1).astype(int).T.tolist()
    rows = np.clip([y0, y1 - 1], 0, h - 1).astype(int).T.tolist()
    for (x0, x1), (y0, y1) in zip(cols, rows):
        img[y0, x0 : x1 + 1] = color
        img[y1, x0 : x1 + 1] = color
        img[y0 : y1 + 1, x0] = color
        img[y0 : y1 + 1, x1] = color


def gate_weights_for(state: TrainState, scene: Scene) -> np.ndarray:
    """training.gate_weights of one scene's cells as an (H, W, K) grid."""
    rows = scene.features.reshape(-1, scene.features.shape[2])
    return gate_weights(state, rows).reshape(scene.features.shape[:2] + (-1,))


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
    weights = gate_weights_for(state, scene)
    return {
        f"gate_step{step}_ch{channel}.pgm": render_gate_pgm(
            weights[:, :, channel], channel, step, scale=scale, raw=raw
        ),
        f"overlay_step{step}_ch{channel}.ppm": render_overlay_ppm(
            scene, anchor_boxes(sim_config), weights, step, scale=scale, raw=raw
        ),
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
    return SceneExport(scene, dump_feature_map(scene.features), boxes_csv(scene))


def write_seed_dirs(
    out_dir: str,
    results: list[RunResult],
    sim_config: SimConfig,
    export: SceneExport,
) -> list[str]:
    """Write the run directories of results trained on one seed's pool,
    one out_dir/<variant>_seed<seed>/ per result, creating out_dir if
    need be; export is that of the pool's scene 0.  Raises DomainError,
    before writing anything, if two results share a run-directory name.
    """
    names = [run_dir_name(result.config) for result in results]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        raise DomainError(f"results share a run directory: {', '.join(shared)}")
    run_dirs = [os.path.join(out_dir, name) for name in names]
    for result, run_dir in zip(results, run_dirs):
        os.makedirs(run_dir, exist_ok=True)
        files = {
            "metrics.csv": metrics_csv(result.metrics),
            RESOLVED_CONFIG: format_config(result.config, sim_config),
            "scene0_features.txt": export.features,
            "scene0_boxes.csv": export.boxes,
            **heatmap_files(
                result.final_state, export.scene, sim_config, channel=0,
                step=result.config.total_steps,
            ),
        }
        write_files(run_dir, files)
    return run_dirs


def write_files(directory: str, files: dict[str, str | bytes]) -> list[str]:
    """Write each payload to directory/name, in order, text encoded in
    ASCII; the paths written."""
    paths = [os.path.join(directory, name) for name in files]
    for path, payload in zip(paths, files.values()):
        with open(path, "wb") as fh:
            fh.write(payload.encode("ascii") if isinstance(payload, str) else payload)
    return paths


def metrics_csv(metrics: tuple[MetricsRecord, ...]) -> str:
    """metrics.csv: one row per step, under METRICS_HEADER."""
    return _csv_table(METRICS_HEADER, map(attrgetter(*_METRIC_NAMES), metrics))


def summary_csv(report: ExperimentReport) -> str:
    """summary.csv: one row per seed comparing variant 1 with variant 0,
    under SUMMARY_HEADER."""
    rows = (
        (
            base.config.seed, base.tail_hard_ratio, variant.tail_hard_ratio,
            uplift, base.gate_gap, variant.gate_gap,
            base.logit_gap, variant.logit_gap,
        )
        for (base, variant, *_), uplift in zip(report.runs, report.uplifts())
    )
    return _csv_table(SUMMARY_HEADER, rows)


def _csv_table(header: str, rows) -> str:
    """The header line, one line of comma-separated reprs per row, which
    read back exactly, and a trailing newline."""
    lines = [header, *(",".join(map(repr, row)) for row in rows)]
    return "\n".join(lines) + "\n"
