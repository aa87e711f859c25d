"""Tests for run-directory emission and heatmap rendering."""

import os
from dataclasses import replace

import numpy as np
import pytest
from reference import read_pgm, read_ppm

from probanet import DomainError, SimConfig, TrainConfig, run_experiment, run_training
from probanet.artifacts import (
    SUMMARY_HEADER,
    export_scene,
    gate_weights_for,
    heatmap_files,
    metrics_csv,
    normalize_gray,
    render_gate_pgm,
    render_overlay_ppm,
    run_dir_name,
    summary_csv,
    top_fraction_indices,
    upscale,
    variant_name,
    write_seed_dirs,
)
from probanet.sim import anchor_boxes, generate_scene
from probanet.training import build_scene_pool, init_state

SIM = SimConfig(
    height=4,
    width=4,
    channels=4,
    anchor_shapes=((3, 3),),
    n_objects_min=1,
    n_objects_max=1,
    object_min_size=2,
    object_max_size=2,
    scene_pool_size=2,
)

CONFIG = TrainConfig(
    epochs=1, steps_per_epoch=3, r=2, th=0.3, alpha=0.25, seed=5,
    scenes_per_batch=2,
)


def test_normalize_gray_endpoints_and_rounding():
    values = np.array([[0.0, 0.5, 1.0]])
    gray, lo, hi = normalize_gray(values)
    assert (lo, hi) == (0.0, 1.0)
    assert gray.dtype == np.uint8
    # 0.5 maps to 127.5 and rounds half up.
    assert gray.tolist() == [[0, 128, 255]]


def test_normalize_gray_constant_input():
    gray, lo, hi = normalize_gray(np.full((2, 2), 3.7))
    assert lo == hi == 3.7
    assert np.all(gray == 128)


def test_top_fraction_indices_with_ties():
    weights = np.array([0.5, 0.9, 0.5, 0.9, 0.1])
    top2 = top_fraction_indices(weights, 0.4)
    assert top2.tolist() == [1, 3]
    # A tie at the cut falls to the smaller flat index.
    top3 = top_fraction_indices(weights, 0.6)
    assert top3.tolist() == [1, 3, 0]
    everything = top_fraction_indices(weights, 1.0)
    assert sorted(everything.tolist()) == [0, 1, 2, 3, 4]
    with pytest.raises(DomainError):
        top_fraction_indices(weights, 0.0)
    with pytest.raises(DomainError):
        top_fraction_indices(weights, 1.1)


def test_top_fraction_takes_ceiling():
    weights = np.arange(10.0)
    assert len(top_fraction_indices(weights, 0.01)) == 1
    assert len(top_fraction_indices(weights, 0.11)) == 2


def test_upscale_repeats_pixels():
    img = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    big = upscale(img, 3)
    assert big.shape == (6, 6)
    assert np.all(big[0:3, 0:3] == 1)
    assert np.all(big[3:6, 3:6] == 4)
    assert np.array_equal(upscale(img, 1), img)
    with pytest.raises(DomainError):
        upscale(img, 0)


def test_render_gate_pgm_is_parseable_and_deterministic():
    t2 = np.linspace(0.1, 0.9, 16).reshape(4, 4)
    data = render_gate_pgm(t2, channel=0, step=7, scale=4)
    assert data == render_gate_pgm(t2, channel=0, step=7, scale=4)
    img = read_pgm(data)
    assert img.shape == (16, 16)
    assert img.min() == 0
    assert img.max() == 255


def test_render_overlay_ppm_marks_top_anchors():
    scene = generate_scene(SIM, 3)
    weights = np.zeros((4, 4, 1))
    weights[2, 2, 0] = 1.0
    data = render_overlay_ppm(scene, anchor_boxes(SIM), weights, step=1, scale=4)
    img = read_ppm(data)
    assert img.shape == (16, 16, 3)
    # The single hot anchor is outlined in red (drawn over the blue set).
    reds = (img[:, :, 0] == 255) & (img[:, :, 1] == 0) & (img[:, :, 2] == 0)
    assert reds.any()


def _edges(shape, rows, cols):
    """Mask of the edge pixels of the rectangle rows x cols (inclusive)."""
    mask = np.zeros(shape, dtype=bool)
    (y0, y1), (x0, x1) = rows, cols
    mask[[y0, y1], x0 : x1 + 1] = True
    mask[y0 : y1 + 1, [x0, x1]] = True
    return mask


def test_render_overlay_outlines_non_square_anchors_exactly():
    # 8x9 cells, 2 shapes: 144 anchors, so the top 1% is 2 anchors (red)
    # and the top 5% is 8 (blue: the 6 others tie at 0 and go to the
    # smallest flat indices, cells (0, 0) to (0, 2)).
    sim = replace(
        SIM, height=8, width=9, channels=2, anchor_shapes=((2, 5), (5, 2))
    )
    scene = generate_scene(sim, 3)
    weights = np.zeros((8, 9, 2))
    # Interior, 5 high and 2 wide at (4.5, 3.5): x 2.5..4.5, y 2..7, so
    # columns floor(3.0)..floor(5.0)-1 = 3..4 and rows 2..6.
    weights[4, 3, 1] = 1.0
    # Right border, 2 high and 5 wide at (3.5, 8.5): x 6..11, y 2.5..4.5,
    # so columns 6..10, clipped to 6..8, and rows 3..4.
    weights[3, 8, 0] = 1.0
    img = read_ppm(render_overlay_ppm(scene, anchor_boxes(sim), weights, 1, scale=1))
    shape = img.shape[:2]
    red = _edges(shape, (2, 6), (3, 4)) | _edges(shape, (3, 4), (6, 8))
    # Shape 0 at cells (0, 0..2): rows 0..1, columns 0..2, 0..3, 0..4;
    # shape 1 (y -2..3, clipped to rows 0..2) at (0, 0..2): columns j..j+1.
    blue = np.zeros(shape, dtype=bool)
    for j in range(3):
        blue |= _edges(shape, (0, 1), (0, j + 2)) | _edges(shape, (0, 2), (j, j + 1))
    is_red = np.all(img == (255, 0, 0), axis=2)
    is_blue = np.all(img == (0, 0, 255), axis=2)
    assert np.array_equal(is_red, red)
    assert np.array_equal(is_blue, blue & ~red)


def test_gate_weights_for_baseline_is_all_ones():
    config = replace(CONFIG, probanet_enabled=False)
    state = init_state(config, SIM)
    pool = build_scene_pool(config, SIM)
    weights = gate_weights_for(state, pool.scenes[0], SIM)
    assert weights.shape == (4, 4, 1)
    assert np.all(weights == 1.0)


def test_heatmap_files_names_and_channel_validation():
    state = init_state(CONFIG, SIM)
    pool = build_scene_pool(CONFIG, SIM)
    files = heatmap_files(state, pool.scenes[0], SIM, channel=0, step=12)
    assert set(files) == {"gate_step12_ch0.pgm", "overlay_step12_ch0.ppm"}
    with pytest.raises(DomainError):
        heatmap_files(state, pool.scenes[0], SIM, channel=1, step=0)
    with pytest.raises(DomainError):
        heatmap_files(state, pool.scenes[0], SIM, channel=-1, step=0)


def test_variant_and_run_dir_names():
    assert variant_name(CONFIG) == "probanet"
    assert variant_name(replace(CONFIG, probanet_enabled=False)) == "baseline"
    assert run_dir_name(CONFIG) == "probanet_seed5"
    assert run_dir_name(replace(CONFIG, probanet_enabled=False, seed=2)) == (
        "baseline_seed2"
    )


def test_write_run_dir_emits_expected_files(tmp_path):
    pool = build_scene_pool(CONFIG, SIM)
    result = run_training(CONFIG, SIM, pool)
    [run_dir] = write_seed_dirs(
        str(tmp_path), [result], SIM, export_scene(pool.scenes[0])
    )
    assert os.path.basename(run_dir) == "probanet_seed5"
    names = sorted(os.listdir(run_dir))
    assert names == [
        "gate_step3_ch0.pgm",
        "metrics.csv",
        "overlay_step3_ch0.ppm",
        "resolved-config.txt",
        "scene0_boxes.csv",
        "scene0_features.txt",
    ]
    with open(os.path.join(run_dir, "metrics.csv"), encoding="ascii") as fh:
        assert fh.read() == metrics_csv(result.metrics)
    # The resolved config reparses to the exact run configuration.
    from probanet.config import parse_config

    with open(os.path.join(run_dir, "resolved-config.txt"), encoding="ascii") as fh:
        train, sim = parse_config(fh.read())
    assert train == CONFIG
    assert sim == SIM


def test_write_seed_dirs_rejects_results_sharing_a_run_dir(tmp_path):
    # Configs that differ only in th both name their run probanet_seed5.
    pool = build_scene_pool(CONFIG, SIM)
    results = [run_training(c, SIM, pool) for c in (CONFIG, replace(CONFIG, th=0.0))]
    out_dir = tmp_path / "runs"
    with pytest.raises(DomainError, match="probanet_seed5"):
        write_seed_dirs(str(out_dir), results, SIM, export_scene(pool.scenes[0]))
    assert not out_dir.exists()


def test_write_run_dir_is_byte_reproducible(tmp_path):
    dirs = []
    for name in ("a", "b"):
        pool = build_scene_pool(CONFIG, SIM)
        result = run_training(CONFIG, SIM, pool)
        export = export_scene(pool.scenes[0])
        dirs += write_seed_dirs(str(tmp_path / name), [result], SIM, export)
    dir_a, dir_b = dirs
    for name in sorted(os.listdir(dir_a)):
        with open(os.path.join(dir_a, name), "rb") as fh:
            payload_a = fh.read()
        with open(os.path.join(dir_b, name), "rb") as fh:
            payload_b = fh.read()
        assert payload_a == payload_b, name


def test_summary_csv_header_and_rows():
    base = replace(CONFIG, probanet_enabled=False)
    report = run_experiment((base, CONFIG), 2, SIM)
    text = summary_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == SUMMARY_HEADER == (
        "seed,baseline_hard_ratio,probanet_hard_ratio,hard_ratio_uplift,"
        "baseline_gate_gap,probanet_gate_gap,baseline_logit_gap,probanet_logit_gap"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == CONFIG.seed
    # Every numeric field round-trips through float().
    uplift = float(first[3])
    assert uplift == pytest.approx(
        report.runs[0][1].tail_hard_ratio - report.runs[0][0].tail_hard_ratio
    )
