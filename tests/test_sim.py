"""Tests for scenes, anchor labeling and the fixed-ratio batch sampler."""

import numpy as np
import pytest
from reference import area, iou

from probanet import (
    BATCH_SIZE,
    BG,
    FG,
    FG_QUOTA,
    IGNORE,
    AnchorGrid,
    Box,
    ConfigError,
    DimensionError,
    DomainError,
    EmptyPoolError,
    LabelArrays,
    MiniBatch,
    Scene,
    SimConfig,
    SplitMix64,
    derive_seed,
    generate_scene,
    grid_for,
    hard_ratio,
    label_arrays,
    sample_minibatch,
)
from probanet.sim import _draw_without_replacement, boxes_csv


def brute_force_labels(scene, grid, fg_iou=0.7, bg_iou=0.3, lo=0.1, hi=0.75):
    """Anchor-by-anchor labeling oracle written as plain loops.

    Recomputes every overlap with the scalar iou function, applies the
    band rules, then promotes each object's best anchor (first maximum
    in flat order, only when the overlap is positive). Promotions below
    the foreground threshold stay easy.
    """
    n = grid.n_anchors
    best = np.zeros(n)
    per_object_best = [(-1.0, -1)] * len(scene.objects)
    for flat in range(n):
        i, j, k = grid.position(flat)
        anchor = grid.anchor_box(i, j, k)
        for o, obj in enumerate(scene.objects):
            v = iou(anchor, obj)
            best[flat] = max(best[flat], v)
            if v > per_object_best[o][0]:
                per_object_best[o] = (v, flat)

    category = np.full(n, IGNORE, dtype=np.int8)
    category[best < bg_iou] = BG
    category[best >= fg_iou] = FG
    for v, flat in per_object_best:
        if v > 0.0:
            category[flat] = FG

    hard = np.zeros(n, dtype=bool)
    for flat in range(n):
        if category[flat] == BG and best[flat] >= lo:
            hard[flat] = True
        if category[flat] == FG and fg_iou <= best[flat] < hi:
            hard[flat] = True
    return category, hard, best


def make_labels(n_fg, n_bg, n_ignore=0, hard_pattern=None):
    """Synthetic label columns: fg block, then bg block, then ignores."""
    n = n_fg + n_bg + n_ignore
    category = np.concatenate(
        [
            np.full(n_fg, FG, dtype=np.int8),
            np.full(n_bg, BG, dtype=np.int8),
            np.full(n_ignore, IGNORE, dtype=np.int8),
        ]
    )
    hard = np.zeros(n, dtype=bool)
    if hard_pattern is not None:
        hard[: len(hard_pattern)] = hard_pattern
    return LabelArrays(category=category, hard=hard, iou=np.zeros(n))


def test_iou_hand_examples():
    a = Box(0.0, 0.0, 2.0, 2.0)
    assert iou(a, a) == 1.0
    assert iou(a, Box(5.0, 5.0, 7.0, 7.0)) == 0.0
    # 2x2 squares overlapping in a 1x2 strip: 2 / (4 + 4 - 2).
    assert abs(iou(a, Box(1.0, 0.0, 3.0, 2.0)) - 1.0 / 3.0) < 1e-15
    # Touching edges do not intersect.
    assert iou(a, Box(2.0, 0.0, 4.0, 2.0)) == 0.0
    # Contained 1x1 in a 4x4.
    assert abs(iou(Box(0, 0, 4, 4), Box(1, 1, 2, 2)) - 1.0 / 16.0) < 1e-15


def test_iou_symmetry_and_range():
    rng = SplitMix64(0)
    for _ in range(50):
        vals = rng.uniform_range(0.0, 8.0, (8,))
        a = Box(vals[0], vals[1], vals[0] + vals[2] + 0.1, vals[1] + vals[3] + 0.1)
        b = Box(vals[4], vals[5], vals[4] + vals[6] + 0.1, vals[5] + vals[7] + 0.1)
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0


def test_box_validation_and_area():
    with pytest.raises(DomainError):
        Box(1.0, 0.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        Box(0.0, 3.0, 2.0, 2.0)
    assert area(Box(0.0, 0.0, 2.0, 3.0)) == 6.0


def test_anchor_grid_geometry():
    grid = AnchorGrid(height=4, width=5, shapes=((3, 3), (1, 2)))
    assert grid.n_anchors == 4 * 5 * 2
    box = grid.anchor_box(0, 0, 0)
    assert (box.x_min, box.y_min, box.x_max, box.y_max) == (-1.0, -1.0, 2.0, 2.0)
    narrow = grid.anchor_box(2, 3, 1)
    assert (narrow.x_min, narrow.y_min) == (2.5, 2.0)
    assert (narrow.x_max, narrow.y_max) == (4.5, 3.0)


def test_flat_index_roundtrip_and_corner_arrays():
    grid = AnchorGrid(height=3, width=4, shapes=((2, 2), (3, 1)))
    x0, y0, x1, y1 = grid.corner_arrays()
    for i in range(3):
        for j in range(4):
            for k in range(2):
                # Row-major (i, j, k): (i * width + j) * n_shapes + k.
                flat = (i * 4 + j) * 2 + k
                assert grid.position(flat) == (i, j, k)
                box = grid.anchor_box(i, j, k)
                assert x0[flat] == box.x_min
                assert y0[flat] == box.y_min
                assert x1[flat] == box.x_max
                assert y1[flat] == box.y_max


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(height=0)
    with pytest.raises(ConfigError):
        SimConfig(anchor_shapes=())
    with pytest.raises(ConfigError):
        SimConfig(anchor_shapes=((0, 3),))
    with pytest.raises(ConfigError):
        SimConfig(n_objects_min=3, n_objects_max=2)
    with pytest.raises(ConfigError):
        SimConfig(object_min_size=0)
    with pytest.raises(ConfigError):
        SimConfig(height=4, width=4, object_max_size=5)
    with pytest.raises(ConfigError):
        SimConfig(noise_level=-0.1)
    with pytest.raises(ConfigError):
        SimConfig(gain_min=2.0, gain_max=1.0)
    with pytest.raises(ConfigError):
        SimConfig(bg_iou=0.8, fg_iou=0.7)
    with pytest.raises(ConfigError):
        SimConfig(hard_bg_lo=0.5)
    with pytest.raises(ConfigError):
        SimConfig(hard_fg_hi=1.5)
    with pytest.raises(ConfigError):
        SimConfig(scene_pool_size=0)


def test_generate_scene_deterministic_and_in_bounds():
    config = SimConfig()
    a = generate_scene(config, 7)
    b = generate_scene(config, 7)
    assert a.objects == b.objects
    assert np.array_equal(a.features, b.features)
    assert a.features.shape == (config.height, config.width, config.channels)
    assert config.n_objects_min <= len(a.objects) <= config.n_objects_max
    for box in a.objects:
        assert 0.0 <= box.x_min < box.x_max <= config.width
        assert 0.0 <= box.y_min < box.y_max <= config.height
        assert config.object_min_size <= box.x_max - box.x_min
        assert box.x_max - box.x_min <= config.object_max_size
    other = generate_scene(config, 8)
    assert not np.array_equal(a.features, other.features)


def test_zero_object_scene_is_pure_noise_and_all_background():
    config = SimConfig(n_objects_min=0, n_objects_max=0)
    scene = generate_scene(config, 3)
    assert scene.objects == ()
    assert np.all(np.abs(scene.features) <= config.noise_level)
    # Zero-mean floor: the average should sit near zero.
    assert abs(scene.features.mean()) < 0.01
    labels = label_arrays(scene, grid_for(config))
    assert np.all(labels.category == BG)
    assert not labels.hard.any()
    assert np.all(labels.iou == 0.0)


def test_labeling_matches_brute_force_oracle():
    config = SimConfig(
        height=8,
        width=8,
        channels=4,
        anchor_shapes=((3, 3), (2, 4)),
        n_objects_min=1,
        n_objects_max=3,
        object_min_size=2,
        object_max_size=4,
    )
    grid = grid_for(config)
    for seed in range(12):
        scene = generate_scene(config, seed)
        got = label_arrays(scene, grid)
        category, hard, best = brute_force_labels(scene, grid)
        assert np.array_equal(got.category, category), f"seed {seed}"
        assert np.array_equal(got.hard, hard), f"seed {seed}"
        assert np.allclose(got.iou, best, atol=1e-12), f"seed {seed}"


def test_every_object_owns_a_foreground_anchor():
    # A 2x2 object cannot reach 0.7 IoU against 3x3 anchors (max 4/9),
    # so only the promotion path can mark it foreground.
    grid = AnchorGrid(height=8, width=8, shapes=((3, 3),))
    scene = Scene(
        objects=(Box(3.0, 3.0, 5.0, 5.0),),
        features=np.zeros((8, 8, 2)),
        seed=0,
    )
    labels = label_arrays(scene, grid)
    assert labels.iou.max() < 0.7
    fg_anchors = np.flatnonzero(labels.category == FG)
    assert len(fg_anchors) >= 1
    # Promotion below the threshold is tagged easy.
    assert not labels.hard[fg_anchors].any()


def test_corpus_is_heavily_background_dominated():
    config = SimConfig()
    grid = grid_for(config)
    fg_total = 0
    bg_total = 0
    for seed in range(1000):
        labels = label_arrays(generate_scene(config, seed), grid)
        fg_total += int((labels.category == FG).sum())
        bg_total += int((labels.category == BG).sum())
    assert fg_total > 0
    assert bg_total > 10 * fg_total


def test_minibatch_validation():
    with pytest.raises(DomainError):
        MiniBatch(indices=np.arange(70), fg_count=65, bg_count=5)
    with pytest.raises(DimensionError):
        MiniBatch(indices=np.arange(10), fg_count=4, bg_count=5)
    batch = MiniBatch(indices=np.arange(10), fg_count=4, bg_count=6)
    assert batch.size == 10


def test_sampler_composition_with_surplus_everywhere():
    labels = make_labels(n_fg=100, n_bg=5000, n_ignore=50)
    batch = sample_minibatch(labels, None, SplitMix64(0))
    assert batch.fg_count == FG_QUOTA
    assert batch.bg_count == BATCH_SIZE - FG_QUOTA
    assert batch.size == BATCH_SIZE
    assert len(np.unique(batch.indices)) == batch.size
    # Foreground first, and every index lands in the right pool.
    assert np.all(labels.category[batch.indices[: batch.fg_count]] == FG)
    assert np.all(labels.category[batch.indices[batch.fg_count :]] == BG)


def test_sampler_pads_foreground_shortfall_with_background():
    labels = make_labels(n_fg=10, n_bg=5000)
    batch = sample_minibatch(labels, None, SplitMix64(1))
    assert batch.fg_count == 10
    assert batch.bg_count == BATCH_SIZE - 10
    assert batch.size == BATCH_SIZE


def test_sampler_truncates_when_background_is_scarce():
    labels = make_labels(n_fg=0, n_bg=100)
    batch = sample_minibatch(labels, None, SplitMix64(2))
    assert batch.fg_count == 0
    assert batch.bg_count == 100
    assert batch.size == 100


def test_sampler_never_samples_ignores_or_masked_anchors():
    labels = make_labels(n_fg=30, n_bg=300, n_ignore=40)
    mask = np.ones(len(labels), dtype=bool)
    mask[::3] = False
    batch = sample_minibatch(labels, mask, SplitMix64(3))
    assert np.all(labels.category[batch.indices] != IGNORE)
    assert np.all(mask[batch.indices])


def test_sampler_requires_background():
    labels = make_labels(n_fg=50, n_bg=0)
    with pytest.raises(EmptyPoolError):
        sample_minibatch(labels, None, SplitMix64(4))
    some_bg = make_labels(n_fg=50, n_bg=20)
    mask = np.ones(len(some_bg), dtype=bool)
    mask[50:] = False
    with pytest.raises(EmptyPoolError):
        sample_minibatch(some_bg, mask, SplitMix64(5))


def test_sampler_mask_size_check():
    labels = make_labels(n_fg=5, n_bg=20)
    with pytest.raises(DimensionError):
        sample_minibatch(labels, np.ones(7, dtype=bool), SplitMix64(6))


def test_sampler_deterministic_and_none_mask_equals_full_mask():
    labels = make_labels(n_fg=20, n_bg=200)
    a = sample_minibatch(labels, None, SplitMix64(7))
    b = sample_minibatch(labels, None, SplitMix64(7))
    c = sample_minibatch(labels, np.ones(len(labels), dtype=bool), SplitMix64(7))
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.indices, c.indices)


def test_sampler_consumption_depends_only_on_pool_sizes():
    # Same pool sizes, different anchor identities, same seed: the ranks
    # chosen within each pool must agree.
    evens = np.zeros(400, dtype=np.int8)
    evens[0:400:2] = FG
    odds = np.zeros(400, dtype=np.int8)
    odds[1:400:2] = FG
    la = LabelArrays(category=evens, hard=np.zeros(400, bool), iou=np.zeros(400))
    lb = LabelArrays(category=odds, hard=np.zeros(400, bool), iou=np.zeros(400))
    ba = sample_minibatch(la, None, SplitMix64(8))
    bb = sample_minibatch(lb, None, SplitMix64(8))
    assert ba.fg_count == bb.fg_count
    assert ba.bg_count == bb.bg_count
    pool_a_fg = np.flatnonzero(evens == FG)
    pool_b_fg = np.flatnonzero(odds == FG)
    ranks_a = np.searchsorted(pool_a_fg, ba.indices[: ba.fg_count])
    ranks_b = np.searchsorted(pool_b_fg, bb.indices[: bb.fg_count])
    assert np.array_equal(ranks_a, ranks_b)


def _full_sort_draw(pool, take, rng):
    """The sampler's reference draw: a stable sort of every key."""
    keys = rng.u64(pool.size)
    return pool[np.argsort(keys, kind="stable")[:take]]


@pytest.mark.parametrize(
    "size,take,tied",
    [
        (5000, 192, False),  # random keys
        (300, 64, True),  # forced ties at the cut
        (300, 300, False),  # take == pool.size
        (300, 300, True),
        (1, 1, False),  # one-element pool
        (40, 0, False),
    ],
)
def test_partial_selection_equals_full_stable_sort(monkeypatch, size, take, tied):
    pool = np.arange(10, 10 + 3 * size, 3)
    rng_ref, rng_new = SplitMix64(size + take), SplitMix64(size + take)
    if tied:
        # Few distinct key values, so many keys equal the take-th one.
        for r in (rng_ref, rng_new):
            u64 = r.u64
            monkeypatch.setattr(r, "u64", lambda n, u64=u64: u64(n) % np.uint64(7))
        keys = SplitMix64(size + take).u64(size) % np.uint64(7)
        if take < size:
            cut = np.sort(keys)[take - 1]
            assert (keys == cut).sum() > 1
            assert (keys <= cut).sum() > take
    ref = _full_sort_draw(pool, take, rng_ref)
    got = _draw_without_replacement(pool, take, rng_new)
    assert np.array_equal(got, ref)
    assert rng_new.counter == rng_ref.counter == size


def test_masking_out_easy_background_raises_expected_hard_ratio():
    config = SimConfig()
    scene = generate_scene(config, 11)
    labels = label_arrays(scene, grid_for(config))
    easy_bg = np.flatnonzero((labels.category == BG) & ~labels.hard)
    assert easy_bg.size > 50

    # Drop four out of five easy background anchors.
    mask = np.ones(len(labels), dtype=bool)
    mask[easy_bg[: (4 * easy_bg.size) // 5]] = False

    n = 1000
    plain = np.empty(n)
    masked = np.empty(n)
    for i in range(n):
        rng_a = SplitMix64(derive_seed(0, "mono", i))
        rng_b = SplitMix64(derive_seed(0, "mono", i))
        plain[i] = hard_ratio(sample_minibatch(labels, None, rng_a), labels)
        masked[i] = hard_ratio(sample_minibatch(labels, mask, rng_b), labels)

    diff = masked.mean() - plain.mean()
    se = np.sqrt(plain.var(ddof=1) / n + masked.var(ddof=1) / n)
    assert diff > 0.0
    assert diff > 3.0 * se


def test_hard_ratio_recount_and_validation():
    labels = make_labels(
        n_fg=2, n_bg=6, hard_pattern=[True, False, True, True, False, False, False, False]
    )
    batch = MiniBatch(indices=np.array([0, 2, 3, 4]), fg_count=1, bg_count=3)
    assert hard_ratio(batch, labels) == 0.75
    empty = MiniBatch(indices=np.zeros(0, dtype=np.int64), fg_count=0, bg_count=0)
    with pytest.raises(DomainError):
        hard_ratio(empty, labels)


def test_hard_ratio_matches_loop_recount_on_sampled_batches():
    config = SimConfig(height=8, width=8, channels=4)
    scene = generate_scene(config, 2)
    labels = label_arrays(scene, grid_for(config))
    for seed in range(5):
        batch = sample_minibatch(labels, None, SplitMix64(seed))
        expected = sum(bool(labels.hard[i]) for i in batch.indices) / batch.size
        assert hard_ratio(batch, labels) == expected


def test_boxes_csv_format():
    scene = generate_scene(SimConfig(), 1)
    text = boxes_csv(scene)
    lines = text.strip().split("\n")
    assert lines[0] == "x_min,y_min,x_max,y_max"
    assert len(lines) == 1 + len(scene.objects)
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == scene.objects[0].x_min
    assert first[3] == scene.objects[0].y_max
