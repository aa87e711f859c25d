"""Tests for scenes, anchor labeling and the fixed-ratio batch sampler."""

from dataclasses import replace

import numpy as np
import pytest
import reference
from reference import area, iou

from probanet import (
    BATCH_SIZE,
    BG,
    FG,
    FG_QUOTA,
    IGNORE,
    ConfigError,
    DimensionError,
    DomainError,
    EmptyPoolError,
    LabelArrays,
    MiniBatch,
    Scene,
    SimConfig,
    SplitMix64,
    TrainConfig,
    build_scene_pool,
    derive_seed,
    hard_ratio,
    label_arrays,
    sample_minibatch,
)
from probanet.sim import (
    _draw_without_replacement,
    anchor_boxes,
    boxes_csv,
    generate_scene,
)


def brute_force_labels(scene, config, fg_iou=0.7, bg_iou=0.3, lo=0.1, hi=0.75):
    """Anchor-by-anchor labeling oracle written as plain loops.

    Builds each anchor's box from its (i, j, k) cell and shape, recomputes
    every overlap with the scalar iou function, applies the band rules,
    then promotes each object's best anchor (first maximum in flat order,
    only when the overlap is positive). Promotions below the foreground
    threshold stay easy.
    """
    objects = [tuple(box) for box in scene.objects.T.tolist()]
    n = config.height * config.width * len(config.anchor_shapes)
    best = np.zeros(n)
    per_object_best = [(-1.0, -1)] * len(objects)
    flat = 0
    for i in range(config.height):
        for j in range(config.width):
            for bh, bw in config.anchor_shapes:
                cy, cx = i + 0.5, j + 0.5
                anchor = (cx - bw / 2, cy - bh / 2, cx + bw / 2, cy + bh / 2)
                for o, obj in enumerate(objects):
                    v = iou(anchor, obj)
                    best[flat] = max(best[flat], v)
                    if v > per_object_best[o][0]:
                        per_object_best[o] = (v, flat)
                flat += 1

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
    a = (0.0, 0.0, 2.0, 2.0)
    assert iou(a, a) == 1.0
    assert iou(a, (5.0, 5.0, 7.0, 7.0)) == 0.0
    # 2x2 squares overlapping in a 1x2 strip: 2 / (4 + 4 - 2).
    assert abs(iou(a, (1.0, 0.0, 3.0, 2.0)) - 1.0 / 3.0) < 1e-15
    # Touching edges do not intersect.
    assert iou(a, (2.0, 0.0, 4.0, 2.0)) == 0.0
    # Contained 1x1 in a 4x4.
    assert abs(iou((0, 0, 4, 4), (1, 1, 2, 2)) - 1.0 / 16.0) < 1e-15
    assert area((0.0, 0.0, 2.0, 3.0)) == 6.0


def test_iou_symmetry_and_range():
    rng = SplitMix64(0)
    for _ in range(50):
        vals = rng.uniform_range(0.0, 8.0, (8,))
        a = (vals[0], vals[1], vals[0] + vals[2] + 0.1, vals[1] + vals[3] + 0.1)
        b = (vals[4], vals[5], vals[4] + vals[6] + 0.1, vals[5] + vals[7] + 0.1)
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0


def test_anchor_grid_geometry():
    config = SimConfig(
        height=4, width=5, channels=2, anchor_shapes=((3, 3), (1, 2)),
        object_max_size=4,
    )
    boxes = anchor_boxes(config)
    assert boxes.shape == (4, 4 * 5 * 2)
    assert boxes.dtype == np.float64
    # Anchor (0, 0, 0): a 3x3 box centered at (0.5, 0.5).
    assert boxes[:, 0].tolist() == [-1.0, -1.0, 2.0, 2.0]
    # Anchor (2, 3, 1): 1 high and 2 wide, centered at (x, y) = (3.5, 2.5).
    assert boxes[:, (2 * 5 + 3) * 2 + 1].tolist() == [2.5, 2.0, 4.5, 3.0]
    # Built once per grid, and read-only.
    assert anchor_boxes(config) is boxes
    assert anchor_boxes(replace(config, bg_iou=0.2)) is boxes
    assert not boxes.flags.writeable
    with pytest.raises(ValueError):
        boxes[0, 0] = 0.0


def test_anchor_boxes_flat_order():
    config = SimConfig(
        height=3, width=4, channels=2, anchor_shapes=((2, 2), (3, 1)),
        object_max_size=3,
    )
    x0, y0, x1, y1 = anchor_boxes(config)
    for i in range(3):
        for j in range(4):
            for k, (bh, bw) in enumerate(config.anchor_shapes):
                # Row-major (i, j, k): (i * width + j) * n_shapes + k.
                flat = (i * 4 + j) * 2 + k
                assert x0[flat] == j + 0.5 - bw / 2
                assert y0[flat] == i + 0.5 - bh / 2
                assert x1[flat] == j + 0.5 + bw / 2
                assert y1[flat] == i + 0.5 + bh / 2


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
    # Background is an overlap below bg_iou, and no overlap is below 0.
    for bg_iou in (0.0, -0.1):
        with pytest.raises(ConfigError, match="^bg_iou: must be > 0") as exc:
            SimConfig(bg_iou=bg_iou, hard_bg_lo=0.0)
        assert exc.value.field == "bg_iou"
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
    assert np.array_equal(a.objects, b.objects)
    assert np.array_equal(a.features, b.features)
    assert a.features.shape == (config.height, config.width, config.channels)
    assert a.objects.shape[0] == 4 and a.objects.dtype == np.float64
    assert config.n_objects_min <= a.objects.shape[1] <= config.n_objects_max
    for x_min, y_min, x_max, y_max in a.objects.T:
        assert 0.0 <= x_min < x_max <= config.width
        assert 0.0 <= y_min < y_max <= config.height
        assert config.object_min_size <= x_max - x_min
        assert x_max - x_min <= config.object_max_size
    other = generate_scene(config, 8)
    assert not np.array_equal(a.features, other.features)


@pytest.mark.parametrize(
    "config",
    [
        SimConfig(),
        SimConfig(channels=7),
        SimConfig(n_objects_min=0, n_objects_max=0),
        # 89,010 draws: a block and a part block of 129-channel rows.
        SimConfig(height=30, width=23, channels=129),
        # 208,000 draws: four blocks.
        SimConfig(height=40, width=40, channels=130, object_max_size=8),
    ],
    ids=["default", "odd-channels", "no-objects", "part-block", "four-blocks"],
)
def test_scene_synthesis_matches_full_array_reference(config):
    # The noise floor is drawn and bumped a block of cells at a time,
    # starting off a block boundary (after the geometry and gain draws);
    # both scene paths must equal whole-array synthesis bit for bit.
    pool = build_scene_pool(TrainConfig(seed=3), replace(config, scene_pool_size=2))
    for i, scene in enumerate(pool.scenes):
        seed = derive_seed(3, "scene", i)
        objects, features = reference.generate_scene(config, seed)
        for got in (scene, generate_scene(config, seed)):
            assert got.objects.T.tolist() == [list(box) for box in objects]
            assert got.features.tobytes() == features.tobytes()
        assert np.shares_memory(scene.features, pool.features[i])


def test_zero_object_scene_is_pure_noise_and_all_background():
    config = SimConfig(n_objects_min=0, n_objects_max=0)
    scene = generate_scene(config, 3)
    assert scene.objects.shape == (4, 0)
    assert np.all(np.abs(scene.features) <= config.noise_level)
    # Zero-mean floor: the average should sit near zero.
    assert abs(scene.features.mean()) < 0.01
    labels = label_arrays(scene, config)
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
    # A scene without objects too, and a hard band from IoU 0, where a
    # background anchor of IoU 0 is hard whether the scene has objects
    # or not.
    empty = generate_scene(replace(config, n_objects_min=0, n_objects_max=0), 0)
    scenes = [generate_scene(config, seed) for seed in range(12)] + [empty]
    for lo in (0.1, 0.0):
        sim = replace(config, hard_bg_lo=lo)
        for i, scene in enumerate(scenes):
            got = label_arrays(scene, sim)
            category, hard, best = brute_force_labels(scene, sim, lo=lo)
            assert np.array_equal(got.category, category), f"scene {i}, lo {lo}"
            assert np.array_equal(got.hard, hard), f"scene {i}, lo {lo}"
            assert np.allclose(got.iou, best, atol=1e-12), f"scene {i}, lo {lo}"


def test_every_object_owns_a_foreground_anchor():
    # A 2x2 object cannot reach 0.7 IoU against 3x3 anchors (max 4/9),
    # so only the promotion path can mark it foreground.
    config = SimConfig(height=8, width=8, channels=2, anchor_shapes=((3, 3),))
    scene = Scene(
        objects=np.array([[3.0], [3.0], [5.0], [5.0]]),
        features=np.zeros((8, 8, 2)),
        seed=0,
    )
    labels = label_arrays(scene, config)
    assert labels.iou.max() < 0.7
    fg_anchors = np.flatnonzero(labels.category == FG)
    assert len(fg_anchors) >= 1
    # Promotion below the threshold is tagged easy.
    assert not labels.hard[fg_anchors].any()


def test_corpus_is_heavily_background_dominated():
    config = SimConfig()
    fg_total = 0
    bg_total = 0
    for seed in range(1000):
        labels = label_arrays(generate_scene(config, seed), config)
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
    got = _draw_without_replacement(pool, take, rng_new.u64(pool.size))
    assert np.array_equal(got, ref)
    assert rng_new.counter == rng_ref.counter == size


def test_masking_out_easy_background_raises_expected_hard_ratio():
    config = SimConfig()
    scene = generate_scene(config, 11)
    labels = label_arrays(scene, config)
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
    labels = label_arrays(scene, config)
    for seed in range(5):
        batch = sample_minibatch(labels, None, SplitMix64(seed))
        expected = sum(bool(labels.hard[i]) for i in batch.indices) / batch.size
        assert hard_ratio(batch, labels) == expected


def test_boxes_csv_format():
    scene = generate_scene(SimConfig(), 1)
    text = boxes_csv(scene)
    lines = text.strip().split("\n")
    assert lines[0] == "x_min,y_min,x_max,y_max"
    assert len(lines) == 1 + scene.objects.shape[1]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert rows == scene.objects.T.tolist()
