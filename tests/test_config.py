"""Tests for the flat key = value configuration format."""

from dataclasses import fields

import pytest

from probanet import ConfigError, SimConfig, TrainConfig
from probanet.config import format_config, parse_config


def test_empty_text_yields_defaults():
    train, sim = parse_config("")
    assert train == TrainConfig()
    assert sim == SimConfig()


def test_comments_and_blank_lines_are_ignored():
    train, sim = parse_config("\n# a comment\n\n   \nseed = 9\n")
    assert train.seed == 9
    assert sim == SimConfig()


def test_roundtrip_preserves_every_field():
    train = TrainConfig(
        learning_rate=0.0025,
        momentum=0.85,
        weight_decay=0.0,
        epochs=3,
        steps_per_epoch=7,
        alpha=0.25,
        epsilon=5e-4,
        th=0.45,
        r=4,
        variance_target="input",
        probanet_enabled=False,
        seed=11,
        lr_decay_every=2,
        lr_decay_factor=0.5,
        scenes_per_batch=3,
    )
    sim = SimConfig(
        height=12,
        width=10,
        channels=8,
        anchor_shapes=((3, 3), (2, 4)),
        n_objects_min=1,
        n_objects_max=2,
        object_min_size=2,
        object_max_size=3,
        bump_amplitude=0.7,
        core_amplitude=1.9,
        noise_level=0.15,
        gain_min=0.6,
        gain_max=1.1,
        fg_iou=0.65,
        bg_iou=0.25,
        hard_bg_lo=0.05,
        hard_fg_hi=0.8,
        scene_pool_size=5,
    )
    text = format_config(train, sim)
    back_train, back_sim = parse_config(text)
    assert back_train == train
    assert back_sim == sim


def test_format_layout():
    text = format_config(TrainConfig(), SimConfig())
    lines = text.splitlines()
    assert lines[0] == "# training"
    assert "# simulation" in lines
    assert "learning_rate = 0.001" in lines
    assert "probanet_enabled = true" in lines
    assert "anchor_shapes = 3x3" in lines
    assert text.endswith("\n")


def test_anchor_shapes_parsing():
    _, sim = parse_config("anchor_shapes = 3x3, 2x4\nobject_max_size = 4\n")
    assert sim.anchor_shapes == ((3, 3), (2, 4))


def test_bool_parsing_is_case_insensitive_but_strict():
    train, _ = parse_config("probanet_enabled = TRUE")
    assert train.probanet_enabled is True
    train, _ = parse_config("probanet_enabled = false")
    assert train.probanet_enabled is False
    with pytest.raises(ConfigError):
        parse_config("probanet_enabled = 1")


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("seed = 1\n# fine\nwarp_speed = 9\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("seed 5\n")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config("learning_rate = fast\n")
    with pytest.raises(ConfigError, match="epochs"):
        parse_config("epochs = 1.5\n")
    with pytest.raises(ConfigError, match="anchor_shapes"):
        parse_config("anchor_shapes = 3by3\n")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "-Infinity"])
def test_non_finite_floats_rejected_for_every_float_key(text):
    defaults = (TrainConfig(), SimConfig())
    keys = [
        f.name
        for cfg in defaults
        for f in fields(cfg)
        if isinstance(getattr(cfg, f.name), float)
    ]
    assert len(keys) == 16
    for key in keys:
        with pytest.raises(ConfigError, match=f"line 1: bad value for {key}"):
            parse_config(f"{key} = {text}\n")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_configs_reject_non_finite_floats_when_built_directly(value):
    defaults = (TrainConfig(), SimConfig())
    checked = 0
    for cfg in defaults:
        for f in fields(cfg):
            if not isinstance(getattr(cfg, f.name), float):
                continue
            with pytest.raises(ConfigError, match=f"^{f.name}: expected a finite") as exc:
                type(cfg)(**{f.name: value})
            assert exc.value.field == f.name
            checked += 1
    assert checked == 16


def test_semantic_validation_still_applies():
    with pytest.raises(ConfigError):
        parse_config("momentum = 2.0\n")
    with pytest.raises(ConfigError):
        parse_config("height = 4\nobject_max_size = 9\n")


def test_whitespace_around_separator_is_tolerated():
    train, _ = parse_config("seed=3")
    assert train.seed == 3
    train, _ = parse_config("   seed   =   4   ")
    assert train.seed == 4
