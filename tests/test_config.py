"""Tests for the flat key = value configuration format."""

import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probanet import ConfigError, SimConfig, TrainConfig
from probanet.config import format_config, format_value, parse_config


def test_empty_text_yields_defaults():
    train, sim = parse_config("")
    assert train == TrainConfig()
    assert sim == SimConfig()


def test_comments_and_blank_lines_are_ignored():
    train, sim = parse_config("\n# a comment\n\n   \nseed = 9\n")
    assert train.seed == 9
    assert sim == SimConfig()


def test_inline_comments_are_dropped():
    train, sim = parse_config(
        "seed = 9  # a note\nanchor_shapes = 3x3,5x5# two shapes\n#seed = 4\n"
    )
    assert train.seed == 9
    assert sim.anchor_shapes == ((3, 3), (5, 5))


def _readme_block(title: str) -> str:
    """The fenced block that follows README's line "<title>:"."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    after = readme.read_text(encoding="utf-8").split(f"\n{title}:\n\n```\n", 1)[1]
    return after.split("```", 1)[0]


def test_readme_key_listings_are_the_defaults():
    # README lists every key at its default, with inline comments; pasted
    # into a config file, the listings must parse back to the defaults.
    train_text = _readme_block("Training keys")
    sim_text = _readme_block("Simulator keys")
    for text, cls in ((train_text, TrainConfig), (sim_text, SimConfig)):
        keys = [line.partition("=")[0].strip() for line in text.splitlines()]
        assert keys == [f.name for f in fields(cls)]
    assert len(train_text.splitlines()) + len(sim_text.splitlines()) == 32
    assert parse_config(train_text + sim_text) == (TrainConfig(), SimConfig())


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
    # Each key parses to its default's exact type, not just an equal value
    # (1.0 == 1 and True == 1 would pass the comparisons above).
    for back, default in ((back_train, TrainConfig()), (back_sim, SimConfig())):
        for f in fields(default):
            assert type(getattr(back, f.name)) is type(getattr(default, f.name)), f.name


def test_format_layout():
    text = format_config(TrainConfig(), SimConfig())
    lines = text.splitlines()
    assert lines[0] == "# training"
    assert "# simulation" in lines
    assert "learning_rate = 0.001" in lines
    assert "probanet_enabled = true" in lines
    assert "anchor_shapes = 3x3" in lines
    assert text.endswith("\n")
    # A numpy float formats as its value, which parses back.
    numpy_th = format_config(TrainConfig(th=np.float64(0.25)), SimConfig())
    assert "th = 0.25" in numpy_th.splitlines()


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


def test_configs_reject_values_of_another_kind_for_every_field():
    # Each field admits only its default's kind, so a value that would
    # pass the range checks and fail mid-run (or, for a bool, silently
    # train the other variant) is rejected at construction.
    wrong = {
        bool: ["false", 0, 1.0, None],
        int: [1.0, True, "2", None],
        float: ["0.5", True, None],
        tuple: ["3x3", [(3, 3)], ((3, 3.0),), ((3,),), ((3, True),), None],
    }
    checked = 0
    for cls in (TrainConfig, SimConfig):
        for f in fields(cls):
            for value in wrong[type(f.default)]:
                with pytest.raises(ConfigError, match=f"^{f.name}: expected") as exc:
                    cls(**{f.name: value})
                assert exc.value.field == f.name
            checked += 1
    assert checked == len(fields(TrainConfig)) + len(fields(SimConfig)) == 32


def test_configs_accept_numpy_numbers_and_ints_for_floats():
    for cls in (TrainConfig, SimConfig):
        for f in fields(cls):
            if type(f.default) is int:
                assert getattr(cls(**{f.name: np.int64(f.default)}), f.name) == f.default
            elif type(f.default) is float:
                assert getattr(cls(**{f.name: np.float64(f.default)}), f.name) == f.default
    assert TrainConfig(learning_rate=1).learning_rate == 1


def test_semantic_validation_still_applies():
    with pytest.raises(ConfigError):
        parse_config("momentum = 2.0\n")
    with pytest.raises(ConfigError):
        parse_config("height = 4\nobject_max_size = 9\n")


def test_range_errors_name_the_field_and_its_line():
    # One value outside its own range for 27 of the 32 keys: all but
    # probanet_enabled, which has no range, and the four keys bounded only
    # by a rule between two keys (n_objects_max, object_max_size, gain_min
    # and gain_max; see test_rules_between_two_keys_are_closed).
    bad = dict(
        learning_rate="-0.001", momentum="1.5", weight_decay="-1.0", epochs="-1",
        steps_per_epoch="-1", alpha="1.0", epsilon="0.0", th="1.0", r="0",
        lr_decay_every="-1", lr_decay_factor="1.5", scenes_per_batch="0", seed="-1",
        height="0", width="0", channels="0", anchor_shapes="3x0", noise_level="-1.0",
        bump_amplitude="-1.0", core_amplitude="-1.0", bg_iou="0.0",
        scene_pool_size="0", n_objects_min="-1", object_min_size="0",
        hard_bg_lo="-0.1", fg_iou="1.5", hard_fg_hi="1.5",
    )
    assert len(bad) == 27
    for key, text in bad.items():
        match = f"^line 2: bad value for {key}: must .*, got "
        with pytest.raises(ConfigError, match=match) as exc:
            parse_config(f"# one bad value\n{key} = {text}\n")
        assert exc.value.field == key


def _config_text(values: dict) -> str:
    """values as the lines of a config file, in their order."""
    return "".join(f"{k} = {format_value(k, v)}\n" for k, v in values.items())


def _below(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _above(x: float) -> float:
    return math.nextafter(x, math.inf)


# key, the keys on the rule's other side, values at the rule's edge, and
# values one step past it.
TWO_KEY_RULES = [
    ("n_objects_max", ["n_objects_min"],
     dict(n_objects_min=3, n_objects_max=3), dict(n_objects_min=3, n_objects_max=2)),
    ("object_max_size", ["object_min_size"],
     dict(height=5, width=4, object_min_size=4, object_max_size=4),
     dict(height=5, width=4, object_min_size=4, object_max_size=3)),
    ("object_max_size", ["height", "width"],
     dict(height=5, width=4, object_min_size=4, object_max_size=4),
     dict(height=5, width=4, object_min_size=4, object_max_size=5)),
    ("gain_max", ["gain_min"],
     dict(gain_min=1.25, gain_max=1.25), dict(gain_min=1.25, gain_max=_below(1.25))),
    ("fg_iou", ["bg_iou"],
     dict(bg_iou=0.4, fg_iou=0.4), dict(bg_iou=0.4, fg_iou=_below(0.4))),
    ("hard_bg_lo", ["bg_iou"],
     dict(bg_iou=0.3, hard_bg_lo=0.3), dict(bg_iou=0.3, hard_bg_lo=_above(0.3))),
    ("hard_fg_hi", ["fg_iou"],
     dict(fg_iou=0.7, hard_fg_hi=0.7), dict(fg_iou=0.7, hard_fg_hi=_below(0.7))),
]


@pytest.mark.parametrize(
    "key, others, edge, past",
    TWO_KEY_RULES,
    ids=[f"{key}-{others[0]}" for key, others, _, _ in TWO_KEY_RULES],
)
def test_rules_between_two_keys_are_closed(key, others, edge, past):
    # Equality is accepted; one step past it is rejected naming the key it
    # bounds as the field, the other key in the message, and the line.
    SimConfig(**edge)
    with pytest.raises(ConfigError, match=f"^{key}: must ") as exc:
        SimConfig(**past)
    assert exc.value.field == key
    assert all(other in str(exc.value) for other in others)
    lineno = list(past).index(key) + 1
    with pytest.raises(ConfigError, match=f"^line {lineno}: bad value for {key}: must "):
        parse_config(_config_text(past))


def _values(kind):
    """Values of a field kind, in and out of every range the configs set."""
    if kind is bool:
        return st.booleans()
    if kind is int:
        return st.integers(1, 8) | st.sampled_from([-1, 0, 2**64 - 1, 2**64])
    if kind is float:
        return st.floats(0.0, 1.0) | st.sampled_from([-0.1, 0.0, 0.3, 0.7, 1.0, 1.5])
    # A file writes at least one anchor shape.
    pairs = st.tuples(st.integers(0, 4), st.integers(1, 4))
    return st.lists(pairs, min_size=1, max_size=3).map(tuple)


def _drawn_fields(cls):
    optional = {f.name: _values(type(f.default)) for f in fields(cls)}
    return st.fixed_dictionaries({}, optional=optional)


@pytest.mark.parametrize("cls", [TrainConfig, SimConfig])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_drawn_configs_round_trip_or_name_a_field_and_its_line(cls, data):
    # Each drawn set of values builds a config that round-trips through
    # the text format and parses from a file that sets them, or is rejected
    # naming one of the class's fields, and from that file with the line
    # that sets the field, if it does.
    kwargs = data.draw(_drawn_fields(cls))
    text = _config_text(kwargs)
    try:
        config = cls(**kwargs)
    except ConfigError as exc:
        names = [f.name for f in fields(cls)]
        assert exc.field in names
        with pytest.raises(ConfigError) as parsed:
            parse_config(text)
        assert parsed.value.field == exc.field
        if exc.field in kwargs:
            lineno = list(kwargs).index(exc.field) + 1
            assert str(parsed.value) == f"line {lineno}: bad value for {exc}"
        else:
            assert str(parsed.value) == str(exc)
        return
    configs = (config, SimConfig()) if cls is TrainConfig else (TrainConfig(), config)
    assert parse_config(format_config(*configs)) == configs
    assert parse_config(text) == configs


def test_whitespace_around_separator_is_tolerated():
    train, _ = parse_config("seed=3")
    assert train.seed == 3
    train, _ = parse_config("   seed   =   4   ")
    assert train.seed == 4
