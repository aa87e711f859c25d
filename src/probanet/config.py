"""Flat key = value experiment configuration.

One file covers every training and simulation parameter.  Unknown keys
are rejected with their line number, missing keys take the dataclass
defaults, and formatting then re-parsing a resolved config reproduces it
exactly (every value serializes via a round-trip-safe form).
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ConfigError
from .sim import SimConfig
from .training import TrainConfig

_TRAIN_FIELDS = {f.name: f.type for f in fields(TrainConfig)}
_SIM_FIELDS = {f.name: f.type for f in fields(SimConfig)}

_BOOL_KEYS = {"probanet_enabled"}
_STR_KEYS = {"variance_target"}
_SHAPE_KEYS = {"anchor_shapes"}
_INT_KEYS = {
    "epochs", "steps_per_epoch", "r", "seed", "lr_decay_every",
    "scenes_per_batch", "height", "width", "channels", "n_objects_min",
    "n_objects_max", "object_min_size", "object_max_size", "scene_pool_size",
}
_FLOAT_KEYS = (
    set(_TRAIN_FIELDS) | set(_SIM_FIELDS)
) - _BOOL_KEYS - _STR_KEYS - _SHAPE_KEYS - _INT_KEYS


def parse_value(key: str, text: str, lineno: int):
    try:
        if key in _BOOL_KEYS:
            low = text.lower()
            if low not in ("true", "false"):
                raise ValueError(f"expected true/false, got {text!r}")
            return low == "true"
        if key in _STR_KEYS:
            return text
        if key in _SHAPE_KEYS:
            shapes = []
            for tok in text.split(","):
                h, _, w = tok.strip().partition("x")
                shapes.append((int(h), int(w)))
            return tuple(shapes)
        if key in _INT_KEYS:
            return int(text)
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc


def format_value(key: str, value) -> str:
    if key in _BOOL_KEYS:
        return "true" if value else "false"
    if key in _SHAPE_KEYS:
        return ",".join(f"{h}x{w}" for h, w in value)
    return repr(value) if isinstance(value, float) else str(value)


def parse_config(text: str) -> tuple[TrainConfig, SimConfig]:
    """Parse the flat key = value format into the two config objects."""
    train_kv, sim_kv = {}, {}
    linenos = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = key.strip(), value.strip()
        if key in linenos:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        linenos[key] = lineno
        if key in _TRAIN_FIELDS:
            train_kv[key] = parse_value(key, value, lineno)
        elif key in _SIM_FIELDS:
            sim_kv[key] = parse_value(key, value, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key}")
    try:
        return TrainConfig(**train_kv), SimConfig(**sim_kv)
    except ConfigError as exc:
        if exc.field in linenos:
            raise ConfigError(
                f"line {linenos[exc.field]}: bad value for {exc}", field=exc.field
            ) from exc
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def format_config(train: TrainConfig, sim: SimConfig) -> str:
    """Serialize every field of both configs, training block first."""
    lines = ["# training"]
    for f in fields(TrainConfig):
        lines.append(f"{f.name} = {format_value(f.name, getattr(train, f.name))}")
    lines.append("")
    lines.append("# simulation")
    for f in fields(SimConfig):
        lines.append(f"{f.name} = {format_value(f.name, getattr(sim, f.name))}")
    return "\n".join(lines) + "\n"
