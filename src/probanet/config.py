"""Flat key = value experiment configuration.

One file covers every training and simulation parameter; `#` starts a
comment that runs to the end of its line.  Unknown keys are rejected
with their line number, missing keys take the dataclass defaults, and
formatting then re-parsing a resolved config reproduces it exactly
(every value serializes via a round-trip-safe form).
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ConfigError
from .sim import SimConfig
from .training import TrainConfig

_TRAIN_FIELDS = {f.name for f in fields(TrainConfig)}
_SIM_FIELDS = {f.name for f in fields(SimConfig)}
# Each key parses as the type of its field's default: bool, tuple (the
# anchor shapes), int or float.
_KINDS = {
    f.name: type(f.default) for cfg in (TrainConfig, SimConfig) for f in fields(cfg)
}


def parse_value(key: str, text: str, lineno: int):
    kind = _KINDS[key]
    try:
        if kind is bool:
            low = text.lower()
            if low not in ("true", "false"):
                raise ValueError(f"expected true/false, got {text!r}")
            return low == "true"
        if kind is tuple:
            shapes = []
            for tok in text.split(","):
                h, _, w = tok.strip().partition("x")
                shapes.append((int(h), int(w)))
            return tuple(shapes)
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc


def format_value(key: str, value) -> str:
    kind = _KINDS[key]
    if kind is bool:
        return "true" if value else "false"
    if kind is tuple:
        return ",".join(f"{h}x{w}" for h, w in value)
    # str of a float is its shortest round-trip form.
    return str(value)


def parse_entries(text: str) -> dict[str, tuple[int, object]]:
    """The keys the flat key = value text sets, each with its line number
    and parsed value."""
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = key.strip(), value.strip()
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        if key not in _KINDS:
            raise ConfigError(f"line {lineno}: unknown key {key}")
        entries[key] = lineno, parse_value(key, value, lineno)
    return entries


def parse_config(text: str) -> tuple[TrainConfig, SimConfig]:
    """Parse the flat key = value format into the two config objects."""
    entries = parse_entries(text)
    train_kv = {k: v for k, (_, v) in entries.items() if k in _TRAIN_FIELDS}
    sim_kv = {k: v for k, (_, v) in entries.items() if k in _SIM_FIELDS}
    try:
        return TrainConfig(**train_kv), SimConfig(**sim_kv)
    except ConfigError as exc:
        if exc.field in entries:
            raise ConfigError(
                f"line {entries[exc.field][0]}: bad value for {exc}", field=exc.field
            ) from exc
        raise


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
