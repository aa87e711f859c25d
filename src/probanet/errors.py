"""Exception types shared across the package."""

import math
from dataclasses import fields
from numbers import Integral, Real


class ProbanetError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ProbanetError, ValueError):
    """Tensor shapes or channel counts do not line up."""


class DomainError(ProbanetError, ValueError):
    """A scalar argument is outside its allowed range."""


class NumericError(ProbanetError, ArithmeticError):
    """A computation produced a non-finite value."""


class ConfigError(ProbanetError, ValueError):
    """A configuration file or value could not be validated.

    field names the config field at fault, when the error is about one
    field's value alone.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def _is(kind, value) -> bool:
    """Whether value is an instance of kind (a numbers ABC) but not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _integer_pairs(value) -> bool:
    return isinstance(value, tuple) and all(
        isinstance(p, tuple) and len(p) == 2 and all(_is(Integral, n) for n in p)
        for p in value
    )


# What a field admits, by the type of its default, and how an error names it.
_KINDS = {
    bool: ("a bool", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: _is(Integral, v)),
    float: ("a finite number", lambda v: _is(Real, v) and math.isfinite(v)),
    tuple: ("a tuple of integer pairs", _integer_pairs),
}


def require_field_kinds(config) -> None:
    """Reject a config dataclass field whose value is not of its default's
    kind: a bool; an integer that is not a bool (numpy integers
    included); a finite real number; a tuple of integer pairs (the anchor
    shapes)."""
    for f in fields(config):
        value = getattr(config, f.name)
        expected, admits = _KINDS[type(f.default)]
        if not admits(value):
            raise ConfigError(
                f"{f.name}: expected {expected}, got {value!r}", field=f.name
            )


def require_field(config, name: str, ok: bool, rule: str) -> None:
    """Reject the value of config's field name unless ok, with an error
    that names the field: "<name>: must <rule>, got <value>"."""
    if not ok:
        value = getattr(config, name)
        raise ConfigError(f"{name}: must {rule}, got {value!r}", field=name)


class EmptyPoolError(ProbanetError, RuntimeError):
    """The sampler was given no surviving candidates to draw from."""
