"""Exception types shared across the package."""

import math
from dataclasses import fields


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


def require_finite_floats(config) -> None:
    """Reject a config dataclass whose float fields hold nan or inf."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(
                f"{f.name}: expected a finite number, got {value!r}", field=f.name
            )


class EmptyPoolError(ProbanetError, RuntimeError):
    """The sampler was given no surviving candidates to draw from."""
