"""Shared exception types, and the one integer check that raises one."""

from operator import index


class ConfigurationError(ValueError):
    """Invalid group / root-system parameters or malformed operation arguments."""


class InternalConsistencyError(RuntimeError):
    """An integer-rounding residual or internal cross-check exceeded tolerance."""


class PoleError(ArithmeticError):
    """An evaluation point landed on (or too close to) a tangent pole."""


def as_int(value, what: str) -> int:
    """``value`` as an int; a non-integer such as 1.7 is refused, not truncated."""
    try:
        return index(value)
    except TypeError:
        raise ConfigurationError(f"{what} must be an integer, got {value!r}") from None
