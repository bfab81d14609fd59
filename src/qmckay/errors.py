"""Shared exception types, and the argument readers `as_int`, `position` and `dense`."""

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


def position(labels, key, what: str) -> int:
    """The index in ``labels`` of ``key``: one of the labels, or an int index in range."""
    if isinstance(key, str):
        if key not in labels:
            raise ConfigurationError(f"unknown {what} {key!r}")
        return labels.index(key)
    k = as_int(key, f"a {what} index")
    if not 0 <= k < len(labels):
        raise ConfigurationError(f"{what} index {k} out of range 0..{len(labels) - 1}")
    return k


def dense(values, names, what: str) -> tuple:
    """The sparse map ``values`` as a tuple over ``names``: an absent name
    reads as 0, and a key that is not one of the names is refused."""
    unknown = set(values) - set(names)
    if unknown:
        raise ConfigurationError(f"unknown {what} {sorted(unknown, key=repr)}")
    return tuple(values.get(name, 0) for name in names)
