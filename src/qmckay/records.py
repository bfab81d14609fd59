"""Frozen value records, the package's stand-in for ``@dataclass(frozen=True)``.

``record`` reads a class's fields, in order, from its own
``__annotations__`` (never evaluated: every module uses postponed
annotations) and their defaults from its class attributes, then installs
closures over the field names: a keyword-or-positional ``__init__`` that
calls ``__post_init__`` when the class has one, ``__eq__`` and ``__hash__``
on the tuple of field values (the frozen dataclass's hash, so cache keys and
set orders match it), ``__repr__`` as ``Name(field=value!r, ...)``,
``__match_args__``, and, with ``order=True``, the four orderings on the same
tuple.  Nothing is generated as source and nothing is inspected, so defining
a record costs a few function objects.

Values live in the instance ``__dict__``, so ``functools.cached_property``
works on a record; assigning or deleting any attribute raises
``FrozenRecordError``.
"""

from __future__ import annotations

from operator import attrgetter, eq, ge, gt, le, lt


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


def _frozen_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _comparison(values, op):
    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(values(self), values(other))
        return NotImplemented

    return compare


def record(cls=None, *, order=False):
    """Make ``cls`` a frozen record; use as ``@record`` or ``@record(order=True)``."""
    if cls is None:
        return lambda cls: _install(cls, order)
    return _install(cls, order)


def _install(cls, order):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        fields = self.__dict__
        fields.update(zip(names, args))
        missing = []
        for name in names[len(args):]:
            if name in kwargs:
                fields[name] = kwargs.pop(name)
            elif name in defaults:
                fields[name] = defaults[name]
            else:
                missing.append(name)
        for name in kwargs:
            if name in names:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        if missing:
            raise TypeError(f"{cls.__name__}() missing required arguments: "
                            + ", ".join(map(repr, missing)))
        if post_init:
            self.__post_init__()

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    methods = {
        "__init__": __init__,
        "__repr__": __repr__,
        "__eq__": _comparison(values, eq),
        "__hash__": lambda self: hash(values(self)),
        "__setattr__": _frozen_setattr,
        "__delattr__": _frozen_delattr,
        "__match_args__": names,
    }
    if order:
        methods.update(__lt__=_comparison(values, lt), __le__=_comparison(values, le),
                       __gt__=_comparison(values, gt), __ge__=_comparison(values, ge))
    for name, method in methods.items():
        setattr(cls, name, method)
    return cls
