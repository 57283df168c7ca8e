"""Exception hierarchy and the record type shared across the package.

Validation failures (rejected input, malformed files) are ValueError
subclasses and map to CLI exit code 1; execution failures (worker
crashes, protocol violations, cross-backend disagreement) map to exit
code 2.  record() makes every record type, and quoted() every value an
error quotes, so that a worker imports no collections and, until an
error quotes a value, no reprlib.
"""

import sys
from _collections import _tuplegetter


class ValidationError(ValueError):
    """Input rejected before any work started."""


class CapacityError(ValidationError):
    """Quantity exceeds the supported 128-bit permutation-index range."""


class ExecutionError(RuntimeError):
    """A backend failed while running: spawn failure, worker crash, clock fault."""


class ProtocolError(ExecutionError):
    """The coordinator/worker exchange violated the wire protocol."""


class CorrectnessError(ExecutionError):
    """A backend's answer disagreed with the serial baseline."""


def quoted(value) -> str:
    """repr(value), shortened by reprlib, so that a hostile input cannot
    make a long error; only an error that quotes a value imports it."""
    import reprlib

    return reprlib.repr(value)


def _repr(self):
    return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"


def _replace(self, /, **changes):
    result = self._make(map(changes.pop, self._fields, self))
    if changes:
        raise ValueError(f"Got unexpected field names: {list(changes)!r}")
    return result


def record(name: str, fields: str) -> type:
    """The tuple type ``name`` of the whitespace-separated ``fields``, as
    collections.namedtuple makes it: built by position or keyword, an
    attribute per field, the repr ``name(field=value, ...)``, _fields,
    _asdict in field order, _replace, and pickled by reference, as a
    type of its caller's module.  _make (so _replace) calls the type and
    copy and unpickling call its __new__, so a subclass whose __new__
    checks its fields checks them on each of them too."""
    fields = tuple(fields.split())
    args = ", ".join(fields)
    return type(name, (tuple,), {
        "__slots__": (), "_fields": fields, "__module__": sys._getframe(1).f_globals["__name__"],
        "__new__": eval(f"lambda _cls, {args}: _new(_cls, ({args},))", {"_new": tuple.__new__}),
        "__getnewargs__": lambda self: tuple(self), "__repr__": _repr, "_replace": _replace,
        "_asdict": lambda self: dict(zip(self._fields, self)),
        "_make": classmethod(lambda cls, iterable: cls(*iterable)),
        **{field: _tuplegetter(i, f"Alias for field number {i}") for i, field in enumerate(fields)},
    })
