"""The base of the library's value classes: fields set once, compared as a tuple.

A subclass names its fields in `_fields` and writes its own `__init__`, which
checks its arguments and sets each field once, with `_set` or, on the hot
paths, `setfield`.  `_trusted` is the one way to build a value whose fields
the caller has already checked; each subclass states in its docstring the
invariant such a build must keep.  The base gives `==` and `hash` of the
tuple of fields, the `Name(field=value, ...)` repr, and no assignment or
deletion of a field afterwards, with no code generated at import.  Instances
keep a `__dict__`, so `copy` and `pickle` restore them without calling
`__setattr__`.
"""

from __future__ import annotations

from typing import Any

# sets a field past the frozen __setattr__; unlike a write to __dict__, it builds
# no dict per instance (CPython keeps the values inline)
setfield = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values: Any) -> None:
        """Set the fields to the values, in `_fields` order."""
        for name, value in zip(self._fields, values):
            setfield(self, name, value)

    @classmethod
    def _trusted(cls, *values: Any) -> Any:
        """The value with these fields, in `_fields` order, built without `__init__`.

        The caller vouches that the values keep the class's invariant, so
        `__init__` would store them unchanged and the result equals the value
        it builds, `==` and hash included.  Values read from outside the
        library go through `__init__`.
        """
        self = object.__new__(cls)
        self._set(*values)
        return self

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> Any:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
