"""Exception types shared across the package, and the one rule that reads a number.

The CLI maps these onto distinct exit codes and machine-readable error
objects, so solvers raise them instead of bare ValueError/RuntimeError.

A number is an int or a float, not a bool, and it must convert to a float:
an int beyond the float range is named, not an OverflowError.  A bool or a
numeric string is not a number, though float() reads both, and neither is
bytes or None.  `_number` reads a scalar parameter this way, with its own
domain check and message; `_numbers` reads the entries of a vector (the
coefficients and tail of a `FinSeq`, the values of a `TreeVec`, the entries
of an Orlicz vector), which must also be finite, and names only the first
bad entry and where it is, so a long input is never echoed.  Every reader
of outside numbers calls one of the two: no other module decides what a
number is.
"""

import contextlib
import math
import reprlib
from typing import Any, Callable, Iterable


class InvalidInput(ValueError):
    """Arguments violate a documented precondition (arity mismatch, bad flag, ...)."""


class ResourceLimit(RuntimeError):
    """The instance exceeds a hard size cap of an exhaustive algorithm."""


def _short_repr(v: object) -> str:
    """`reprlib.repr(v)`, or a note for an int too long to convert to text.

    Such an int has more digits than `sys.get_int_max_str_digits()`, and its
    repr raises `ValueError`; the limit is process-wide, so it is left alone.
    """
    try:
        return reprlib.repr(v)
    except ValueError:
        return "an integer too long to print"


_FLOAT, _PLAIN = frozenset((float,)), frozenset((int, float))


def _index(i: int) -> str:
    return f"index {i + 1}"


def _numbers(values: Iterable, what: str, where: Callable = _index) -> list[float]:
    """The values as finite floats, each read as `_number` reads a scalar.

    The first value that is not a number is InvalidInput "<what> must be
    numbers: <value> at <where>", and the first that is not finite "<what>
    must be finite: <value> at <where>", where `where(i)` places the i-th
    value (from 0): "index i + 1" by default, or the tail or a tree node.
    An int beyond the float range is named as such, not by its digits.
    Plain floats and ints take three passes in C: their types, their copy
    as floats, and one sum, which is finite only if every value is.  Any
    other input is read value by value; an iterator is first copied.
    """
    if iter(values) is values:  # an iterator could be read only once
        values = tuple(values)
    vals = None
    if _FLOAT.issuperset(map(type, values)):
        vals = list(values)  # float(v) is v
    elif _PLAIN.issuperset(map(type, values)):
        with contextlib.suppress(OverflowError):
            vals = list(map(float, values))
    # a finite sum has finite terms; one that overflows is read again below
    if vals is not None and math.isfinite(sum(vals)):
        return vals
    # a float subclass, or some bad value: read one at a time to find it
    vals = []
    for i, v in enumerate(values):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise InvalidInput(f"{what} must be numbers: {_short_repr(v)} at {where(i)}")
        try:
            t = float(v)
        except OverflowError:
            raise InvalidInput(
                f"{what} must be finite: an integer beyond the float range at {where(i)}"
            ) from None
        if not math.isfinite(t):
            raise InvalidInput(f"{what} must be finite: {t!r} at {where(i)}")
        vals.append(t)
    return vals


def _number(value: Any, rule: str, ok: Callable[[float], bool]) -> float:
    """The value as a float, if it is an int or a float, not a bool, and `ok` holds.

    Anything else is InvalidInput "<rule>, got <value>": as in the CLI's JSON
    readers, a bool or a numeric string is not a number, though float() reads
    both, and an int beyond the float range is named, not an OverflowError.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            t = float(value)
        except OverflowError:
            pass
        else:
            if ok(t):
                return t
    raise InvalidInput(f"{rule}, got {_short_repr(value)}")
