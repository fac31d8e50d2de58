"""Exception types shared across the package, and the rule that reads a scalar.

The CLI maps these onto distinct exit codes and machine-readable error
objects, so solvers raise them instead of bare ValueError/RuntimeError.
"""

import reprlib
from typing import Any, Callable


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
