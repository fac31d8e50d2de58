"""Exception types shared across the package.

The CLI maps these onto distinct exit codes and machine-readable error
objects, so solvers raise them instead of bare ValueError/RuntimeError.
"""


class InvalidInput(ValueError):
    """Arguments violate a documented precondition (arity mismatch, bad flag, ...)."""


class ResourceLimit(RuntimeError):
    """The instance exceeds a hard size cap of an exhaustive algorithm."""
