"""Exception types shared across the library, and its two argument rules, which name the argument they refuse: every
public constructor, and the CLI for its own flags, checks each scalar with one of the number rule's three forms below,
and every public reader and value constructor checks each value, grid, spec, filter, potential and config it takes
with the kind rule, ``_checked_kind``, of its kind and grid."""

import numbers
import sys


class WignerlabError(Exception):
    """Base class for all library-specific errors."""


class GridMismatchError(WignerlabError, ValueError):
    """Operands live on different lattices and cannot be combined."""


class InvariantViolation(WignerlabError, ValueError):
    """A numerical invariant of the phase-space calculus was breached.

    Raised when input data is unnormalized, non-Hermitian, unphysical,
    or when an evolution run goes numerically unstable.  Command-line
    wrappers translate this into exit code 1 (everything else that goes
    wrong is a usage or I/O problem, exit code 2).
    """


def _finite(name: str, v) -> float:
    """``v`` as a float: a real number, not a bool (JSON's true is no number), and finite."""
    if not (isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {v!r}")
    return float(v)


def _positive(name: str, v) -> float:
    """``v`` as a float: a finite number above zero."""
    if not (x := _finite(name, v)) > 0:
        raise ValueError(f"{name} must be positive, got {x!r}")
    return x


def _count(name: str, v) -> int:
    """``v`` as an int: a finite number with no fractional part."""
    if not (x := _finite(name, v)).is_integer():
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _checked_fields(obj, **rules) -> None:
    """Store each named field of the frozen dataclass ``obj`` as its rule, one of the three above, returns it."""
    for name, rule in rules.items():
        object.__setattr__(obj, name, rule(name, getattr(obj, name)))


def _checked_kind(w, kind: type, name: str, on: tuple | None = None) -> None:
    """Refuse ``w``, the ``name`` argument of its reader, unless it is the ``kind`` of value that the reader takes and,
    where ``on`` is the ``(value, name)`` of the reader's first argument, it lives on that argument's grid."""
    if not isinstance(w, kind):
        raise TypeError(f"the {name} must be a {kind.__name__}, got a {type(w).__name__}")
    if on is not None and w.grid != on[0].grid:
        raise GridMismatchError(f"the {name} lives on another grid than the {on[1]}")
