"""Exception types shared across the package, and the two checks every
number that enters it goes through: exact for its type, finite for its
range."""

import math
import sys
from numbers import Real


class SpotIndexError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(SpotIndexError):
    """A record in an input file could not be parsed.

    Carries enough context (source, line, field) to locate the offending record.
    """

    def __init__(self, message, source=None, line=None, field=None):
        parts = []
        if source is not None:
            parts.append(str(source))
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field {field!r}")
        prefix = ": ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.source = source
        self.line = line
        self.field = field


class ConflictError(SpotIndexError):
    """Two records claim the same identity (e.g. duplicate catalog id)."""


class InvariantError(SpotIndexError, ValueError):
    """A value violates a type invariant (non-positive capacity, NaN price, ...).

    Also a ValueError, so callers that catch either class catch it."""


class OutOfRangeError(SpotIndexError):
    """A timestamp falls outside the range a trace or series covers."""


class GapError(SpotIndexError):
    """A sample cannot be computed (all members capped, missing trace, ...)."""


class CoverageError(SpotIndexError):
    """A computation needs samples that the inputs do not cover."""


class SelectionError(SpotIndexError):
    """A policy cannot produce a selection from the offered candidates."""


class SimulationError(SpotIndexError):
    """The simulator cannot run or continue with the given inputs."""


def exact(kind, value, key: str):
    """value as kind (int, float, bool or str), or an InvariantError naming
    key where the cast would change it or overflow: a boolean or string
    where a number is due, a fraction where an int is due, a whole number
    beyond the float range where a float is due, or any other type where a
    bool or str is due."""
    if kind in (bool, str):
        ok = isinstance(value, kind)
    elif kind is int:
        ok = type(value) in (int, float) and value % 1 == 0
    else:
        ok = type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)
    if not ok:
        raise InvariantError(f"{key} must be {kind.__name__}, got {value!r}")
    return kind(value)


def finite(value, name: str, minimum=0, strict: bool = True):
    """An InvariantError naming `name` unless value is a real number (not a
    boolean), finite (a whole number beyond the float range is not), and
    above minimum (or equal to it, when not strict)."""
    # plain floats and ints skip the abstract Real check, which is slow
    plain = type(value) is float or type(value) is int
    try:
        ok = (
            (plain or isinstance(value, Real) and not isinstance(value, bool))
            and math.isfinite(value)
            and (value > minimum if strict else value >= minimum)
        )
    except OverflowError:  # math.isfinite of a whole number beyond the float range
        ok = False
    if not ok:
        bound = f"{'>' if strict else '>='} {minimum}"
        raise InvariantError(f"{name} must be finite and {bound}, got {value!r}")
