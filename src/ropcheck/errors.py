"""Exception types shared across the package, and the one scale guard.

Every error raised by the library is a subclass of Error, so callers can
catch the whole family with one clause.  Arithmetic and structural errors
additionally subclass the builtin they shadow (ValueError, ZeroDivisionError)
so generic code behaves sensibly.
"""

# desk-scale limit on the number of things one call may store or enumerate
EXHAUSTIVE_LIMIT = 2_000_000


class Error(Exception):
    pass


class NotPrime(Error, ValueError):
    pass


class OutOfRange(Error, ValueError):
    pass


class DivisionByZero(Error, ZeroDivisionError):
    pass


class FieldMismatch(Error, ValueError):
    pass


class ArityMismatch(Error, ValueError):
    pass


class NotMultilinear(Error, ValueError):
    pass


class NotMultilinearInVar(NotMultilinear):
    pass


class SameVariable(Error, ValueError):
    pass


class VariableNotPresent(Error, ValueError):
    pass


class IndexOverlap(Error, ValueError):
    pass


class EmptySampleSet(Error, ValueError):
    pass


class DuplicateNode(Error, ValueError):
    pass


class IncompleteGrid(Error, ValueError):
    pass


class ReadOnceViolation(Error, ValueError):
    pass


class TooFewVariables(Error, ValueError):
    pass


class TooManyVariables(Error, ValueError):
    pass


class NotSeparableAlongCut(Error, ValueError):
    pass


class NotDecomposable(Error, ValueError):
    pass


class FieldTooSmall(Error, ValueError):
    pass


class DegreeTooSmall(Error, ValueError):
    pass


class ParseError(Error, ValueError):
    pass


class InvalidParams(Error, ValueError):
    pass


class ScaleGuardExceeded(Error, ValueError):
    pass


def guard_scale(count: int, what: str):
    """Raise ScaleGuardExceeded when count (of `what`) exceeds EXHAUSTIVE_LIMIT."""
    if count > EXHAUSTIVE_LIMIT:
        raise ScaleGuardExceeded(f"{count} {what} exceed the limit {EXHAUSTIVE_LIMIT}")
