"""Exception types shared across the package."""


class CurvetraceError(Exception):
    """Base class for all package errors."""


class GenusTooSmall(CurvetraceError):
    """Raised when a surface of genus < 2 is requested."""


class BadLetter(CurvetraceError):
    """Raised when text cannot be parsed, or when word text references a
    generator outside the surface alphabet."""


class BadArgument(CurvetraceError, TypeError):
    """Raised when a public call gets an argument of the wrong kind, such as a
    tuple where a class is expected."""


class BadValue(CurvetraceError, ValueError):
    """Raised when a public call gets an argument of the right kind but a value
    it does not take, such as a bound below 1 or a weight that is not
    positive."""


class GenusMismatch(CurvetraceError):
    """Raised when a class of one genus is used on a surface of another."""


class TrivialClass(CurvetraceError):
    """Raised when an operation needs a nontrivial free homotopy class."""


class SolveFailed(CurvetraceError):
    """Raised when representation sampling exhausts its resample budget."""


class ReductionBudgetExceeded(CurvetraceError):
    """Raised when a computation outgrows its operation budget or a cap:
    diagram tautening, the exact pair search and the trace state sum, each on
    a Budget; the split search's class cap; the spelling closure's state cap."""


class NotSimple(CurvetraceError):
    """Raised when an operation requires a simple curve but got one with crossings."""


class NotSimpleImage(CurvetraceError):
    """Raised when a mapping class image of a multicurve component fails simplicity."""


class BadIndex(CurvetraceError):
    """Raised when a twist generator index is out of range."""


class ModelInconsistency(CurvetraceError):
    """Internal invariant violation in the polygon model; always a bug if seen."""
