"""Exception types shared across the package."""


class CurvetraceError(Exception):
    """Base class for all package errors."""


class GenusTooSmall(CurvetraceError):
    """Raised when a surface of genus < 2 is requested."""


class BadLetter(CurvetraceError):
    """Raised when word text references a generator outside the surface alphabet."""


class GenusMismatch(CurvetraceError):
    """Raised when a class of one genus is used on a surface of another."""


class TrivialClass(CurvetraceError):
    """Raised when an operation needs a nontrivial free homotopy class."""


class SolveFailed(CurvetraceError):
    """Raised when representation sampling exhausts its resample budget."""


class ReductionBudgetExceeded(CurvetraceError):
    """Raised when diagram tautening exceeds its operation budget."""


class ExpansionBudgetExceeded(CurvetraceError):
    """Raised when trace expansion recursion exceeds its depth cap."""


class NotSimple(CurvetraceError):
    """Raised when an operation requires a simple curve but got one with crossings."""


class NotSimpleImage(CurvetraceError):
    """Raised when a mapping class image of a multicurve component fails simplicity."""


class BadIndex(CurvetraceError):
    """Raised when a twist generator index is out of range."""


class ModelInconsistency(CurvetraceError):
    """Internal invariant violation in the polygon model; always a bug if seen."""
