"""Valuations on the character algebra from rational weighted multicurves.

A lamination here is a finite set of disjoint simple classes with positive
rational weights.  It pairs with any class through the geometric intersection
number, weighted and summed; the valuation of an expression is the largest
pairing over its basis terms, and the zero expression takes the bottom value.
Discreteness, positivity and strictness are decided or checked against
explicitly bounded curve universes, and every report says which bound it used.

Values are computed as integers over one common denominator: the lcm of the
weight denominators.  Every weight is then an integer numerator over that
positive denominator, so every pairing and every term sum is an integer over
it too, and comparing, maximizing and testing equality of the numerators is
exact.  A value leaves as an int when den divides its numerator and as a
Fraction only otherwise.  A lamination keeps den, its scaled weights and
its pairings with the classes paired so far, so it pairs with each class
once in its life.  Every public call first checks that the lamination and
what it pairs are on the surface (an empty lamination makes no pair count
that would notice), so the table is keyed by word.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import (
    Multicurve,
    TraceExpression,
    _rational,
    _weight_map,
    enumerate_multicurves,
    expand_trace,
    multiply_expressions,
    format_multicurve,
)
from .curves import (
    _check_genus,
    _length_bound,
    check_disjoint_simple,
    enumerate_simple_classes,
    intersection_number,
    is_simple,
)
from .errors import BadArgument, BadLetter, BadValue, NotSimple
from .words import (
    CurveClass,
    Surface,
    _canonical_class,
    _record,
    _text,
    _word,
    canonical_class,
    format_word,
    homology_class,
    mod2_class,
    parse_word,
)

WITNESS_LENGTH_BOUND = 4


class Lamination(_record("Lamination", "genus weights")):
    """Disjoint simple classes with positive rational weights: weights is
    ((CurveClass, weight), ...) in component order, and a weight is a
    Fraction, or an int when thurston_max_check builds a unit weight.
    Beside the fields, which alone make equality and hash, it keeps _den,
    _scaled (den * weight per component) and _pairings: den * i(lam, c) for
    each class c paired so far, keyed by word, as every class paired with it
    has passed _check_genus against it."""

    def __new__(cls, genus: int, weights: tuple):
        # built here, not as cached_property: under Python 3.11 the three
        # first reads take a lock each, which doubles the set-up of a
        # lamination that valuates once, as thurston_max_check's do
        self = tuple.__new__(cls, (genus, weights))
        self._den = den = lcm(*(w.denominator for _, w in weights))
        self._scaled = tuple((c, w.numerator * (den // w.denominator)) for c, w in weights)
        self._pairings = {}
        return self

    def weight(self, cls: CurveClass) -> Fraction:
        for c, w in self.weights:
            if c == cls:
                return w
        return Fraction(0)

    def __str__(self) -> str:
        return format_lamination(self)

    def _of_class(self, s: Surface, c: CurveClass) -> int:
        """den * i(lam, c)."""
        value = self._pairings.get(c.word)
        if value is None:
            value = sum(w * intersection_number(s, comp, c) for comp, w in self._scaled)
            self._pairings[c.word] = value
        return value

    def _of_multicurve(self, s: Surface, mc: Multicurve) -> int:
        """den * i(lam, mc)."""
        of_class = self._of_class
        # lists rather than generators here and in _value: the sums are short
        # and run once per term of every valuation
        return sum([mult * of_class(s, c) for c, mult in mc.components])

    def _value(self, s: Surface, f: TraceExpression) -> ValuationValue:
        if f.is_zero():
            return ValuationValue.bottom()
        best = max([self._of_multicurve(s, mc) for mc, _ in f.terms])
        return ValuationValue(finite=True, value=_quotient(best, self._den))


def make_lamination(s: Surface, weights) -> Lamination:
    """Validated constructor: positive weights, simple disjoint components."""
    acc = {}
    for cls, w in _weight_map(weights).items():
        w = _rational(w, "weight")
        if w <= 0:
            raise BadValue(f"weight {w} of {format_word(cls.word)} not positive")
        acc[cls] = acc.get(cls, Fraction(0)) + w
    classes = check_disjoint_simple(s, acc)
    items = tuple((c, acc[c]) for c in classes)
    return Lamination(genus=s.genus, weights=items)


def scale_lamination(lam: Lamination, factor) -> Lamination:
    if not isinstance(lam, Lamination):
        raise BadArgument(f"expected a Lamination, not {type(lam).__name__}")
    factor = _rational(factor, "scale factor")
    if factor <= 0:
        raise BadValue(f"scale factor {factor} not positive")
    return Lamination(
        genus=lam.genus, weights=tuple((c, w * factor) for c, w in lam.weights)
    )


def format_lamination(lam: Lamination) -> str:
    return "\n".join(f"{w}\t{format_word(c.word)}" for c, w in lam.weights)


def parse_lamination(s: Surface, text: str) -> Lamination:
    """One component per line as RATIONAL<TAB>word; inline strings may
    separate components with commas or semicolons instead of newlines."""
    acc = {}
    for chunk in _text(text).replace(";", "\n").replace(",", "\n").splitlines():
        line = chunk.strip()
        if not line or line.startswith("#"):
            continue
        weight_text, _, word_text = line.partition("\t")
        if not word_text:
            weight_text, _, word_text = line.partition(" ")
        if not word_text.strip():
            raise BadLetter(f"lamination line {line!r} lacks a word")
        try:
            weight = Fraction(weight_text.strip())
        except (ValueError, ZeroDivisionError):
            raise BadLetter(f"cannot parse the weight of {line!r}") from None
        cls = canonical_class(s, parse_word(s, word_text.strip()))
        acc[cls] = acc.get(cls, Fraction(0)) + weight
    return make_lamination(s, acc)


# -- the valuation -------------------------------------------------------------


class ValuationValue(_record("ValuationValue", "finite value")):
    """A rational, or the bottom element taken only by the zero expression.
    The value is an int when integral and a Fraction otherwise, as are
    expression coefficients.  <=, > and >= are the tuple's, which agree
    with __lt__: bottom is (False, 0), below every (True, value)."""

    __slots__ = ()

    @staticmethod
    def bottom() -> "ValuationValue":
        return ValuationValue(finite=False, value=0)

    @staticmethod
    def of(value) -> "ValuationValue":
        value = _rational(value, "valuation value")
        return ValuationValue(
            finite=True, value=value.numerator if value.denominator == 1 else value
        )

    def is_bottom(self) -> bool:
        return not self.finite

    def add(self, other: "ValuationValue") -> "ValuationValue":
        if not (self.finite and other.finite):
            return ValuationValue.bottom()
        return ValuationValue.of(self.value + other.value)

    def __lt__(self, other: "ValuationValue") -> bool:
        if not self.finite:
            return other.finite
        if not other.finite:
            return False
        return self.value < other.value

    def __str__(self) -> str:
        return str(self.value) if self.finite else "-inf"


def _quotient(num: int, den: int) -> int | Fraction:
    """num / den exactly: an int when den divides num, else a Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def _check_pairing(s: Surface, lam, kind=None, *items) -> None:
    """BadArgument unless lam is a Lamination and each item a kind, then
    GenusMismatch unless lam and the items are on s."""
    if not isinstance(lam, Lamination):
        raise BadArgument(f"expected a Lamination, not {type(lam).__name__}")
    for x in items:
        if not isinstance(x, kind):
            raise BadArgument(f"expected a {kind.__name__}, not {type(x).__name__}")
    _check_genus(s, lam, *items)


def lamination_intersection(
    s: Surface, lam: Lamination, c: CurveClass
) -> int | Fraction:
    _check_pairing(s, lam, CurveClass, c)
    return _quotient(lam._of_class(s, c), lam._den)


def multicurve_intersection(
    s: Surface, lam: Lamination, mc: Multicurve
) -> int | Fraction:
    _check_pairing(s, lam, Multicurve, mc)
    return _quotient(lam._of_multicurve(s, mc), lam._den)


def valuate(s: Surface, lam: Lamination, f: TraceExpression) -> ValuationValue:
    """The largest pairing of lam with a basis term of f, or the bottom value
    when f is zero.  The maximum is taken over integers on one common
    denominator and turned into one int or Fraction at the end."""
    _check_pairing(s, lam, TraceExpression, f)
    return lam._value(s, f)


# -- checks with reports --------------------------------------------------------


# The one dataclass of the package (see words): perfbench/selftest.py
# corrupts reports with dataclasses.replace to check the benchmark's checks.
@dataclass(frozen=True)
class ThurstonReport:
    """Geometric count against the valuation of the expanded trace."""

    delta: CurveClass
    word: tuple
    # i(delta, word) from intersection_number, which counts it on delta's
    # splitting, not on a diagram; the name stays because the benchmark's
    # workloads read it
    diagram_count: int
    expansion_value: ValuationValue

    @property
    def ok(self) -> bool:
        return self.expansion_value == ValuationValue.of(self.diagram_count)

    def __str__(self) -> str:
        verdict = "ok" if self.ok else "MISMATCH"
        return (
            f"diagram={self.diagram_count}"
            f" expansion={self.expansion_value} {verdict}"
        )


def thurston_max_check(s: Surface, delta: CurveClass, word) -> ThurstonReport:
    """Intersection with a simple class read two ways: as the translation
    length of the word on the Bass-Serre tree of delta's splitting (the
    splitting count of intersection_number, not a diagram count), and as the
    valuation of the expanded trace."""
    if not is_simple(s, delta):
        raise NotSimple(f"{format_word(delta.word)} is not a simple class")
    word = _word(s.genus, word)
    # make_lamination would only test delta's simplicity again
    lam = Lamination(genus=s.genus, weights=((delta, 1),))
    value = valuate(s, lam, expand_trace(s, word))
    cls = _canonical_class(s.genus, word)
    count = 0 if cls is None else intersection_number(s, delta, cls)
    return ThurstonReport(
        delta=delta, word=word, diagram_count=count, expansion_value=value
    )


class MultiplicativityReport(
    _record("MultiplicativityReport", "left_value right_value product_value")
):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.product_value == self.left_value.add(self.right_value)

    def __str__(self) -> str:
        verdict = "ok" if self.ok else "MISMATCH"
        return (
            f"v(fg)={self.product_value} v(f)={self.left_value}"
            f" v(g)={self.right_value} {verdict}"
        )


def multiplicativity_check(
    s: Surface, lam: Lamination, f: TraceExpression, g: TraceExpression
) -> MultiplicativityReport:
    _check_pairing(s, lam, TraceExpression, f, g)
    return MultiplicativityReport(
        left_value=lam._value(s, f),
        right_value=lam._value(s, g),
        product_value=lam._value(s, multiply_expressions(s, f, g)),
    )


class DiscretenessReport(_record("DiscretenessReport", "discrete witness value")):
    __slots__ = ()

    def __str__(self) -> str:
        if self.discrete:
            return "Discrete"
        if self.witness is None:
            return "NotDiscrete witness=none-within-bound"
        return (
            f"NotDiscrete witness={format_word(self.witness.word)}"
            f" value={self.value}"
        )


def classify_discrete(s: Surface, lam: Lamination) -> DiscretenessReport:
    """Integer-valued exactly for half-integer weights whose doubled
    multicurve is null-homologous mod 2; otherwise hunt a witness curve
    with fractional pairing among simple classes of bounded length."""
    _check_pairing(s, lam)
    den = lam._den
    # half-integral weights: den divides 2
    if 2 % den == 0:
        doubled = [(c, n * (2 // den)) for c, n in lam._scaled]
        if not any(mod2_class(s, doubled)):
            return DiscretenessReport(discrete=True, witness=None, value=None)
    for c in enumerate_simple_classes(s, WITNESS_LENGTH_BOUND):
        value = lam._of_class(s, c)
        if value % den:
            return DiscretenessReport(
                discrete=False, witness=c, value=Fraction(value, den)
            )
    return DiscretenessReport(discrete=False, witness=None, value=None)


class PositivityReport(_record("PositivityReport", "bound positive witness")):
    __slots__ = ()

    def __str__(self) -> str:
        if self.positive:
            return f"Positive bound={self.bound}"
        return (
            f"NotPositive witness={format_word(self.witness.word)}"
            f" bound={self.bound}"
        )


def check_positive_up_to(s: Surface, lam: Lamination, bound: int) -> PositivityReport:
    """Positive pairing with every simple class of length <= bound."""
    _length_bound(bound, 1)
    _check_pairing(s, lam)
    for c in enumerate_simple_classes(s, bound):
        if lam._of_class(s, c) == 0:
            return PositivityReport(bound=bound, positive=False, witness=c)
    return PositivityReport(bound=bound, positive=True, witness=None)


class StrictnessReport(
    _record("StrictnessReport", "bound strict first second value")
):
    __slots__ = ()

    def __str__(self) -> str:
        if self.strict:
            return f"Strict bound={self.bound}"
        return (
            f"NotStrict first={format_multicurve(self.first)}"
            f" second={format_multicurve(self.second)}"
            f" value={self.value} bound={self.bound}"
        )


def check_strict_up_to(s: Surface, lam: Lamination, bound: int) -> StrictnessReport:
    """Pairwise-distinct values on all multicurves of total length <= bound."""
    _length_bound(bound, 1)
    _check_pairing(s, lam)
    seen: dict = {}
    for mc in enumerate_multicurves(s, bound):
        value = lam._of_multicurve(s, mc)
        if value in seen:
            return StrictnessReport(
                bound=bound,
                strict=False,
                first=seen[value],
                second=mc,
                value=_quotient(value, lam._den),
            )
        seen[value] = mc
    return StrictnessReport(
        bound=bound, strict=True, first=None, second=None, value=None
    )


def curv_normalize(s: Surface, cls: CurveClass) -> Lamination:
    """Weight 1 on a non-separating simple class, 1/2 on a separating one."""
    if not is_simple(s, cls):
        raise NotSimple(f"{format_word(cls.word)} is not a simple class")
    separating = homology_class(s, cls.word).is_zero()
    return make_lamination(s, {cls: Fraction(1, 2) if separating else Fraction(1)})
