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
Fraction only otherwise.  Each public call builds one pairing table that
pairs every distinct component class with the lamination once; the table
lives for that call only.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import lcm

from .algebra import (
    Multicurve,
    TraceExpression,
    _rational,
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
from .errors import BadLetter, BadValue, NotSimple
from .words import (
    CurveClass,
    Surface,
    _canonical_class,
    _text,
    _word,
    canonical_class,
    format_word,
    homology_class,
    mod2_class,
    parse_word,
)

WITNESS_LENGTH_BOUND = 4


@dataclass(frozen=True)
class Lamination:
    """Disjoint simple classes with positive rational weights."""

    genus: int
    # ((CurveClass, weight), ...) in component order; a weight is a Fraction,
    # or an int when thurston_max_check builds a unit weight
    weights: tuple

    def weight(self, cls: CurveClass) -> Fraction:
        for c, w in self.weights:
            if c == cls:
                return w
        return Fraction(0)

    def __str__(self) -> str:
        return format_lamination(self)


def make_lamination(s: Surface, weights) -> Lamination:
    """Validated constructor: positive weights, simple disjoint components."""
    acc = {}
    for cls, w in dict(weights).items():
        w = _rational(w, "weight")
        if w <= 0:
            raise BadValue(f"weight {w} of {format_word(cls.word)} not positive")
        acc[cls] = acc.get(cls, Fraction(0)) + w
    classes = check_disjoint_simple(s, acc)
    items = tuple((c, acc[c]) for c in classes)
    return Lamination(genus=s.genus, weights=items)


def scale_lamination(lam: Lamination, factor) -> Lamination:
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


@total_ordering
@dataclass(frozen=True)
class ValuationValue:
    """A rational, or the bottom element taken only by the zero expression.
    The value is an int when integral and a Fraction otherwise, as are
    expression coefficients."""

    finite: bool
    value: int | Fraction

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


class _Pairing:
    """The pairings of one lamination, as integers over its common
    denominator den, with a table of the classes paired so far.  One public
    call builds one and drops it when it returns.  Raises GenusMismatch up
    front unless lam and the other items (anything with .genus) are on s: an
    empty lamination makes no pair count that would notice."""

    def __init__(self, s: Surface, lam: Lamination, *items):
        _check_genus(s, lam, *items)
        self.s = s
        self.den = lcm(*(w.denominator for _, w in lam.weights))
        # den * weight, an integer for every component
        self.scaled = tuple(
            (c, w.numerator * (self.den // w.denominator)) for c, w in lam.weights
        )
        self.table: dict = {}

    def of_class(self, c: CurveClass) -> int:
        """den * i(lam, c)."""
        # keyed by word: every class of one call has the genus of s
        value = self.table.get(c.word)
        if value is None:
            s = self.s
            value = sum(w * intersection_number(s, comp, c) for comp, w in self.scaled)
            self.table[c.word] = value
        return value

    def of_multicurve(self, mc: Multicurve) -> int:
        """den * i(lam, mc)."""
        of_class = self.of_class
        # lists rather than generators here and in value: the sums are short
        # and run once per term of every valuation
        return sum([mult * of_class(c) for c, mult in mc.components])

    def value(self, f: TraceExpression) -> ValuationValue:
        if f.is_zero():
            return ValuationValue.bottom()
        best = max([self.of_multicurve(mc) for mc, _ in f.terms])
        return ValuationValue(finite=True, value=_quotient(best, self.den))


def lamination_intersection(
    s: Surface, lam: Lamination, c: CurveClass
) -> int | Fraction:
    pairing = _Pairing(s, lam, c)
    return _quotient(pairing.of_class(c), pairing.den)


def multicurve_intersection(
    s: Surface, lam: Lamination, mc: Multicurve
) -> int | Fraction:
    pairing = _Pairing(s, lam, mc)
    return _quotient(pairing.of_multicurve(mc), pairing.den)


def valuate(s: Surface, lam: Lamination, f: TraceExpression) -> ValuationValue:
    """The largest pairing of lam with a basis term of f, or the bottom value
    when f is zero.  The maximum is taken over integers on one common
    denominator and turned into one int or Fraction at the end, and each
    distinct component class of f is paired with lam once, in a table that
    lives for this call only."""
    return _Pairing(s, lam, f).value(f)


# -- checks with reports --------------------------------------------------------


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


@dataclass(frozen=True)
class MultiplicativityReport:
    left_value: ValuationValue
    right_value: ValuationValue
    product_value: ValuationValue

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
    pairing = _Pairing(s, lam, f, g)
    return MultiplicativityReport(
        left_value=pairing.value(f),
        right_value=pairing.value(g),
        product_value=pairing.value(multiply_expressions(s, f, g)),
    )


@dataclass(frozen=True)
class DiscretenessReport:
    discrete: bool
    witness: CurveClass | None
    value: Fraction | None

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
    pairing = _Pairing(s, lam)
    den = pairing.den
    # half-integral weights: den divides 2
    if 2 % den == 0:
        doubled = [(c, n * (2 // den)) for c, n in pairing.scaled]
        if not any(mod2_class(s, doubled)):
            return DiscretenessReport(discrete=True, witness=None, value=None)
    for c in enumerate_simple_classes(s, WITNESS_LENGTH_BOUND):
        value = pairing.of_class(c)
        if value % den:
            return DiscretenessReport(
                discrete=False, witness=c, value=Fraction(value, den)
            )
    return DiscretenessReport(discrete=False, witness=None, value=None)


@dataclass(frozen=True)
class PositivityReport:
    bound: int
    positive: bool
    witness: CurveClass | None

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
    pairing = _Pairing(s, lam)
    for c in enumerate_simple_classes(s, bound):
        if pairing.of_class(c) == 0:
            return PositivityReport(bound=bound, positive=False, witness=c)
    return PositivityReport(bound=bound, positive=True, witness=None)


@dataclass(frozen=True)
class StrictnessReport:
    bound: int
    strict: bool
    first: Multicurve | None
    second: Multicurve | None
    value: int | Fraction | None

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
    pairing = _Pairing(s, lam)
    seen: dict = {}
    for mc in enumerate_multicurves(s, bound):
        value = pairing.of_multicurve(mc)
        if value in seen:
            return StrictnessReport(
                bound=bound,
                strict=False,
                first=seen[value],
                second=mc,
                value=_quotient(value, pairing.den),
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
