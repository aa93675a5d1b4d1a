"""Character algebra of the surface in its multicurve basis.

Basis elements are multicurves: disjoint unions of simple classes with
positive multiplicities, the empty multicurve acting as the unit.  All
coefficients are exact rationals, held as an int when integral and as a
Fraction only otherwise; _from_terms normalizes each one.  Expansions and
products of basis elements have integer coefficients (see below), so their
arithmetic never leaves int.  A quotient of coefficients needs a Fraction
operand, since int / int is a float.

Trace expansions and products are Kauffman-bracket state sums at A = -1,
where the skein algebra is the SL2(C) character ring and a diagram D of a
closed curve is -t_D (Bullock, Comment. Math. Helv. 72, 1997; Przytycki &
Sikora, Topology 39, 2000).  Every crossing is smoothed both ways with
coefficient -1, a trivial circle counts -2 and an essential component c
counts -t_c.  Crossing changes do nothing at A = -1, so any diagram gives
the same sum.  A class, power or not, sums over its certified taut diagram;
a product sums over the union of its components' taut routes as the slot
comparator builds it, untautened, since fewer crossings would not change
the answer.  The components of a smoothed state are embedded, hence trivial
or simple; parallel ones add up as multiplicity.
"""
from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .complement import strand_arcs
from .curves import (
    _check_genus,
    _length_bound,
    _taut_single,
    check_disjoint_simple,
    enumerate_simple_classes,
    intersection_number,
)
from .diagrams import Budget, build_diagram
from .errors import (
    BadArgument,
    BadLetter,
    BadValue,
    GenusMismatch,
    ModelInconsistency,
)
from .polygon import polygon_model
from .representations import P, Representation, evaluate_trace, random_representation
from .words import (
    CurveClass,
    Surface,
    _canonical_class,
    _join,
    _record,
    _text,
    _word,
    canonical_class,
    format_word,
    inverse_word,
    parse_word,
)


class Multicurve(_record("Multicurve", "genus components")):
    """Embedded union of simple classes, each with a positive multiplicity:
    components is ((CurveClass, multiplicity), ...) in sort-key order."""

    __slots__ = ()

    def total_length(self) -> int:
        return sum(m * len(c.word) for c, m in self.components)

    def is_empty(self) -> bool:
        return not self.components

    def multiplicity(self, cls: CurveClass) -> int:
        for c, m in self.components:
            if c == cls:
                return m
        return 0

    def sort_key(self):
        return tuple((len(c.word), c.word, m) for c, m in self.components)

    def __str__(self) -> str:
        return format_multicurve(self)


def _component_key(item):
    cls, _ = item
    return (len(cls.word), cls.word)


def _multicurve(genus: int, counts: dict) -> Multicurve:
    items = tuple(sorted(counts.items(), key=_component_key))
    return Multicurve(genus=genus, components=items)


def empty_multicurve(genus: int) -> Multicurve:
    return Multicurve(genus=genus, components=())


def make_multicurve(s: Surface, weights) -> Multicurve:
    """Validated constructor: simple components, pairwise disjoint."""
    counts = {}
    for cls, mult in dict(weights).items():
        if not isinstance(mult, int):
            raise BadArgument(f"a multiplicity is an int, not {mult!r}")
        if mult <= 0:
            raise BadValue(f"multiplicity {mult!r} must be a positive integer")
        counts[cls] = counts.get(cls, 0) + int(mult)
    check_disjoint_simple(s, counts)
    return _multicurve(s.genus, counts)


def format_multicurve(mc: Multicurve) -> str:
    if mc.is_empty():
        return "-"
    return ",".join(f"{format_word(c.word)}^{m}" for c, m in mc.components)


def parse_multicurve(s: Surface, text: str) -> Multicurve:
    text = _text(text).strip()
    if text in ("", "-"):
        return empty_multicurve(s.genus)
    counts = {}
    for token in text.split(","):
        token = token.strip()
        word_text, _, mult_text = token.partition("^")
        try:
            mult = int(mult_text) if mult_text else 1
        except ValueError:
            raise BadLetter(f"cannot parse the multiplicity of {token!r}") from None
        cls = canonical_class(s, parse_word(s, word_text))
        counts[cls] = counts.get(cls, 0) + mult
    return make_multicurve(s, counts)


class TraceExpression(_record("TraceExpression", "genus terms")):
    """Finite rational combination of multicurve basis elements: terms is
    ((Multicurve, coefficient), ...) with no zero coefficients, and a
    coefficient is an int when integral and a Fraction otherwise."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mc: Multicurve) -> int | Fraction:
        for basis, coeff in self.terms:
            if basis == mc:
                return coeff
        return 0

    def __add__(self, other: "TraceExpression") -> "TraceExpression":
        acc = dict(self.terms)
        for mc, coeff in other.terms:
            acc[mc] = acc.get(mc, 0) + coeff
        return _from_terms(self.genus, acc)

    def __sub__(self, other: "TraceExpression") -> "TraceExpression":
        return self + other.scale(-1)

    def scale(self, factor) -> "TraceExpression":
        factor = _rational(factor, "scale factor")
        if factor == 0:
            return zero_expression(self.genus)
        return _from_terms(
            self.genus, {mc: coeff * factor for mc, coeff in self.terms}
        )

    def __str__(self) -> str:
        return format_expression(self)


def _rational(value, what: str) -> Fraction:
    """value as a Fraction; BadArgument for a float, whose binary rounding
    (0.1 is 3602879701896397/2^55) would become the value, and for NaN and
    the infinities, as floats or Decimals."""
    if isinstance(value, float):
        raise BadArgument(
            f"{what} {value!r} is a float; give an int, a Fraction or text such as '1/10'"
        )
    if isinstance(value, Decimal) and not value.is_finite():
        raise BadArgument(f"{what} {value!r} is not finite")
    return Fraction(value)


def _from_terms(genus: int, acc: dict) -> TraceExpression:
    """The expression of the nonzero int or Fraction coefficients of acc,
    each integral one as an int."""
    items = [
        (mc, coeff.numerator if coeff.denominator == 1 else coeff)
        for mc, coeff in acc.items()
        if coeff
    ]
    items.sort(key=lambda kv: (-kv[0].total_length(), kv[0].sort_key()))
    return TraceExpression(genus=genus, terms=tuple(items))


def zero_expression(genus: int) -> TraceExpression:
    return TraceExpression(genus=genus, terms=())


def scalar_expression(genus: int, value) -> TraceExpression:
    return _from_terms(genus, {empty_multicurve(genus): _rational(value, "scalar")})


def unit_expression(genus: int) -> TraceExpression:
    return scalar_expression(genus, 1)


def basis_expression(mc: Multicurve) -> TraceExpression:
    return _from_terms(mc.genus, {mc: 1})


def format_expression(f: TraceExpression) -> str:
    return "\n".join(f"{coeff}\t{format_multicurve(mc)}" for mc, coeff in f.terms)


def parse_expression(s: Surface, text: str) -> TraceExpression:
    acc = {}
    for line in _text(text).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        coeff_text, _, mc_text = line.partition("\t")
        if not mc_text:
            coeff_text, _, mc_text = line.partition(" ")
        try:
            coeff = Fraction(coeff_text.strip())
        except (ValueError, ZeroDivisionError):
            raise BadLetter(f"cannot parse the coefficient of {line!r}") from None
        mc = parse_multicurve(s, mc_text)
        acc[mc] = acc.get(mc, 0) + coeff
    return _from_terms(s.genus, acc)


def enumerate_multicurves(s: Surface, bound: int):
    """All multicurves of total component length <= bound, empty one included.

    Components range over enumerate_simple_classes(bound); sorted by
    (total length, component key) so reports stay deterministic.
    """
    _length_bound(bound, 0)
    classes = enumerate_simple_classes(s, bound) if bound >= 1 else []
    out = []

    def grow(start: int, counts: dict, remaining: int):
        out.append(_multicurve(s.genus, dict(counts)))
        for i in range(start, len(classes)):
            c = classes[i]
            step = len(c.word)
            if step > remaining:
                continue
            if any(intersection_number(s, c, other) != 0 for other in counts):
                continue
            for mult in range(1, remaining // step + 1):
                counts[c] = mult
                grow(i + 1, counts, remaining - mult * step)
            del counts[c]

    grow(0, {}, bound)
    out.sort(key=lambda mc: (mc.total_length(), mc.sort_key()))
    return out


# -- expansion and products ---------------------------------------------------

_EXPAND_CACHE: dict = {}
_MERGE_CACHE: dict = {}


def expand_trace(s: Surface, word) -> TraceExpression:
    """The trace of the word in the multicurve basis.

    The state sum runs over the certified taut diagram of the word's class,
    a proper power included, so powers need no separate rule.
    """
    cls = _canonical_class(s.genus, _word(s.genus, word))
    if cls is None:
        return scalar_expression(s.genus, 2)
    return _expand_class(s, cls)


def _expand_class(s: Surface, cls: CurveClass) -> TraceExpression:
    key = (s.genus, cls.word)
    hit = _EXPAND_CACHE.get(key)
    if hit is None:
        hit = _EXPAND_CACHE[key] = _state_sum(s, _taut_single(s.genus, cls.word))
    return hit


def multiply_expressions(
    s: Surface, f: TraceExpression, g: TraceExpression
) -> TraceExpression:
    """Product re-expressed in the basis.

    Each pair of basis elements is multiplied by one state sum over the
    built union of their components' taut routes, one strand per unit of
    multiplicity.
    """
    _check_genus(s, f, g)
    acc = {}
    for mc1, c1 in f.terms:
        for mc2, c2 in g.terms:
            for mc, coeff in _merge_basis(s, mc1, mc2).terms:
                acc[mc] = acc.get(mc, 0) + coeff * c1 * c2
    return _from_terms(s.genus, acc)


def _merge_basis(s: Surface, mc1: Multicurve, mc2: Multicurve) -> TraceExpression:
    key = (s.genus, mc1.components, mc2.components)
    hit = _MERGE_CACHE.get(key)
    if hit is None:
        hit = _MERGE_CACHE[key] = _state_sum(s, _built_union(s, mc1, mc2))
    return hit


def _built_union(s: Surface, mc1: Multicurve, mc2: Multicurve):
    """The diagram built from the taut routes of both multicurves'
    components, one strand per unit of multiplicity."""
    classes = tuple(c for mc in (mc1, mc2) for c, m in mc.components for _ in range(m))
    routes = tuple(_taut_single(s.genus, c.word).routes[0] for c in classes)
    return build_diagram(polygon_model(s.genus), classes, routes)


def _state_sum(s: Surface, diagram) -> TraceExpression:
    """Product of the strands' traces, summed over the states of a diagram of
    the strands (see the module docstring): a class's certified taut one, or
    the built union of a product's taut routes.  A strand of class c is -t_c.

    Arc k has ends 2k (start) and 2k + 1 (finish), and a state links the four
    ends met at each crossing in two pairs.  A strand without crossings is
    one arc whose two ends stay linked.  Arc words joined by _join are
    freely reduced, so the class cache keeps one key per class.
    """
    model = polygon_model(s.genus)
    arcs = list(strand_arcs(model, diagram))
    words = [word for word, _ in arcs]
    for i, cls in enumerate(diagram.classes):
        own = [word for word, arc in arcs if arc.strand == i]
        if not own:
            own = [model.route_word(diagram.routes[i])]
            words += own
        if _canonical_class(s.genus, _join(own)) != cls:
            raise ModelInconsistency("strand arcs do not read the strand's class")
    ends = {}  # (crossing, chord, 0 arriving / 1 leaving) -> arc end
    for k, (_, arc) in enumerate(arcs):
        n = len(diagram.routes[arc.strand])
        ends[arc.x_from, (arc.strand, arc.chord_from), 1] = 2 * k
        to = (arc.strand, (arc.chord_from + arc.n_events) % n)
        ends[arc.x_to, to, 0] = 2 * k + 1
    # per crossing: arriving and leaving ends on its first chord, then second
    quads = [
        tuple(ends[x, chord, way] for chord in x for way in (0, 1))
        for x in sorted(diagram.crossings)
    ]
    reads = [w for word in words for w in (word, inverse_word(word))]
    link = [e ^ 1 for e in range(len(reads))]
    components = {}  # entered ends, from the least arc -> class or None
    acc = {}
    Budget().spend(1 << len(quads))
    for state in range(1 << len(quads)):
        for j, (in0, out0, in1, out1) in enumerate(quads):
            if state >> j & 1:
                link[in0], link[in1], link[out0], link[out1] = in1, in0, out1, out0
            else:
                link[in0], link[out1], link[in1], link[out0] = out1, in0, out0, in1
        coeff = (-1) ** (len(diagram.classes) + len(quads))
        counts = {}
        seen = [False] * len(words)
        for k in range(len(words)):
            if seen[k]:
                continue
            path, end = [], 2 * k
            while not path or end != 2 * k:
                seen[end >> 1] = True
                path.append(end)
                end = link[end ^ 1]
            path = tuple(path)
            if path not in components:
                components[path] = _canonical_class(
                    s.genus, _join(reads[e] for e in path)
                )
            cls = components[path]
            coeff *= -2 if cls is None else -1
            if cls is not None:
                counts[cls] = counts.get(cls, 0) + 1
        key = tuple(sorted(counts.items(), key=_component_key))
        acc[key] = acc.get(key, 0) + coeff
    # at the trivial representation every trace is 2
    at_one = sum(c * 2 ** sum(m for _, m in key) for key, c in acc.items())
    if at_one != 2 ** len(diagram.classes):
        raise ModelInconsistency("state sum is wrong at the trivial representation")
    return _from_terms(
        s.genus, {Multicurve(s.genus, key): c for key, c in acc.items()}
    )


# -- evaluation at representations --------------------------------------------


def evaluate_expression(rep: Representation, f: TraceExpression) -> int:
    """Value of the expression at the representation, as a residue mod P."""
    if f.genus != rep.genus:
        raise GenusMismatch(
            f"expression has genus {f.genus}; the representation has genus {rep.genus}"
        )
    total = 0
    for mc, coeff in f.terms:
        value = coeff.numerator * pow(coeff.denominator, -1, P)
        for cls, mult in mc.components:
            value = value * pow(evaluate_trace(rep, cls.word), mult, P) % P
        total += value
    return total % P


class RankReport(_record("RankReport", "size trials seed rank")):
    __slots__ = ()

    @property
    def full_rank(self) -> bool:
        return self.rank == self.size

    def __str__(self) -> str:
        return f"rank={self.rank}/{self.size} trials={self.trials} seed={self.seed}"


def _rank_mod_p(rows) -> int:
    """Rank of a matrix of residues by elimination mod P."""
    pivots = {}  # column -> row reduced by the earlier pivots, 1 in that column
    for row in rows:
        for col, pivot in pivots.items():
            row = [(x - row[col] * y) % P for x, y in zip(row, pivot)]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is not None:
            inv = pow(row[col], -1, P)
            pivots[col] = [x * inv % P for x in row]
    return len(pivots)


def basis_rank_check(s: Surface, curves, trials: int, seed: int) -> RankReport:
    """Exact rank mod P of the evaluation matrix of the given multicurves; full
    rank proves them linearly independent over Q."""
    curves = list(curves)
    _check_genus(s, *curves)
    _length_bound(trials, len(curves), "trials")
    rows = []
    for j in range(trials):
        rep = random_representation(s, seed + j)
        rows.append(
            [evaluate_expression(rep, basis_expression(mc)) for mc in curves]
        )
    return RankReport(
        size=len(curves), trials=trials, seed=seed, rank=_rank_mod_p(rows)
    )
