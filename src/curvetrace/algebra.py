"""Character algebra of the surface in its multicurve basis.

Basis elements are multicurves: disjoint unions of simple classes with
positive multiplicities, the empty multicurve acting as the unit.  All
coefficients are exact rationals.  Products and trace expansions resolve
crossings through the relation t_u t_v = t_{uv} + t_{uv^-1}; powers of a
class go through the Chebyshev-style recursion t_{u^n} = t_u t_{u^n-1} -
t_{u^n-2} so diagrams stay embedded.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import (
    _pair_taut,
    _taut_single,
    check_disjoint_simple,
    enumerate_simple_classes,
    intersection_number,
    tauten_routes,
)
from .errors import ExpansionBudgetExceeded, ModelInconsistency
from .polygon import polygon_model
from .representations import Representation, evaluate_trace, random_representation
from .words import (
    CurveClass,
    Surface,
    canonical_class,
    format_word,
    inverse_word,
    make_surface,
    normalize_word,
    parse_word,
    primitive_root,
)

EXPANSION_DEPTH_CAP = 64
RANK_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Multicurve:
    """Embedded union of simple classes, each with a positive multiplicity."""

    genus: int
    components: tuple  # ((CurveClass, multiplicity), ...) in sort-key order

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
        if mult <= 0 or mult != int(mult):
            raise ValueError(f"multiplicity {mult!r} must be a positive integer")
        counts[cls] = counts.get(cls, 0) + int(mult)
    check_disjoint_simple(s, counts)
    return _multicurve(s.genus, counts)


def format_multicurve(mc: Multicurve) -> str:
    if mc.is_empty():
        return "-"
    return ",".join(f"{format_word(c.word)}^{m}" for c, m in mc.components)


def parse_multicurve(s: Surface, text: str) -> Multicurve:
    text = text.strip()
    if text in ("", "-"):
        return empty_multicurve(s.genus)
    counts = {}
    for token in text.split(","):
        token = token.strip()
        word_text, _, mult_text = token.partition("^")
        mult = int(mult_text) if mult_text else 1
        cls = canonical_class(s, parse_word(s, word_text))
        counts[cls] = counts.get(cls, 0) + mult
    return make_multicurve(s, counts)


@dataclass(frozen=True)
class TraceExpression:
    """Finite rational combination of multicurve basis elements."""

    genus: int
    terms: tuple  # ((Multicurve, Fraction), ...), no zero coefficients

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mc: Multicurve) -> Fraction:
        for basis, coeff in self.terms:
            if basis == mc:
                return coeff
        return Fraction(0)

    def __add__(self, other: "TraceExpression") -> "TraceExpression":
        acc = dict(self.terms)
        for mc, coeff in other.terms:
            acc[mc] = acc.get(mc, Fraction(0)) + coeff
        return _from_terms(self.genus, acc)

    def __sub__(self, other: "TraceExpression") -> "TraceExpression":
        return self + other.scale(Fraction(-1))

    def scale(self, factor) -> "TraceExpression":
        factor = Fraction(factor)
        if factor == 0:
            return zero_expression(self.genus)
        return _from_terms(
            self.genus, {mc: coeff * factor for mc, coeff in self.terms}
        )

    def __str__(self) -> str:
        return format_expression(self)


def _from_terms(genus: int, acc: dict) -> TraceExpression:
    items = [
        (mc, Fraction(coeff)) for mc, coeff in acc.items() if coeff != 0
    ]
    items.sort(key=lambda kv: (-kv[0].total_length(), kv[0].sort_key()))
    return TraceExpression(genus=genus, terms=tuple(items))


def zero_expression(genus: int) -> TraceExpression:
    return TraceExpression(genus=genus, terms=())


def scalar_expression(genus: int, value) -> TraceExpression:
    return _from_terms(genus, {empty_multicurve(genus): Fraction(value)})


def unit_expression(genus: int) -> TraceExpression:
    return scalar_expression(genus, 1)


def basis_expression(mc: Multicurve) -> TraceExpression:
    return _from_terms(mc.genus, {mc: Fraction(1)})


def format_expression(f: TraceExpression) -> str:
    return "\n".join(f"{coeff}\t{format_multicurve(mc)}" for mc, coeff in f.terms)


def parse_expression(s: Surface, text: str) -> TraceExpression:
    acc = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        coeff_text, _, mc_text = line.partition("\t")
        if not mc_text:
            coeff_text, _, mc_text = line.partition(" ")
        mc = parse_multicurve(s, mc_text)
        acc[mc] = acc.get(mc, Fraction(0)) + Fraction(coeff_text.strip())
    return _from_terms(s.genus, acc)


def enumerate_multicurves(s: Surface, bound: int):
    """All multicurves of total component length <= bound, empty one included.

    Components range over enumerate_simple_classes(bound); sorted by
    (total length, component key) so reports stay deterministic.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
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


def _check_depth(depth: int):
    # depth counts crossing resolutions along one recursion path; each one
    # strictly lowers the configuration's crossing total, so hitting the cap
    # means a model bug rather than a large input
    if depth > EXPANSION_DEPTH_CAP:
        raise ExpansionBudgetExceeded(
            f"expansion recursion exceeded depth {EXPANSION_DEPTH_CAP}"
        )


def expand_trace(s: Surface, word) -> TraceExpression:
    """The trace of the word written in the multicurve basis."""
    return _expand_word(s, tuple(word), 0)


def _expand_word(s: Surface, word, depth: int) -> TraceExpression:
    reduced = normalize_word(s, word)
    if not reduced:
        return scalar_expression(s.genus, 2)
    return _expand_class(s, canonical_class(s, reduced), depth)


def _expand_class(s: Surface, cls: CurveClass, depth: int) -> TraceExpression:
    key = (s.genus, cls.word)
    hit = _EXPAND_CACHE.get(key)
    if hit is not None:
        return hit
    root, power = primitive_root(s, cls)
    if power >= 2:
        base = _expand_class(s, root, depth)
        prev = scalar_expression(s.genus, 2)
        cur = base
        for _ in range(power - 1):
            cur, prev = _mul(s, base, cur, depth, None) - prev, cur
        out = cur
    else:
        out = _expand_primitive(s, cls, depth)
    _EXPAND_CACHE[key] = out
    return out


def _expand_primitive(s: Surface, cls: CurveClass, depth: int) -> TraceExpression:
    route, count = _taut_single(s.genus, cls.word)
    if count == 0:
        return basis_expression(_multicurve(s.genus, {cls: 1}))
    _check_depth(depth)
    diagram = tauten_routes(s.genus, (cls,), (route,))
    (_, p), (_, q) = min(diagram.crossings)
    taut_route = diagram.routes[0]
    model = polygon_model(s.genus)
    n = len(taut_route)
    u = model.arc_word(taut_route, (p + 1) % n, q)
    v = model.arc_word(taut_route, (q + 1) % n, p)
    # the two loops at the chosen crossing recompose to the class itself
    if canonical_class(s, u + v) != cls:
        raise ModelInconsistency("crossing loops do not recompose to the class")
    f_u = _expand_word(s, u, depth + 1)
    f_v = _expand_word(s, v, depth + 1)
    f_mixed = _expand_word(s, u + inverse_word(v), depth + 1)
    return _mul(s, f_u, f_v, depth + 1, None) - f_mixed


def multiply_expressions(
    s: Surface, f: TraceExpression, g: TraceExpression, merge_picker=None
) -> TraceExpression:
    """Product re-expressed in the basis.

    merge_picker, when given, chooses among crossing component pairs and
    among crossings of the chosen pair at each merge step; the result is
    independent of those choices (tested) and the hook exists to exercise
    exactly that.
    """
    return _mul(s, f, g, 0, merge_picker)


def _mul(s, f, g, depth, picker) -> TraceExpression:
    acc = {}
    for mc1, c1 in f.terms:
        for mc2, c2 in g.terms:
            prod = _merge_basis(s, mc1, mc2, depth, picker)
            for mc, coeff in prod.terms:
                acc[mc] = acc.get(mc, Fraction(0)) + coeff * c1 * c2
    return _from_terms(s.genus, acc)


def _merge_basis(s, mc1, mc2, depth, picker) -> TraceExpression:
    key = (s.genus, mc1.components, mc2.components)
    if picker is None:
        hit = _MERGE_CACHE.get(key)
        if hit is not None:
            return hit
    crossing = [
        (x, y)
        for x, _ in mc1.components
        for y, _ in mc2.components
        if intersection_number(s, x, y) > 0
    ]
    if not crossing:
        counts = dict(mc1.components)
        for cls, m in mc2.components:
            counts[cls] = counts.get(cls, 0) + m
        out = basis_expression(_multicurve(s.genus, counts))
    else:
        _check_depth(depth)
        x, y = crossing[0] if picker is None else picker(crossing)
        # base the product at a crossing of the taut pair diagram: both
        # smoothings there are carried by the diagram minus that crossing,
        # so the product classes have self-crossing number < i(x, y)
        d = _pair_taut(s.genus, x.word, y.word)
        pairs = sorted(d.crossings)
        (_, p), (_, q) = pairs[0] if picker is None else picker(pairs)
        model = polygon_model(s.genus)
        u = model.route_word(d.routes[0], (p + 1) % len(d.routes[0]))
        v = model.route_word(d.routes[1], (q + 1) % len(d.routes[1]))
        if canonical_class(s, u) != x or canonical_class(s, v) != y:
            raise ModelInconsistency("crossing loops do not read the pair's classes")
        merged = _expand_word(s, u + v, depth + 1) + _expand_word(
            s, u + inverse_word(v), depth + 1
        )
        rest1 = _remove_one(mc1, x)
        rest2 = _remove_one(mc2, y)
        out = _mul(
            s,
            basis_expression(rest1),
            _mul(s, merged, basis_expression(rest2), depth + 1, picker),
            depth + 1,
            picker,
        )
    if picker is None:
        _MERGE_CACHE[key] = out
    return out


def _remove_one(mc: Multicurve, cls: CurveClass) -> Multicurve:
    counts = dict(mc.components)
    if counts[cls] == 1:
        del counts[cls]
    else:
        counts[cls] -= 1
    return _multicurve(mc.genus, counts)


# -- numerical evaluation -----------------------------------------------------


def evaluate_expression(rep: Representation, f: TraceExpression) -> complex:
    total = 0j
    for mc, coeff in f.terms:
        value = complex(1.0)
        for cls, mult in mc.components:
            value *= evaluate_trace(rep, cls.word) ** mult
        total += float(coeff) * value
    return total


@dataclass(frozen=True)
class RankReport:
    size: int
    trials: int
    seed: int
    rank: int
    gap: float

    @property
    def full_rank(self) -> bool:
        return self.rank == self.size

    def __str__(self) -> str:
        return (
            f"rank={self.rank}/{self.size} gap={self.gap:.3e}"
            f" trials={self.trials} seed={self.seed}"
        )


def basis_rank_check(s: Surface, curves, trials: int, seed: int) -> RankReport:
    """Numerical rank of the evaluation matrix of the given multicurves."""
    curves = list(curves)
    if trials < len(curves):
        raise ValueError(f"need trials >= {len(curves)}, got {trials}")
    rows = []
    for j in range(trials):
        rep = random_representation(s, seed + j)
        rows.append(
            [evaluate_expression(rep, basis_expression(mc)) for mc in curves]
        )
    matrix = np.array(rows, dtype=complex)
    singular = np.linalg.svd(matrix, compute_uv=False)
    top = float(singular[0]) if len(singular) else 0.0
    kept = [float(v) for v in singular if top > 0 and v > RANK_TOLERANCE * top]
    gap = (kept[-1] / top) if kept else 0.0
    return RankReport(
        size=len(curves), trials=trials, seed=seed, rank=len(kept), gap=gap
    )
