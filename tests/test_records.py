"""The value types are words._record tuples: frozen, equal only to values of
their own type, hashed as the tuple of their fields, closed to tuple + and *."""
import inspect
from fractions import Fraction

import pytest

import curvetrace
from curvetrace import acceptance, algebra, complement, curves, mapping, valuations
from curvetrace.errors import GenusTooSmall
from curvetrace.polygon import polygon_model
from curvetrace.representations import Representation, random_representation
from curvetrace.words import CurveClass, Surface, canonical_class, make_surface

S2 = make_surface(2)


def record_types():
    """Every record class the package defines."""
    found = set()
    for name in dir(curvetrace):
        module = getattr(curvetrace, name)
        if inspect.ismodule(module) and module.__name__.startswith("curvetrace."):
            for _, cls in inspect.getmembers(module, inspect.isclass):
                if issubclass(cls, tuple) and cls.__module__ == module.__name__:
                    found.add(cls)
    return found


def sample_values():
    """One value of each record type, from the calls that return them."""
    a1, b1 = canonical_class(S2, (1,)), canonical_class(S2, (2,))
    cross = canonical_class(S2, (1, 1, 2, 2))
    t = mapping.twist_generator(S2, 1)
    sign = mapping.make_sign_character(S2, "1000")
    lam = valuations.parse_lamination(S2, "1 a1")
    diagram = curves.realize(S2, cross)
    expr = algebra.expand_trace(S2, (1, 2))
    return [
        S2,
        a1,
        curvetrace.homology_class(S2, (1, 2)),
        random_representation(S2, 0),
        diagram,
        next(complement.strand_arcs(polygon_model(2), diagram))[1],
        curves.complement_report(S2, a1, b1),
        algebra.parse_multicurve(S2, "a1^2"),
        expr,
        algebra.basis_rank_check(S2, [algebra.parse_multicurve(S2, "a1")], 1, 0),
        t.certificate,
        t,
        sign,
        mapping.verify_algebra_automorphism(S2, sign, samples=1, bound=1),
        mapping.semidirect_check(S2, t, sign, bound=1),
        lam,
        valuations.ValuationValue.of(Fraction(1, 2)),
        valuations.multiplicativity_check(S2, lam, expr, expr),
        valuations.classify_discrete(S2, lam),
        valuations.check_positive_up_to(S2, lam, 1),
        valuations.check_strict_up_to(S2, lam, 1),
        acceptance.CriterionResult("suite", True, 0.5, 1.0, "detail"),
    ]


VALUES = sample_values()


def test_every_record_type_is_sampled():
    assert {type(v) for v in VALUES} == record_types()
    assert len(VALUES) == len(record_types()) == 22


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_record_contract(value):
    cls = type(value)
    with pytest.raises(AttributeError):
        setattr(value, cls._fields[0], None)
    same = cls(*value)
    assert same == value and not same != value
    assert hash(same) == hash(value) == hash(tuple(value))
    assert value != tuple(value) and tuple(value) != value
    assert not value == tuple(value)
    for other in record_types() - {cls}:
        if len(other._fields) == len(cls._fields):
            twin = tuple.__new__(other, value)
            assert twin != value and value != twin and not twin == value
    for refused in (lambda: value * 2, lambda: 2 * value):
        with pytest.raises(TypeError):
            refused()
    if cls is not algebra.TraceExpression:  # which adds as an expression
        with pytest.raises(TypeError):
            value + value


def test_records_of_the_same_fields_differ_by_type():
    components = ((canonical_class(S2, (1,)), 1),)
    mc = algebra.Multicurve(genus=2, components=components)
    lam = valuations.Lamination(genus=2, weights=components)
    assert mc != lam and lam != mc and len({mc, lam}) == 2


def test_records_refuse_tuple_arithmetic():
    h = curvetrace.homology_class(S2, (1,))
    mc = algebra.parse_multicurve(S2, "a1")
    expr = algebra.expand_trace(S2, (1,))
    for refused in (lambda: h + h, lambda: mc + mc, lambda: expr * 2):
        with pytest.raises(TypeError):
            refused()


def test_curve_class_repr_and_order():
    assert repr(CurveClass(genus=2, word=(1,))) == "CurveClass(genus=2, word=(1,))"
    classes = [canonical_class(S2, w) for w in ((2, 1), (3,), (1,), (2,))]
    assert [c.word for c in sorted(classes)] == [(1,), (1, 2), (2,), (3,)]
    assert len(canonical_class(S2, (1, 2))) == 2


def test_bottom_is_below_every_finite_value():
    bottom = valuations.ValuationValue.bottom()
    for x in (-3, 0, Fraction(1, 2), 7):
        value = valuations.ValuationValue.of(x)
        assert bottom < value and bottom <= value and value > bottom
        assert not value < bottom and not bottom > value
        assert max(bottom, value) == value and max(value, bottom) == value
    assert not bottom < bottom and bottom <= bottom
    one, two = valuations.ValuationValue.of(1), valuations.ValuationValue.of(2)
    assert one < two and max(one, two) == two and sorted([two, one]) == [one, two]


def test_representation_equality_ignores_letters():
    rep = random_representation(S2, 3)
    again = Representation(genus=2, matrices=rep.matrices)
    again.letters = {}
    assert again == rep and hash(again) == hash(rep)
    assert repr(rep) == f"Representation(genus=2, matrices={rep.matrices!r})"


def test_a_surface_has_genus_two_or_more():
    with pytest.raises(GenusTooSmall):
        Surface(1, ("a1", "b1"), (1, 2, -1, -2))
    assert Surface(*S2) == S2
