"""Valuations from weighted multicurves: the max formula and its taxonomy."""
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from oracles import reference_lamination_intersection, reference_valuate

from curvetrace.acceptance import _acceptance_laminations
from curvetrace.algebra import (
    basis_expression,
    enumerate_multicurves,
    expand_trace,
    make_multicurve,
    zero_expression,
)
from curvetrace.curves import enumerate_classes
from curvetrace import valuations
from curvetrace.errors import BadArgument, BadLetter, GenusMismatch, NotSimple
from curvetrace.valuations import (
    ValuationValue,
    check_positive_up_to,
    check_strict_up_to,
    classify_discrete,
    curv_normalize,
    format_lamination,
    lamination_intersection,
    make_lamination,
    multicurve_intersection,
    multiplicativity_check,
    parse_lamination,
    scale_lamination,
    thurston_max_check,
    valuate,
)
from curvetrace.words import canonical_class, make_surface, parse_word

S2 = make_surface(2)
S3 = make_surface(3)


def C(text, surface=S2):
    return canonical_class(surface, parse_word(surface, text))


def L(weights, surface=S2):
    return make_lamination(surface, weights)


def expand(text, surface=S2):
    return expand_trace(surface, parse_word(surface, text))


# -- laminations ----------------------------------------------------------------


def test_make_lamination_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        L({C("a1"): 0})
    with pytest.raises(ValueError):
        L({C("a1"): Fraction(-1, 2)})


def test_make_lamination_rejects_nonsimple_component():
    with pytest.raises(NotSimple):
        L({C("a1b2"): 1})


def test_make_lamination_rejects_crossing_components():
    with pytest.raises(NotSimple):
        L({C("a1"): 1, C("b1"): 1})


def test_lamination_parse_format_round_trip():
    lam = parse_lamination(S2, "1/2\ta1\n# note\n1/2 b2\n")
    assert parse_lamination(S2, format_lamination(lam)) == lam
    assert format_lamination(lam) == "1/2\ta1\n1/2\tb2"
    assert lam.weight(C("a1")) == Fraction(1, 2)
    assert lam.weight(C("b1")) == 0


def test_lamination_inline_separators_and_weight_merge():
    lam = parse_lamination(S2, "1/4 a1, 1/4 a1; 1/2 b2")
    assert lam == L({C("a1"): Fraction(1, 2), C("b2"): Fraction(1, 2)})
    with pytest.raises(BadLetter, match="lacks a word"):
        parse_lamination(S2, "1/2")


@pytest.mark.parametrize("line", ["x a1", "1/0 a1", "1/2 b2\n0.5.1\ta1"])
def test_weights_that_are_not_rationals_are_typed(line):
    # Fraction rejects these with ValueError or ZeroDivisionError; the
    # parser raises a typed error that names the line
    bad = re.escape(repr(line.splitlines()[-1]))
    with pytest.raises(BadLetter, match=f"^cannot parse the weight of {bad}$"):
        parse_lamination(S2, line)


def test_scale_lamination():
    lam = L({C("a1"): Fraction(1, 2)})
    assert scale_lamination(lam, 3).weight(C("a1")) == Fraction(3, 2)
    with pytest.raises(ValueError):
        scale_lamination(lam, 0)


@pytest.mark.parametrize(
    "weight",
    [0.1, 0.5, 2.0, float("nan"), float("inf"), Decimal("NaN"), Decimal("-Infinity")],
)
def test_float_and_non_finite_weights_are_typed_errors(weight):
    # 0.1 would be stored as its binary rounding, 3602879701896397/2^55
    with pytest.raises(BadArgument):
        L({C("a1"): weight})
    with pytest.raises(BadArgument):
        scale_lamination(L({C("a1"): 1}), weight)


def test_exact_weights_are_kept():
    assert L({C("a1"): "1/2"}).weight(C("a1")) == Fraction(1, 2)
    assert L({C("a1"): "0.1"}).weight(C("a1")) == Fraction(1, 10)
    assert L({C("a1"): Fraction(1, 3)}).weight(C("a1")) == Fraction(1, 3)
    assert L({C("a1"): Decimal("0.25")}).weight(C("a1")) == Fraction(1, 4)
    assert scale_lamination(L({C("a1"): 2}), "1/4").weight(C("a1")) == Fraction(1, 2)


# -- the pairing and the max formula ---------------------------------------------


def test_lamination_intersection_fixtures():
    assert lamination_intersection(S2, L({C("b1"): 1}), C("a1")) == 1
    assert lamination_intersection(S2, L({C("a1"): Fraction(1, 2)}), C("a1")) == 0
    two = L({C("b1"): 1, C("b2"): 1})
    assert lamination_intersection(S2, two, C("a2")) == 1
    # a multicurve pairs as the sum over its components
    lam = L({C("b1"): Fraction(1, 2), C("b2"): Fraction(1, 3)})
    mc = make_multicurve(S2, {C("a1"): 2, C("a2"): 1})
    assert multicurve_intersection(S2, lam, mc) == Fraction(4, 3)
    assert multicurve_intersection(S2, lam, make_multicurve(S2, {})) == 0


def test_valuation_value_ordering_and_strings():
    bottom = ValuationValue.bottom()
    assert bottom.is_bottom()
    assert str(bottom) == "-inf"
    assert str(ValuationValue.of(Fraction(1, 2))) == "1/2"
    assert bottom < ValuationValue.of(-5) < ValuationValue.of(0)
    assert bottom.add(ValuationValue.of(3)).is_bottom()
    assert ValuationValue.of(2).add(ValuationValue.of(Fraction(1, 2))) == \
        ValuationValue.of(Fraction(5, 2))


def test_valuate_fixtures():
    lam = L({C("b1"): 1})
    assert valuate(S2, lam, zero_expression(2)).is_bottom()
    assert valuate(S2, lam, expand_trace(S2, ())) == ValuationValue.of(0)
    assert valuate(S2, lam, expand("a1a1")) == ValuationValue.of(2)


def test_valuate_max_on_disjoint_supports():
    lam = L({C("b1"): 1})
    rng = random.Random(17)
    multicurves = enumerate_multicurves(S2, 3)
    for _ in range(30):
        f = basis_expression(rng.choice(multicurves)).scale(rng.randint(1, 5))
        g = basis_expression(rng.choice(multicurves)).scale(rng.randint(1, 5))
        both = valuate(S2, lam, f + g)
        top = max(valuate(S2, lam, f), valuate(S2, lam, g))
        assert both <= top
        if f.terms[0][0] != g.terms[0][0]:
            assert both == top


def test_valuate_ultrametric_on_random_expressions():
    lam = L({C("b1"): Fraction(1, 2), C("b2"): 1})
    rng = random.Random(23)
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    for _ in range(25):
        f = expand_trace(S2, tuple(rng.choice(letters) for _ in range(rng.randint(1, 4))))
        g = expand_trace(S2, tuple(rng.choice(letters) for _ in range(rng.randint(1, 4))))
        vf, vg = valuate(S2, lam, f), valuate(S2, lam, g)
        vs = valuate(S2, lam, f + g)
        assert vs <= max(vf, vg)
        if vf != vg:
            assert vs == max(vf, vg)


def test_valuate_scaling_equivariance():
    lam = L({C("a1"): Fraction(1, 2), C("b2"): 1})
    for text in ("a1b1", "a1a1", "b1b2a1"):
        f = expand(text)
        base = valuate(S2, lam, f)
        scaled = valuate(S2, scale_lamination(lam, Fraction(7, 3)), f)
        assert scaled.value == Fraction(7, 3) * base.value


def _mixed_laminations():
    """The acceptance laminations, then weights of mixed denominators."""
    return _acceptance_laminations(S2) + [
        L({C("a1"): Fraction(1, 2), C("a2"): Fraction(1, 3),
           C("a1b1A1B1"): Fraction(5, 6)}),
        L({C("b1"): Fraction(5, 6), C("b2"): Fraction(1, 3)}),
        L({C("a1b1"): Fraction(1, 3), C("a2b2"): Fraction(1, 2)}),
        L({C("a1A2B2"): Fraction(5, 6), C("a1a1A2b1"): Fraction(1, 3)}),
    ]


def test_integer_pairing_matches_fraction_reference():
    classes = enumerate_classes(S2, 4)
    for lam in _mixed_laminations():
        for c in classes:
            f = expand_trace(S2, c.word)
            assert valuate(S2, lam, f) == reference_valuate(S2, lam, f), (lam, c)
            assert lamination_intersection(S2, lam, c) == \
                reference_lamination_intersection(S2, lam, c), (lam, c)


def test_reports_on_mixed_denominators():
    # the strings the Fraction code printed for these laminations
    expected = [
        ("Discrete", "NotPositive witness=b1 bound=3",
         "NotStrict first=- second=b1^1 value=0 bound=3"),
        ("NotDiscrete witness=a1 value=1/2", "NotPositive witness=b1 bound=3",
         "NotStrict first=- second=b1^1 value=0 bound=3"),
        ("Discrete", "NotPositive witness=a1 bound=3",
         "NotStrict first=- second=a1^1 value=0 bound=3"),
        ("Discrete", "NotPositive witness=a1 bound=3",
         "NotStrict first=- second=a1^1 value=0 bound=3"),
        ("NotDiscrete witness=b1 value=1/2", "NotPositive witness=a1 bound=3",
         "NotStrict first=- second=a1^1 value=0 bound=3"),
        ("NotDiscrete witness=a1 value=5/6", "NotPositive witness=b1 bound=3",
         "NotStrict first=- second=b1^1 value=0 bound=3"),
        ("NotDiscrete witness=a1 value=1/3", "NotPositive witness=a1b1 bound=3",
         "NotStrict first=a1^1 second=b1^1 value=1/3 bound=3"),
        ("NotDiscrete witness=a1 value=1/3", "NotPositive witness=a1A2B2 bound=3",
         "NotStrict first=b2^1 second=a1^1,a2^1 value=7/6 bound=3"),
    ]
    got = [
        (
            str(classify_discrete(S2, lam)),
            str(check_positive_up_to(S2, lam, 3)),
            str(check_strict_up_to(S2, lam, 3)),
        )
        for lam in _mixed_laminations()
    ]
    assert got == expected


@pytest.mark.parametrize(
    "call",
    [
        lambda lam: valuate(S2, lam, expand("a3", S3)),
        lambda lam: valuate(S3, lam, expand("a3", S3)),
        lambda lam: lamination_intersection(S2, lam, C("a3", S3)),
        lambda lam: multicurve_intersection(
            S2, lam, make_multicurve(S3, {C("a3", S3): 1})
        ),
        lambda lam: multiplicativity_check(S2, lam, expand("a3", S3), expand("a1")),
        lambda lam: classify_discrete(S3, lam),
        lambda lam: check_positive_up_to(S3, lam, 1),
        lambda lam: check_strict_up_to(S3, lam, 1),
    ],
    ids=[
        "valuate-expression",
        "valuate-surface",
        "lamination_intersection",
        "multicurve_intersection",
        "multiplicativity_check",
        "classify_discrete",
        "check_positive_up_to",
        "check_strict_up_to",
    ],
)
def test_genus_mismatch_raised_before_any_pairing(call):
    # an empty lamination makes no pair count that could notice the mismatch
    with pytest.raises(GenusMismatch):
        call(L({}))


# -- two-sided checks -------------------------------------------------------------


def test_thurston_fixtures():
    r = thurston_max_check(S2, C("b1"), parse_word(S2, "a1"))
    assert r.ok and r.diagram_count == 1
    assert str(r) == "diagram=1 expansion=1 ok"
    r = thurston_max_check(S2, C("a1"), parse_word(S2, "a1a1"))
    assert r.ok and r.diagram_count == 0
    r = thurston_max_check(S2, C("b1"), ())
    assert r.ok and r.diagram_count == 0


def test_thurston_rejects_nonsimple_delta():
    with pytest.raises(NotSimple):
        thurston_max_check(S2, C("a1b2"), parse_word(S2, "a1"))


def test_thurston_suite_short_words():
    from curvetrace.curves import enumerate_simple_classes

    deltas = enumerate_simple_classes(S2, 2)
    words = [c.word for c in enumerate_classes(S2, 3)]
    for delta in deltas:
        for w in words[::7]:
            assert thurston_max_check(S2, delta, w).ok, (delta.word, w)


def test_multiplicativity_fixture_and_bottom():
    lam = L({C("b1"): 1})
    r = multiplicativity_check(S2, lam, expand("a1"), expand("a1"))
    assert r.ok
    assert r.product_value == ValuationValue.of(2)
    assert str(r) == "v(fg)=2 v(f)=1 v(g)=1 ok"
    r = multiplicativity_check(S2, lam, zero_expression(2), expand("b2"))
    assert r.ok and r.product_value.is_bottom()


def test_multiplicativity_random_basis_pairs():
    lam = L({C("b1"): 1, C("b2"): Fraction(1, 3)})
    rng = random.Random(71)
    multicurves = enumerate_multicurves(S2, 3)
    for _ in range(30):
        f = basis_expression(rng.choice(multicurves))
        g = basis_expression(rng.choice(multicurves))
        assert multiplicativity_check(S2, lam, f, g).ok


# -- discreteness ------------------------------------------------------------------


def test_classify_discrete_fixtures():
    assert str(classify_discrete(S2, L({C("a1"): Fraction(1, 2)}))) == \
        "NotDiscrete witness=b1 value=1/2"
    assert str(classify_discrete(S2, L({C("a1"): 1}))) == "Discrete"
    half_commutator = L({C("a1b1A1B1"): Fraction(1, 2)})
    assert classify_discrete(S2, half_commutator).discrete
    r = classify_discrete(S2, L({C("a1"): Fraction(1, 3)}))
    assert not r.discrete and r.value == Fraction(1, 3)


def test_classify_discrete_without_a_short_witness(monkeypatch):
    # a third of the separating curve a1b1A1B1 pairs fractionally only with
    # curves that cross it, and no generator does
    monkeypatch.setattr(valuations, "WITNESS_LENGTH_BOUND", 1)
    report = classify_discrete(S2, L({C("a1b1A1B1"): Fraction(1, 3)}))
    assert (report.discrete, report.witness, report.value) == (False, None, None)
    assert str(report) == "NotDiscrete witness=none-within-bound"


def test_classify_discrete_parity_mix():
    # one even doubled weight, one odd: class of b2 survives mod 2
    r = classify_discrete(S2, L({C("a1"): 1, C("b2"): Fraction(1, 2)}))
    assert not r.discrete
    assert r.witness == C("a2") and r.value == Fraction(1, 2)


def test_discrete_laminations_are_integer_valued():
    rng = random.Random(40)
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    for lam in (
        L({C("a1"): 1}),
        L({C("a1b1A1B1"): Fraction(1, 2)}),
        L({C("a1"): 2, C("a2"): 1}),
    ):
        assert classify_discrete(S2, lam).discrete
        for _ in range(15):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            v = valuate(S2, lam, expand_trace(S2, w))
            assert v.value.denominator == 1 and v.value >= 0


# -- positivity and strictness ------------------------------------------------------


def test_positive_fixtures():
    r = check_positive_up_to(S2, L({C("a1"): 1}), 1)
    assert not r.positive and r.witness == C("a1")
    assert str(r) == "NotPositive witness=a1 bound=1"
    handles = L({C("a1b1"): 1, C("a2b2"): 1})
    assert str(check_positive_up_to(S2, handles, 1)) == "Positive bound=1"
    r2 = check_positive_up_to(S2, handles, 2)
    assert not r2.positive and r2.witness == C("a1b1")
    with pytest.raises(ValueError):
        check_positive_up_to(S2, handles, 0)


def test_strict_fixtures():
    r = check_strict_up_to(S2, L({C("b1"): 1}), 1)
    assert str(r) == "NotStrict first=- second=b1^1 value=0 bound=1"
    sep = L({C("a1A2B2"): 1, C("a1a1A2b1"): Fraction(1, 101)})
    assert str(check_strict_up_to(S2, sep, 1)) == "Strict bound=1"
    # strict on a universe forces positive on the same universe
    assert check_positive_up_to(S2, sep, 1).positive


# -- curve normalization -------------------------------------------------------------


def test_curv_normalize_weights():
    for text in ("a1", "b1", "a2", "b2", "b1b2"):
        lam = curv_normalize(S2, C(text))
        assert lam.weight(C(text)) == 1
        assert classify_discrete(S2, lam).discrete
    half = curv_normalize(S2, C("a1b1A1B1"))
    assert half.weight(C("a1b1A1B1")) == Fraction(1, 2)
    assert classify_discrete(S2, half).discrete


def test_curv_normalize_rejects_nonsimple():
    with pytest.raises(NotSimple):
        curv_normalize(S2, C("a1b2"))


# -- bounded multicurve universe -------------------------------------------------------


def test_enumerate_multicurves_small_bounds():
    assert [str(m) for m in enumerate_multicurves(S2, 0)] == ["-"]
    assert [str(m) for m in enumerate_multicurves(S2, 1)] == [
        "-",
        "a1^1",
        "b1^1",
        "a2^1",
        "b2^1",
    ]
    universe = enumerate_multicurves(S2, 2)
    assert len(universe) == 21
    # every member passes the validating constructor unchanged
    for mc in universe:
        assert make_multicurve(S2, dict(mc.components)) == mc


def test_genus_three_valuation_smoke():
    lam = make_lamination(S3, {C("b3", S3): 1})
    assert lamination_intersection(S3, lam, C("a3", S3)) == 1
    assert thurston_max_check(S3, C("b3", S3), parse_word(S3, "a3a3")).ok
