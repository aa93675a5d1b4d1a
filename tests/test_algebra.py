"""Trace expansion and products in the multicurve basis of the character algebra."""
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_expand, reference_multiply
from sweeps import expansion_mismatches, product_differences
import curvetrace.algebra as algebra
from curvetrace.algebra import (
    basis_expression,
    basis_rank_check,
    empty_multicurve,
    enumerate_multicurves,
    evaluate_expression,
    expand_trace,
    format_expression,
    format_multicurve,
    make_multicurve,
    multiply_expressions,
    parse_expression,
    parse_multicurve,
    scalar_expression,
    unit_expression,
    zero_expression,
)
from curvetrace import curves, words
from curvetrace.curves import _taut_single, enumerate_classes, tauten_routes
from curvetrace.diagrams import build_diagram
from curvetrace.errors import (
    BadArgument,
    BadLetter,
    GenusMismatch,
    ModelInconsistency,
    NotSimple,
    ReductionBudgetExceeded,
)
from curvetrace.mapping import apply_to_multicurve, twist_generator
from curvetrace.polygon import polygon_model
from curvetrace.representations import P, evaluate_trace, random_representation
from curvetrace.words import (
    canonical_class,
    free_reduce,
    inverse_word,
    letters,
    make_surface,
    parse_word,
)

S2 = make_surface(2)
S3 = make_surface(3)


def C(text, surface=S2):
    return canonical_class(surface, parse_word(surface, text))


def W(text, surface=S2):
    return parse_word(surface, text)


def expand(text, surface=S2):
    return expand_trace(surface, W(text, surface))


# -- multicurves ---------------------------------------------------------------


def test_make_multicurve_sorts_and_merges():
    mc = make_multicurve(S2, {C("a2"): 1, C("a1"): 2})
    assert [(c.word, m) for c, m in mc.components] == [((1,), 2), ((3,), 1)]
    assert mc.total_length() == 3
    assert mc.multiplicity(C("a1")) == 2
    assert mc.multiplicity(C("b1")) == 0


def test_make_multicurve_rejects_bad_multiplicity():
    with pytest.raises(ValueError):
        make_multicurve(S2, {C("a1"): 0})
    with pytest.raises(ValueError):
        make_multicurve(S2, {C("a1"): -2})


@pytest.mark.parametrize(
    "mult",
    [float("nan"), float("inf"), 2.0, Fraction(2), "2", True],
    ids=["nan", "inf", "float", "fraction", "str", "bool"],
)
def test_multiplicities_that_are_not_ints_are_typed_errors(mult):
    # NaN raised a bare ValueError, inf an OverflowError, and 2.0 and True
    # were accepted
    with pytest.raises(BadArgument):
        make_multicurve(S2, {C("a1"): mult})


def test_make_multicurve_rejects_nonsimple_component():
    with pytest.raises(NotSimple):
        make_multicurve(S2, {C("a1b2"): 1})


def test_make_multicurve_rejects_crossing_components():
    with pytest.raises(NotSimple):
        make_multicurve(S2, {C("a1"): 1, C("b1"): 1})


def test_multicurve_format_and_parse():
    mc = make_multicurve(S2, {C("a1"): 2, C("b2"): 1})
    assert format_multicurve(mc) == "a1^2,b2^1"
    assert parse_multicurve(S2, "b2, a1^2") == mc
    assert parse_multicurve(S2, "a1,a1,b2") == mc
    assert format_multicurve(empty_multicurve(2)) == "-"
    assert parse_multicurve(S2, "-") == empty_multicurve(2)


def test_multicurve_multiplicity_that_is_not_an_int_is_typed():
    with pytest.raises(BadLetter, match=r"'a1\^x'"):
        parse_multicurve(S2, "b2, a1^x")


# -- expressions as a vector space ---------------------------------------------


def test_expression_arithmetic():
    f = expand("a1")
    g = expand("b1")
    assert (f + g) - g == f
    assert f.scale(Fraction(1, 3)).scale(3) == f
    assert f - f == zero_expression(2)
    assert (f - f).is_zero()
    assert unit_expression(2).coefficient(empty_multicurve(2)) == 1
    assert f.coefficient(empty_multicurve(2)) == 0
    assert f.scale(0) == zero_expression(2)


@pytest.mark.parametrize("text", ["x a1^1", "1/0 a1^1", "1\ta1^1\n1/2/3\tb1^1"])
def test_coefficients_that_are_not_rationals_are_typed(text):
    # Fraction rejects these with ValueError or ZeroDivisionError; the
    # parser raises a typed error that names the line
    bad = re.escape(repr(text.splitlines()[-1]))
    with pytest.raises(BadLetter, match=f"^cannot parse the coefficient of {bad}$"):
        parse_expression(S2, text)


def test_expression_format_round_trip():
    src = "-2/3\ta1^1,b2^1\n# comment\n5 a1b1^2\n1/2\t-\n"
    f = parse_expression(S2, src)
    assert parse_expression(S2, format_expression(f)) == f
    assert format_expression(f) == "5\ta1b1^2\n-2/3\ta1^1,b2^1\n1/2\t-"


# -- int coefficients ------------------------------------------------------------


def exact_types(f):
    """Each coefficient is an int when integral and a Fraction otherwise."""
    return all(type(c) is (int if c.denominator == 1 else Fraction) for _, c in f.terms)


def test_expansions_and_products_hold_int_coefficients():
    family = [expand(text) for text in ("a1a1a1", "a1b2", "a1b1A2B2", "a1b1a1b1")]
    family.append(expand_trace(S2, ()))
    for f in family:
        assert f.terms and all(type(c) is int for _, c in f.terms)
        for g in family:
            prod = multiply_expressions(S2, f, g)
            assert prod.terms and all(type(c) is int for _, c in prod.terms)


def test_integral_coefficients_come_back_as_ints():
    f = expand("a1b1a1b1")  # 1 a1b1^2, -2
    half = f.scale(Fraction(1, 2))
    assert [type(c) for _, c in half.terms] == [Fraction, int]
    back = half.scale(2)
    assert back == f and all(type(c) is int for _, c in back.terms)
    third = basis_expression(make_multicurve(S2, {C("a1"): 1})).scale("1/3")
    assert exact_types(third) and type(third.terms[0][1]) is Fraction
    whole = third + third + third
    assert exact_types(whole) and type(whole.terms[0][1]) is int
    assert type(unit_expression(2).coefficient(empty_multicurve(2))) is int
    assert type(f.coefficient(make_multicurve(S2, {C("b2"): 1}))) is int
    parsed = parse_expression(S2, "4/2\ta1^1\n1/2\tb1^1\n-3\t-")
    assert exact_types(parsed)
    assert [type(c) for _, c in parsed.terms] == [int, Fraction, int]
    assert exact_types(scalar_expression(2, Fraction(6, 3)))


def test_format_and_parse_round_trip_byte_for_byte():
    texts = [format_expression(expand(w)) for w in ("a1a1a1", "a1b1A2B2", "a1b2")]
    texts.append("5\ta1b1^2\n-2/3\ta1^1,b2^1\n-1\ta1^2\n1/2\t-")
    for text in texts:
        f = parse_expression(S2, text)
        assert format_expression(f) == text
        assert parse_expression(S2, format_expression(f)) == f


def test_evaluate_expression_agrees_on_int_and_fraction_forms():
    f = expand("a1b1A2B2") + expand("a1b2").scale(Fraction(-5, 3))
    assert exact_types(f) and {type(c) for _, c in f.terms} == {int, Fraction}
    as_fractions = algebra.TraceExpression(
        genus=2, terms=tuple((mc, Fraction(c)) for mc, c in f.terms)
    )
    assert as_fractions == f and hash(as_fractions) == hash(f)
    assert format_expression(as_fractions) == format_expression(f)
    for seed in range(3):
        rep = random_representation(S2, seed)
        assert evaluate_expression(rep, as_fractions) == evaluate_expression(rep, f)


@pytest.mark.parametrize(
    "factor", [0.1, 2.0, float("nan"), float("inf"), Decimal("NaN"), True]
)
def test_scale_rejects_floats_and_non_finite_factors(factor):
    # 0.1 would scale by its binary rounding, 3602879701896397/2^55, and True
    # by 1
    with pytest.raises(BadArgument):
        expand("a1b2").scale(factor)
    with pytest.raises(BadArgument):
        scalar_expression(2, factor)


def test_scale_takes_ints_fractions_and_text():
    f = expand("a1b2")
    want = parse_expression(S2, "1/3\ta1^1,b2^1\n-1/3\ta1B2^1")
    assert f.scale(Fraction(1, 3)) == f.scale("1/3") == want
    assert f.scale(Decimal("0.5")) == f.scale(Fraction(1, 2))
    assert f.scale(-1) == parse_expression(S2, "-1\ta1^1,b2^1\n1\ta1B2^1")


# -- expansion fixtures ---------------------------------------------------------


def test_expand_trivial_word_is_two():
    assert format_expression(expand_trace(S2, ())) == "2\t-"
    assert format_expression(expand("a1A1")) == "2\t-"


def test_expand_simple_classes_are_basis_elements():
    assert format_expression(expand("a1")) == "1\ta1^1"
    assert format_expression(expand("a1b1")) == "1\ta1b1^1"
    assert format_expression(expand("a1B1")) == "1\ta1B1^1"
    assert format_expression(expand("b1b2")) == "1\tb1b2^1"


def test_expand_square_and_cube_of_generator():
    assert format_expression(expand("a1a1")) == "1\ta1^2\n-2\t-"
    assert format_expression(expand("a1a1a1")) == "1\ta1^3\n-3\ta1^1"


def test_expand_power_of_longer_class():
    assert format_expression(expand("a1b1a1b1")) == "1\ta1b1^2\n-2\t-"


def test_expand_one_crossing_word():
    assert format_expression(expand("a1b2")) == "1\ta1^1,b2^1\n-1\ta1B2^1"


def test_expand_invariant_under_conjugation_and_inversion():
    rng = random.Random(555)
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    for _ in range(25):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        g = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        conj = g + w + inverse_word(g)
        assert expand_trace(S2, w) == expand_trace(S2, conj)
        assert expand_trace(S2, w) == expand_trace(S2, inverse_word(w))


# -- exact agreement with representations --------------------------------------


def test_expansion_matches_traces_on_long_words():
    rng = random.Random(99)
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    words = [
        tuple(rng.choice(letters) for _ in range(rng.choice((5, 6)))) for _ in range(12)
    ]
    assert expansion_mismatches(S2, words) == []


def test_one_wrong_term_is_caught_at_every_representation():
    f = expand("a1b1A2B2")
    wrong = f + basis_expression(make_multicurve(S2, {C("a2"): 1}))
    for seed in range(20):
        rep = random_representation(S2, seed)
        assert evaluate_expression(rep, wrong) != evaluate_trace(rep, W("a1b1A2B2"))


def test_evaluate_expression_rejects_another_genus():
    with pytest.raises(GenusMismatch):
        evaluate_expression(random_representation(S3, 0), expand("a1b1"))


def test_evaluate_expression_on_zero_and_scalar():
    rep = random_representation(S2, 0)
    assert evaluate_expression(rep, zero_expression(2)) == 0
    f = scalar_expression(2, Fraction(-7, 2))
    assert evaluate_expression(rep, f) == -7 * pow(2, -1, P) % P


# -- products -------------------------------------------------------------------


def test_product_trace_identity():
    prod = multiply_expressions(S2, expand("a1"), expand("b1"))
    assert prod == expand("a1b1") + expand("a1B1")


def test_product_unit_and_scalar_laws():
    f = expand("a1b2")
    assert multiply_expressions(S2, unit_expression(2), f) == f
    assert multiply_expressions(S2, scalar_expression(2, 3), f) == f.scale(3)


def test_product_commutes_and_associates():
    f = expand("a1b1")
    g = expand("b1a2")
    h = expand("a2")
    assert multiply_expressions(S2, f, g) == multiply_expressions(S2, g, f)
    lhs = multiply_expressions(S2, multiply_expressions(S2, f, g), h)
    rhs = multiply_expressions(S2, f, multiply_expressions(S2, g, h))
    assert lhs == rhs


def test_product_matches_numerics():
    f = expand("a1b1")
    g = expand("a1B1")
    prod = multiply_expressions(S2, f, g)
    for seed in range(3):
        rep = random_representation(S2, seed)
        want = evaluate_expression(rep, f) * evaluate_expression(rep, g) % P
        assert evaluate_expression(rep, prod) == want


def test_disjoint_product_is_union():
    prod = multiply_expressions(S2, expand("a1"), expand("a2"))
    assert format_expression(prod) == "1\ta1^1,a2^1"


# -- genus three ----------------------------------------------------------------


def test_genus_three_expansion():
    f = expand("a1b3", S3)
    assert format_expression(f) == "1\ta1^1,b3^1\n-1\ta1B3^1"
    prod = multiply_expressions(S3, expand("a3", S3), expand("b3", S3))
    assert prod == expand("a3b3", S3) + expand("a3B3", S3)
    rep = random_representation(S3, 4)
    w = W("a1b3", S3)
    assert evaluate_expression(rep, f) == evaluate_trace(rep, w)


# -- agreement with the crossing-resolution recursion ----------------------------


def test_expansion_matches_reference_on_genus_two_classes():
    assert expansion_mismatches(S2, [c.word for c in enumerate_classes(S2, 4)]) == []


def test_expansion_matches_reference_on_genus_three_sample():
    rng = random.Random(4)
    sample = [
        tuple(rng.choice(letters(3)) for _ in range(rng.randint(1, 5))) for _ in range(100)
    ]
    assert expansion_mismatches(S3, sample) == []


def test_product_matches_reference_on_basis_pairs():
    # short multicurves and their images under one twist generator, so the
    # products also run over longer strands and over parallel copies
    family = enumerate_multicurves(S2, 3)[1:]
    rng = random.Random(11)
    pairs = []
    for _ in range(40):
        x, y = rng.choice(family), rng.choice(family)
        twist = twist_generator(S2, rng.randint(1, 5))
        pairs.append((x, y))
        pairs.append(
            (apply_to_multicurve(S2, twist, x), apply_to_multicurve(S2, twist, y))
        )
    for x, y in pairs:
        f, g = basis_expression(x), basis_expression(y)
        assert multiply_expressions(S2, f, g) == reference_multiply(S2, f, g), (
            str(x),
            str(y),
        )


_G3_WORDS = st.lists(st.sampled_from(letters(3)), min_size=1, max_size=5).map(
    tuple
)
_G3_REPS = [random_representation(S3, seed) for seed in range(2)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(word=_G3_WORDS)
def test_expansion_agrees_with_numerical_trace_genus_three(word):
    f = expand_trace(S3, word)
    for rep in _G3_REPS:
        assert evaluate_expression(rep, f) == evaluate_trace(rep, word)


# -- loud checks ----------------------------------------------------------------


def test_crossing_loop_checks_raise_typed_errors(monkeypatch):
    # every strand's arcs must read its class again; the check survives
    # python -O and raises a package error
    f, g = expand("a1"), expand("b1")
    real = algebra._canonical_class
    monkeypatch.setattr(algebra, "_EXPAND_CACHE", {})
    monkeypatch.setattr(algebra, "_MERGE_CACHE", {})
    monkeypatch.setattr(algebra, "_canonical_class", lambda genus, w: real(genus, (3,)))
    with pytest.raises(ModelInconsistency):
        multiply_expressions(S2, f, g)
    calls = []

    def wrong_after_first(genus, w):
        # the first lookup is expand_trace's own, of the word's class
        calls.append(w)
        return real(genus, w) if len(calls) == 1 else real(genus, (3,))

    monkeypatch.setattr(algebra, "_canonical_class", wrong_after_first)
    with pytest.raises(ModelInconsistency):
        expand_trace(S2, W("a1b2"))


# -- rank of the evaluation pairing ----------------------------------------------


def test_rank_check_small_families():
    e = empty_multicurve(2)
    a1 = make_multicurve(S2, {C("a1"): 1})
    assert basis_rank_check(S2, [e], trials=3, seed=5).full_rank
    assert basis_rank_check(S2, [e, a1], trials=4, seed=5).full_rank


def test_rank_check_six_multicurves():
    e = empty_multicurve(2)
    family = [
        e,
        make_multicurve(S2, {C("a1"): 1}),
        make_multicurve(S2, {C("b1"): 1}),
        make_multicurve(S2, {C("a2"): 1}),
        make_multicurve(S2, {C("a1"): 1, C("a2"): 1}),
        make_multicurve(S2, {C("a1"): 2}),
    ]
    report = basis_rank_check(S2, family, trials=10, seed=2026)
    assert report.full_rank
    assert report.rank == 6
    assert str(report) == "rank=6/6 trials=10 seed=2026"
    report = basis_rank_check(S2, family[:5] + [family[3]], trials=10, seed=2026)
    assert report.rank == 5 and not report.full_rank


def test_rank_check_flags_dependent_family():
    a1 = make_multicurve(S2, {C("a1"): 1})
    report = basis_rank_check(S2, [a1, a1], trials=5, seed=1)
    assert report.rank == 1
    assert not report.full_rank


def test_rank_check_rejects_multicurves_of_another_genus():
    with pytest.raises(GenusMismatch):
        basis_rank_check(make_surface(3), [empty_multicurve(2)], 2, 0)
    with pytest.raises(BadArgument):
        basis_rank_check(S2, [(1, 2)], 1, 0)


def test_expand_trace_rejects_words_that_are_not_int_letters():
    for word in ("a1B2", "a", (1, "b")):
        with pytest.raises(BadLetter):
            expand_trace(S2, word)


def test_expansion_reuses_the_cached_taut_diagram(monkeypatch):
    # a class, a proper power included, sums over the diagram _taut_single
    # certified, and a product over the built union of its components' taut
    # routes, so neither tautens once those diagrams are cached
    classes = {C("a1B2B1"): 2, C("a1b1a1b1"): 1}
    want = {}
    for cls, crossings in classes.items():
        assert _taut_single(2, cls.word)[1] == crossings
        want[cls] = reference_expand(S2, cls.word)
    # the built union of a1b1 and a1a1b1 keeps a bigon: 3 crossings, not 1
    pair = (C("a1b1"), C("a1a1b1"))
    routes = tuple(_taut_single(2, c.word)[0].routes[0] for c in pair)
    assert build_diagram(polygon_model(2), pair, routes).crossing_count == 3
    assert tauten_routes(2, pair, routes).crossing_count == 1
    x, y = (basis_expression(make_multicurve(S2, {c: 1})) for c in pair)
    product = reference_multiply(S2, x, y)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return tauten_routes(*args, **kwargs)

    monkeypatch.setattr(curves, "tauten_routes", recording)
    monkeypatch.setattr(algebra, "_EXPAND_CACHE", {})
    monkeypatch.setattr(algebra, "_MERGE_CACHE", {})
    for cls in classes:
        assert expand_trace(S2, cls.word) == want[cls]
    assert multiply_expressions(S2, x, y) == product
    assert calls == []
    assert not hasattr(algebra, "tauten_routes")


def test_products_on_the_built_union_match_both_references(monkeypatch):
    # tests/sweeps.py compares every product of total length <= 4; this is a
    # sample
    monkeypatch.setattr(algebra, "_MERGE_CACHE", {})
    family = enumerate_multicurves(S2, 4)
    rng = random.Random(24)
    pairs = [(rng.choice(family), rng.choice(family)) for _ in range(200)]
    assert product_differences(S2, pairs)[0] == []


def test_state_sum_past_the_budget_raises_before_any_state(monkeypatch):
    # 22 crossings make 2^22 states; the sum spends them all before the
    # first, so after expand_trace's lookup of the word's own class the only
    # class read is the strand check's, none a state's
    word = W("a1a1A2A2b1a1a2B1A2A1a2b2")
    assert _taut_single(2, canonical_class(S2, word).word)[0].crossing_count == 22
    reads = []
    read_class = algebra._canonical_class

    def recording(genus, w):
        reads.append(w)
        return read_class(genus, w)

    monkeypatch.setattr(algebra, "_canonical_class", recording)
    monkeypatch.setattr(algebra, "_EXPAND_CACHE", {})
    with pytest.raises(ReductionBudgetExceeded, match="budget of 1000000"):
        expand_trace(S2, word)
    assert reads[0] == word and len(reads) == 2


def test_state_sums_look_classes_up_by_reduced_words(monkeypatch):
    # arc words read off a smoothing are reduced before the class lookup, so
    # no key the class cache is left with after a state sum is unreduced
    keys = []
    lookup = algebra._canonical_class

    def recording(genus, word):
        keys.append(word)
        return lookup(genus, word)

    monkeypatch.setattr(algebra, "_canonical_class", recording)
    monkeypatch.setattr(algebra, "_EXPAND_CACHE", {})
    monkeypatch.setattr(algebra, "_MERGE_CACHE", {})
    for text in ("a1B2B1", "a1b1a1b1", "a1a2B1B2"):
        expand(text)
    multiply_expressions(S2, expand("a1b1"), expand("a1B2"))
    assert keys and all(free_reduce(word) == word for word in keys)


def test_rank_check_requires_enough_trials():
    with pytest.raises(ValueError):
        basis_rank_check(S2, [empty_multicurve(2)], trials=0, seed=0)


def test_multiply_expressions_checks_genus():
    s3 = make_surface(3)
    a1, a2 = (expand_trace(S2, parse_word(S2, t)) for t in ("a1", "a2"))
    with pytest.raises(GenusMismatch):
        multiply_expressions(S2, expand_trace(s3, parse_word(s3, "a3")), a1)
    # both factors at genus 2 on a genus-3 surface
    with pytest.raises(GenusMismatch):
        multiply_expressions(s3, a2, a1)
