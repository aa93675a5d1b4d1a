"""Dehn twists, sign characters, and their action on the trace algebra."""
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sweeps import twist_mismatches

from curvetrace import mapping
from curvetrace.algebra import (
    basis_expression,
    expand_trace,
    evaluate_expression,
    make_multicurve,
    multiply_expressions,
    parse_expression,
    parse_multicurve,
)
from curvetrace.curves import enumerate_simple_classes, intersection_number
from curvetrace.errors import (
    BadArgument,
    BadIndex,
    BadLetter,
    GenusMismatch,
    ModelInconsistency,
    NotSimple,
    NotSimpleImage,
)
from curvetrace.mapping import (
    MappingClass,
    apply_to_class,
    apply_to_expression,
    apply_to_multicurve,
    apply_to_word,
    central_twist,
    character_pullback,
    compose_mapping_classes,
    format_mapping_class,
    format_sign_character,
    h1_action,
    humphries_classes,
    identity_mapping_class,
    invert_mapping_class,
    make_sign_character,
    parse_mapping_class,
    parse_sign_character,
    relator_certificate,
    semidirect_check,
    sign_pairing,
    twist_along,
    twist_generator,
    verify_algebra_automorphism,
)
from curvetrace.representations import evaluate_trace, random_representation
from curvetrace.words import (
    CurveClass,
    canonical_class,
    free_reduce,
    inverse_word,
    letters,
    make_surface,
    normalize_word,
    parse_word,
)

S2 = make_surface(2)
S3 = make_surface(3)


def C(text, surface=S2):
    return canonical_class(surface, parse_word(surface, text))


def W(text, surface=S2):
    return parse_word(surface, text)


# -- twist construction --------------------------------------------------------


def test_twist_convention_on_first_handle():
    t = twist_along(S2, C("a1"))
    assert t.images == (W("a1"), W("b1a1"), W("a2"), W("b2"))
    assert t.inverse_images == (W("a1"), W("b1A1"), W("a2"), W("b2"))


def test_twist_images_whole_family():
    got = {}
    for idx in range(1, 6):
        t = twist_generator(S2, idx)
        got[idx] = tuple(t.images)
    assert got[1] == (W("a1"), W("b1"), W("a2B2"), W("b2"))
    assert got[2] == (W("a1B1"), W("b1"), W("a2"), W("b2"))
    assert got[3] == (W("a1"), W("b1a1"), W("a2"), W("b2"))
    assert got[4] == (W("a1B1B2"), W("b2b1B2"), W("b2b1B2B1a2B1B2"), W("b2b1b2B1B2"))
    # up to conjugation by b2b1, the twist along b1b2 is the substitution
    # a1 -> B1B2a1, a2 -> B2B1a2 that fixes b1 and b2
    g = W("b2b1")
    plain = (W("B1B2a1"), W("b1"), W("B2B1a2"), W("b2"))
    assert got[4] == tuple(normalize_word(S2, g + w + inverse_word(g)) for w in plain)
    assert got[5] == (W("a1"), W("b1"), W("a2"), W("b2a2"))


def test_twist_images_whole_family_genus_three():
    def images(*texts):
        return tuple(W(text, S3) for text in texts)

    got = {idx: twist_generator(S3, idx) for idx in range(1, 8)}
    assert got[1].images == images("a1", "b1", "a2B2", "b2", "a3", "b3")
    assert got[2].images == images("a1B1", "b1", "a2", "b2", "a3", "b3")
    assert got[3].images == images("a1", "b1a1", "a2", "b2", "a3", "b3")
    assert got[4].images == images(
        "a1B1a2b2A2", "a2B2A2b1a2b2A2", "a2B2A2b1a2", "b2", "a3", "b3"
    )
    assert got[5].images == images("a1", "b1", "a2", "b2a2", "a3", "b3")
    assert got[6].images == images(
        "a1", "b1", "a2B2a3b3A3", "a3B3A3b2a3b3A3", "a3B3A3b2a3", "b3"
    )
    assert got[7].images == images("a1", "b1", "a2", "b2", "a3", "b3a3")
    assert got[4].inverse_images == images(
        "a1a2B2A2b1", "B1a2b2A2b1a2B2A2b1", "B1a2b2", "b2", "a3", "b3"
    )
    assert got[6].inverse_images == images(
        "a1", "b1", "a2a3B3A3b2", "B2a3b3A3b2a3B3A3b2", "B2a3b3", "b3"
    )


def test_twist_certificates():
    for surface in (S2, S3):
        for curve in humphries_classes(surface):
            t = twist_along(surface, curve)
            assert t.certificate.sign == 1


def test_twists_fix_their_curve_and_square_its_intersections():
    # the twist sweep of tests/sweeps.py on shorter classes
    lines, checks = [], 0
    for surface, bound in ((S2, 3), (S3, 2)):
        classes = enumerate_simple_classes(surface, bound)
        pool = enumerate_simple_classes(surface, 2)
        found, n = twist_mismatches(surface, classes, pool, random.Random(surface.genus))
        lines += found
        checks += n
    assert (lines, checks) == ([], 616)


def test_twist_homology_shift():
    # twisting along b2 moves a2 by the symplectic pairing, nothing else
    t = twist_generator(S2, 1)
    assert apply_to_word(S2, t, W("a2")) == W("a2B2")
    assert apply_to_word(S2, t, W("b2")) == W("b2")


def test_twist_rejects_bad_input():
    with pytest.raises(NotSimple):
        twist_along(S2, C("a1b2"))
    with pytest.raises(GenusMismatch):
        twist_along(S2, C("a1", S3))


def test_twist_rejects_non_integer_turns():
    for bad in (1.5, "2", None, 2.0, True, False):
        with pytest.raises(BadArgument, match="must be an integer"):
            twist_along(S2, C("a1"), turns=bad)


def test_twist_generator_index_errors():
    for bad in (0, 6, -1, True):
        with pytest.raises(BadIndex):
            twist_generator(S2, bad)
    with pytest.raises(BadIndex):
        twist_generator(S3, 8)


def test_twist_turns():
    c = C("b1b2")
    assert twist_along(S2, c, turns=0) == identity_mapping_class(S2)
    t1 = twist_along(S2, c)
    t2 = twist_along(S2, c, turns=2)
    assert t2.images == compose_mapping_classes(S2, t1, t1).images
    back = twist_along(S2, c, turns=-1)
    assert back.images == t1.inverse_images


def test_humphries_family_genus2():
    assert tuple(c.word for c in humphries_classes(S2)) == (
        (4,), (2,), (1,), (2, 4), (3,),
    )


def test_humphries_family_genus3():
    assert tuple(c.word for c in humphries_classes(S3)) == (
        (4,), (2,), (1,), (2, 3, -4, -3), (3,), (4, 5, -6, -5), (5,),
    )


def test_humphries_family_genus4():
    s4 = make_surface(4)
    curves = humphries_classes(s4)
    assert tuple(c.word for c in curves) == (
        (4,), (2,), (1,), (2, 3, -4, -3), (3,), (4, 5, -6, -5), (5,),
        (6, 7, -8, -7), (7,),
    )
    assert mapping._chain_pattern_ok(s4, curves)


@pytest.mark.parametrize("genus", [2, 3, 4, 5, 6])
def test_humphries_intersection_pattern(genus):
    surface = make_surface(genus)
    curves = humphries_classes(surface)
    assert len(curves) == 2 * genus + 1
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            want = 1 if (i >= 1 and j == i + 1) or (i == 0 and j == 4) else 0
            assert intersection_number(surface, curves[i], curves[j]) == want


@pytest.mark.parametrize("genus", [2, 3])
def test_braid_and_commutation_relations(genus):
    surface = make_surface(genus)
    curves = humphries_classes(surface)
    twists = [twist_along(surface, c) for c in curves]
    sample = enumerate_simple_classes(surface, 2)

    def images(f):
        return tuple(apply_to_class(surface, f, c) for c in sample)

    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            ti, tj = twists[i], twists[j]
            if intersection_number(surface, curves[i], curves[j]) == 1:
                lhs = compose_mapping_classes(
                    surface, ti, compose_mapping_classes(surface, tj, ti)
                )
                rhs = compose_mapping_classes(
                    surface, tj, compose_mapping_classes(surface, ti, tj)
                )
            else:
                lhs = compose_mapping_classes(surface, ti, tj)
                rhs = compose_mapping_classes(surface, tj, ti)
            assert images(lhs) == images(rhs)


def test_compose_and_invert():
    t = twist_generator(S2, 4)
    ident = compose_mapping_classes(S2, t, invert_mapping_class(t))
    assert ident.images == identity_mapping_class(S2).images
    double = compose_mapping_classes(S2, t, t)
    assert apply_to_word(S2, double, W("b1")) == apply_to_word(
        S2, t, apply_to_word(S2, t, W("b1"))
    )


def _twist_word(seq):
    """Composite of twist generators, seq[0] applied first; -k is the inverse
    of generator k."""
    f = identity_mapping_class(S2)
    for k in seq:
        t = twist_generator(S2, abs(k))
        f = compose_mapping_classes(S2, t if k > 0 else invert_mapping_class(t), f)
    return f


# composites whose normalized images are not free-group lifts of the map: the
# relator image is trivial in pi1 but not a conjugate of the relator in the
# free group
@pytest.mark.parametrize("seq", [
    (-4, -5, -3, -4), (-4, -3, -5, -4), (1, -5, -4, -3), (2, -3, -4, -5),
    (3, 4, 5, -1), (4, 3, 5, 4), (4, 5, 3, 4), (5, 4, 3, -2),
], ids=lambda seq: ",".join(map(str, seq)))
def test_composite_certified_in_pi1(seq):
    f = _twist_word(seq)
    assert f.certificate.sign == 1
    assert parse_mapping_class(S2, format_mapping_class(f)) == f


def test_certificate_rejects_non_automorphisms():
    ident = identity_mapping_class(S2).images
    with pytest.raises(ModelInconsistency, match="relator image"):
        relator_certificate(S2, (W("a1a1"),) + ident[1:])
    # b_i -> a_i kills the relator, but the map is not onto: the H1 pairing
    # sums to 0, not +-2
    with pytest.raises(ModelInconsistency, match="in H1"):
        relator_certificate(S2, (W("a1"), W("a1"), W("a2"), W("a2")))


def test_substitution_reduces_inside_images_that_are_not_reduced():
    # relator_certificate takes any images: _substitute joins them at their
    # seams and must still give the free reduction of the spliced word
    rng = random.Random(8)
    alphabet = letters(2)
    for _ in range(300):
        images = [
            tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 5)))
            for _ in range(4)
        ]
        word = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        spliced = [
            l
            for x in word
            for l in (images[x - 1] if x > 0 else inverse_word(images[-x - 1]))
        ]
        assert mapping._substitute(images, word) == free_reduce(spliced), (images, word)
    twist = twist_generator(S2, 1)
    padded = [w[:1] + (3, -3) + w[1:] for w in twist.images]
    assert relator_certificate(S2, padded) == twist.certificate


_GENUS_MISMATCH_CALLS = {
    "twist_along": lambda: twist_along(S2, C("a1", S3)),
    "compose": lambda: compose_mapping_classes(
        S2, twist_generator(S3, 1), twist_generator(S2, 1)
    ),
    "apply_to_word": lambda: apply_to_word(S2, twist_generator(S3, 1), W("a1")),
    "h1_action": lambda: h1_action(
        S2, make_sign_character(S3, "100000"), expand_trace(S2, W("a1b1"))
    ),
    "sign_pairing": lambda: sign_pairing(
        S2, make_sign_character(S3, "100000"), parse_multicurve(S2, "a1^1")
    ),
    "central_twist": lambda: central_twist(
        S2, random_representation(S2, 7), make_sign_character(S3, "100000")
    ),
    "character_pullback": lambda: character_pullback(
        S2, make_sign_character(S2, "1000"), twist_generator(S3, 1)
    ),
}


@pytest.mark.parametrize("entry", sorted(_GENUS_MISMATCH_CALLS))
def test_mapping_layer_rejects_other_genus(entry):
    with pytest.raises(GenusMismatch):
        _GENUS_MISMATCH_CALLS[entry]()


# -- action on classes and expressions ------------------------------------------


def test_apply_to_class_ignores_representative():
    t = twist_generator(S2, 3)
    assert apply_to_class(S2, t, C("B1")) == C("b1a1")
    assert apply_to_class(S2, t, C("a2b1A2")) == C("b1a1")


def test_intersection_invariance():
    sample = enumerate_simple_classes(S2, 2)
    t = twist_generator(S2, 4)
    for x in sample:
        fx = apply_to_class(S2, t, x)
        for y in sample:
            fy = apply_to_class(S2, t, y)
            assert intersection_number(S2, fx, fy) == intersection_number(S2, x, y)


_SHORT_SIMPLE = st.deferred(lambda: st.sampled_from(enumerate_simple_classes(S2, 2)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seq=st.lists(st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), max_size=4),
    x=_SHORT_SIMPLE,
    y=_SHORT_SIMPLE,
)
def test_twist_words_preserve_intersection(seq, x, y):
    """i(Tx, Ty) = i(x, y) for a word T of at most 4 twist generators."""
    t = _twist_word(seq)
    fx, fy = apply_to_class(S2, t, x), apply_to_class(S2, t, y)
    assert intersection_number(S2, fx, fy) == intersection_number(S2, x, y)


def test_apply_to_multicurve():
    t = twist_generator(S2, 3)
    mc = make_multicurve(S2, {C("b1"): 2, C("b2"): 1})
    image = apply_to_multicurve(S2, t, mc)
    assert image == make_multicurve(S2, {C("b1a1"): 2, C("b2"): 1})


def test_apply_to_expression_multiplicative():
    t = twist_generator(S2, 3)
    for u, v in [("a1", "b1"), ("b1", "b2"), ("a1b1", "a2")]:
        f = basis_expression(parse_multicurve(S2, u + "^1"))
        g = basis_expression(parse_multicurve(S2, v + "^1"))
        lhs = apply_to_expression(S2, t, multiply_expressions(S2, f, g))
        rhs = multiply_expressions(
            S2, apply_to_expression(S2, t, f), apply_to_expression(S2, t, g)
        )
        assert lhs == rhs


def test_apply_to_expression_keeps_ints_and_fractions():
    t = twist_generator(S2, 3)
    f = multiply_expressions(S2, expand_trace(S2, W("a1b2")), expand_trace(S2, W("b1")))
    image = apply_to_expression(S2, t, f)
    assert image.terms and all(type(c) is int for _, c in image.terms)
    half = apply_to_expression(S2, t, parse_expression(S2, "1/2\ta1^1\n2/2\tb1^1"))
    assert sorted(type(c).__name__ for _, c in half.terms) == ["Fraction", "int"]


def test_not_simple_image_error():
    # hand-built broken map: the b1 image is a non-simple class
    fake = MappingClass(
        genus=2,
        images=(W("a1"), W("a1b2"), W("a2"), W("b2")),
        inverse_images=(W("a1"), W("a1b2"), W("a2"), W("b2")),
        certificate=twist_generator(S2, 3).certificate,
    )
    with pytest.raises(NotSimpleImage):
        apply_to_multicurve(S2, fake, make_multicurve(S2, {C("b1"): 1}))


def test_apply_rejects_other_genus():
    t = twist_generator(S2, 1)
    with pytest.raises(GenusMismatch):
        apply_to_class(S2, t, C("a1b3", S3))
    with pytest.raises(GenusMismatch):
        apply_to_class(S3, t, C("a1b1", S3))
    with pytest.raises(GenusMismatch):
        apply_to_multicurve(S2, t, make_multicurve(S3, {C("a3", S3): 1}))


def test_apply_to_word_rejects_words_that_are_not_int_letters():
    t = twist_generator(S2, 1)
    for word in ("a1", "a", (1, "b"), 5):
        with pytest.raises(BadLetter):
            apply_to_word(S2, t, word)


def test_the_action_names_a_letter_outside_the_alphabet():
    # 0 was read as the last generator's inverse, images[-1] inverted, and a
    # letter past the alphabet raised a bare IndexError
    t = twist_generator(S2, 1)
    for word, letter in (((0,), 0), ((1, 0), 0), ((-5,), -5), ((2, 9), 9)):
        with pytest.raises(BadLetter, match=f"^letter {letter} outside genus-2 alphabet$"):
            apply_to_word(S2, t, word)
        with pytest.raises(BadLetter, match=f"^letter {letter} outside genus-2 alphabet$"):
            apply_to_class(S2, t, CurveClass(2, word))
    assert apply_to_word(S2, t, (4,)) == t.images[3]  # stored normalized


def test_verify_algebra_automorphism_reports():
    t = twist_generator(S2, 3)
    report = verify_algebra_automorphism(S2, t, samples=8, seed=5)
    assert report.ok and report.failures == ()
    assert "twist multiplicativity" in str(report) and "ok" in str(report)
    a = make_sign_character(S2, "1010")
    report = verify_algebra_automorphism(S2, a, samples=8, seed=5)
    assert report.ok
    assert "sign multiplicativity" in str(report)
    with pytest.raises(BadArgument, match="^unsupported action str$"):
        verify_algebra_automorphism(S2, "1010")


# -- serialization ---------------------------------------------------------------


def test_mapping_class_round_trip():
    t = twist_generator(S2, 4)
    text = format_mapping_class(t)
    assert parse_mapping_class(S2, text) == t
    lines = text.splitlines()
    assert lines[0] == "a1\ta1B1B2"
    assert lines[4] == ""
    # a composite certifies the images it stores, so it survives the round trip
    composed = compose_mapping_classes(
        S2, twist_generator(S2, 2), compose_mapping_classes(S2, twist_generator(S2, 3), t)
    )
    assert parse_mapping_class(S2, format_mapping_class(composed)) == composed
    # lines may separate a generator from its image by spaces, and comments
    # and extra blank lines are skipped
    text = "# T_3\na1 a1\nb1   b1a1\na2 a2\n  # images done\nb2 b2\n\n\n"
    text += "a1 a1\nb1 b1A1\na2 a2\nb2 b2\n# end\n"
    assert parse_mapping_class(S2, text) == twist_generator(S2, 3)


def test_parse_mapping_class_errors():
    t = twist_generator(S2, 3)
    text = format_mapping_class(t)
    with pytest.raises(BadLetter, match="needs an image block and an inverse block"):
        parse_mapping_class(S2, text.split("\n\n")[0])
    with pytest.raises(BadLetter, match="duplicate image for b1"):
        parse_mapping_class(S2, text + "\nb1\tb1")
    for line in ("a1b1\tb1", "B1\tb1a1"):
        message = f"^line {re.escape(repr(line))} does not start with a generator$"
        with pytest.raises(BadLetter, match=message):
            parse_mapping_class(S2, text.replace("b1\tb1a1", line))
    with pytest.raises(BadLetter, match="missing image lines for a2, b2"):
        parse_mapping_class(S2, text.replace("a2\ta2\nb2\tb2\n\n", "\n"))
    broken = text.replace("b1\tb1a1", "b1\tb1a1a1")
    with pytest.raises(ModelInconsistency):
        parse_mapping_class(S2, broken)


# -- sign characters -------------------------------------------------------------


def test_sign_character_parse_format():
    a = parse_sign_character(S2, "0110")
    assert a.bits == (0, 1, 1, 0)
    assert format_sign_character(a) == "0110"
    assert make_sign_character(S2, (1, 0, 0, 1)).bits == (1, 0, 0, 1)
    # a character of another genus's bit count is a genus mismatch
    with pytest.raises(GenusMismatch, match="needs 4 bits, got 3"):
        parse_sign_character(S2, "011")
    for bad in ("01102", "01x0"):
        with pytest.raises(BadLetter, match="must be 0/1 only"):
            parse_sign_character(S2, bad)


@pytest.mark.parametrize(
    "bits",
    [(0.5, 1, 0, 0), (1.0, 0, 0, 0), ("1", 0, 0, 0), None, (True, False, True, False)],
    ids=["half", "float", "str", "None", "bool"],
)
def test_sign_character_bits_that_are_not_ints_are_typed_errors(bits):
    # int(0.5) would truncate to 0 and give the character 0100, and the bools
    # gave 1010; None is not iterable at all
    with pytest.raises(BadArgument):
        make_sign_character(S2, bits)


@pytest.mark.parametrize("text", [None, 110, b"0110"], ids=["None", "int", "bytes"])
def test_sign_character_text_that_is_not_a_str_is_a_typed_error(text):
    with pytest.raises(BadArgument):
        parse_sign_character(S2, text)


def test_sign_pairing_values():
    a = make_sign_character(S2, "1000")
    assert sign_pairing(S2, a, parse_multicurve(S2, "a1^1")) == 1
    assert sign_pairing(S2, a, parse_multicurve(S2, "b1^1")) == 0
    assert sign_pairing(S2, a, parse_multicurve(S2, "a1^2")) == 0
    assert sign_pairing(S2, a, parse_multicurve(S2, "a1^1,b2^1")) == 1
    # null-homologous class pairs trivially with everything
    assert sign_pairing(S2, make_sign_character(S2, "1111"),
                        parse_multicurve(S2, "a1b1A1B1^1")) == 0


def test_sign_character_evaluate():
    a = make_sign_character(S2, "1011")
    assert a.evaluate((1, 0, 0, 0)) == 1
    assert a.evaluate((0, 1, 0, 0)) == 0
    assert a.evaluate((1, 0, 1, 0)) == 0
    assert a.evaluate((1, 1, 1, 1)) == 1


def test_h1_action_flips_coefficients():
    a = make_sign_character(S2, "1000")
    f = parse_expression(S2, "2\ta1^1\n5\tb1^1\n1\t-")
    assert h1_action(S2, a, f) == parse_expression(S2, "-2\ta1^1\n5\tb1^1\n1\t-")


def test_h1_action_keeps_ints_and_fractions():
    a = make_sign_character(S2, "1010")
    f = multiply_expressions(S2, expand_trace(S2, W("a1b1")), expand_trace(S2, W("b1b2")))
    flipped = h1_action(S2, a, f)
    assert flipped != f and all(type(c) is int for _, c in flipped.terms)
    half = h1_action(S2, a, parse_expression(S2, "-1/2\ta1^1\n4/2\tb1^1"))
    assert [type(c).__name__ for _, c in half.terms] == ["Fraction", "int"]


def test_h1_action_involution_and_multiplicative():
    f = expand_trace(S2, W("a1b1"))
    g = expand_trace(S2, W("b1b2"))
    for bits in ("1000", "0101", "1111"):
        a = make_sign_character(S2, bits)
        assert h1_action(S2, a, h1_action(S2, a, f)) == f
        lhs = h1_action(S2, a, multiply_expressions(S2, f, g))
        rhs = multiply_expressions(S2, h1_action(S2, a, f), h1_action(S2, a, g))
        assert lhs == rhs


def test_central_twist_traces():
    rep = random_representation(S2, 7)
    a = make_sign_character(S2, "0110")
    twisted = central_twist(S2, rep, a)
    assert evaluate_trace(twisted, S2.relator) == 2
    for text in ("a1", "b1", "a1b1", "a2b2A2B2", "b1a2"):
        word = W(text)
        e = expand_trace(S2, word)
        lhs = evaluate_expression(twisted, e)
        assert lhs == evaluate_expression(rep, h1_action(S2, a, e))
        assert evaluate_trace(twisted, word) == lhs


def test_character_pullback():
    t = twist_generator(S2, 3)
    assert format_sign_character(
        character_pullback(S2, make_sign_character(S2, "1000"), t)
    ) == "1100"
    assert format_sign_character(
        character_pullback(S2, make_sign_character(S2, "0100"), t)
    ) == "0100"


def test_semidirect_relation():
    for idx, bits in [(1, "1000"), (3, "0100"), (4, "1011")]:
        report = semidirect_check(
            S2, twist_generator(S2, idx), make_sign_character(S2, bits), bound=2
        )
        assert report.ok, str(report)
        assert "semidirect relation" in str(report)


def test_genus3_twists_exist():
    t = twist_generator(S3, 6)
    assert apply_to_word(S3, t, W("a1", S3)) == W("a1", S3)
    assert t.certificate.sign == 1
