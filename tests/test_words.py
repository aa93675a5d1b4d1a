"""Word handling on the surface group: reduction, conjugacy classes, homology."""
import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    reference_dehn_tables,
    reference_min_rotation,
    reference_spellings,
    word_key,
)

import curvetrace
from curvetrace import errors, words
from curvetrace.algebra import enumerate_multicurves, parse_expression, parse_multicurve
from curvetrace.curves import enumerate_classes
from curvetrace.errors import (
    BadArgument,
    BadLetter,
    BadValue,
    GenusTooSmall,
    ReductionBudgetExceeded,
    TrivialClass,
)
from curvetrace.mapping import parse_mapping_class
from curvetrace.valuations import parse_lamination
from curvetrace.words import (
    _chase_spellings,
    _join,
    _closure_entry,
    _cyclic_dehn_reduce,
    _min_rotation,
    _Shortened,
    _tables,
    CurveClass,
    canonical_class,
    cyclic_spellings,
    dehn_reduce,
    format_word,
    free_reduce,
    geodesic_spellings,
    half_swap_closure,
    homology_class,
    intersection_form,
    inverse_word,
    is_primitive,
    letters,
    make_surface,
    mod2_class,
    normalize_word,
    parse_word,
    primitive_root,
    reduced_words,
    rotations,
)

S2 = make_surface(2)
S3 = make_surface(3)


def W(text, surface=S2):
    return parse_word(surface, text)


def test_surface_construction():
    assert S2.genus == 2
    assert S2.rank == 4
    assert S2.relator == (1, 2, -1, -2, 3, 4, -3, -4)
    assert S3.relator == (1, 2, -1, -2, 3, 4, -3, -4, 5, 6, -5, -6)
    with pytest.raises(GenusTooSmall):
        make_surface(1)
    with pytest.raises(GenusTooSmall):
        make_surface(0)


def test_parse_format_round_trip():
    for text in ("a1", "a1b1A1B1", "B2a2", "a1a1a1", "b2A1b2"):
        word = W(text)
        assert format_word(word) == text
        assert parse_word(S2, format_word(word)) == word
    assert W("") == ()
    assert format_word(()) == "-"


def test_parse_rejects_bad_letters():
    for text in ("c1", "a0", "a3", "b5", "a", "1a", "a1x"):
        with pytest.raises(BadLetter):
            parse_word(S2, text)
    # a3 is fine at genus 3
    assert parse_word(S3, "a3") == (5,)


def test_parse_reads_indices_that_are_not_generator_names():
    # a generator's own name is looked up; other digit runs are read as ints
    assert parse_word(S2, "a01 B02a1") == (1, -4, 1)
    assert parse_word(make_surface(12), "b12A10a1") == (24, -19, 1)
    messages = {
        "c1": "cannot parse 'c1'",
        "a1x": "cannot parse 'a1x'",
        "a1 xb1": "cannot parse 'xb1'",
        "a0": "index 0 outside genus-2 alphabet in 'a0'",
        "b1A03": "index 3 outside genus-2 alphabet in 'b1A03'",
    }
    for text, message in messages.items():
        with pytest.raises(BadLetter) as info:
            parse_word(S2, text)
        assert str(info.value) == message


def test_canonical_class_rejects_letters_outside_alphabet():
    # words._word checks every word on every call, cached or not
    not_ints = ("a1B2", "a", (1.5,), ([1],), (None,), (1, "b"), iter("a1"), 5)
    for word in ((99,), (5,), (1, -6), (2, 5, -2)) + not_ints:
        with pytest.raises(BadLetter):
            canonical_class(S2, word)
    assert canonical_class(S3, (5,)).word == (5,)


@pytest.mark.parametrize(
    "call",
    [
        lambda: primitive_root(S2, (1,)),
        lambda: parse_word(S2, 5),
        lambda: make_surface("2"),
        lambda: parse_multicurve(S2, 5),
        lambda: parse_expression(S2, ["1\ta1^1"]),
        lambda: parse_lamination(S2, b"1 a1"),
        lambda: parse_mapping_class(S2, None),
        lambda: enumerate_multicurves(S2, "a"),
        lambda: enumerate_classes(S2, 2.0),
    ],
    ids=[
        "primitive_root",
        "parse_word",
        "make_surface",
        "parse_multicurve",
        "parse_expression",
        "parse_lamination",
        "parse_mapping_class",
        "enumerate_multicurves",
        "enumerate_classes",
    ],
)
def test_arguments_of_the_wrong_type_are_typed(call):
    # BadArgument is a CurvetraceError that is still a TypeError
    with pytest.raises(BadArgument) as info:
        call()
    assert isinstance(info.value, TypeError)


def test_package_exports_every_error():
    for name, value in vars(errors).items():
        if isinstance(value, type) and issubclass(value, errors.CurvetraceError):
            assert getattr(curvetrace, name) is value
            assert name in curvetrace.__all__


def test_normalize_word_rejects_words_that_are_not_int_letters():
    for word in ("a1B2", "a", (1, "b"), 5):
        with pytest.raises(BadLetter):
            normalize_word(S2, word)
    assert normalize_word(S2, [1, -1, 2]) == (2,)


def test_normalize_word_names_a_letter_outside_the_alphabet():
    # 9 was read as a letter of no generator, 0 and True as letters at all
    for word, letter in (((9,), 9), ((1, -5, 2), -5), ((0,), 0), ((True, 2), True)):
        with pytest.raises(BadLetter, match=f"^letter {letter!r} outside genus-2 alphabet$"):
            normalize_word(S2, word)
    assert normalize_word(S3, (5,)) == (5,)


def test_a_bool_letter_neither_reads_as_a1_nor_enters_the_class_cache():
    # True == 1 and hashes alike, so a class built from (True, 2) was cached
    # under (1, 2) and handed its bool-holding word to later callers; this
    # is the cold cache, test_every_public_word_is_checked_cached_or_not the
    # warm one
    words._canonical_class.cache_clear()
    for word in ((True, 4), (4, True, -4), (True, -1)):
        with pytest.raises(BadLetter, match="^letter True outside genus-2 alphabet$"):
            canonical_class(S2, word)
    assert [type(l) for l in canonical_class(S2, (1, 4)).word] == [int, int]
    with pytest.raises(BadLetter, match="^letter True outside genus-2 alphabet$"):
        homology_class(S2, (True, 2))


def test_every_public_word_is_checked_cached_or_not():
    # a bool letter reads as 1 and hashes like it, so once (1, 4) and (1,)
    # were cached, (True, 4) and (True,) got their answers, and 5, which is
    # no sequence, raised a bare TypeError.  format_word is exempt: it has
    # no genus to check letters against.
    a1, t1 = canonical_class(S2, (1,)), curvetrace.twist_generator(S2, 1)
    rep = curvetrace.random_representation(S2, 0)
    calls = {
        "canonical_class": lambda w: canonical_class(S2, w),
        "normalize_word": lambda w: normalize_word(S2, w),
        "homology_class": lambda w: homology_class(S2, w),
        "evaluate_trace": lambda w: curvetrace.evaluate_trace(rep, w),
        "expand_trace": lambda w: curvetrace.expand_trace(S2, w),
        "apply_to_word": lambda w: curvetrace.apply_to_word(S2, t1, w),
        "thurston_max_check": lambda w: curvetrace.thurston_max_check(S2, a1, w),
        # takes a class, whose word it checks the same way
        "apply_to_class": lambda w: curvetrace.apply_to_class(S2, t1, CurveClass(2, w)),
    }
    takes_a_word = {
        name
        for name in curvetrace.__all__
        if inspect.isfunction(getattr(curvetrace, name))
        and "word" in inspect.signature(getattr(curvetrace, name)).parameters
    }
    assert sorted(takes_a_word - set(calls) - {"format_word"}) == []
    for call in calls.values():
        call((1, 4))
        call((1,))
    accepted = []
    for name, call in calls.items():
        for word, letter in (((True, 4), True), ((0,), 0), ((9,), 9), (5, 5)):
            try:
                call(word)
            except BadLetter as e:
                assert str(e).startswith(f"letter {letter!r} outside "), name
            else:
                accepted.append((name, word))
    assert accepted == []


@pytest.mark.parametrize(
    "word, error",
    [((9,), BadLetter), ((0,), BadLetter), ((True, 2), BadLetter), ((1, -1), BadValue)],
)
def test_a_class_checks_its_word_when_built(word, error):
    # a hand-built class reached the curves layer unchecked: (9,) and (0,)
    # raised a bare KeyError, (True, 2) read as a1b1, (1, -1) raised
    # ModelInconsistency, and intersection_number with (9,) returned 0
    a1 = canonical_class(S2, (1,))

    def built():
        return CurveClass(2, word)

    calls = (
        lambda: curvetrace.is_simple(S2, built()),
        lambda: curvetrace.self_intersection(S2, built()),
        lambda: curvetrace.realize(S2, built()),
        lambda: curvetrace.twist_along(S2, built()),
        lambda: curvetrace.intersection_number(S2, a1, built()),
    )
    for call in calls:
        with pytest.raises(error):
            call()
    with pytest.raises(BadValue):
        CurveClass(2, ())


def test_alphabet_and_reduced_words():
    assert letters(2) == (1, -1, 2, -2, 3, -3, 4, -4)
    words = list(reduced_words(2, 3))
    assert len(words) == len(set(words)) == 8 + 8 * 7 + 8 * 7 * 7
    assert all(free_reduce(w) == w for w in words)


def test_intersection_form_and_mod2_class():
    def h(text):
        return homology_class(S2, W(text)).coords

    assert intersection_form(h("a1"), h("b1")) == 1
    assert intersection_form(h("b1"), h("a1")) == -1
    assert intersection_form(h("a1"), h("a2")) == 0
    assert intersection_form(h("a1a1b2"), h("b1a2")) == 1
    a1, b2 = canonical_class(S2, W("a1")), canonical_class(S2, W("b2"))
    assert mod2_class(S2, ((a1, 3), (b2, 2))) == (1, 0, 0, 0)
    assert mod2_class(S2, ((a1, 2),)) == (0, 0, 0, 0)


def test_homology_class_rejects_bad_rings_and_letters():
    assert homology_class(S2, W("a1a1B2"), "Z2").coords == (0, 0, 0, 1)
    with pytest.raises(ValueError, match="ring must be 'Z' or 'Z2', got 'Q'"):
        homology_class(S2, W("a1"), "Q")
    for word, letter in (((5,), 5), ((0,), 0), ((1, "b"), "b")):
        with pytest.raises(BadLetter, match=f"^letter {letter!r} outside genus-2 alphabet$"):
            homology_class(S2, word)


_REDUCED = st.lists(st.sampled_from(letters(2)), max_size=6).map(free_reduce)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=st.lists(st.one_of(_REDUCED, st.none()), max_size=8))
def test_join_is_the_free_reduction_of_the_concatenation(drawn):
    # None draws the inverse of the piece before it, which cancels it
    # completely; reduced pieces include empty ones
    pieces = []
    for piece in drawn:
        if piece is None:
            piece = inverse_word(pieces[-1]) if pieces else ()
        pieces.append(piece)
    assert _join(pieces) == free_reduce(l for p in pieces for l in p)
    assert _join(iter(pieces)) == _join(pieces)


def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)
    assert free_reduce((1, 2, 3)) == (1, 2, 3)
    assert free_reduce(()) == ()
    with pytest.raises(BadLetter, match="letter 0 is not allowed"):
        free_reduce((1, 0, 2))


@pytest.mark.parametrize(
    "genus,text,geodesic",
    [
        (2, "B2A2b1a1a1B1A1b2", "A2B2a1a2b2A2"),
        (3, "B3a1b1A1B1a2a3b3A3B3a1b1", "a3B3A3b2a2a2B2A2b1a1"),
    ],
)
def test_dehn_reduced_words_can_still_shorten(genus, text, geodesic):
    # no factor is longer than half the relator, so Dehn's algorithm leaves
    # the word alone; a half swap then exposes a shorter spelling, and
    # geodesic_spellings restarts from it
    surface = make_surface(genus)
    word, want = W(text, surface), W(geodesic, surface)
    assert dehn_reduce(genus, word) == word
    assert len(want) == len(word) - 2
    assert normalize_word(surface, word) == want
    assert all(len(w) == len(want) for w in geodesic_spellings(genus, word))


def test_inverse_word():
    assert inverse_word((1, 2, -3)) == (3, -2, -1)
    assert free_reduce(W("a1b1") + inverse_word(W("a1b1"))) == ()


def test_normalize_kills_relator():
    assert normalize_word(S2, S2.relator) == ()
    assert normalize_word(S2, inverse_word(S2.relator)) == ()
    assert normalize_word(S2, W("a1A1")) == ()
    assert normalize_word(S2, ()) == ()


def test_normalize_relator_times_generator():
    assert normalize_word(S2, S2.relator + (1,)) == (1,)
    assert normalize_word(S3, S3.relator + (-5,)) == (-5,)


def test_normalize_is_geodesic_after_relator_insertion():
    # inserting a relator conjugate never changes the element
    rng = random.Random(20260825)
    rots = list(rotations(S2.relator)) + list(rotations(inverse_word(S2.relator)))
    for _ in range(300):
        word = tuple(
            rng.choice([1, -1, 2, -2, 3, -3, 4, -4])
            for _ in range(rng.randrange(0, 9))
        )
        base = normalize_word(S2, word)
        cut = rng.randrange(0, len(word) + 1)
        noisy = word[:cut] + rng.choice(rots) + word[cut:]
        assert normalize_word(S2, noisy) == base
        assert len(base) <= len(word)
        assert dehn_reduce(2, word + inverse_word(noisy)) == ()


def test_geodesic_spellings_of_half_relator():
    # exactly one half-relator swap is available for a half-length word
    half = W("a1b1A1B1")
    other = inverse_word(W("a2b2A2B2"))
    spellings = set(geodesic_spellings(2, half))
    assert spellings == {half, other}


def test_one_closure_cap_is_loud_for_every_search(monkeypatch):
    # a word with two spellings overflows a cap of 1 in each search, which
    # names it or a rotation; the empty table hides earlier tests' closures
    monkeypatch.setattr(words, "_CLOSURE_CAP", 1)
    monkeypatch.setattr(words, "_CLOSURES", {})
    half = W("a1b1A1B1")
    message = "^spelling closure of (a1b1A1B1|B1a1b1A1) holds more than 1 states$"
    for search in (geodesic_spellings, half_swap_closure, cyclic_spellings):
        with pytest.raises(ReductionBudgetExceeded, match=message):
            search(2, half)


def test_canonical_class_frozen_forms():
    cases = {
        "a1b1A1B1": "a1b1A1B1",
        "b1a1": "a1b1",
        "A1": "a1",
        "a1a1": "a1a1",
        "B2A2b2a2": "a1b1A1B1",
        "b1a1B1": "a1",
        "a2": "a2",
    }
    for text, want in cases.items():
        assert format_word(canonical_class(S2, W(text)).word) == want


def test_canonical_class_invariances():
    rng = random.Random(1729)
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    for _ in range(200):
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 7)))
        try:
            base = canonical_class(S2, word)
        except TrivialClass:
            continue
        conj = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 5)))
        assert canonical_class(S2, conj + word + inverse_word(conj)) == base
        assert canonical_class(S2, inverse_word(word)) == base
        k = rng.randrange(len(word))
        assert canonical_class(S2, word[k:] + word[:k]) == base


def _relator_rich_words(genus, lo, hi, count, seed):
    """Seeded rotation-minimal cyclic geodesics of length lo..hi, Dehn-reduced
    from runs of relator factors of 2g-2..2g letters with a few random
    letters between them, so that ladders of several cells occur."""
    rng = random.Random(seed)
    alphabet = letters(genus)
    relator = make_surface(genus).relator
    cells = [r[i:] + r[:i] for r in (relator, inverse_word(relator)) for i in range(len(r))]
    out = []
    while len(out) < count:
        word = []
        target = rng.randint(lo, hi)
        while len(word) < target:
            if rng.random() < 0.8:
                word += rng.choice(cells)[: rng.randint(2 * genus - 2, 2 * genus)]
            else:
                word.append(rng.choice(alphabet))
        word = _cyclic_dehn_reduce(genus, word)
        if lo <= len(word) <= hi:
            out.append(_min_rotation(word))
    return out


@pytest.mark.parametrize("genus,lo,hi", [(2, 6, 8), (3, 10, 12)])
def test_spelling_closure_is_shared_and_mirrored(genus, lo, hi):
    for word in _relator_rich_words(genus, lo, hi, 40, seed=1909 + genus):
        try:
            closure = cyclic_spellings(genus, word)
        except _Shortened:
            continue
        assert isinstance(closure, frozenset) and word in closure
        # the stored closure is what a fresh chase finds from any member
        for member in closure:
            assert _chase_spellings(genus, member) == closure
            assert cyclic_spellings(genus, member) is closure
        # the stored mirror is what a fresh chase of the inverse finds
        inverse = _min_rotation(inverse_word(word))
        mirror = cyclic_spellings(genus, inverse)
        assert isinstance(mirror, frozenset)
        assert mirror == _chase_spellings(genus, inverse)
        assert mirror == {_min_rotation(inverse_word(m)) for m in closure}
        assert _closure_entry(genus, word)[1] == min(closure | mirror, key=word_key)


def _closure_or_shortened(chase, genus, word):
    try:
        return chase(genus, word)
    except _Shortened:
        return "shortened"


@pytest.mark.parametrize(
    "genus,lo,hi,count", [(2, 8, 16, 20), (3, 10, 24, 20), (4, 14, 28, 10)]
)
def test_ladder_closures_match_reference_chase(genus, lo, hi, count):
    outcomes = []
    for word in _relator_rich_words(genus, lo, hi, count, seed=1909 + genus):
        got = _closure_or_shortened(_chase_spellings, genus, word)
        assert got == _closure_or_shortened(reference_spellings, genus, word)
        outcomes.append(got)
    # the sample reaches closures of several spellings, and a shortened word
    assert any(o != "shortened" and len(o) > 2 for o in outcomes)
    if genus == 2:
        assert "shortened" in outcomes


def test_two_cell_ring_reaches_the_class():
    word = W("B2B2A2b1b2a2")
    # no exactly-half swap applies, so only the ring of two cells rewrites it
    assert half_swap_closure(2, word) == {min(rotations(word))}
    assert format_word(canonical_class(S2, word).word) == "a1b1b1A1B1B2"
    closure = cyclic_spellings(2, _min_rotation(word))
    assert closure == reference_spellings(2, _min_rotation(word))
    assert W("a1b1b1A1B1B2") in closure


_G2_WORDS = st.lists(st.sampled_from(letters(2)), max_size=7).map(tuple)


def _class_or_trivial(word, surface=S2):
    try:
        return canonical_class(surface, word)
    except TrivialClass:
        return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    word=_G2_WORDS,
    conj=_G2_WORDS,
    cut=st.integers(0, 7),
    shift=st.integers(0, 7),
    inverted=st.booleans(),
)
def test_canonical_class_property(word, conj, cut, shift, inverted):
    """Invariant under conjugation, inversion and relator insertion."""
    base = _class_or_trivial(word)
    assert _class_or_trivial(conj + word + inverse_word(conj)) == base
    assert _class_or_trivial(inverse_word(word)) == base
    relator = inverse_word(S2.relator) if inverted else S2.relator
    cell = relator[shift:] + relator[:shift]
    assert _class_or_trivial(word[:cut] + cell + word[cut:]) == base


def test_canonical_class_rejects_trivial():
    with pytest.raises(TrivialClass):
        canonical_class(S2, ())
    with pytest.raises(TrivialClass):
        canonical_class(S2, S2.relator)
    with pytest.raises(TrivialClass):
        canonical_class(S2, (1, 2, -2, -1))


def test_trivial_words_are_cached_and_raise_every_time():
    word = S2.relator[3:] + S2.relator[:3]
    with pytest.raises(TrivialClass):
        canonical_class(S2, word)
    before = words._canonical_class.cache_info()
    for _ in range(3):
        with pytest.raises(TrivialClass):
            canonical_class(S2, word)
    after = words._canonical_class.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 3)


@pytest.mark.parametrize("genus", [2, 3])
def test_letter_code_order_matches_word_key(genus):
    rng = random.Random(1980 + genus)
    surface = make_surface(genus)
    # letters past 127 have codes past one byte
    for alphabet in (letters(genus), letters(genus) + (128, -128, 300, -300)):
        for _ in range(300):
            word = tuple(rng.choice(alphabet) for _ in range(rng.randrange(13)))
            assert _min_rotation(word) == reference_min_rotation(word)
    for _ in range(200):
        word = tuple(rng.choice(letters(genus)) for _ in range(rng.randrange(14)))
        spellings = geodesic_spellings(genus, word)
        assert normalize_word(surface, word) == min(spellings, key=word_key)
        w = _cyclic_dehn_reduce(genus, word)
        if not w:
            continue
        try:
            closure, least = _closure_entry(genus, w)
        except _Shortened:
            continue
        mirror = cyclic_spellings(genus, reference_min_rotation(inverse_word(w)))
        assert least == min(closure | mirror, key=word_key)


@pytest.mark.parametrize("genus,max_length,count", [(2, 5, 2046), (3, 4, 2119)])
def test_canonical_words_are_word_key_least(genus, max_length, count):
    # every class of the short words, against the order its words had
    # before letter codes: the word_key-least spelling in either orientation
    surface = make_surface(genus)
    classes = {
        _class_or_trivial(word, surface) for word in reduced_words(genus, max_length)
    }
    classes.discard(None)
    assert len(classes) == count
    for cls in classes:
        closure = cyclic_spellings(genus, cls.word)
        mirror = cyclic_spellings(genus, reference_min_rotation(inverse_word(cls.word)))
        assert cls.word == min(closure | mirror, key=word_key)


def test_homology_frozen_values():
    assert homology_class(S2, W("a1")).coords == (1, 0, 0, 0)
    assert homology_class(S2, W("b2")).coords == (0, 0, 0, 1)
    assert homology_class(S2, W("a1b1A1B1")).coords == (0, 0, 0, 0)
    assert homology_class(S2, W("a1a1")).coords == (2, 0, 0, 0)
    assert homology_class(S2, W("a1a1"), ring="Z2").coords == (0, 0, 0, 0)
    assert homology_class(S2, W("a1A2"), ring="Z2").coords == (1, 0, 1, 0)


def test_homology_additive_and_relator_trivial():
    rng = random.Random(7)
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    assert homology_class(S2, S2.relator).coords == (0, 0, 0, 0)
    for _ in range(50):
        u = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 6)))
        v = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 6)))
        hu = homology_class(S2, u).coords
        hv = homology_class(S2, v).coords
        huv = homology_class(S2, u + v).coords
        assert huv == tuple(a + b for a, b in zip(hu, hv))
        m2 = homology_class(S2, u + v, ring="Z2").coords
        assert m2 == tuple((a + b) % 2 for a, b in zip(hu, hv))


def test_primitive_root():
    cases = {
        "a1a1": ("a1", 2),
        "a1b1a1b1": ("a1b1", 2),
        "a1b1A1B1": ("a1b1A1B1", 1),
        "a1": ("a1", 1),
    }
    for text, (root, k) in cases.items():
        cls = canonical_class(S2, W(text))
        got_root, got_k = primitive_root(S2, cls)
        assert (format_word(got_root.word), got_k) == (root, k)
        assert is_primitive(S2, cls) == (k == 1)


def test_genus_three_words():
    w = parse_word(S3, "a1b1A1B1a2b2A2B2")
    cls = canonical_class(S3, w)
    # conjugate to the inverse of the last commutator, which is shorter
    assert cls.word == (5, 6, -5, -6)
    assert normalize_word(S3, S3.relator) == ()
    assert homology_class(S3, w).coords == (0,) * 6


@pytest.mark.parametrize("genus", [2, 3, 4, 5, 6])
def test_cell_moves_hold_the_dehn_tables(genus):
    # the Dehn replacements and the half swaps are cell_moves restricted to
    # factors longer than 2g and of exactly 2g letters, one replacement each
    moves = _tables(genus).cell_moves
    long_repl, half_repl = reference_dehn_tables(genus)
    for table in (long_repl, half_repl):
        for factor, repl in table.items():
            assert moves[factor] == (repl,), factor
    assert {f for f in moves if len(f) > 2 * genus} == set(long_repl)
    assert {f for f in moves if len(f) == 2 * genus} == set(half_repl)
