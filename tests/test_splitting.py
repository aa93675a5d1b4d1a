"""Intersection with a simple class, counted on the splitting it defines."""
import hashlib
import random

import pytest

from oracles import (
    reference_amalgam_count,
    reference_count_through,
    reference_entry_count,
    reference_hnn_count,
)
from sweeps import splitting_differences
from curvetrace import mapping, splitting
from curvetrace.algebra import expand_trace
from curvetrace.curves import (
    _pair_count,
    _pair_taut,
    enumerate_classes,
    enumerate_simple_classes,
)
from curvetrace.errors import ReductionBudgetExceeded, TrivialClass
from curvetrace.splitting import _commutators, splitting_count, twist_search
from curvetrace.valuations import ValuationValue, make_lamination, valuate
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


def _expansion_value(genus, delta, expression, memo):
    """The valuation of the expansion at delta, with every pair of delta and
    a basis component counted on its taut pair diagram: both curves are
    simple, so the embedded-bigon certificate makes that count exact, and
    nothing here goes through the splitting count."""
    best = None
    for mc, _ in expression.terms:
        total = 0
        for c, mult in mc.components:
            key = tuple(sorted((delta, c.word)))
            if key not in memo:
                memo[key] = _pair_taut(genus, *key).cross_strand_crossings()
            total += mult * memo[key]
        best = total if best is None else max(best, total)
    return best


def test_count_matches_expansion_genus2():
    # the 12 simple classes of length <= 2 and the separating [a1,b1]
    # against every class of length <= 4
    deltas = enumerate_simple_classes(S2, 2) + [C("a1b1A1B1")]
    memo = {}
    for alpha in enumerate_classes(S2, 4):
        expression = expand_trace(S2, alpha.word)
        for delta in deltas:
            want = _expansion_value(2, delta.word, expression, memo)
            assert splitting_count(2, delta.word, alpha.word) == want, (
                delta.word,
                alpha.word,
            )


def test_count_matches_valuation_genus3_sample():
    # valuate pairs delta with the expansion's components through
    # intersection_number, so this checks the count on alpha against the
    # counts on the components; the diagram reference above costs about
    # 2 s more at genus 3
    deltas = enumerate_simple_classes(S3, 2)
    assert len(deltas) == 24
    alphas = random.Random(3).sample(enumerate_classes(S3, 4), 100)
    expressions = [expand_trace(S3, alpha.word) for alpha in alphas]
    for delta in deltas:
        lam = make_lamination(S3, {delta: 1})
        for alpha, expression in zip(alphas, expressions):
            assert valuate(S3, lam, expression) == ValuationValue.of(
                splitting_count(3, delta.word, alpha.word)
            ), (delta.word, alpha.word)


def test_standard_counts():
    # each standard curve is its own class, with an empty twist chain
    a1, b1, a2, sep = (C(t).word for t in ("a1", "b1", "a2", "a1b1A1B1"))
    assert splitting_count(2, a1, b1) == 1
    assert splitting_count(2, a1, a2) == 0
    assert splitting_count(2, b1, a1) == 1
    # t d t^-1 = Y d: the relator itself pinches to nothing
    assert splitting_count(2, a1, S2.relator) == 0
    assert splitting_count(2, b1, S2.relator) == 0
    assert splitting_count(3, C("a2", S3).word, S3.relator) == 0
    assert splitting_count(2, a1, C("b1b1a2").word) == 2
    assert splitting_count(2, sep, a1) == 0
    assert splitting_count(2, sep, C("a1a2").word) == 2
    assert splitting_count(2, sep, S2.relator) == 0
    assert splitting_count(3, C("a1b1A1B1", S3).word, S3.relator) == 0


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_tree_reduction_matches_reference_loops(genus):
    # seeded words with relator shifts and commutator products spliced in,
    # so that both kinds of backtrack, on either side, come up often
    relator = make_surface(genus).relator
    splices = [
        r[i:] + r[:i] for r in (relator, inverse_word(relator)) for i in range(len(r))
    ]
    for lo in range(1, genus + 1):
        for hi in range(lo, genus + 1):
            block = _commutators(range(lo, hi + 1))
            splices += [block, inverse_word(block)]
    alphabet = [l for k in range(1, 2 * genus + 1) for l in (k, -k)]
    counters = twist_search(genus).counters
    rng = random.Random(40 + genus)
    for _ in range(300):
        word = [rng.choice(alphabet) for _ in range(rng.randint(1, 24))]
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(0, len(word))
            word[at:at] = rng.choice(splices) * rng.randint(1, 2)
        word = free_reduce(word)
        for d in range(1, 2 * genus + 1):
            want = reference_hnn_count(genus, d, word)
            assert counters[(d,)](word) == want, (d, word)
        for h in range(1, genus // 2 + 1):
            want = reference_amalgam_count(genus, h, word)
            assert counters[_commutators(range(1, h + 1))](word) == want, (h, word)


@pytest.mark.parametrize("genus", [2, 3])
def test_standard_counts_are_class_invariants(genus):
    # relator shifts spliced into a word leave its class alone; long ones
    # make the words that pinch through Y d, which geodesic words never do
    surface = make_surface(genus)
    relator = surface.relator
    shifts = [
        r[i:] + r[:i] for r in (relator, inverse_word(relator)) for i in range(len(r))
    ]
    alphabet = [l for k in range(1, 2 * genus + 1) for l in (k, -k)]
    rng = random.Random(genus)
    standards = [(d,) for d in range(1, 2 * genus + 1)]
    standards += [relator[: 4 * h] for h in range(1, genus // 2 + 1)]
    deltas = [canonical_class(surface, standard).word for standard in standards]
    checked = 0
    while checked < 150:
        word = [rng.choice(alphabet) for _ in range(rng.randint(2, 8))]
        for _ in range(rng.randint(1, 3)):
            at = rng.randint(0, len(word))
            word[at:at] = rng.choice(shifts)
        word = free_reduce(word)
        try:
            cls = canonical_class(surface, word)
        except TrivialClass:
            continue
        for delta in deltas:
            assert splitting_count(genus, delta, word) == splitting_count(
                genus, delta, cls.word
            ), (delta, word)
        checked += 1


def test_two_twist_chains_give_equal_counts():
    # T_delta fixes delta, so T_delta after phi carries the same standard
    # curve to delta as phi does
    alphas = random.Random(5).sample(enumerate_classes(S2, 4), 60)
    for text in ("a1B2", "b1b2", "a1b1", "a1B1B1", "a1b1A1B1", "a1B1B2a1B2"):
        delta = C(text).word
        standard, chain, _ = twist_search(2).find(delta)
        longer = chain + ((delta, 1),)
        for alpha in alphas:
            assert reference_count_through(
                2, standard, chain, alpha.word
            ) == reference_count_through(2, standard, longer, alpha.word), (
                text,
                alpha.word,
            )


def test_search_reaches_short_simple_classes():
    # every stored chain carries its standard curve to the class
    for surface, bound in ((S2, 4), (S3, 3)):
        search = twist_search(surface.genus)
        for c in enumerate_simple_classes(surface, bound):
            standard, chain, _ = search.find(c.word)
            image = canonical_class(surface, standard)
            for twist in chain:
                f = mapping._twist_cached(surface.genus, *twist)
                image = mapping.apply_to_class(surface, f, image)
            assert image == c, c.word


@pytest.mark.parametrize("genus, bound, alpha_bound", [(2, 4, 5), (3, 3, 4)])
def test_composed_count_matches_the_chain_walk(genus, bound, alpha_bound):
    # one substitution of the stored phi^-1 against the twist-by-twist walk
    surface = make_surface(genus)
    deltas = [d.word for d in enumerate_simple_classes(surface, bound)]
    alphas = random.Random(50 + genus).sample(enumerate_classes(surface, alpha_bound), 30)
    assert splitting_differences(genus, deltas, [a.word for a in alphas])[0] == []


def test_composed_images_carry_each_class_to_its_standard_curve():
    # phi^-1 sends each reached class to the standard curve that phi carries
    # to it, and its images are those of an orientation-preserving automorphism
    for surface, bound in ((S2, 4), (S3, 3)):
        search = twist_search(surface.genus)
        for c in enumerate_simple_classes(surface, bound):
            standard, _, images = search.find(c.word)
            assert mapping.relator_certificate(surface, images).sign == 1
            back = canonical_class(surface, mapping._substitute(images, c.word))
            assert back == canonical_class(surface, standard), c.word


def test_search_entries_of_short_simple_classes_are_pinned():
    # The entry (standard curve, twist chain, phi^-1 images) of each of the
    # 83 simple genus-2 classes of length <= 4, found in (length, word) order
    # by a fresh search, as the SHA-256 of the repr of the list of
    # (class word, entry).  Each twist is built on the direct drawing of its
    # curve (see mapping); an entry moves if a twist image or the search
    # order moves.
    search = splitting._TwistSearch(2)
    entries = [(c.word, search.find(c.word)) for c in enumerate_simple_classes(S2, 4)]
    assert len(entries) == 83 and all(entry for _, entry in entries)
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert digest == "ccf19f2f0fb314f80c6b2052b1c219f5c6563c2f41efc8147bd278ebee0fdfc8"


def test_counts_through_the_pinned_entries_match_the_reference_loops():
    # splitting_count takes a freely reduced word, cyclically reduced or not:
    # seeded words, every third with a letter and its inverse at its two ends
    alphabet = letters(2)
    rng = random.Random(12)
    words = []
    while len(words) < 60:
        w = free_reduce(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
        if w and len(words) % 3 == 0:
            l = rng.choice([l for l in alphabet if l not in (-w[0], w[-1])])
            w = (l, *w, -l)
        if w:
            words.append(w)
    search = twist_search(2)
    for c in enumerate_simple_classes(S2, 4):
        entry = search.find(c.word)
        for w in words:
            want = reference_entry_count(2, entry, w)
            assert splitting_count(2, c.word, w) == want, (c.word, w)


def test_twists_are_built_on_the_first_miss():
    # a count against a standard curve expands no class, so it draws none
    search = splitting._TwistSearch(2)
    for standard, count in search.counters.items():
        word = canonical_class(S2, standard).word
        assert search.find(word) == (standard, (), tuple((k,) for k in range(1, 5)))
        assert count(C("a1b2").word) >= 0
    assert "twists" not in vars(search)
    assert search.find(C("a1B2").word)[1]
    classes = "a1 b1 a2 b2 a1B2 a1B1 a1b1 a1a2 b1A2 b1b2 a2B2 a2b2".split()
    assert vars(search)["twists"] == tuple(
        (C(text).word, turns) for text in classes for turns in (1, -1)
    )


@pytest.fixture
def fresh_search(monkeypatch):
    """A search with no memory and a cap the standard curves already fill,
    so that every other class is a miss."""
    monkeypatch.setattr(splitting, "_SPLIT_SEARCH_CAP", 1)
    searches = {}

    def search(genus):
        if genus not in searches:
            searches[genus] = splitting._TwistSearch(genus)
        return searches[genus]

    monkeypatch.setattr(splitting, "twist_search", search)


def test_search_miss_with_one_simple_member_is_loud(fresh_search):
    # a1b1 is simple, a1b2 is not; the pair diagram would give a number,
    # but an unconfirmed one, so the count raises instead
    x, y = sorted((C("a1b1").word, C("a1b2").word))
    with pytest.raises(ReductionBudgetExceeded, match="a1b1"):
        _pair_count.__wrapped__(2, x, y)
    # a standard curve needs no search
    x, y = sorted((C("b1").word, C("a1b2").word))
    assert _pair_count.__wrapped__(2, x, y) == 1


def test_a_pair_with_a_generator_builds_no_twists(fresh_search):
    for x, y in (("a1", "b1"), ("b1", "a1b2")):
        x, y = sorted((C(x).word, C(y).word))
        assert _pair_count.__wrapped__(2, x, y) == 1
    assert "twists" not in vars(splitting.twist_search(2))


def test_search_miss_with_two_simple_members_reads_the_diagram(fresh_search):
    x, y = sorted((C("a1B2").word, C("a1b1").word))
    assert splitting_count(2, C("a1b1").word, C("a1B2").word) is None
    assert _pair_count.__wrapped__(2, x, y) == 1
