"""Intersection with a simple class, counted on the splitting it defines."""
import random

import pytest

from curvetrace import mapping, splitting
from curvetrace.algebra import expand_trace
from curvetrace.curves import (
    _pair_count,
    _pair_taut,
    enumerate_classes,
    enumerate_simple_classes,
)
from curvetrace.errors import ReductionBudgetExceeded, TrivialClass
from curvetrace.splitting import (
    amalgam_count,
    count_through,
    hnn_count,
    splitting_count,
    standard_count,
    twist_search,
)
from curvetrace.valuations import ValuationValue, make_lamination, valuate
from curvetrace.words import (
    canonical_class,
    free_reduce,
    inverse_word,
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
    a1, b1, a2 = (C(t).word for t in ("a1", "b1", "a2"))
    assert hnn_count(2, 1, b1) == 1
    assert hnn_count(2, 1, a2) == 0
    assert hnn_count(2, 2, a1) == 1
    # t d t^-1 = Y d: the relator itself pinches to nothing
    assert hnn_count(2, 1, S2.relator) == 0
    assert hnn_count(2, 2, S2.relator) == 0
    assert hnn_count(3, 3, S3.relator) == 0
    assert hnn_count(2, 1, C("b1b1a2").word) == 2
    assert amalgam_count(2, 1, C("a1").word) == 0
    assert amalgam_count(2, 1, C("a1a2").word) == 2
    assert amalgam_count(2, 1, S2.relator) == 0
    assert amalgam_count(3, 1, S3.relator) == 0


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
        for standard in standards:
            assert standard_count(genus, standard, word) == standard_count(
                genus, standard, cls.word
            ), (standard, word)
        checked += 1


def test_two_twist_chains_give_equal_counts():
    # T_delta fixes delta, so T_delta after phi carries the same standard
    # curve to delta as phi does
    alphas = random.Random(5).sample(enumerate_classes(S2, 4), 60)
    for text in ("a1B2", "b1b2", "a1b1", "a1B1B1", "a1b1A1B1", "a1B1B2a1B2"):
        delta = C(text).word
        standard, chain = twist_search(2).find(delta)
        longer = chain + ((delta, 1),)
        for alpha in alphas:
            assert count_through(2, standard, chain, alpha.word) == count_through(
                2, standard, longer, alpha.word
            ), (text, alpha.word)


def test_search_reaches_short_simple_classes():
    # every stored chain carries its standard curve to the class
    for surface, bound in ((S2, 4), (S3, 3)):
        search = twist_search(surface.genus)
        for c in enumerate_simple_classes(surface, bound):
            standard, chain = search.find(c.word)
            image = canonical_class(surface, standard)
            for twist in chain:
                f = mapping._twist_cached(surface.genus, *twist)
                image = mapping.apply_to_class(surface, f, image)
            assert image == c, c.word


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


def test_search_miss_with_two_simple_members_reads_the_diagram(fresh_search):
    x, y = sorted((C("a1B2").word, C("a1b1").word))
    assert splitting_count(2, C("a1b1").word, C("a1B2").word) is None
    assert _pair_count.__wrapped__(2, x, y) == 1
