"""The polygon model and the routes read as words of the dual presentation."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_classes_up_to, reference_route_seeds
from curvetrace.curves import _route_seeds, _taut_single
from curvetrace.errors import TrivialClass
from curvetrace.polygon import polygon_model
from curvetrace.words import (
    _cyclic_dehn_reduce,
    canonical_class,
    inverse_word,
    letters,
    make_surface,
    oriented_spellings,
)

S2 = make_surface(2)


@pytest.mark.parametrize("genus", range(2, 7))
def test_polygon_model_builds_and_reads_the_relator(genus):
    model = polygon_model(genus)
    assert model.n_sides == 4 * genus
    assert tuple(model.side_letter[s] for s in model.orbit) == make_surface(genus).relator
    for s in range(model.n_sides):
        assert model.letter_side[model.side_letter[s]] == s
        assert model.side_letter[model.partner[s]] == -model.side_letter[s]


def _relator_rich_classes(genus, lo, hi, count, seed):
    """Seeded classes whose words start with half a relator."""
    rng = random.Random(seed)
    surface = make_surface(genus)
    relator = surface.relator
    cells = [r[i:] + r[:i] for r in (relator, inverse_word(relator)) for i in range(len(r))]
    out = []
    while len(out) < count:
        word = list(rng.choice(cells)[: 2 * genus])
        word += [rng.choice(letters(genus)) for _ in range(rng.randint(lo, hi) - len(word))]
        word = _cyclic_dehn_reduce(genus, word)
        if len(word) >= lo:
            out.append(canonical_class(surface, word))
    return out


def test_route_seeds_match_spelling_by_spelling_reference():
    classes = all_classes_up_to(2, 4)
    assert len(classes) == 386
    sample = [(2, c.word) for c in classes]
    sample += [(3, c.word) for c in random.Random(3).sample(all_classes_up_to(3, 4), 150)]
    sample += [(2, c.word) for c in _relator_rich_classes(2, 6, 8, 60, seed=1909)]
    sample += [(3, c.word) for c in _relator_rich_classes(3, 7, 9, 40, seed=1912)]
    for genus, word in sample:
        seeds = _route_seeds(genus, word)
        assert seeds == reference_route_seeds(genus, word), word
        # curves._taut_single builds each seed without reducing it again
        assert all(polygon_model(genus).reduce_route(r) == r for r in seeds), word


def test_route_seeds_keep_longer_routes_that_tauten_lower():
    # a1a1A2a1A2: its one 13-letter route seed tautens to 8 crossings, five of
    # its six 15-letter seeds to 6; an upper bound, as a linked count may be lower
    word = canonical_class(S2, (1, 1, -3, 1, -3)).word
    assert _taut_single(2, word).crossing_count <= 6


@settings(max_examples=150, deadline=None, derandomize=True)
@given(word=st.lists(st.sampled_from(letters(2)), min_size=1, max_size=7).map(tuple))
def test_route_variants_agree_across_spellings(word):
    try:
        cls = canonical_class(S2, word)
    except TrivialClass:
        return
    model = polygon_model(2)
    want = model.route_variants(cls.word)
    for spelling in oriented_spellings(S2, cls):
        assert model.route_variants(spelling) == want, spelling
