"""Complement census of taut unions: Euler counts, faces, corner bounds."""
import random

import pytest

from curvetrace import curves, splitting
from curvetrace.complement import Geometry, certify_taut, complement_census
from curvetrace.curves import (
    _pair_diagram,
    _route_seeds,
    complement_report,
    enumerate_classes,
    enumerate_simple_classes,
    intersection_number,
    realize,
    tauten_routes,
)
from curvetrace.diagrams import build_diagram
from curvetrace.errors import ModelInconsistency, NotSimple
from curvetrace.polygon import polygon_model
from curvetrace.words import canonical_class, format_word, letters, make_surface, parse_word
from oracles import reference_pair_diagram, reference_placement
from sweeps import placement_mismatches

S2 = make_surface(2)


def C(text):
    return canonical_class(S2, parse_word(S2, text))


def test_generator_pair_census():
    rep = complement_report(S2, C("a1"), C("b1"))
    assert rep.crossing_count == 1
    assert rep.euler_total == -1
    assert rep.face_count == 0
    assert rep.corner_counts == ()
    assert str(rep) == "crossings=1 euler=-1 faces=0 corners=-"


def test_disjoint_pair_census():
    rep = complement_report(S2, C("a1"), C("a2"))
    assert rep.crossing_count == 0
    assert rep.euler_total == -2
    assert rep.face_count == 0
    assert str(rep) == "crossings=0 euler=-2 faces=0 corners=-"


def test_square_face_census():
    rep = complement_report(S2, C("a1b1"), C("a1B1"))
    assert rep.crossing_count == 2
    assert rep.euler_total == 0
    assert rep.face_count == 1
    assert rep.corner_counts == (4,)
    assert rep.region_eulers == (-1, 1)
    assert str(rep) == "crossings=2 euler=0 faces=1 corners=4"


def test_rejects_non_simple_input():
    with pytest.raises(NotSimple):
        complement_report(S2, C("a1b2"), C("a1"))
    with pytest.raises(NotSimple):
        complement_report(S2, C("a1"), C("a1a1"))


def test_one_tauten_matches_the_seed_pair_search():
    # two simple classes: tautening their taut routes once gives the census
    # of the best diagram over every seed pair
    model = polygon_model(2)
    pool = enumerate_simple_classes(S2, 2)
    for i, x in enumerate(pool):
        for y in pool[i:]:
            got = complement_census(model, _pair_diagram(S2, x, y))
            want = complement_census(model, reference_pair_diagram(S2, x, y))
            assert str(got) == str(want), (x.word, y.word)


def test_report_rejects_a_diagram_that_disagrees_with_the_count(monkeypatch):
    real = splitting.splitting_count

    # one under, since a count over 1 * 1 fails intersection_number's own bound
    def off_by_one(genus, delta, word):
        return real(genus, delta, word) - 1

    monkeypatch.setattr(splitting, "splitting_count", off_by_one)
    monkeypatch.setattr(curves, "_pair_count", curves._pair_count.__wrapped__)
    want = "^a1 and b1 cross 1 times in their diagram, but their count is 0$"
    with pytest.raises(ModelInconsistency, match=want):
        complement_report(S2, C("a1"), C("b1"))


def test_certify_taut_accepts_taut_diagrams():
    model = polygon_model(2)
    for text in ("a1", "a1b1", "a1b2", "a1b1A1B1"):
        assert certify_taut(model, realize(S2, C(text))) is None


def test_euler_identity_on_random_simple_pairs():
    # total euler characteristic of the cut surface = chi(Sigma) + crossings
    rng = random.Random(2026)
    pool = enumerate_simple_classes(S2, 3)
    model = polygon_model(2)
    seen = 0
    positive = 0
    while seen < 12:
        x, y = rng.choice(pool), rng.choice(pool)
        if x == y:
            continue
        rep = complement_report(S2, x, y)
        n = intersection_number(S2, x, y)
        assert rep.crossing_count == n
        assert rep.euler_total == -2 + n
        assert all(c >= 4 for c in rep.corner_counts)
        if n > 0:
            assert rep.face_count < n
            positive += 1
        seen += 1
    assert positive >= 3


def test_census_on_self_crossing_strand():
    # census also applies to a taut one-strand diagram with crossings
    model = polygon_model(2)
    d = tauten_routes(2, (C("a1b2"),), ((0, 1, 1, 2, 6, 3),))
    rep = complement_census(model, d)
    assert rep.crossing_count == 1
    assert rep.euler_total == -1


@pytest.mark.parametrize("genus", [2, 3])
def test_chord_orders_match_rational_reference(genus):
    # Comparator builds of seeded route pairs, before tautening, as the first
    # certificate of every tauten loop sees them; a few in a hundred place
    # three chords through one point at retry 0.
    rng = random.Random(genus)
    s = make_surface(genus)
    model = polygon_model(genus)
    alphabet = letters(genus)
    retried = 0
    for _ in range(60):
        words = []
        for _ in range(2):
            length = rng.randint(2, 6 if genus == 2 else 5)
            w = [rng.choice(alphabet)]
            while len(w) < length:
                w.append(rng.choice([l for l in alphabet if l != -w[-1]]))
            words.append(canonical_class(s, tuple(w)).word)
        routes = tuple(_route_seeds(genus, w)[0] for w in words)
        d = build_diagram(model, words, routes)
        geo = Geometry(model, d)
        retry, on_chord = reference_placement(model, d)
        assert geo.retry == retry
        assert geo.on_chord == on_chord
        assert not hasattr(geo, "coord")
        retried += retry > 0
    assert retried >= 1


def test_a_triangle_is_placed_and_other_orders_are_read_off_the_boundary():
    # the crossing order sweep of tests/sweeps.py on fewer diagrams.  The
    # taut a1A2B1 has three pairwise crossing chords, so the order along
    # them depends on where the triangle lies, and the boundary order is
    # wrong there; the taut a1a1a1 has two crossings on one chord and no
    # triangle, so its order is read off the boundary
    model = polygon_model(2)
    triangle = curves._taut_single(2, C("a1A2B1").word)[0]
    geo = Geometry(model, triangle)
    assert geo.exact and triangle.crossing_count == 3
    assert geo.on_chord == reference_placement(model, triangle)[1]
    assert geo.boundary_orders() != geo.on_chord
    forced = curves._taut_single(2, C("a1a1a1").word)[0]
    assert not Geometry(model, forced).exact
    assert max(map(len, forced.geometry.on_chord.values())) == 2
    classes = enumerate_classes(S2, 4)
    diagrams = [
        (format_word(c.word), curves._taut_single(2, c.word)[0]) for c in classes
    ]
    lines, paths = placement_mismatches(model, diagrams)
    assert lines == []
    assert paths == {"read": 328, "placed": 58, "misread": 57}
