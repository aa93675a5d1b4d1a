"""Taut diagrams and exact intersection numbers on the closed surface."""
import random

import pytest

from oracles import _min_for_routes, all_classes_up_to, germ_simple, min_crossings
from curvetrace.algebra import enumerate_multicurves
from curvetrace.diagrams import Budget, build_with_slots
from curvetrace.errors import (
    GenusMismatch,
    ModelInconsistency,
    NotSimple,
    ReductionBudgetExceeded,
)
from curvetrace.curves import (
    PAIR_SEARCH_CAP,
    _cross_min_exhaustive,
    _route_seeds,
    _taut_single,
    complement_report,
    enumerate_classes,
    enumerate_simple_classes,
    intersection_number,
    is_simple,
    realize,
    self_intersection,
    tauten,
    tauten_routes,
)
from curvetrace.mapping import apply_to_multicurve, twist_generator
from curvetrace.polygon import polygon_model
from curvetrace.splitting import splitting_count
from curvetrace.words import (
    canonical_class,
    format_word,
    make_surface,
    parse_word,
    reduced_words,
)

S2 = make_surface(2)
S3 = make_surface(3)


def C(text, surface=S2):
    return canonical_class(surface, parse_word(surface, text))


def test_realize_single_generator():
    d = realize(S2, C("a1"))
    assert len(d.routes) == 1
    assert len(d.chord_points[0]) == 1
    assert d.crossing_count == 0


def test_realize_dump_frozen():
    assert realize(S2, C("a1b1")).dump() == "2:0->1:0 1:0->2:0"


def test_realize_is_taut():
    assert realize(S2, C("a1B2B1")).crossing_count == 2
    for cls in all_classes_up_to(2, 4):
        route, count = _taut_single(2, cls.word)
        d = realize(S2, cls)
        assert (d.routes, d.crossing_count) == ((route,), count), cls.word


def test_self_intersection_frozen_values():
    cases = {
        "a1": 0,
        "a1b1": 0,
        "a1B1": 0,
        "a1b2": 1,
        "a1a1": 1,
        "a1b1A1B1": 0,
        "a1b1a1B1": 1,
        "a1a1b1": 0,
        "a1b1a1b1": 1,
        "a1A2b2": 3,
        "b1b2": 0,
        "a1a2": 0,
    }
    for text, want in cases.items():
        assert self_intersection(S2, C(text)) == want, text


# the 12 simple classes of length <= 2 at genus 2
SHORT_SIMPLE = (
    "a1", "b1", "a2", "b2", "a1B2", "a1B1", "a1b1", "a1a2", "b1A2", "b1b2",
    "a2B2", "a2b2",
)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("root", SHORT_SIMPLE)
def test_is_simple_requires_primitivity(root, k):
    # a1a1 embeds as a diagram only after one crossing; also non-primitive
    assert not is_simple(S2, C("a1a1"))
    assert is_simple(S2, C("a1"))
    assert is_simple(S2, C("a1b1A1B1"))
    assert not is_simple(S2, C("a1b2"))
    # is_simple reads the diagram count alone: the k-th power of a simple
    # class crosses itself exactly k - 1 times
    power = C(root * k)
    assert is_simple(S2, C(root))
    assert not is_simple(S2, power)
    assert self_intersection(S2, power) == k - 1


def test_intersection_number_frozen_values():
    cases = [
        ("a1", "b1", 1),
        ("a1", "a2", 0),
        ("a1", "b2", 0),
        ("a1", "a1", 0),
        ("a1b1", "a1", 1),
        ("a1b1A1B1", "a1", 0),
        ("a1a1", "b1", 2),
        ("a1b1", "b1", 1),
        ("a1b2", "b1", 1),
        ("a1b1A1B1", "a2", 0),
        ("b1b2", "a1", 1),
        ("a1a2", "b2", 1),
    ]
    for x, y, want in cases:
        assert intersection_number(S2, C(x), C(y)) == want, (x, y)


def test_intersection_number_symmetric():
    classes = [C(t) for t in ("a1", "b1", "a2", "a1b1", "a1b2", "a1b1A1B1")]
    for x in classes:
        for y in classes:
            assert intersection_number(S2, x, y) == intersection_number(S2, y, x)


# The taut pair diagram overcounted these five pairs of a simple and a
# non-simple class: it kept excess cross intersection that no embedded bigon
# witnesses.  The count on the simple member's splitting gives the values of
# min_crossings and of the trace expansion.
@pytest.mark.parametrize(
    "x, y, want",
    [
        ("a2b2", "a1B2B2B2a2", 4),
        ("a1b1", "a1B2b1b1b2", 3),
        ("a1b1", "a1B1B2B1B1", 4),
        ("a1b1", "a1B1a2B1B1", 4),
        ("a2b2", "b1A2b2b2b2", 4),
    ],
)
def test_intersection_number_of_overcounted_pairs(x, y, want):
    assert intersection_number(S2, C(x), C(y)) == want


def test_genus_three_pair_counts():
    # two simple classes whose pair diagram raised ModelInconsistency in the
    # bigon move, and a pair the diagram overcounted (6)
    assert intersection_number(S3, C("a1B1B1a2", S3), C("a1B1a2B2", S3)) == 0
    assert intersection_number(S3, C("a1B2", S3), C("a1A3", S3)) == 2


# Known defect, pinned so that the change which fixes it must drop its marker.
@pytest.mark.xfail(
    strict=True, raises=ModelInconsistency, reason="bigon arcs cross different edges"
)
def test_self_intersection_of_long_twist_image():
    assert self_intersection(S2, C("a1b1A1b2b1B2a1B1A1b2b1b2B1B2")) >= 0


def test_two_letter_classes_match_vertex_germ_oracle():
    # independent simplicity decision at the vertex link for length-2 classes
    letters = [l for k in (1, 2, 3, 4) for l in (k, -k)]
    seen = set()
    for x in letters:
        for y in letters:
            if y in (x, -x):
                continue
            cls = canonical_class(S2, (x, y))
            if cls.word in seen or len(cls.word) != 2:
                continue
            seen.add(cls.word)
            want = germ_simple(2, cls.word[0], cls.word[1])
            assert (self_intersection(S2, cls) == 0) == want, cls.word
    assert len(seen) == 12


def test_self_counts_match_brute_force_sample():
    classes = all_classes_up_to(2, 4)
    assert len(classes) == 386
    for cls in classes[::23]:
        expect = min_crossings(2, (cls.word,))
        assert expect is not None
        assert self_intersection(S2, cls) == expect[0], cls.word


def test_pair_counts_match_brute_force_sample():
    classes = all_classes_up_to(2, 2)
    assert len(classes) == 20
    picked = [
        (classes[i], classes[j])
        for n, (i, j) in enumerate(
            (i, j) for i in range(20) for j in range(i, 20)
        )
        if n % 26 == 0
    ]
    with_simple = 0
    for x, y in picked:
        expect = min_crossings(2, (x.word, y.word))
        assert expect is not None
        assert intersection_number(S2, x, y) == expect[1], (x.word, y.word)
        simple = [c.word for c in (x, y) if is_simple(S2, c)]
        if simple:
            delta = min(simple, key=lambda w: (len(w), w))
            other = y.word if delta == x.word else x.word
            assert splitting_count(2, delta, other) == expect[1], (x.word, y.word)
            with_simple += 1
    assert with_simple == 6


def test_tauten_is_idempotent():
    for text in ("a1b1", "a1b2", "a1A2b2", "a1b1a1B1"):
        d = realize(S2, C(text))
        again = tauten(d)
        assert again.crossing_count == d.crossing_count
        assert tauten(again).crossing_count == d.crossing_count


def test_tauten_removes_artificial_pushoff_crossings():
    # a1 plus a pushoff with a finger poked through the a1 edge and back:
    # two removable crossings, none after tautening
    model = polygon_model(2)
    cls = C("a1")
    routes = ((1,), (1, 0, 2))
    orders = ((((1, 1), (1, 2))), ((0, 0), (1, 0)), (), ())
    d = build_with_slots(model, (cls, cls), routes, orders)
    assert d.crossing_count == 2
    taut = tauten(d)
    assert taut.crossing_count == 0
    assert taut.routes == ((1,), (1,))


def test_pair_diagram_strand_accounting():
    d = tauten_routes(2, (C("a1a1"), C("b1")), ((1, 1), (2,)))
    assert d.strand_self_crossings(0) == 1
    assert d.strand_self_crossings(1) == 0
    assert d.pair_crossings(0, 1) == 2
    assert d.cross_strand_crossings() == 2
    assert d.crossing_count == 3


def test_tauten_union_of_two_multicurves():
    # products expand over such unions, one strand per unit of multiplicity:
    # only strands of different multicurves cross, each pair minimally
    family = [
        mc
        for mc in enumerate_multicurves(S2, 3)
        if sum(m for _, m in mc.components) >= 2
    ]
    twist = twist_generator(S2, 4)
    rng = random.Random(21)
    crossed = 0
    for _ in range(12):
        x, y = rng.choice(family), apply_to_multicurve(S2, twist, rng.choice(family))
        classes, sides = [], []
        for side, mc in enumerate((x, y)):
            for c, m in mc.components:
                classes += [c] * m
                sides += [side] * m
        routes = [_taut_single(2, c.word)[0] for c in classes]
        d = tauten_routes(2, classes, routes)
        want = sum(
            m * n * intersection_number(S2, a, b)
            for a, m in x.components
            for b, n in y.components
        )
        assert len(classes) >= 4
        assert d.crossing_count == want, (str(x), str(y))
        assert all(sides[a[0]] != sides[b[0]] for a, b in d.crossings)
        crossed += want > 0
    assert crossed >= 6


def test_enumerate_classes_counts():
    counts = {1: 4, 2: 20, 3: 80, 4: 386}
    simple_counts = {1: 4, 2: 12, 3: 32, 4: 83}
    for bound, want in counts.items():
        assert len(enumerate_classes(S2, bound)) == want
    for bound, want in simple_counts.items():
        assert len(enumerate_simple_classes(S2, bound)) == want


def test_enumerate_simple_contents():
    names = [format_word(c.word) for c in enumerate_simple_classes(S2, 1)]
    assert names == ["a1", "b1", "a2", "b2"]
    four = enumerate_simple_classes(S2, 4)
    assert C("a1b1A1B1") in four
    assert all(is_simple(S2, c) for c in four[:10])


def test_genus_three_geometry():
    assert intersection_number(S3, C("a1", S3), C("b1", S3)) == 1
    assert intersection_number(S3, C("a1", S3), C("b3", S3)) == 0
    assert intersection_number(S3, C("a3", S3), C("b3", S3)) == 1
    handle = C("a1b1A1B1a2b2A2B2", S3)
    assert self_intersection(S3, handle) == 0
    assert is_simple(S3, handle)


def test_budget_exhaustion_is_loud():
    with pytest.raises(ReductionBudgetExceeded):
        tauten_routes(
            2,
            (C("a1A2b2"),),
            ((1, 4, 7, 7, 6, 6, 5),),
            budget=Budget(limit=4),
        )


@pytest.mark.parametrize("genus", [2, 3])
def test_cross_min_exhaustive_matches_oracle(genus):
    # seeded pairs of production routes, kept to small search spaces so the
    # oracle's enumeration stays cheap; short classes at genus 3 leave edges
    # with no events
    model = polygon_model(genus)
    surface = make_surface(genus)
    words = list(reduced_words(genus, 2))
    rng = random.Random(genus)
    checked = empty = 0
    while checked < 60:
        classes = [canonical_class(surface, rng.choice(words)) for _ in range(2)]
        routes = tuple(rng.choice(_route_seeds(genus, c.word)) for c in classes)
        want = _min_for_routes(model, routes, 720)
        if want is None:
            continue
        edges = {abs(model.sides[side]) for route in routes for side in route}
        empty += len(edges) < 2 * genus
        assert _cross_min_exhaustive(model, routes) == want[1], routes
        checked += 1
    assert empty > 0
    for routes in (((0,), (0,)), ((0,), (1,))):  # most edges empty
        assert _cross_min_exhaustive(model, routes) == _min_for_routes(
            model, routes, 2
        )[1]


def test_cross_min_exhaustive_above_cap_is_none():
    model = polygon_model(2)
    routes = ((0,) * 5, (2,) * 4)  # nine events on one edge: 9! assignments
    assert _min_for_routes(model, routes, PAIR_SEARCH_CAP) is None
    assert _cross_min_exhaustive(model, routes) is None


def test_intersection_number_of_two_nonsimple_classes_matches_oracle():
    x, y = C("A1B2"), C("A1a2")
    assert intersection_number(S2, x, y) == min_crossings(2, (x.word, y.word))[1] == 3


def test_pair_search_cap_is_loud():
    with pytest.raises(ReductionBudgetExceeded):
        intersection_number(S2, C("A1a2"), C("b2B1B1b2"))


def test_genus_mismatch_is_typed():
    s2_class, s3_class = C("a1"), C("a3b3", S3)
    for call in (
        lambda: realize(S2, s3_class),
        lambda: self_intersection(S2, s3_class),
        lambda: is_simple(S2, s3_class),
        lambda: intersection_number(S2, s2_class, s3_class),
        lambda: complement_report(S2, s3_class, s2_class),
        lambda: intersection_number(S3, s2_class, C("a1", S3)),
    ):
        with pytest.raises(GenusMismatch):
            call()


def test_complement_report_names_nonsimple_class():
    with pytest.raises(NotSimple, match="^a1b2 is not a simple class$"):
        complement_report(S2, C("a1b2"), C("a1"))
