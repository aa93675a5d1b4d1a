"""Taut diagrams and exact intersection numbers on the closed surface."""
import random
from itertools import product
from math import factorial, prod

import pytest

from oracles import (
    ASSIGNMENT_CAP,
    _min_for_routes,
    all_classes_up_to,
    germ_simple,
    min_crossings,
    nonsimple_pairs,
    reference_cross_min,
    reference_taut_single,
)
from sweeps import bracket_misses, cobracket_misses, pair_search_misses
from curvetrace import curves
from curvetrace.algebra import enumerate_multicurves, evaluate_expression, expand_trace
from curvetrace.complement import certify_taut
from curvetrace.diagrams import Budget, _ray_verdict, build_diagram, build_with_slots
from curvetrace.errors import (
    BadArgument,
    CurvetraceError,
    GenusMismatch,
    ModelInconsistency,
    NotSimple,
    ReductionBudgetExceeded,
)
from curvetrace.curves import (
    _cross_min_exhaustive,
    _pair_cross_refined,
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
from curvetrace.representations import evaluate_trace, random_representation
from curvetrace.splitting import splitting_count
from curvetrace.words import (
    canonical_class,
    format_word,
    letters,
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
        route, count = reference_taut_single(2, cls.word)
        d = realize(S2, cls)
        assert (d.routes, d.crossing_count) == ((route,), count), cls.word
        assert certify_taut(polygon_model(2), d) is None, cls.word


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


@pytest.mark.parametrize(
    "genus,text,count,n",
    [
        (3, "a1A3B1B2", 9, 4),
        (3, "a1A2b3b2", 9, 4),
        (3, "a2b3B2A3", 7, 4),
        (2, "a1A2b2b1A2A2", 16, 6),
    ],
)
def test_self_counts_over_the_chord_bound_raise(genus, text, count, n):
    # n chords in the 4g-gon cross at most C(n, 2) times; tauten removes
    # embedded bigons only, so these taut diagrams overcount
    surface = make_surface(genus)
    cls = C(text, surface)
    assert _taut_single(genus, cls.word).crossing_count == count
    bound = n * (n - 1) // 2
    message = rf"^{text} crosses itself {count} times .* C\({n}, 2\) = {bound}$"
    with pytest.raises(ModelInconsistency, match=message):
        self_intersection(surface, cls)
    # the diagram still has crossings, so the class is not simple
    assert not is_simple(surface, cls)


def test_self_counts_below_the_cobracket_floor_raise(monkeypatch):
    # the floor is a lower bound, so a count under it is a bug; patched here
    monkeypatch.setattr(curves, "_cobracket_floor", lambda model, diagram: 2)
    message = r"^a1b2 crosses itself 1 times, below its cobracket floor 2$"
    with pytest.raises(ModelInconsistency, match=message):
        _taut_single.__wrapped__(2, C("a1b2").word)


@pytest.mark.parametrize(
    "text", ["a1b1a1B1A1A2a1b1A1B1", "a1b1a1B1A1B2B2B2A2a1b1A1B1"]
)
def test_classes_whose_tauten_fails_still_answer(text):
    # tauten raises "bigon move failed to drop crossings" on these; a built
    # seed diagram meets the cobracket floor 1 first, so it is never run
    cls = C(text)
    assert self_intersection(S2, cls) == 1
    assert not is_simple(S2, cls)
    f = expand_trace(S2, cls.word)
    for rep in (random_representation(S2, seed) for seed in range(3)):
        assert evaluate_expression(rep, f) == evaluate_trace(rep, cls.word)


LONG_CERTIFIED = "a1B1b2a1A2A1b2b1B2A1B2a2"


def test_a_class_whose_tauten_fails_gets_a_certified_count():
    # a built seed diagram meets the cobracket floor 24 before tauten runs
    cls = C(LONG_CERTIFIED)
    assert self_intersection(S2, cls) == 24
    assert not is_simple(S2, cls)


@pytest.mark.xfail(raises=ReductionBudgetExceeded, strict=True)
def test_a_class_whose_tauten_fails_expands():
    # the state sum over 24 crossings has 2^24 states, past the budget; an
    # expansion whose cost is set by strands and crossings would answer
    expand_trace(S2, C(LONG_CERTIFIED).word)


# (class, 0-based route seed, cobracket floor): tauten raises "bigon move
# failed to drop crossings" on that seed; _taut_single never tautens it, as an
# earlier seed meets the floor as built
TAUTEN_FAILURES = (
    ("a1b1a1B1A1A2a1b1A1B1", 2, 1),
    ("a1b1a1B1A1B2B2B2A2a1b1A1B1", 2, 1),
    (LONG_CERTIFIED, 17, 24),
)


@pytest.mark.xfail(raises=ModelInconsistency, strict=True)
@pytest.mark.parametrize("text,seed,floor", TAUTEN_FAILURES)
def test_tauten_of_a_skipped_seed_meets_the_floor(text, seed, floor):
    cls = C(text)
    route = _route_seeds(2, cls.word)[seed]
    assert tauten_routes(2, (cls,), (route,)).crossing_count >= floor


def test_pair_counts_over_the_chord_bound_raise(monkeypatch):
    # no pair is known to overcount, so the count is patched past 2 * 1
    monkeypatch.setattr(curves, "_pair_count", lambda genus, wx, wy: 3)
    message = r"^a1b2 and b1 cross 3 times, over the bound 2\*1 = 2$"
    with pytest.raises(ModelInconsistency, match=message):
        intersection_number(S2, C("a1b2"), C("b1"))
    monkeypatch.setattr(curves, "_pair_count", lambda genus, wx, wy: 2)
    assert intersection_number(S2, C("a1b2"), C("b1")) == 2


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


def test_self_intersection_of_long_twist_image():
    # its bigon arcs cross as many edges but not the same ones, so the move
    # is a retract, not a slot swap
    assert self_intersection(S2, C("a1b1A1b2b1B2a1B1A1b2b1b2B1B2")) == 0


def test_bigon_arcs_across_different_edges_retract():
    # each witness arc crosses 2g edges, not the same ones; the pair diagram
    # now tautens and agrees with the splitting count
    report = complement_report(S3, C("a1B1B1a2", S3), C("a1B1a2B2", S3))
    assert report.crossing_count == 0
    # two self-crossing classes: a built seed-pair diagram meets the bracket
    # floor, 6, three times the algebraic intersection 2
    assert intersection_number(S2, C("a1b2a1b2"), C("a1b2b1B2")) == 6


def test_comparator_ties_on_s_plus_never_part_on_s_minus():
    # a tie on the s_plus development is a tie on the s_minus one (Fine and
    # Wilf), which is why the comparator develops the rays only once
    model = polygon_model(2)
    simple = [c.word for c in enumerate_simple_classes(S2, 2)]
    strands = [(w,) for w in simple] + [(w, w) for w in simple]
    strands += [(x, y) for x in simple for y in simple if x < y]
    strands += [(c.word,) for c in enumerate_classes(S2, 3)]
    ties = 0
    for words in strands:
        routes = tuple(_taut_single(2, w).routes[0] for w in words)
        events = {}
        for i, route in enumerate(routes):
            for p, side in enumerate(route):
                events.setdefault(abs(model.sides[side]), []).append((i, p))
        for k, evs in events.items():
            s_plus, s_minus = model.side_of[k], model.side_of[-k]
            for n, ev_x in enumerate(evs):
                for ev_y in evs[n + 1 :]:
                    if _ray_verdict(model, routes, ev_x, ev_y, s_plus, Budget()):
                        continue
                    ties += 1
                    assert not _ray_verdict(
                        model, routes, ev_x, ev_y, s_minus, Budget()
                    ), (words, ev_x, ev_y)
    assert ties > 0


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


def test_taut_single_matches_every_seed_reference():
    # the cobracket floor sweep of tests/sweeps.py on shorter classes: each
    # taut diagram is the all-seeds reference's, its floor at most its count
    for surface, bound, counts in ((S2, 4, (303, 267)), (S3, 3, (188, 176))):
        classes = enumerate_classes(surface, bound)
        words = [cls.word for cls in classes]
        lines, *got = cobracket_misses(surface.genus, words, against_reference=True)
        assert lines == [] and tuple(got) == counts
        for cls in classes:
            assert _taut_single(surface.genus, cls.word).classes == (cls,), cls.word


# (genus, class, count, cobracket floor) of six classes known to overcount:
# a diagram with as few crossings as the floor exists for each, but no seed
# reaches it, so each keeps the fewest crossings over all seeds
CERTIFIED_OVERCOUNTS = (
    (3, "a1A3B1B2", 9, 3),
    (3, "a1A2b3b2", 9, 3),
    (3, "a2b3B2A3", 7, 5),
    (2, "a1B2b1a2b1", 7, 5),
    (2, "a1A2a1A2A2", 8, 6),
    (2, "a1b1b2a1A2", 7, 5),
)


@pytest.mark.parametrize("genus,text,count,floor", CERTIFIED_OVERCOUNTS)
def test_certified_overcounts_keep_their_counts(genus, text, count, floor):
    d = _taut_single(genus, C(text, make_surface(genus)).word)
    model = polygon_model(genus)
    assert (d.crossing_count, curves._cobracket_floor(model, d)) == (count, floor)


def test_short_simple_member_decides_without_the_long_member(monkeypatch):
    # a1 is simple, so its splitting counts the pair, and the long
    # self-crossing member is never tautened
    long_word = C("a1B2b1b1b2").word
    assert len(long_word) >= 5 and _taut_single(2, long_word).crossing_count > 0
    seen = []

    def recording(genus, class_word):
        seen.append(class_word)
        return _taut_single(genus, class_word)

    monkeypatch.setattr(curves, "_taut_single", recording)
    monkeypatch.setattr(curves, "_pair_count", curves._pair_count.__wrapped__)
    assert intersection_number(S2, C("a1"), C("a1B2b1b1b2")) == 2
    assert seen[0] == C("a1").word
    assert long_word not in seen


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
    strands = sorted((a[0], b[0]) for a, b in d.crossings)
    assert strands == [(0, 0), (0, 1), (0, 1)]
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
        routes = [_taut_single(2, c.word).routes[0] for c in classes]
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
        diagram = build_diagram(model, (), routes)
        assert _cross_min_exhaustive(model, diagram, Budget()) == want[1], routes
        checked += 1
    assert empty > 0
    for routes in (((0,), (0,)), ((0,), (1,))):  # most edges empty
        diagram = _in_route_order(model, routes)
        assert _cross_min_exhaustive(model, diagram, Budget()) == _min_for_routes(
            model, routes, 2
        )[1]


# class pairs some of whose seed pairs put 8 events on one edge, within the
# reference's cap
EIGHT_EVENT_PAIRS = {
    2: (("a1B1B1b2", "b1b1b1b1"), ("a1a1a1a1", "a1B1B2A1B1")),
    3: (("a1a1B1A2", "a1a1a1a1"), ("a1b3A3A3", "a3a3a3a3")),
}


def _events_per_edge(model, routes):
    events = [0] * (2 * model.genus)
    for route in routes:
        for side in route:
            events[abs(model.sides[side]) - 1] += 1
    return events


def _in_route_order(model, routes):
    """The diagram of synthetic routes with each edge's events in route
    order; the comparator need not accept such routes."""
    orders = [[] for _ in range(2 * model.genus)]
    for i, route in enumerate(routes):
        for p, side in enumerate(route):
            orders[abs(model.sides[side]) - 1].append((i, p))
    return build_with_slots(model, (), routes, map(tuple, orders))


@pytest.mark.parametrize("genus", [2, 3])
def test_cross_min_exhaustive_matches_reference(genus):
    # 150 seeded pairs of production routes of words of length 2-5, at every
    # search space up to the reference's cap, then every seed pair of the
    # pairs above
    model = polygon_model(genus)
    surface = make_surface(genus)
    alphabet = letters(genus)
    rng = random.Random(10 + genus)
    route_pairs = []
    while len(route_pairs) < 150:
        classes = []
        for _ in range(2):
            word = [rng.choice(alphabet)]
            while len(word) < rng.randint(2, 5):
                word.append(rng.choice([l for l in alphabet if l != -word[-1]]))
            classes.append(canonical_class(surface, word))
        routes = tuple(rng.choice(_route_seeds(genus, c.word)) for c in classes)
        if prod(map(factorial, _events_per_edge(model, routes))) <= ASSIGNMENT_CAP:
            route_pairs.append(routes)
    for texts in EIGHT_EVENT_PAIRS[genus]:
        seeds = [_route_seeds(genus, C(text, surface).word) for text in texts]
        route_pairs.extend(product(*seeds))
    empty = eight = 0
    for routes in route_pairs:
        events = _events_per_edge(model, routes)
        if prod(map(factorial, events)) > ASSIGNMENT_CAP:
            continue
        diagram = build_diagram(model, (), routes)
        assert _cross_min_exhaustive(model, diagram, Budget()) == reference_cross_min(
            model, routes
        ), routes
        empty += 0 in events
        eight += max(events) == 8
    assert empty > 0 and eight > 0


def test_cross_min_exhaustive_spends_its_budget():
    # nine events on one edge: 9! assignments, past the reference's default
    # cap; the subset DP visits 2^9 sets and answers within the default budget
    model = polygon_model(2)
    routes = ((0,) * 5, (2,) * 4)
    with pytest.raises(ModelInconsistency, match="opposite directions"):
        build_diagram(model, (), routes)
    diagram = _in_route_order(model, routes)
    want = reference_cross_min(model, routes, 10**6)
    assert want is not None
    assert _cross_min_exhaustive(model, diagram, Budget()) == want
    with pytest.raises(ReductionBudgetExceeded):
        _cross_min_exhaustive(model, diagram, Budget(limit=1000))


def test_intersection_number_of_two_nonsimple_classes_matches_oracle():
    x, y = C("A1B2"), C("A1a2")
    assert intersection_number(S2, x, y) == min_crossings(2, (x.word, y.word))[1] == 3


@pytest.mark.parametrize("genus, max_len, count", [(2, 4, 150), (3, 3, 100)])
def test_pair_search_matches_the_two_pass_reference(genus, max_len, count):
    # the first of the seeded pairs that tests/sweeps.py checks
    misses, beyond, answered = pair_search_misses(
        genus, nonsimple_pairs(genus, max_len, count)
    )
    assert misses == []
    assert beyond and answered["built"] and answered["search"]


@pytest.mark.parametrize("genus, delta_len, alpha_len", [(2, 2, 3), (3, 1, 2)])
def test_bracket_floor_meets_the_counts(genus, delta_len, alpha_len):
    # the sweep of tests/sweeps.py on shorter classes
    s = make_surface(genus)
    deltas = [d.word for d in enumerate_simple_classes(s, delta_len)]
    alphas = [a.word for a in enumerate_classes(s, alpha_len)]
    assert bracket_misses(genus, product(deltas, alphas)) == []


# the first two are answered from a built diagram; a2A1 x B2a2A1A1 reaches
# the search
@pytest.mark.parametrize(
    "texts", [("A1B2", "A1a2"), ("b1B2A1", "a1a1b2"), ("a2A1", "B2a2A1A1")]
)
def test_pair_search_never_tautens(monkeypatch, texts):
    wx, wy = sorted(C(text).word for text in texts)
    tautened = []

    def recording(genus, classes, routes, budget=None):
        tautened.append(routes)
        return tauten_routes(genus, classes, routes, budget)

    monkeypatch.setattr(curves, "tauten_routes", recording)
    _pair_cross_refined(2, wx, wy)
    assert tautened == []


def test_pair_search_answers_past_the_old_cap():
    # the numpy table sum of the test oracles, with its cap raised to
    # 3 * 10^7 assignments, gives 6 on every seed pair of this pair
    assert intersection_number(S2, C("A1a2"), C("b2B1B1b2")) == 6


def test_pair_search_past_its_budget_raises(monkeypatch):
    # no built diagram of this pair meets its bracket floor, 5, so it reaches
    # the search: its builds spend 297 and the whole pair 1,198 operations
    wx, wy = sorted((C("a2A1").word, C("B2a2A1A1").word))
    assert _pair_cross_refined(2, wx, wy) == 5
    monkeypatch.setattr(curves, "Budget", lambda: Budget(limit=1000))
    with pytest.raises(ReductionBudgetExceeded, match="budget of 1000 "):
        _pair_cross_refined(2, wx, wy)


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


def test_non_class_arguments_are_typed():
    # a tuple where a class belongs fails the genus check with a typed error
    # that is still a TypeError
    a1 = C("a1")
    for call in (
        lambda: realize(S2, (1, 2)),
        lambda: self_intersection(S2, (1, 2)),
        lambda: is_simple(S2, (1, 2)),
        lambda: intersection_number(S2, a1, (1, 2)),
        lambda: intersection_number(S2, (1, 2), a1),
    ):
        with pytest.raises(BadArgument, match=r"not \(1, 2\)$") as info:
            call()
        assert isinstance(info.value, CurvetraceError)
        assert isinstance(info.value, TypeError)


def test_realize_returns_the_one_cached_diagram():
    for text in ("a1", "a1b1", "a1B2B1", "a1a1"):
        d = realize(S2, C(text))
        assert d is realize(S2, C(text))
        assert d.classes == (C(text),)


def test_complement_report_names_nonsimple_class():
    with pytest.raises(NotSimple, match="^a1b2 is not a simple class$"):
        complement_report(S2, C("a1b2"), C("a1"))
