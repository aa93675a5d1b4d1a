"""Public geometric operations: taut diagrams and intersection numbers.

A diagram built straight from the slot comparator is close to minimal but can
still contain bigons (the comparator orders strands as their developed rays
would sit, and a route produced from letter gadgets is not always developed
straight).  tauten therefore loops: certify, and on a bigon witness isotope
one arc across the disc onto the other (its edge crossings are replaced by the
partner arc's), innermost first since witness arcs are crossing-free.  Each
move removes the witnessed pair.

The embedded-bigon certificate is not conclusive once a strand has double
points: excess intersection in general needs immersed monogons or bigons to
witness it (Hass & Scott, "Intersections of curves on surfaces", Israel J.
Math. 51, 1985), and no embedded move removes those.  So a pair with a simple
member is counted on that member's splitting of pi1 instead (see splitting),
and no diagram is built for it.  The diagram path remains for
complement_report, for the trace expansion's state sum, for pairs of two
simple classes whose splitting search misses (the certificate is conclusive
for two simple curves), and for pairs of two non-simple classes.  Those pair
counts minimize over all spelling/route seeds and are confirmed by the exact
minimum over every slot assignment of each seed pair (computed from per-edge
crossing tables; capped, loud on overflow).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, permutations
from math import factorial

import numpy as np

from .complement import ComplementReport, certify_taut, complement_census
from .diagrams import Budget, CurveDiagram, build_diagram, build_with_slots
from .errors import (
    GenusMismatch,
    ModelInconsistency,
    NotSimple,
    ReductionBudgetExceeded,
    TrivialClass,
)
from .polygon import polygon_model
from .words import (
    CurveClass,
    Surface,
    canonical_class,
    format_word,
    homology_class,
    intersection_form,
    make_surface,
    reduced_words,
)


def _route_seeds(genus: int, class_word) -> tuple:
    """Rotation-minimal routes of the class, shortest first.

    A route is a word of the dual presentation (see polygon), so the routes
    of the class are the half-swap closure of the canonical spelling's one
    route; the other spellings and junction choices land in that closure.
    """
    routes = polygon_model(genus).route_variants(class_word)
    return tuple(sorted(routes, key=lambda r: (len(r), r)))


def _retract_arc(model, routes, mover, stay):
    """Replace the mover arc's edge crossings by the stay arc's (fewer)."""
    old = routes[mover.strand]
    if stay.x_from == mover.x_from:
        new_sides = stay.sides(routes[stay.strand])
    else:
        new_sides = tuple(
            model.partner[s] for s in reversed(stay.sides(routes[stay.strand]))
        )
    n = len(old)
    start = (mover.chord_from + 1) % n
    kept = [old[(start + mover.n_events + t) % n] for t in range(n - mover.n_events)]
    new_route = model.reduce_route(tuple(new_sides) + tuple(kept))
    if not new_route:
        raise ModelInconsistency("bigon move erased an essential strand")
    out = list(routes)
    out[mover.strand] = new_route
    return tuple(out)


def _arc_event_positions(route_len, arc):
    return [
        (arc.strand, (arc.chord_from + 1 + t) % route_len)
        for t in range(arc.n_events)
    ]


def _swap_move(model, diagram, arc_a, arc_b, budget):
    """Slide two parallel arcs past each other: swap their adjacent events
    on every crossed edge.  Removes the witnessed crossing pair."""
    routes = diagram.routes
    evs_a = _arc_event_positions(len(routes[arc_a.strand]), arc_a)
    evs_b = _arc_event_positions(len(routes[arc_b.strand]), arc_b)
    if arc_b.x_from != arc_a.x_from:
        evs_b = list(reversed(evs_b))
    if not evs_a:
        raise ModelInconsistency("parallel chords witnessed as a bigon")
    orders = [list(o) for o in diagram.slot_orders]
    for ev1, ev2 in zip(evs_a, evs_b):
        k1 = abs(model.sides[routes[ev1[0]][ev1[1]]])
        k2 = abs(model.sides[routes[ev2[0]][ev2[1]]])
        if k1 != k2:
            raise ModelInconsistency("bigon arcs cross different edges")
        ring = orders[k1 - 1]
        i1, i2 = ring.index(ev1), ring.index(ev2)
        if abs(i1 - i2) != 1:
            raise ModelInconsistency("bigon events not adjacent on their edge")
        ring[i1], ring[i2] = ring[i2], ring[i1]
        budget.spend()
    return build_with_slots(model, diagram.classes, routes, orders, budget)


def tauten_routes(genus: int, classes, routes, budget=None):
    """Comparator build plus innermost monogon/bigon elimination, certified.

    Equal-length arcs slide past each other (two crossings gone, routes
    kept); otherwise the longer arc retracts across the disc, strictly
    shortening its route, and the diagram is rebuilt.  The pair (total route
    length, crossing count) drops on every move, so the loop terminates.
    """
    model = polygon_model(genus)
    if budget is None:
        budget = Budget()
    routes = tuple(model.reduce_route(r) for r in routes)
    diagram = build_diagram(model, classes, routes, budget)
    while True:
        witness = certify_taut(model, diagram)
        if witness is None:
            return diagram
        kind = witness[0]
        if kind == "monogon":
            raise ModelInconsistency(
                f"monogon in diagram of {classes}: {witness[1]}"
            )
        _, arc_a, arc_b = witness
        budget.spend(arc_a.n_events + arc_b.n_events + 1)
        if arc_a.n_events == arc_b.n_events:
            before = diagram.crossing_count
            diagram = _swap_move(model, diagram, arc_a, arc_b, budget)
            if diagram.crossing_count >= before:
                raise ModelInconsistency("bigon move failed to drop crossings")
        else:
            mover, stay = (
                (arc_a, arc_b) if arc_a.n_events > arc_b.n_events else (arc_b, arc_a)
            )
            routes = _retract_arc(model, diagram.routes, mover, stay)
            diagram = build_diagram(model, classes, routes, budget)


@lru_cache(maxsize=None)
def _taut_single(genus: int, class_word) -> tuple:
    """Tautened route and self-crossing count for one class."""
    best = None
    budget = Budget()
    for seed in _route_seeds(genus, class_word):
        d = tauten_routes(genus, (class_word,), (seed,), budget)
        key = (d.crossing_count, len(d.routes[0]), d.routes[0])
        if best is None or key < best:
            best = key
    count, _, route = best
    return route, count


def _check_genus(s: Surface, *items) -> None:
    """Raise GenusMismatch unless every item (anything with .genus) is on s."""
    for x in items:
        if x.genus != s.genus:
            name = type(x).__name__
            if isinstance(x, CurveClass):
                name = format_word(x.word)
            raise GenusMismatch(
                f"{name} has genus {x.genus}; the surface has genus {s.genus}"
            )


def realize(s: Surface, c: CurveClass) -> CurveDiagram:
    """Taut single-strand diagram of the class.

    The taut route alone does not fix the slots: the comparator's order can
    miss swap moves, so the route is tautened again.
    """
    _check_genus(s, c)
    route, _ = _taut_single(s.genus, c.word)
    return tauten_routes(s.genus, (c,), (route,))


def tauten(d: CurveDiagram) -> CurveDiagram:
    """Remove monogons and bigons from the diagram by isotopy moves."""
    return tauten_routes(d.genus, d.classes, d.routes)


def self_intersection(s: Surface, c: CurveClass) -> int:
    """Minimal double-point count of a single representative."""
    _check_genus(s, c)
    _, count = _taut_single(s.genus, c.word)
    return count


def is_simple(s: Surface, c: CurveClass) -> bool:
    """True when the class has an embedded representative.  The count comes
    from an actual diagram, so 0 means one exists; an embedded essential
    curve is primitive, and a diagram of a proper power crosses itself."""
    return self_intersection(s, c) == 0


def _pair_diagram(s: Surface, x: CurveClass, y: CurveClass, budget=None):
    # Bigon elimination alone is seed-dependent for non-embedded strands
    # (only singular bigons are guaranteed in excess position), so minimize
    # over the same spelling/route seeds the single-strand path uses.  The
    # total count forces every self and cross count to its own minimum.
    if budget is None:
        budget = Budget()
    u = homology_class(s, x.word).coords
    v = homology_class(s, y.word).coords
    floor = (
        _taut_single(s.genus, x.word)[1]
        + _taut_single(s.genus, y.word)[1]
        + abs(intersection_form(u, v))
    )
    best = None
    for rx in _route_seeds(s.genus, x.word):
        for ry in _route_seeds(s.genus, y.word):
            d = tauten_routes(s.genus, (x, y), (rx, ry), budget)
            key = (d.crossing_count, d.routes)
            if best is None or key < best[0]:
                best = (key, d)
            if best[0][0] == floor:
                return best[1]
    return best[1]


def _pair_taut(genus: int, wx, wy) -> CurveDiagram:
    s = make_surface(genus)
    return _pair_diagram(s, CurveClass(genus, wx), CurveClass(genus, wy))


PAIR_SEARCH_CAP = 200_000


def _cross_min_exhaustive(model, routes):
    """Minimum cross-strand count over every slot assignment of the routes,
    or None when there are more than PAIR_SEARCH_CAP assignments.

    A slot assignment orders the events of each edge.  Whether two chords of
    different strands cross depends only on the order of their four
    endpoints: points on different sides compare by side, and two points on
    one side compare by the slot ranks of their events on that side's edge.
    At most two edges carry such a comparison for one chord pair, so the
    cross count is exactly a constant plus one table per edge plus one table
    per edge pair, each indexed by the rank vectors of its edges.  Their sum
    is one array over every assignment (an edge no comparison reads gets a
    single cell), so its minimum is the minimum over all assignments.  The
    array is never larger than the search space, which the cap bounds as
    before.
    """
    n_edges = 2 * model.genus
    edge_events = [[] for _ in range(n_edges)]
    for i, route in enumerate(routes):
        for p, side in enumerate(route):
            edge_events[abs(model.sides[side]) - 1].append((i, p))
    space = 1
    for evs in edge_events:
        space *= factorial(len(evs))
    if space > PAIR_SEARCH_CAP:
        return None
    # A boundary point is (side, edge, index of its event on the edge); on
    # the edge's plus side it sits at the event's slot rank, on the minus
    # side at the reversed rank.
    where = {
        ev: (k, t) for k, evs in enumerate(edge_events) for t, ev in enumerate(evs)
    }
    plus = [model.side_of[k] for k in range(1, n_edges + 1)]
    chords = []
    for i, route in enumerate(routes):
        n = len(route)
        for p in range(n):
            q = (p + 1) % n
            entry = (model.partner[route[p]],) + where[(i, p)]
            exit_ = (route[q],) + where[(i, q)]
            chords.append((i, entry, exit_))
    # Chords {a, b} and {c, d} cross iff (a<c)^(a<d)^(b<c)^(b<d).  A term
    # with the two points on different sides is a constant; one on a shared
    # side is a constant ^ (rank lo < rank hi) for two events lo < hi of that
    # side's edge.  A chord pair's terms touch at most two edges; with x and
    # y the parities of its comparisons on each, its indicator is
    # flip ^ x ^ y = flip + sign * (x + y - 2xy), sign = 1 - 2 * flip.
    const = 0
    columns = [{} for _ in range(n_edges)]  # comparison set -> column
    linear = [[] for _ in range(n_edges)]  # coefficient of each column
    links = {}  # (k1, k2) -> {(column in k1, column in k2): coefficient}
    for w, (i1, a, b) in enumerate(chords):
        for i2, c, d in chords[w + 1 :]:
            if i1 == i2:
                continue
            flip = 0
            by_edge = {}
            for u in (a, b):
                for v in (c, d):
                    if u[0] != v[0]:
                        flip ^= u[0] < v[0]
                        continue
                    lo, hi = (u[2], v[2]) if u[0] == plus[u[1]] else (v[2], u[2])
                    if lo > hi:
                        lo, hi = hi, lo
                        flip ^= 1
                    by_edge.setdefault(u[1], set()).symmetric_difference_update(
                        {(lo, hi)}
                    )
            const += flip
            sign = 1 - 2 * flip
            cols = []
            for k, comparisons in sorted(by_edge.items()):
                if comparisons:
                    key = tuple(sorted(comparisons))
                    j = columns[k].setdefault(key, len(linear[k]))
                    if j == len(linear[k]):
                        linear[k].append(0)
                    linear[k][j] += sign
                    cols.append((k, j))
            if len(cols) == 2:
                (k1, j1), (k2, j2) = cols
                link = links.setdefault((k1, k2), {})
                link[j1, j2] = link.get((j1, j2), 0) - 2 * sign
    # One table per edge (and per linked edge pair) over the rank vectors
    # of that edge's events, broadcast into one array over all assignments.
    shape = [
        factorial(len(evs)) if columns[k] else 1 for k, evs in enumerate(edge_events)
    ]
    total = np.full(shape, const, dtype=np.int32)
    parity = []
    for k, evs in enumerate(edge_events):
        x = np.zeros((shape[k], len(linear[k])), dtype=np.int32)
        if columns[k]:
            m = len(evs)
            ranks = np.fromiter(
                chain.from_iterable(permutations(range(m))), np.int8, shape[k] * m
            ).reshape(shape[k], m)
            for comparisons, j in columns[k].items():
                for lo, hi in comparisons:
                    x[:, j] ^= ranks[:, lo] < ranks[:, hi]
            view = [1] * n_edges
            view[k] = shape[k]
            total += (x @ np.array(linear[k], dtype=np.int32)).reshape(view)
        parity.append(x)
    for (k1, k2), link in links.items():
        coefficients = np.zeros((len(linear[k1]), len(linear[k2])), dtype=np.int32)
        for (j1, j2), value in link.items():
            coefficients[j1, j2] = value
        view = [1] * n_edges
        view[k1], view[k2] = shape[k1], shape[k2]
        total += (parity[k1] @ coefficients @ parity[k2].T).reshape(view)
    return int(total.min())


def _pair_cross_refined(genus: int, wx, wy) -> int:
    """Certified minimum for two self-crossing classes: the move loop's best
    diagram, improved by the exact minimum over every slot assignment of
    every seed pair."""
    best = _pair_taut(genus, wx, wy).cross_strand_crossings()
    s = make_surface(genus)
    u = homology_class(s, wx).coords
    v = homology_class(s, wy).coords
    if best == abs(intersection_form(u, v)):
        return best
    model = polygon_model(genus)
    for rx in _route_seeds(genus, wx):
        for ry in _route_seeds(genus, wy):
            got = _cross_min_exhaustive(model, (rx, ry))
            if got is None:
                raise ReductionBudgetExceeded(
                    "pair position search space exceeds"
                    f" {PAIR_SEARCH_CAP} slot assignments"
                )
            if got < best:
                best = got
    return best


@lru_cache(maxsize=None)
def _pair_count(genus: int, wx, wy) -> int:
    simple = [w for w in (wx, wy) if _taut_single(genus, w)[1] == 0]
    if not simple:
        return _pair_cross_refined(genus, wx, wy)
    # deferred: splitting imports mapping, and mapping imports this module
    from .splitting import _SPLIT_SEARCH_CAP, splitting_count

    delta = min(simple, key=lambda w: (len(w), w))
    count = splitting_count(genus, delta, wy if delta == wx else wx)
    if count is not None:
        return count
    if len(simple) == 2:
        # the embedded-bigon certificate is conclusive for two simple curves
        return _pair_taut(genus, wx, wy).cross_strand_crossings()
    raise ReductionBudgetExceeded(
        f"no product of short twists carries a standard curve to"
        f" {format_word(delta)} within {_SPLIT_SEARCH_CAP} classes"
    )


def intersection_number(s: Surface, x: CurveClass, y: CurveClass) -> int:
    """Geometric intersection number of two classes."""
    _check_genus(s, x, y)
    wx, wy = sorted((x.word, y.word))
    return _pair_count(s.genus, wx, wy)


def check_disjoint_simple(s: Surface, classes) -> list:
    """Raise NotSimple unless the classes are simple and pairwise disjoint;
    return them sorted by (length, word)."""
    for cls in classes:
        if not is_simple(s, cls):
            raise NotSimple(f"{format_word(cls.word)} is not a simple class")
    ordered = sorted(classes, key=lambda c: (len(c.word), c.word))
    for i, x in enumerate(ordered):
        for y in ordered[i + 1 :]:
            n = intersection_number(s, x, y)
            if n != 0:
                raise NotSimple(
                    f"components {format_word(x.word)} and {format_word(y.word)}"
                    f" cross {n} times"
                )
    return ordered


def complement_report(s: Surface, x: CurveClass, y: CurveClass) -> ComplementReport:
    """Census of the complement of a taut union of two simple curves."""
    _check_genus(s, x, y)
    for c in (x, y):
        if not is_simple(s, c):
            raise NotSimple(f"{format_word(c.word)} is not a simple class")
    model = polygon_model(s.genus)
    d = _pair_diagram(s, x, y)
    report = complement_census(model, d)
    i = d.cross_strand_crossings()
    if i > 0 and report.face_count >= i:
        raise ModelInconsistency(
            f"disc count {report.face_count} not below crossing count {i}"
        )
    return report


def enumerate_classes(s: Surface, max_length: int):
    """All canonical classes with representative length <= max_length."""
    seen = set()
    out = []
    for w in reduced_words(s.genus, max_length):
        try:
            c = canonical_class(s, w)
        except TrivialClass:
            continue
        if c.word not in seen:
            seen.add(c.word)
            out.append(c)
    out.sort(key=lambda c: (len(c.word), c.word))
    return out


def enumerate_simple_classes(s: Surface, max_length: int):
    """All simple classes with canonical length <= max_length, sorted."""
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    return [c for c in enumerate_classes(s, max_length) if is_simple(s, c)]
