"""Public geometric operations: taut diagrams and intersection numbers.

A diagram built straight from the slot comparator is close to minimal but can
still contain bigons (the comparator orders strands as their developed rays
would sit, and a route produced from letter gadgets is not always developed
straight).  tauten therefore loops: certify, and on a bigon witness move one
arc across the disc, innermost first since witness arcs are crossing-free.
Two arcs that cross the same edges in step swap slots; otherwise the longer,
either on a tie, retracts onto the other.  Each move drops (total route
length, crossing count), compared in that order.

The embedded-bigon certificate is conclusive for simple curves, but a strand
with double points can need immersed monogons or bigons to witness its excess
(Hass & Scott, "Intersections of curves on surfaces", Israel J. Math. 51,
1985).  So each question runs one search:

- A class tries its route seeds, shortest first.  Its self count is bounded
  below by the Turaev cobracket d(x) = sum over self-crossings p of
  e_p (u_p (x) v_p - v_p (x) u_p), u_p and v_p the two loops at p (Turaev,
  "Skein quantization of Poisson algebras of loops on surfaces", Ann. Sci.
  ENS 24, 1991): a class invariant that a diagram with k crossings writes
  as 2k terms, so half its term count is a floor.  A seed whose built
  diagram is embedded or meets the floor is the answer as built; otherwise
  the seed is tautened, and the first tautened count that meets the floor
  is the answer.  A class that no seed brings down to its floor takes the
  best of them all.  That diagram is kept: realize returns it,
  self_intersection counts it, and the state sum of the class runs on it.
- A pair tests its members shortest first and is counted on the splitting of
  pi1 along the first simple one (see splitting).  On a splitting miss, two
  simple members read their pair diagram, one tautened pair of taut routes
  (complement_report checks that diagram against the count); one raises.
- Two self-crossing classes are bounded below by the Goldman bracket
  [x, y] = sum over crossings p of e_p <x ._p y> (Goldman, "Invariant
  functions on Lie groups and Hamiltonian flows of surface group
  representations", Invent. Math. 85, 1986).  It does not depend on the
  diagram, and a diagram with k cross-strand crossings writes it as k
  signed terms, so after cancellation it keeps at most i(x, y) of them
  (Chas, "Minimal intersection of curves on surfaces", Geom. Dedicata 144,
  2010).  Terms keyed by unoriented class can only merge further, so their
  count stays a lower bound.  A built seed-pair diagram whose count meets
  it is the answer; otherwise the exact minimum over every slot assignment
  of every seed pair is, stopping at a count that meets it.  The builds and
  searches of one pair spend one Budget, so a pair that outgrows it raises.

That minimum needs no enumeration.  The cross count of a slot assignment is
a constant, plus one term per edge read off that edge's slot order, plus
products of parities from two edges.  A subset DP per edge, over the order
in which its events take their slots, gives the edge's least term for each
value of the parities other edges read; the edges are then folded in one at
a time over those values.  Both steps are exact, spend the states they
visit, and need nothing beyond the standard library.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .complement import ComplementReport, certify_taut, complement_census
from .diagrams import Budget, CurveDiagram, build_diagram, build_with_slots
from .errors import (
    BadArgument,
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
    free_reduce,
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


def _same_edges(model, routes, arc_a, arc_b) -> bool:
    """True when the two arcs cross the same edges in step, arc_b read
    backwards when it runs opposite to arc_a."""
    edges_a, edges_b = (
        [abs(model.sides[s]) for s in arc.sides(routes[arc.strand])]
        for arc in (arc_a, arc_b)
    )
    if arc_b.x_from != arc_a.x_from:
        edges_b.reverse()
    return edges_a == edges_b


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
        ring = orders[abs(model.sides[routes[ev1[0]][ev1[1]]]) - 1]
        i1, i2 = ring.index(ev1), ring.index(ev2)
        if abs(i1 - i2) != 1:
            raise ModelInconsistency("bigon events not adjacent on their edge")
        ring[i1], ring[i2] = ring[i2], ring[i1]
        budget.spend()
    return build_with_slots(model, diagram.classes, routes, orders, budget)


def tauten_routes(genus: int, classes, routes, budget=None):
    """Comparator build plus innermost monogon/bigon elimination, certified.

    Arcs that cross the same edges in step, arc_b read backwards when it
    runs opposite, slide past each other (routes kept).  Otherwise the
    longer arc, arc_b on a tie, retracts across the disc onto the other and
    the diagram is rebuilt.  The measure (total route length, crossing
    count) drops on every move, so the loop terminates: a retract of a
    longer arc shortens its route, and a move between arcs of equal length
    must drop the crossing count or raise ModelInconsistency.
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
        before = diagram.crossing_count
        if _same_edges(model, diagram.routes, arc_a, arc_b):
            diagram = _swap_move(model, diagram, arc_a, arc_b, budget)
        else:
            mover, stay = (
                (arc_a, arc_b) if arc_a.n_events > arc_b.n_events else (arc_b, arc_a)
            )
            routes = _retract_arc(model, diagram.routes, mover, stay)
            diagram = build_diagram(model, classes, routes, budget)
        if arc_a.n_events == arc_b.n_events and diagram.crossing_count >= before:
            raise ModelInconsistency("bigon move failed to drop crossings")


@lru_cache(maxsize=None)
def _taut_single(genus: int, class_word) -> CurveDiagram:
    """Certified taut diagram of one class, kept for every later reader.

    The route seeds are tried shortest first, each built as _route_seeds
    gives it: the half-swap closure yields reduced routes.  A seed's built
    diagram is the answer when its count meets the cobracket floor
    (_cobracket_floor, taken once on the first built diagram; an embedded
    diagram's floor is 0): that count is minimal, so no bigon is left to
    remove.  Otherwise the seed is tautened, and a tautened count that meets
    the floor is the answer.  A count below the floor raises
    ModelInconsistency.  If no seed meets it, the fewest crossings over all
    seeds (then the shorter, then the smaller route) stand.
    """
    model = polygon_model(genus)
    classes = (CurveClass(genus, class_word),)
    budget = Budget()
    floor = best = None
    for seed in _route_seeds(genus, class_word):
        d = build_diagram(model, classes, (seed,), budget)
        if floor is None:
            floor = _cobracket_floor(model, d)
        if d.crossing_count > floor:
            d = tauten_routes(genus, classes, d.routes, budget)
        if d.crossing_count < floor:
            raise ModelInconsistency(
                f"{format_word(class_word)} crosses itself {d.crossing_count}"
                f" times, below its cobracket floor {floor}"
            )
        if d.crossing_count == floor:
            return d
        key = (d.crossing_count, len(d.routes[0]), d.routes[0])
        if best is None or key < best[0]:
            best = key, d
    return best[1]


def _check_genus(s: Surface, *items) -> None:
    """Raise GenusMismatch unless every item is on s, BadArgument if it has no
    .genus."""
    for x in items:
        try:
            genus = x.genus
        except AttributeError:  # checked off the cache-hit path
            raise BadArgument(f"expected a curvetrace object, not {x!r}") from None
        if genus != s.genus:
            name = type(x).__name__
            if isinstance(x, CurveClass):
                name = format_word(x.word)
            raise GenusMismatch(
                f"{name} has genus {genus}; the surface has genus {s.genus}"
            )


def realize(s: Surface, c: CurveClass) -> CurveDiagram:
    """Certified taut single-strand diagram of the class, built once and
    shared: self_intersection counts it and expand_trace sums over it."""
    _check_genus(s, c)
    return _taut_single(s.genus, c.word)


def tauten(d: CurveDiagram) -> CurveDiagram:
    """Remove monogons and bigons from the diagram by isotopy moves."""
    return tauten_routes(d.genus, d.classes, d.routes)


def self_intersection(s: Surface, c: CurveClass) -> int:
    """Minimal double-point count of a single representative.  Drawn as its
    n chords in the 4g-gon, a class of canonical length n crosses itself at
    most C(n, 2) times, so a count above that raises ModelInconsistency."""
    _check_genus(s, c)
    count = _taut_single(s.genus, c.word).crossing_count
    n = len(c.word)
    bound = n * (n - 1) // 2
    if count > bound:
        raise ModelInconsistency(
            f"{format_word(c.word)} crosses itself {count} times in its taut"
            f" diagram, over the bound C({n}, 2) = {bound}"
        )
    return count


def is_simple(s: Surface, c: CurveClass) -> bool:
    """True when the class has an embedded representative.  The count comes
    from an actual diagram, so 0 means one exists; an embedded essential
    curve is primitive, and a diagram of a proper power crosses itself."""
    _check_genus(s, c)
    return _taut_single(s.genus, c.word).crossing_count == 0


def _pair_diagram(s: Surface, x: CurveClass, y: CurveClass) -> CurveDiagram:
    """Taut diagram of two simple classes.  The embedded-bigon certificate is
    conclusive for simple curves, so one tauten of their taut routes is
    minimal."""
    routes = tuple(_taut_single(s.genus, c.word).routes[0] for c in (x, y))
    return tauten_routes(s.genus, (x, y), routes)


def _pair_taut(genus: int, wx, wy) -> CurveDiagram:
    s = make_surface(genus)
    return _pair_diagram(s, CurveClass(genus, wx), CurveClass(genus, wy))


def _cross_min_exhaustive(model, diagram, budget):
    """Minimum cross-strand count over every slot assignment of the routes
    of a built diagram.

    A slot assignment orders the events of each edge.  Whether two chords of
    different strands cross depends only on the order of their four
    endpoints: points on different sides compare by side, and two points on
    one side compare by the slot ranks of their events on that side's edge.
    At most two edges carry such a comparison for one chord pair, so the
    cross count is exactly a constant, plus a sum over each edge's columns
    (the parity of a set of its comparisons) times a coefficient, plus
    links: products of one column's parity on one edge and one on another.
    The diagram names each edge's events (slot_orders) and each chord's two
    endpoints (chord_points); its own slot order is just one assignment.

    Fix the parities of the linked columns, and what is left is a sum of one
    term per edge, each depending on that edge's order alone.  So the
    minimum over all assignments is the minimum, over every value of the
    linked parities, of the sum of each edge's least term given its values
    plus the links.  _edge_minima finds each edge's least terms exactly, by
    a subset DP over the order of its events; the fold below takes the
    minimum over the linked values edge by edge, dropping an edge's values
    once no later link reads them.  The DP visits the 2^m sets of an edge's
    m events, and both it and the fold spend the states they visit from the
    budget, which raises ReductionBudgetExceeded once they outgrow it.
    """
    n_edges = 2 * model.genus
    plus = [model.side_of[k] for k in range(1, n_edges + 1)]

    def point(side, rank):
        # (side, edge, index of its event on the edge): an event's index is
        # its slot rank on the edge's plus side, reversed on the minus side
        k = abs(model.sides[side]) - 1
        if side != plus[k]:
            rank = len(diagram.slot_orders[k]) - 1 - rank
        return side, k, rank

    chords = [
        [(point(*entry), point(*exit_)) for entry, exit_ in strand]
        for strand in diagram.chord_points
    ]
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
    for strand1, strand2 in combinations(chords, 2):
        for (a, b), (c, d) in product(strand1, strand2):
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
                    by_edge[u[1]] = by_edge.get(u[1], ()) + ((lo, hi),)
            const += flip
            sign = 1 - 2 * flip
            cols = []
            for k, met in sorted(by_edge.items()):
                # two terms comparing the same two events cancel
                key = tuple(sorted(c for c in met if met.count(c) == 1))
                if key:
                    j = columns[k].setdefault(key, len(linear[k]))
                    if j == len(linear[k]):
                        linear[k].append(0)
                    linear[k][j] += sign
                    cols.append((k, j))
            if len(cols) == 2:
                (k1, j1), (k2, j2) = cols
                link = links.setdefault((k1, k2), {})
                link[j1, j2] = link.get((j1, j2), 0) - 2 * sign
    # A link runs from a lower edge to a higher one, so an edge's linked
    # parities are dropped once the last edge they link to is folded in.
    linked = [0] * n_edges  # mask of the linked columns of each edge
    last = [-1] * n_edges  # highest edge a link from this edge reaches
    for (k1, k2), link in links.items():
        last[k1] = max(last[k1], k2)
        for j1, j2 in link:
            linked[k1] |= 1 << j1
            linked[k2] |= 1 << j2
    held = []  # the edges whose parities key the partial counts
    partial = {(): 0}
    for k, order in enumerate(diagram.slot_orders):
        minima = _edge_minima(len(order), columns[k], linear[k], linked[k], budget)
        if not linked[k]:
            const += minima[0]
            continue
        incoming = [
            (held.index(k1), link) for (k1, k2), link in links.items() if k2 == k
        ]
        keep = [i for i, e in enumerate(held) if last[e] > k]
        held = [held[i] for i in keep]
        budget.spend(len(partial) * len(minima))
        grown = {}
        for masks, cost in partial.items():
            rest = tuple(masks[i] for i in keep)
            for y, c in minima.items():
                for i, link in incoming:
                    for (j1, j2), value in link.items():
                        if masks[i] >> j1 & 1 and y >> j2 & 1:
                            c += value
                key = rest + (y,) if last[k] > k else rest
                c += cost
                if c < grown.get(key, c + 1):
                    grown[key] = c
        if last[k] > k:
            held.append(k)
        partial = grown
    return const + min(partial.values())


def _edge_minima(n_events, columns, linear, linked, budget) -> dict:
    """Minimum of one edge's column terms over the orders of its events, for
    each value of its linked columns' parities (a mask, bit j for column j).

    The events are placed in rank order, one at a time.  Placing an event
    decides each comparison (lo, hi) it takes part in whose other event is
    not yet placed: it holds iff the event is lo.  A column of one
    comparison that no link reads is scored then; every other column keeps
    its parity in the state.  What the unplaced events add depends only on
    the set placed, so the least cost per (set placed, parities) is exact.
    The 2^m sets are spent before they are allocated, and each transition
    spends the states it carries.
    """
    if not columns:
        return {0: 0}
    # lo -> [(hi bit, coefficient scored now, column bit flipped)]
    moves = [[] for _ in range(n_events)]
    kept = []  # columns scored on their final parity
    for comparisons, j in columns.items():
        if len(comparisons) == 1 and not linked >> j & 1:
            ((lo, hi),) = comparisons
            moves[lo].append((1 << hi, linear[j], 0))
            continue
        kept.append(j)
        for lo, hi in comparisons:
            moves[lo].append((1 << hi, 0, 1 << j))
    budget.spend(1 << n_events)
    layers = [{} for _ in range(1 << n_events)]
    layers[0][0] = 0
    for placed, states in enumerate(layers):
        for t, events in enumerate(moves):
            bit = 1 << t
            if placed & bit:
                continue
            budget.spend(len(states))
            cost = flip = 0
            for hi, c, b in events:
                if not placed & hi:
                    cost += c
                    flip ^= b
            following = layers[placed | bit]
            for parity, c in states.items():
                key = parity ^ flip
                c += cost
                if c < following.get(key, c + 1):
                    following[key] = c
    minima = {}
    for parity, c in layers[-1].items():
        c += sum(linear[j] for j in kept if parity >> j & 1)
        key = parity & linked
        if c < minima.get(key, c + 1):
            minima[key] = c
    return minima


def _crossing_loops(model, diagram, crossing) -> tuple:
    """(u, v, e) at a crossing of chord (i, p) with chord (j, q).

    Across two strands u and v are their whole loops, each read on from the
    crossing; on one strand (p < q) they are the two arcs it cuts the
    strand into, u from chord p on to chord q and v from q back round to p.
    The sign e is the side from which chord (j, q) enters chord (i, p): with
    a -> b chord (i, p) and c the entry of chord (j, q), all on the boundary
    circle in the sorted order that crossing detection uses, e is +1 when c
    lies on the arc from a on to b.
    """
    (i, p), (j, q) = crossing
    routes = diagram.routes
    if i == j:
        u = model.arc_word(routes[i], p + 1, q)
        v = model.arc_word(routes[i], q + 1, p)
    else:
        u = model.route_word(routes[i], p + 1)
        v = model.route_word(routes[j], q + 1)
    (a, b), (c, _) = diagram.chord_points[i][p], diagram.chord_points[j][q]
    # c is on the arc from a to b iff two of the three steps go up
    return u, v, 1 if (a < c) + (c < b) + (b < a) == 2 else -1


def _bracket_floor(model, diagram) -> int:
    """Number of terms of the Goldman bracket of the diagram's two strands,
    keyed by unoriented class: at most their intersection number.

    A cross-strand crossing adds the term e <u v> (_crossing_loops).  The
    count is the sum of the absolute coefficients; merging the terms of two
    orientations of a class cannot raise it.
    """
    s = make_surface(model.genus)
    coefficients = {}
    for crossing in diagram.crossings:
        if crossing[0][0] == crossing[1][0]:
            continue
        u, v, sign = _crossing_loops(model, diagram, crossing)
        try:
            key = canonical_class(s, free_reduce(u + v)).word
        except TrivialClass:
            key = None
        coefficients[key] = coefficients.get(key, 0) + sign
    return sum(map(abs, coefficients.values()))


def _cobracket_floor(model, diagram) -> int:
    """Half the number of terms of the Turaev cobracket of a one-strand
    diagram, keyed by unoriented class: at most its self count.

    A self-crossing adds e (u (x) v - v (x) u) (_crossing_loops), and one
    with a trivial loop adds nothing (Turaev, "Skein quantization of Poisson
    algebras of loops on surfaces", Ann. Sci. ENS 24, 1991).  The cobracket
    is a class invariant that a diagram with k crossings writes as 2k signed
    terms, so half the sum of the absolute coefficients is at most the self
    count of every diagram of the class; merging orientations cannot raise
    it.
    """
    s = make_surface(model.genus)
    coefficients = {}
    for crossing in diagram.crossings:
        u, v, sign = _crossing_loops(model, diagram, crossing)
        try:
            u, v = canonical_class(s, u).word, canonical_class(s, v).word
        except TrivialClass:
            continue
        coefficients[u, v] = coefficients.get((u, v), 0) + sign
        coefficients[v, u] = coefficients.get((v, u), 0) - sign
    return sum(map(abs, coefficients.values())) // 2


def _pair_cross_refined(genus: int, wx, wy) -> int:
    """Certified minimum for two self-crossing classes.

    The floor is the Goldman bracket's term count on the first seed pair's
    built diagram (_bracket_floor; Goldman, Invent. Math. 85, 1986).  The
    bracket is a class invariant that a diagram writes as one signed term
    per crossing, so after cancellation it has at most i(x, y) terms, and
    keying terms by unoriented class only merges them.  The first seed pair
    whose built count meets the floor is the answer, with no search.
    Otherwise the answer is the least exact minimum over every slot
    assignment of every built seed pair, and a search that meets the floor
    stops there.  All of it spends one Budget.
    """
    model = polygon_model(genus)
    budget = Budget()
    built, floor = [], None
    for routes in product(_route_seeds(genus, wx), _route_seeds(genus, wy)):
        diagram = build_diagram(model, (), routes, budget)
        if floor is None:
            floor = _bracket_floor(model, diagram)
        if diagram.cross_strand_crossings() == floor:
            return floor
        built.append(diagram)
    counts = []
    for diagram in built:
        counts.append(_cross_min_exhaustive(model, diagram, budget))
        if counts[-1] == floor:
            return floor
    return min(counts)


@lru_cache(maxsize=None)
def _pair_count(genus: int, wx, wy) -> int:
    # deferred: splitting imports mapping, and mapping imports this module
    from .splitting import _SPLIT_SEARCH_CAP, splitting_count

    short, long_ = sorted((wx, wy), key=lambda w: (len(w), w))
    for delta, other in ((short, long_), (long_, short)):
        if _taut_single(genus, delta).crossing_count == 0:
            break
    else:
        return _pair_cross_refined(genus, wx, wy)
    count = splitting_count(genus, delta, other)
    if count is not None:
        return count
    if _taut_single(genus, other).crossing_count == 0:
        return _pair_taut(genus, wx, wy).cross_strand_crossings()
    raise ReductionBudgetExceeded(
        f"no product of short twists carries a standard curve to"
        f" {format_word(delta)} within {_SPLIT_SEARCH_CAP} classes"
    )


def intersection_number(s: Surface, x: CurveClass, y: CurveClass) -> int:
    """Geometric intersection number of two classes.  Chords of canonical
    lengths n and m cross at most n*m times, so a count above that raises
    ModelInconsistency."""
    _check_genus(s, x, y)
    wx, wy = sorted((x.word, y.word))
    count = _pair_count(s.genus, wx, wy)
    bound = len(wx) * len(wy)
    if count > bound:
        raise ModelInconsistency(
            f"{format_word(wx)} and {format_word(wy)} cross {count} times,"
            f" over the bound {len(wx)}*{len(wy)} = {bound}"
        )
    return count


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
    i = d.cross_strand_crossings()
    n = intersection_number(s, x, y)
    if i != n:
        raise ModelInconsistency(
            f"{format_word(x.word)} and {format_word(y.word)} cross {i} times"
            f" in their diagram, but their count is {n}"
        )
    report = complement_census(model, d)
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
