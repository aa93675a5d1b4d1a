"""Curve diagrams: transverse position of routes on the glued polygon.

A diagram places one strand per route.  All strands crossing a glued edge are
ordered along it (their slots); each strand segment between consecutive edge
points is a chord of the polygon, and crossings are exactly the interleaved
chord pairs.  Slot orders come from a comparator that develops both strands
away from the shared edge through the tiling and breaks the tie at the first
side where they part: inside a tile, of two disjoint arcs entering through the
same side, the one leaving through the nearer side counterclockwise sits at
the larger boundary parameter, and relative order along a common corridor is
preserved from tile to tile (it reverses once at the far side of the tile and
once again across the gluing).  Strands that never part are parallel and are
packed by a fixed positional rule, which cannot create crossings among them.

Assembly places each event's two boundary points once, one on each side of
its edge, at their positions round the boundary circle: a side's points come
after those of the sides before it, so the point of rank r on side s sits at
first[s] + r.  One sweep round the circle then finds every interleaved chord
pair.
"""
from __future__ import annotations

from functools import cached_property
from itertools import accumulate

from .complement import Geometry
from .errors import ModelInconsistency, ReductionBudgetExceeded
from .polygon import PolygonModel, polygon_model
from .words import _record

DEFAULT_BUDGET = 10**6

Event = tuple  # (strand index, route position)


class Budget:
    """Operation counter shared across one public call."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise ReductionBudgetExceeded(
                f"reduction budget of {self.limit} operations exhausted"
            )


class CurveDiagram(
    _record("CurveDiagram", "genus classes routes slot_orders chord_points crossings")
):
    """Strands in transverse position on the glued polygon.

    slot_orders[k-1] lists the events on the edge of generator k in
    increasing boundary parameter.  chord_points[i][p] gives strand i's
    chord after its p-th edge point as a ((side, rank), (side, rank)) pair.
    crossings, a frozenset, holds interleaved chord pairs as sorted
    ((i, p), (j, q)).
    """

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def cross_strand_crossings(self) -> int:
        return sum(1 for (a, b) in self.crossings if a[0] != b[0])

    @cached_property
    def geometry(self) -> Geometry:
        """The crossings in order along each chord (see complement), built
        on first use and kept with the diagram, so certifying it and reading
        its arcs order them once."""
        return Geometry(polygon_model(self.genus), self)

    def dump(self) -> str:
        """One line per strand: its chords as edge:slot->edge:slot."""
        slot_of = {
            ev: f"{k}:{t}"
            for k, order in enumerate(self.slot_orders, 1)
            for t, ev in enumerate(order)
        }
        return "\n".join(
            " ".join(
                f"{slot_of[i, p]}->{slot_of[i, (p + 1) % len(route)]}"
                for p in range(len(route))
            )
            for i, route in enumerate(self.routes)
        )


# -- comparator --------------------------------------------------------------


def _ray_verdict(model, routes, ev_x, ev_y, anchor, budget) -> int:
    """+1 if ev_x sits at larger parameter along the anchor side of its own
    tile, -1 for smaller, 0 when the rays agree past the periodicity cap.
    A ray leaving through the anchor side reads its route's exits backward,
    each as the partner side it came in by; any other reads them forward."""
    (i, px), (j, py) = ev_x, ev_y
    rx, ry = routes[i], routes[j]
    nx, ny = len(rx), len(ry)
    fx = rx[px] != anchor
    fy = ry[py] != anchor
    partner = model.partner
    iota = anchor
    n4 = model.n_sides
    for t in range(1, nx + ny + 5):
        budget.spend()
        ex = rx[(px + t) % nx] if fx else partner[rx[(px - t) % nx]]
        ey = ry[(py + t) % ny] if fy else partner[ry[(py - t) % ny]]
        if ex != ey:
            return 1 if (ex - iota) % n4 < (ey - iota) % n4 else -1
        iota = partner[ex]
    return 0


def _compare_on_edge(model, routes, k, ev_x, ev_y, budget) -> int:
    """-1 when ev_x comes before ev_y in the canonical edge parameter."""
    s_plus = model.side_of[k]
    v = _ray_verdict(model, routes, ev_x, ev_y, s_plus, budget)
    if v:
        return v  # larger parameter along s_plus sorts later
    # A tie means the two rays' exits agreed for both route lengths plus 4
    # steps.  Each exit sequence is periodic with its route's length, so by
    # Fine and Wilf they are equal as two-sided sequences, and the rays into
    # the s_minus tile, which read them the other way, would tie too.
    exit_x = routes[ev_x[0]][ev_x[1]]
    exit_y = routes[ev_y[0]][ev_y[1]]
    if exit_x != exit_y:
        raise ModelInconsistency(
            "parallel strands crossing an edge in opposite directions"
        )
    # full tie: pack parallel events; order must reverse with crossing
    # direction so corridor order transports consistently
    if exit_x == s_plus:
        return -1 if ev_x > ev_y else 1
    return -1 if ev_x < ev_y else 1


def _sorted_slots(model, routes, k, events, budget):
    order = []
    for ev in events:
        lo, hi = 0, len(order)
        while lo < hi:
            mid = (lo + hi) // 2
            if _compare_on_edge(model, routes, k, ev, order[mid], budget) < 0:
                hi = mid
            else:
                lo = mid + 1
        order.insert(lo, ev)
    return tuple(order)


# -- diagram construction -----------------------------------------------------


def build_diagram(model: PolygonModel, classes, routes, budget=None) -> CurveDiagram:
    if budget is None:
        budget = Budget()
    for r in routes:
        if not r:
            raise ModelInconsistency("empty route in diagram")
    edge_events = {k: [] for k in range(1, 2 * model.genus + 1)}
    for i, route in enumerate(routes):
        for p, side in enumerate(route):
            edge_events[abs(model.sides[side])].append((i, p))
    slot_orders = tuple(
        _sorted_slots(model, routes, k, edge_events[k], budget)
        for k in range(1, 2 * model.genus + 1)
    )
    return _assemble(model, classes, routes, slot_orders, budget)


def build_with_slots(model, classes, routes, slot_orders, budget=None) -> CurveDiagram:
    """Assemble a diagram from explicitly given slot orders."""
    if budget is None:
        budget = Budget()
    return _assemble(model, classes, tuple(routes), tuple(slot_orders), budget)


def _assemble(model, classes, routes, slot_orders, budget) -> CurveDiagram:
    side_of = model.side_of
    counts = [0] * model.n_sides
    for k, order in enumerate(slot_orders, 1):
        counts[side_of[k]] = counts[side_of[-k]] = len(order)
    if sum(counts) != 2 * sum(map(len, routes)):
        raise ModelInconsistency("slot orders do not list each event once")
    # each event's exit and entry point, the one on the side it leaves by
    # and the one on the partner side it comes in by
    exits = [[None] * len(route) for route in routes]
    entries = [[None] * len(route) for route in routes]
    for k, order in enumerate(slot_orders, 1):
        s_plus, s_minus = side_of[k], side_of[-k]
        m = len(order)
        for t, (i, p) in enumerate(order):
            if exits[i][p] is not None:
                raise ModelInconsistency("slot orders do not list each event once")
            if routes[i][p] == s_plus:
                exits[i][p], entries[i][p] = (s_plus, t), (s_minus, m - 1 - t)
            else:
                exits[i][p], entries[i][p] = (s_minus, m - 1 - t), (s_plus, t)
    # the circle lists each side's points after those of the sides before it
    first = list(accumulate(counts, initial=0))
    chord_at = [None] * first[-1]
    closes = [False] * first[-1]
    chord_points = []
    for i, exit_points in enumerate(exits):
        strand = tuple(zip(entries[i], exit_points[1:] + exit_points[:1]))
        chord_points.append(strand)
        for p, ((s, r), (u, q)) in enumerate(strand):
            a, b = first[s] + r, first[u] + q
            chord_at[a] = chord_at[b] = (i, p)
            closes[max(a, b)] = True
    # One sweep round the circle: a chord closing crosses exactly the chords
    # opened after it and still open.  The budget is charged one operation
    # per chord pair, as a pairwise test would spend.
    n_chords = len(chord_at) // 2
    budget.spend(n_chords * (n_chords - 1) // 2)
    crossings = set()
    opened = []
    for c, close in zip(chord_at, closes):
        if not close:
            opened.append(c)
            continue
        at = opened.index(c)
        for d in opened[at + 1 :]:
            crossings.add((c, d) if c < d else (d, c))
        del opened[at]
    return CurveDiagram(
        genus=model.genus,
        classes=tuple(classes),
        routes=tuple(routes),
        slot_orders=slot_orders,
        chord_points=tuple(chord_points),
        crossings=frozenset(crossings),
    )
