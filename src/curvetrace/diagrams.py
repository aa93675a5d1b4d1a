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
"""
from __future__ import annotations

from functools import cached_property

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


def _ray_exits(model: PolygonModel, route, pos: int, forward: bool):
    n = len(route)
    t = 1
    while True:
        if forward:
            yield route[(pos + t) % n]
        else:
            yield model.partner[route[(pos - t) % n]]
        t += 1


def _ray_verdict(model, routes, ev_x, ev_y, anchor, budget) -> int:
    """+1 if ev_x sits at larger parameter along the anchor side of its own
    tile, -1 for smaller, 0 when the rays agree past the periodicity cap."""
    rx, ry = routes[ev_x[0]], routes[ev_y[0]]
    fx = rx[ev_x[1]] != anchor
    fy = ry[ev_y[1]] != anchor
    gx = _ray_exits(model, rx, ev_x[1], fx)
    gy = _ray_exits(model, ry, ev_y[1], fy)
    iota = anchor
    n4 = model.n_sides
    for _ in range(len(rx) + len(ry) + 4):
        budget.spend()
        ex = next(gx)
        ey = next(gy)
        if ex != ey:
            theta_x = (ex - iota) % n4
            theta_y = (ey - iota) % n4
            return 1 if theta_x < theta_y else -1
        iota = model.partner[ex]
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
    genus = model.genus
    slot_of = {}
    for k in range(1, 2 * genus + 1):
        for t, ev in enumerate(slot_orders[k - 1]):
            slot_of[ev] = (k, t)

    def exit_entry(ev):
        side = routes[ev[0]][ev[1]]
        k, t = slot_of[ev]
        m = len(slot_orders[k - 1])
        s_plus = model.side_of[k]
        s_minus = model.side_of[-k]
        if side == s_plus:
            return (s_plus, t), (s_minus, m - 1 - t)
        return (s_minus, m - 1 - t), (s_plus, t)

    chord_points = []
    for i, route in enumerate(routes):
        n = len(route)
        strand_points = []
        for p in range(n):
            _, entry_pt = exit_entry((i, p))
            exit_pt, _ = exit_entry((i, (p + 1) % n))
            strand_points.append((entry_pt, exit_pt))
        chord_points.append(tuple(strand_points))

    flat = [
        pt for strand in chord_points for pts in strand for pt in pts
    ]
    circle = sorted(flat)
    index = {pt: n for n, pt in enumerate(circle)}
    if len(index) != len(circle):
        raise ModelInconsistency("duplicate boundary point in diagram")
    # One sweep round the circle: a chord closing crosses exactly the chords
    # opened after it and still open.  The budget is charged one operation
    # per chord pair, as a pairwise test would spend.
    n_chords = len(circle) // 2
    budget.spend(n_chords * (n_chords - 1) // 2)
    chord_at = [None] * len(circle)
    for i, strand in enumerate(chord_points):
        for p, (a, b) in enumerate(strand):
            chord_at[index[a]] = chord_at[index[b]] = (i, p)
    crossings = set()
    opened = []
    for c in chord_at:
        if c not in opened:
            opened.append(c)
            continue
        at = opened.index(c)
        crossings.update((min(c, d), max(c, d)) for d in opened[at + 1:])
        del opened[at]
    return CurveDiagram(
        genus=genus,
        classes=tuple(classes),
        routes=tuple(routes),
        slot_orders=slot_orders,
        chord_points=tuple(chord_points),
        crossings=frozenset(crossings),
    )


