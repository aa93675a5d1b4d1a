"""Arrangement of a diagram inside the polygon: certificates and faces.

The order of crossings along each chord is all the complement census and the
strand arcs take from an arrangement, and the census reads the rotation at
each node off the boundary order.  Two chords of a circle meet inside it
exactly when their endpoints interleave, and diagram.crossings holds exactly
the interleaved pairs.  If chords CD and EF both cross chord AB but not each
other, C and E lie on one arc that AB cuts off and D and F on the other, and
CD, not crossing EF, separates A from E and F: the chord whose end lies
nearer A along either arc meets AB nearer A.  That order is forced by the
boundary, so every convex placement, the exact one below included, has it.
Only where a chord is crossed by two chords that cross each other (a
triangle of three pairwise crossing chords) does the order depend on where
the triangle lies; a diagram with a triangle is placed exactly, and every
other diagram reads its orders off the boundary with no coordinates.

Placement is in integer homogeneous coordinates.  The boundary point with
parameter t = p/q is (q^2-p^2, 2pq, q^2+p^2), the circle point
((1-t^2)/(1+t^2), 2t/(1+t^2)) with weight W > 0, and t grows along the
boundary.  A chord is the line through its endpoints.  Where chord CD meets
chord AB, with nX = line_CD . X, the meet is |nB| A + |nA| B, at parameter
nA W_B / (nA W_B - nB W_A) along AB (nA and nB have opposite signs, as
crossings are interleaved chord pairs).  Parameters on a chord are compared
by cross-multiplying.

A point on three chords puts two crossings at one parameter on each, and two
crossings at one parameter on a chord are one point: equal parameters on a
chord are exactly the triple points.  Those cannot be told apart from
transverse pictures combinatorially, so the boundary parameters are
re-jittered deterministically until no chord has two equal parameters; a
line meets the circle at most twice, so no other degeneracy can occur.  The
three chords through a triple point cross pairwise, so the jitter can only
fire on a diagram with a triangle, the only diagrams placed.

The taut certificate is word-level.  An arc of a strand between two
consecutive crossings along it is crossing-free, so a candidate bigon (two
crossing-free arcs joining the same two double points) bounds an embedded
empty disc as soon as its boundary loop is null-homotopic, and a monogon is a
crossing-free loop at one double point with trivial holonomy.  A diagram with
no monogons and no bigons realizes minimal position.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, cmp_to_key

from .errors import ModelInconsistency
from .polygon import PolygonModel
from .words import dehn_reduce, inverse_word

_MAX_JITTER_RETRIES = 8


# -- exact geometry -----------------------------------------------------------


def _line(a, b):
    x, y, w = a
    return (y * b[2] - w * b[1], w * b[0] - x * b[2], x * b[1] - y * b[0])


def _dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _compare_parameters(u, v) -> int:
    return u[0] * v[1] - v[0] * u[1]


_BY_PARAMETER = cmp_to_key(_compare_parameters)


def _has_triangle(crossings) -> bool:
    """Whether some chord is crossed by two chords that cross each other:
    three pairwise interleaved chords, the only chords a point can share."""
    partners = {}
    for c, d in crossings:
        partners.setdefault(c, set()).add(d)
        partners.setdefault(d, set()).add(c)
    return any(not partners[c].isdisjoint(partners[d]) for c, d in crossings)


class Geometry:
    """Crossings in order along each chord, read off the boundary where that
    order is forced, else from an exact placement; the boundary points and
    chords are built on first use, by the placement or the census."""

    def __init__(self, model: PolygonModel, diagram):
        self.model = model
        self.diagram = diagram
        counts = [0] * model.n_sides
        for k in range(1, 2 * model.genus + 1):
            m = len(diagram.slot_orders[k - 1])
            counts[model.side_of[k]] = m
            counts[model.side_of[-k]] = m
        self.side_counts = counts
        # exact when a triangle leaves some order to the coordinates
        self.exact = _has_triangle(diagram.crossings)
        if self.exact:
            self.retry, self.on_chord = self.placed_orders()
        else:
            self.retry, self.on_chord = 0, self.boundary_orders()

    @cached_property
    def sequence(self) -> list:
        """The boundary points in cyclic ccw order, each side's after its
        start corner."""
        sequence = []
        for s, m in enumerate(self.side_counts):
            sequence.append(("corner", s))
            sequence += [(s, rank) for rank in range(m)]
        return sequence

    @cached_property
    def chord_ends(self) -> dict:
        return {
            (i, p): ends for i, strand in enumerate(self.diagram.chord_points)
            for p, ends in enumerate(strand)
        }

    @cached_property
    def chord_ids(self) -> list:
        return sorted(self.chord_ends)

    def boundary_orders(self) -> dict:
        """Crossings along each chord AB by the position, counted
        counterclockwise from A, of the crossing chord's end on the arc
        from A to B: the order of every convex placement when no two of
        them cross each other."""
        first, period = [], 0  # sequence position of each side's rank 0
        for m in self.side_counts:
            first.append(period + 1)
            period += m + 1
        chord_points = self.diagram.chord_points
        ends = {}
        for cid in set().union(*self.diagram.crossings):
            (s, r), (t, q) = chord_points[cid[0]][cid[1]]
            ends[cid] = (first[s] + r, first[t] + q)
        keyed = {cid: [] for cid in ends}
        for crossing in self.diagram.crossings:
            for own, other in (crossing, crossing[::-1]):
                a = ends[own][0]
                # one end of the other chord lies on each arc of this one
                key = min((e - a) % period for e in ends[other])
                keyed[own].append((key, crossing))
        return {
            (i, p): [crossing for _, crossing in sorted(keyed.get((i, p), ()))]
            for i, strand in enumerate(chord_points) for p in range(len(strand))
        }

    def placed_orders(self) -> tuple:
        """(retry, crossings along each chord) of the exact placement, its
        boundary parameters jittered until no chord has two equal ones."""
        for retry in range(_MAX_JITTER_RETRIES):
            on_chord = self._place(retry)
            if on_chord is not None:
                return retry, on_chord
        raise ModelInconsistency("could not reach generic position")

    def _place(self, retry: int):
        sequence = self.sequence
        big = 1009 * len(sequence) * len(sequence)
        q = 2 * big
        coord = {}
        for n, key in enumerate(sequence):
            # t = p/q = (2n - (len - 1))/2 + retry n^2/big
            p = (2 * n - (len(sequence) - 1)) * big + 2 * retry * n * n
            coord[key] = (q * q - p * p, 2 * p * q, q * q + p * p)

        def ends(cid):
            return tuple(coord[key] for key in self.chord_ends[cid])

        crossings = self.diagram.crossings
        lines = {cid: _line(*ends(cid)) for cid in set().union(*crossings)}
        params = {cid: [] for cid in self.chord_ids}
        for crossing in crossings:
            for own, other in (crossing, crossing[::-1]):
                a, b = ends(own)
                na, nb = _dot(lines[other], a), _dot(lines[other], b)
                if na * nb >= 0:
                    raise ModelInconsistency("crossing fell outside its chords")
                num = abs(na) * b[2]
                params[own].append((num, num + abs(nb) * a[2], crossing))
        on_chord = {}
        for cid, entries in params.items():
            entries.sort(key=_BY_PARAMETER)
            for u, v in zip(entries, entries[1:]):
                if _compare_parameters(u, v) == 0:
                    return None  # triple point; jitter and retry
            on_chord[cid] = [crossing for _, _, crossing in entries]
        return on_chord


# -- taut certificate ---------------------------------------------------------


def _arc_events(route_len: int, p_from: int, p_to: int, wraps: bool) -> int:
    span = (p_to - p_from) % route_len
    if wraps and span == 0:
        return route_len
    return span


@dataclass(frozen=True)
class Arc:
    """Crossing-free piece of a strand between consecutive double points."""

    strand: int
    chord_from: int   # route position of the chord carrying the start point
    n_events: int     # edge crossings strictly inside the arc
    x_from: tuple     # crossing id at the start
    x_to: tuple       # crossing id at the end

    def sides(self, route):
        n = len(route)
        return tuple(
            route[(self.chord_from + 1 + t) % n] for t in range(self.n_events)
        )


def strand_arcs(model: PolygonModel, diagram):
    """Yield (word read, Arc) for the arcs between double points, strand by
    strand and in order along each; a strand without crossings has none."""
    if not diagram.crossings:
        return
    geo = diagram.geometry
    for i, route in enumerate(diagram.routes):
        # the strand's cyclic crossing sequence with chord positions
        itin = [(p, x) for p in range(len(route)) for x in geo.on_chord[(i, p)]]
        m = len(itin)
        for k in range(m):
            p1, x = itin[k]
            p2, y = itin[(k + 1) % m]
            arc = Arc(i, p1, _arc_events(len(route), p1, p2, k + 1 == m), x, y)
            yield model.exits_word(arc.sides(route)), arc


def certify_taut(model: PolygonModel, diagram):
    """Return None if no monogon or bigon exists, else a witness.

    A monogon witness is ("monogon", arc); a bigon witness is
    ("bigon", arc_a, arc_b) where both arcs join the same two double points
    (arc_b possibly running opposite to arc_a).
    """
    arcs = {}  # (x_from, x_to) -> list of (word, Arc)
    for word, arc in strand_arcs(model, diagram):
        x, y = arc.x_from, arc.x_to
        if x == y:
            if not dehn_reduce(model.genus, word):
                return ("monogon", arc)
        else:
            inv = inverse_word(word)
            for prev_word, prev_arc in arcs.get((x, y), ()):
                if not dehn_reduce(model.genus, prev_word + inv):
                    return ("bigon", arc, prev_arc)
            for prev_word, prev_arc in arcs.get((y, x), ()):
                if not dehn_reduce(model.genus, prev_word + word):
                    return ("bigon", arc, prev_arc)
            arcs.setdefault((x, y), []).append((word, arc))
    return None


# -- complement faces ----------------------------------------------------------


@dataclass(frozen=True)
class ComplementReport:
    """Census of the complement of the strands in the surface."""

    crossing_count: int
    euler_total: int
    face_count: int          # simply connected components
    corner_counts: tuple     # per polygonal face, sorted descending
    region_eulers: tuple     # per component, sorted

    def __str__(self):
        corners = ",".join(str(c) for c in self.corner_counts) or "-"
        return (
            f"crossings={self.crossing_count} euler={self.euler_total} "
            f"faces={self.face_count} corners={corners}"
        )


class _Faces:
    def __init__(self, geo: Geometry):
        self.geo = geo
        self._build_graph()
        self._trace()

    def _build_graph(self):
        geo = self.geo
        seq = geo.sequence
        at = {key: n for n, key in enumerate(seq)}
        self.edges = []  # (node u, node v, tag)
        # Per edge, the boundary point each end heads for, as a doubled
        # sequence position: a chord piece heads for the far end of its chord
        # and a boundary arc for its own midpoint.  Seen from any point of
        # the disc these lie in boundary order, which gives the rotation.
        self.heads = []
        # boundary arcs, tagged with (side, piece index)
        piece = {}
        for n, key in enumerate(seq):
            nxt = seq[(n + 1) % len(seq)]
            side = key[1] if key[0] == "corner" else key[0]
            idx = piece.get(side, 0)
            piece[side] = idx + 1
            self.edges.append((("b", key), ("b", nxt), ("arc", side, idx)))
            self.heads.append((2 * n + 1, 2 * n + 1))
        # chord segments
        for cid in geo.chord_ids:
            a, b = geo.chord_ends[cid]
            chain = [("b", a)]
            chain += [("x", c) for c in geo.on_chord[cid]]
            chain.append(("b", b))
            for u, v in zip(chain, chain[1:]):
                self.edges.append((u, v, ("chord", cid)))
                self.heads.append((2 * at[b], 2 * at[a]))
        self.at = at

    def _trace(self):
        outgoing = {}
        for eid, (u, v, _tag) in enumerate(self.edges):
            outgoing.setdefault(u, []).append((eid, 1))
            outgoing.setdefault(v, []).append((eid, -1))

        period = 2 * len(self.geo.sequence)
        index_at = {}
        for node, halves in outgoing.items():
            own = 2 * self.at[node[1]] if node[0] == "b" else 0
            halves.sort(
                key=lambda h: (self.heads[h[0]][h[1] < 0] - own) % period
            )
            for idx, h in enumerate(halves):
                index_at[(node, h)] = idx

        face_of = {}
        faces = []
        for eid in range(len(self.edges)):
            for sgn in (1, -1):
                start = (eid, sgn)
                if start in face_of:
                    continue
                cycle = []
                h = start
                while h not in face_of:
                    face_of[h] = len(faces)
                    cycle.append(h)
                    node = self.head(h)
                    rev = (h[0], -h[1])
                    idx = index_at[(node, rev)]
                    ring = outgoing[node]
                    h = ring[(idx - 1) % len(ring)]
                if h != start:
                    raise ModelInconsistency("face tracing did not close up")
                faces.append(tuple(cycle))
        self.faces = faces
        self.face_of = face_of

        # Faces run counterclockwise with their inside on the left, and the
        # boundary arcs run counterclockwise around the disc, so the outer
        # face is the boundary traversed backwards (the first edge is an arc).
        self.outer = face_of[(0, -1)]
        backwards = {(eid, -1) for eid, e in enumerate(self.edges) if e[2][0] == "arc"}
        if set(faces[self.outer]) != backwards:
            raise ModelInconsistency("outer face is not the polygon boundary")

    def head(self, half):
        """The node a half-edge (edge id, +1 along the edge or -1 against)
        points at; its tail is the head of (edge id, -sign)."""
        eid, sgn = half
        return self.edges[eid][1 if sgn == 1 else 0]


def complement_census(model: PolygonModel, diagram) -> ComplementReport:
    geo = diagram.geometry
    tracer = _Faces(geo)
    faces = tracer.faces
    face_of = tracer.face_of

    # the inner face along each boundary arc, keyed by (side, piece)
    arc_face = {}
    for eid, (u, v, tag) in enumerate(tracer.edges):
        if tag[0] != "arc":
            continue
        arc_face[(tag[1], tag[2])] = face_of[(eid, 1)]

    parent = list(range(len(faces)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    glue_pairs = []
    for s in range(model.n_sides):
        p = model.partner[s]
        if s > p:
            continue
        m = geo.side_counts[s]
        if geo.side_counts[p] != m:
            raise ModelInconsistency("glued sides with unequal point counts")
        for u in range(m + 1):
            fa = arc_face[(s, u)]
            fb = arc_face[(p, m - u)]
            union(fa, fb)
            glue_pairs.append((fa, fb))

    # the arcs at the polygon's corners: the first and last piece of a side
    corner_faces = {
        find(arc_face[(s, u)])
        for s in range(model.n_sides) for u in (0, geo.side_counts[s])
    }
    if len(corner_faces) != 1:
        raise ModelInconsistency("polygon vertex split across regions")
    vertex_region = corner_faces.pop()

    region_faces = {}
    for fid in range(len(faces)):
        if fid == tracer.outer:
            continue
        region_faces.setdefault(find(fid), []).append(fid)
    region_pairs = {r: 0 for r in region_faces}
    for fa, _fb in glue_pairs:
        region_pairs[find(fa)] += 1

    face_corners = {}
    for fid, cycle in enumerate(tracer.faces):
        face_corners[fid] = sum(
            1 for h in cycle if tracer.head((h[0], -h[1]))[0] == "x"
        )

    eulers = {}
    corners = {}
    for r, members in region_faces.items():
        chi = len(members) - region_pairs[r]
        if r == find(vertex_region):
            chi += 1
        eulers[r] = chi
        corners[r] = sum(face_corners[f] for f in members)

    crossing_count = diagram.crossing_count
    euler_total = sum(eulers.values())
    expected = 2 - 2 * model.genus + crossing_count
    if euler_total != expected:
        raise ModelInconsistency(
            f"complement euler {euler_total}, expected {expected}"
        )
    discs = [r for r in eulers if eulers[r] == 1]
    corner_counts = tuple(sorted((corners[r] for r in discs), reverse=True))
    return ComplementReport(
        crossing_count=crossing_count,
        euler_total=euler_total,
        face_count=len(discs),
        corner_counts=corner_counts,
        region_eulers=tuple(sorted(eulers.values())),
    )
