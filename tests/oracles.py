"""Independent brute-force checks used to freeze expected test values.

The production comparator orders edge crossings by developing strands through
the tiling.  The oracle here ignores it entirely: it enumerates every slot
permutation on every edge (capped), counts interleaved chord pairs from
scratch, and minimizes.  Agreement pins both the comparator and the counting
code.

reference_placement keeps the rational placement rule the integer placement
in curvetrace.complement must reproduce: Fraction circle points, segment
meets and the same jitter schedule.

reference_route_seeds keeps the spelling-by-spelling seed construction that
curvetrace.curves._route_seeds must reproduce: every oriented spelling, every
junction choice at an exact half turn, and the side-based route reduction
(partner cancellation, long vertex runs replaced by their complements), closed
under exact-half run flips.

reference_spellings keeps the sequential annulus chase that the ladder
enumeration in curvetrace.words must reproduce: half swaps, then, on words
of at least 2(2g-1) letters, one relator-cell move at a time from where the
previous one left off, until the word is back to its length.

reference_taut_single and reference_pair_diagram keep the seed searches that
curvetrace.curves cut short.  The first takes a class's direct drawing (its
canonical word side by side), tautened, and the fewest self crossings over it
and every tautened route seed of the class, in that order
(curves._taut_single stops at the first drawing whose count meets the
cobracket floor, and tries the seeds only when the direct drawing misses it).
The second takes the fewest total crossings over every seed pair of two
classes, stopping at self + self + |algebraic|.

reference_bracket_floor and reference_cobracket_floor keep the Goldman
bracket and Turaev cobracket floors that curvetrace.curves._bracket_floor
and _cobracket_floor must reproduce: every term keyed by the canonical class
of its loops, where those count their terms with curvetrace.curves._term_count,
which buckets them by their traces at one representation and keys only the
terms that a trace cannot settle.

reference_pair_cross_refined keeps the two passes over the seed pairs of two
self-crossing classes that curvetrace.curves._pair_cross_refined replaced by
one: tauten every seed pair and stop at a cross count equal to the algebraic
intersection, then take reference_cross_min of every seed pair, raising if
any is over ASSIGNMENT_CAP, and take the least count of both passes.
nonsimple_pairs draws the seeded pair sweeps it is checked on.

reference_merge_basis keeps the product of two basis elements that
curvetrace.algebra._merge_basis replaced by a state sum over the built
union: the same union of the components' taut routes, tautened first.

reference_expand and reference_multiply keep the crossing-resolution
recursion the state sum in curvetrace.algebra must reproduce: resolve one
crossing of a taut diagram through t_u t_v = t_{uv} + t_{uv^-1}, re-expand
the loops read off there, and recurse; powers go through the Chebyshev
recursion t_{u^n} = t_u t_{u^n-1} - t_{u^n-2}.

reference_hnn_count and reference_amalgam_count keep the two reductions that
curvetrace.splitting replaced by one tree reduction with two cutters: Britton
pinches of t u t^-1 for the HNN splitting, and syllables moved across the
edge and merged for the amalgam.

reference_entry_count keeps the count through a stored entry that
curvetrace.splitting.splitting_count must reproduce, with no seam joins and
no strip of a word already reduced: one splice and free reduction, then the
reference loop of the standard curve.

reference_count_through keeps the chain walk that the composed inverse
images of curvetrace.splitting._TwistSearch replaced: the inverse of each
twist of the chain substituted into the word, last twist first, before one
standard count.

reference_dehn_tables rebuilds the Dehn replacements and exactly-half swaps
from the relator, as the two tables curvetrace.words read before it read
everything off its one cell-move table.

word_key and reference_min_rotation keep the spelling order that the letter
codes in curvetrace.words must reproduce: a tuple of (|l|, l < 0) pairs per
word, shorter words first, and the least rotation by that key.

reference_valuate and reference_lamination_intersection keep the Fraction
arithmetic that the integer pairing table in curvetrace.valuations must
reproduce: every weight times every pair count, summed term by term, with no
table, and the maximum over the terms taken in Fraction.

reference_cross_min keeps the table sum that the per-edge subset DP in
curvetrace.curves._cross_min_exhaustive must reproduce: the same constant,
per-edge columns and edge-pair links, summed by numpy into one array over
every slot assignment, whose minimum it returns.  Its cap, ASSIGNMENT_CAP by
default, bounds the number of assignments it takes on.  It derives each
chord's endpoints from the routes, where the search reads them off a built
diagram, so agreement also checks that reading.

reference_ray_verdict, reference_assemble and reference_state_sum keep the
kernels that curvetrace.diagrams and curvetrace.algebra must reproduce field
for field and term for term, with the same Budget spent: rays read through
generators of exits; assembly by sorting (side, rank) points round the circle
and sweeping it with a list-membership test; and the state sum relinking
every crossing in every state, in binary order, with one multicurve key per
state.
"""
import random
from fractions import Fraction
from itertools import chain, permutations, product
from math import factorial

import numpy as np

from curvetrace import mapping
from curvetrace.algebra import (
    Multicurve,
    TraceExpression,
    _from_terms,
    _multicurve,
    _state_sum,
    basis_expression,
    scalar_expression,
)
from curvetrace.complement import _MAX_JITTER_RETRIES, strand_arcs
from curvetrace.curves import (
    _crossing_loops,
    _pair_taut,
    _route_seeds,
    _taut_single,
    enumerate_classes,
    intersection_number,
    is_simple,
    tauten_routes,
)
from curvetrace.diagrams import Budget, CurveDiagram
from curvetrace.errors import (
    ModelInconsistency,
    ReductionBudgetExceeded,
    TrivialClass,
)
from curvetrace.polygon import polygon_model
from curvetrace.splitting import _commutators, _power, _repeat, twist_search
from curvetrace.valuations import ValuationValue
from curvetrace.words import (
    _CLOSURE_CAP,
    CurveClass,
    _canonical_class,
    _cyclic_dehn_reduce,
    _join,
    _min_rotation,
    _Shortened,
    _tables,
    canonical_class,
    cyclic_free_reduce,
    free_reduce,
    homology_class,
    intersection_form,
    inverse_word,
    make_surface,
    normalize_word,
    oriented_spellings,
    primitive_root,
    rotations,
)

PERM_CAP = 200_000
ASSIGNMENT_CAP = 200_000


def reference_taut_single(genus, class_word):
    """(route, count): the tautened route of the class's direct drawing, and
    the fewest self crossings over that drawing and every tautened route
    seed, with no floor to stop at."""
    budget = Budget()
    direct = polygon_model(genus)._sides(class_word)
    route, = tauten_routes(genus, (), (direct,), budget).routes
    counts = [
        tauten_routes(genus, (), (seed,), budget).crossing_count
        for seed in (direct,) + _route_seeds(genus, class_word)
    ]
    return route, min(counts)


def reference_pair_diagram(s, x, y):
    """The tautened seed pair with the fewest crossings, ties broken by the
    routes; the search stops at self + self + |algebraic intersection|."""
    budget = Budget()
    u = homology_class(s, x.word).coords
    v = homology_class(s, y.word).coords
    floor = (
        reference_taut_single(s.genus, x.word)[1]
        + reference_taut_single(s.genus, y.word)[1]
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


def reference_bracket_floor(model, diagram):
    """Sum of the absolute coefficients of the Goldman bracket of the
    diagram's two strands, each cross-strand term keyed by the canonical
    class of u v (None when trivial)."""
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


def reference_cobracket_floor(model, diagram):
    """Half the sum of the absolute coefficients of the Turaev cobracket of
    a one-strand diagram, each self-crossing's u (x) v and v (x) u keyed by
    the canonical classes of its loops; a crossing with a trivial loop adds
    nothing."""
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


def reference_pair_cross_refined(genus, wx, wy):
    """Certified minimum for two self-crossing classes.  Each seed pair is
    tautened, and a cross count equal to the algebraic intersection, a lower
    bound, is the answer.  Otherwise the best count is confirmed or improved
    by the exact minimum over every slot assignment of every seed pair,
    which raises if a seed pair has more than ASSIGNMENT_CAP assignments."""
    s = make_surface(genus)
    u = homology_class(s, wx).coords
    v = homology_class(s, wy).coords
    floor = abs(intersection_form(u, v))
    classes = (CurveClass(genus, wx), CurveClass(genus, wy))
    seed_pairs = list(product(_route_seeds(genus, wx), _route_seeds(genus, wy)))
    budget = Budget()
    counts = []
    for routes in seed_pairs:
        got = tauten_routes(genus, classes, routes, budget).cross_strand_crossings()
        if got == floor:
            return got
        counts.append(got)
    model = polygon_model(genus)
    for routes in seed_pairs:
        got = reference_cross_min(model, routes)
        if got is None:
            raise ReductionBudgetExceeded(
                f"pair position search space exceeds {ASSIGNMENT_CAP} slot assignments"
            )
        counts.append(got)
    return min(counts)


def nonsimple_pairs(genus, max_len, count, seed=11):
    """The first count distinct pairs (wx, wy), wx < wy, of non-simple
    classes of length <= max_len drawn with Random(seed); a longer sweep
    extends a shorter one."""
    s = make_surface(genus)
    words = [c.word for c in enumerate_classes(s, max_len) if not is_simple(s, c)]
    rng = random.Random(seed)
    pairs = {}
    while len(pairs) < count:
        pairs[tuple(sorted(rng.sample(words, 2)))] = None
    return list(pairs)


def pair_outcome(count, genus, wx, wy):
    """count(genus, wx, wy), or the type and message of what it raised."""
    try:
        return count(genus, wx, wy)
    except ReductionBudgetExceeded as e:
        return type(e).__name__, str(e)


def _route_candidates(genus, word):
    return list(_route_seeds(genus, word))


def min_crossings(genus, words, cap=PERM_CAP):
    """(min total, min cross-strand) crossings over candidate routes and all
    slot permutations.  None if the search space exceeds the cap."""
    model = polygon_model(genus)
    candidate_lists = [_route_candidates(genus, w) for w in words]
    best_total = None
    best_cross = None
    for routes in product(*candidate_lists):
        res = _min_for_routes(model, routes, cap)
        if res is None:
            return None
        total, cross = res
        best_total = total if best_total is None else min(best_total, total)
        best_cross = cross if best_cross is None else min(best_cross, cross)
    return best_total, best_cross


def _min_for_routes(model, routes, cap):
    edge_events = {k: [] for k in range(1, 2 * model.genus + 1)}
    for i, route in enumerate(routes):
        for p, side in enumerate(route):
            edge_events[abs(model.sides[side])].append((i, p))
    sizes = 1
    for evs in edge_events.values():
        f = 1
        for n in range(2, len(evs) + 1):
            f *= n
        sizes *= f
        if sizes > cap:
            return None
    perm_lists = [
        list(permutations(edge_events[k]))
        for k in range(1, 2 * model.genus + 1)
    ]
    best_total = best_cross = None
    for assignment in product(*perm_lists):
        total, cross = _count(model, routes, assignment)
        if best_total is None or total < best_total:
            best_total = total
        if best_cross is None or cross < best_cross:
            best_cross = cross
    return best_total, best_cross


def reference_cross_min(model, routes, cap=ASSIGNMENT_CAP):
    """Minimum cross-strand count over every slot assignment of the routes,
    or None when there are more than cap assignments.

    A slot assignment orders the events of each edge.  Whether two chords of
    different strands cross depends only on the order of their four
    endpoints: points on different sides compare by side, and two points on
    one side compare by the slot ranks of their events on that side's edge.
    At most two edges carry such a comparison for one chord pair, so the
    cross count is exactly a constant plus one table per edge plus one table
    per edge pair, each indexed by the rank vectors of its edges.  Their sum
    is one array over every assignment (an edge no comparison reads gets a
    single cell), so its minimum is the minimum over all assignments.  The
    array is never larger than the search space, which the cap bounds.
    """
    n_edges = 2 * model.genus
    edge_events = [[] for _ in range(n_edges)]
    for i, route in enumerate(routes):
        for p, side in enumerate(route):
            edge_events[abs(model.sides[side]) - 1].append((i, p))
    space = 1
    for evs in edge_events:
        space *= factorial(len(evs))
    if space > cap:
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


def _count(model, routes, slot_orders):
    slot_of = {}
    sizes = {}
    for k, order in enumerate(slot_orders, start=1):
        sizes[k] = len(order)
        for t, ev in enumerate(order):
            slot_of[ev] = (k, t)

    def points(ev):
        side = routes[ev[0]][ev[1]]
        k, t = slot_of[ev]
        m = sizes[k]
        s_plus = model.side_of[k]
        s_minus = model.side_of[-k]
        if side == s_plus:
            return (s_plus, t), (s_minus, m - 1 - t)
        return (s_minus, m - 1 - t), (s_plus, t)

    spans = {}
    allpts = []
    for i, route in enumerate(routes):
        n = len(route)
        for p in range(n):
            _, entry = points((i, p))
            exit_, _ = points((i, (p + 1) % n))
            spans[(i, p)] = (entry, exit_)
            allpts += [entry, exit_]
    order = {pt: n for n, pt in enumerate(sorted(allpts))}
    ids = sorted(spans)
    total = cross = 0
    for n1, c1 in enumerate(ids):
        a1, b1 = sorted((order[spans[c1][0]], order[spans[c1][1]]))
        for c2 in ids[n1 + 1:]:
            a2, b2 = sorted((order[spans[c2][0]], order[spans[c2][1]]))
            if (a1 < a2 < b1) != (a1 < b2 < b1):
                total += 1
                if c1[0] != c2[0]:
                    cross += 1
    return total, cross


def all_classes_up_to(genus, max_len):
    """Canonical classes with representative length <= max_len."""
    surface = make_surface(genus)
    letters = [l for k in range(1, 2 * genus + 1) for l in (k, -k)]
    seen = set()
    stack = [()]
    out = []
    while stack:
        w = stack.pop()
        if w:
            try:
                c = canonical_class(surface, w)
                if c.word not in seen:
                    seen.add(c.word)
                    out.append(c)
            except Exception:
                pass
        if len(w) < max_len:
            for l in letters:
                if w and l == -w[-1]:
                    continue
                stack.append(w + (l,))
    out.sort(key=lambda c: (len(c.word), c.word))
    return out


def germ_simple(genus, x, y):
    """Simplicity of a two-letter primitive class (x, y) decided at the vertex.

    Both polygon chords of the class hug the vertex, so the class is simple
    exactly when the two corner passages (end germ of one letter to start germ
    of the next) do not strictly interleave in the vertex link.
    """
    model = polygon_model(genus)
    n = model.n_sides
    a, b = model.end_pos[x], model.start_pos[y]
    u, v = model.end_pos[y], model.start_pos[x]
    if {u, v} & {a, b}:
        return True  # shared germ position: perturb to either side
    span = (b - a) % n
    return ((u - a) % n < span) == ((v - a) % n < span)


def _circle_point(t):
    d = 1 + t * t
    return ((1 - t * t) / d, 2 * t / d)


def _segment_meet(a, b, c, d):
    """Exact meet point and parameters of segments a-b and c-d."""
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    den = r[0] * s[1] - r[1] * s[0]
    if den == 0:
        raise ModelInconsistency("interleaved chords cannot be parallel")
    q = (c[0] - a[0], c[1] - a[1])
    lam = (q[0] * s[1] - q[1] * s[0]) / den
    mu = (q[0] * r[1] - q[1] * r[0]) / den
    if not (0 < lam < 1 and 0 < mu < 1):
        raise ModelInconsistency("crossing fell outside its chords")
    return (a[0] + lam * r[0], a[1] + lam * r[1]), lam, mu


def _rational_place(model, diagram, retry):
    counts = [0] * model.n_sides
    for k in range(1, 2 * model.genus + 1):
        m = len(diagram.slot_orders[k - 1])
        counts[model.side_of[k]] = m
        counts[model.side_of[-k]] = m
    sequence = []
    for s in range(model.n_sides):
        sequence.append(("corner", s))
        sequence += [(s, rank) for rank in range(counts[s])]
    big = 1009 * len(sequence) * len(sequence)
    coord = {}
    for n, key in enumerate(sequence):
        t = Fraction(2 * n - (len(sequence) - 1), 2)
        t += Fraction(retry * n * n, big)
        coord[key] = _circle_point(t)
    points = {}
    on_chord = {}
    for i, strand in enumerate(diagram.chord_points):
        for p in range(len(strand)):
            on_chord[(i, p)] = []
    for c1, c2 in sorted(diagram.crossings):
        a, b = diagram.chord_points[c1[0]][c1[1]]
        c, d = diagram.chord_points[c2[0]][c2[1]]
        pt, lam, mu = _segment_meet(coord[a], coord[b], coord[c], coord[d])
        if pt in points:
            return None  # triple point
        points[pt] = (c1, c2)
        on_chord[c1].append((lam, (c1, c2)))
        on_chord[c2].append((mu, (c1, c2)))
    return {
        cid: [crossing for _, crossing in sorted(entries)]
        for cid, entries in on_chord.items()
    }


def reference_placement(model, diagram):
    """(retry index, crossings in order along each chord) of the rational
    placement: boundary parameters t on the circle point
    ((1-t^2)/(1+t^2), 2t/(1+t^2)), jittered until no two crossings coincide."""
    for retry in range(_MAX_JITTER_RETRIES):
        on_chord = _rational_place(model, diagram, retry)
        if on_chord is not None:
            return retry, on_chord
    raise ModelInconsistency("could not reach generic position")


# -- route seeds, spelling by spelling -----------------------------------------


def reference_route_seeds(genus, class_word):
    """Sorted rotation-minimal routes of every spelling of the class."""
    model = polygon_model(genus)
    orbitpos = [model.orbit.index(s) for s in range(model.n_sides)]
    seen = set()
    for spelling in oriented_spellings(make_surface(genus), CurveClass(genus, class_word)):
        choices = []
        n = len(spelling)
        for i in range(n):
            a = model.end_pos[spelling[i]]
            b = model.start_pos[spelling[(i + 1) % n]]
            fl, bl = (b - a) % model.n_sides, (a - b) % model.n_sides
            arcs = []
            if fl == 0:
                arcs.append([])
            if 0 < fl <= bl:
                arcs.append(model.forward_arc(a, fl))
            if 0 < bl <= fl:
                arcs.append(model.backward_arc(a, bl))
            choices.append(arcs)
        frontier = {
            _rotation(_reduce(model, orbitpos, sum(arcs, [])))
            for arcs in product(*choices)
        }
        frontier -= seen
        seen |= frontier
        while frontier:
            nxt = set()
            for r in frontier:
                for i, direction in _half_runs(model, orbitpos, r):
                    half = model.n_sides // 2
                    repl = _run_complement(model, orbitpos, r, i, half, direction)
                    flipped = _splice(list(r), i, half, repl)
                    nxt.add(_rotation(_reduce(model, orbitpos, flipped)))
            frontier = nxt - seen
            seen |= frontier
    return tuple(sorted(seen, key=lambda r: (len(r), r)))


def _rotation(route):
    return min((route[i:] + route[:i] for i in range(len(route))), default=route)


def _reduce(model, orbitpos, route):
    w = list(route)
    changed = True
    while changed:
        changed = False
        stack = []
        for s in w:
            if stack and stack[-1] == model.partner[s]:
                stack.pop()
                changed = True
            else:
                stack.append(s)
        while len(stack) >= 2 and stack[0] == model.partner[stack[-1]]:
            stack.pop()
            stack.pop(0)
            changed = True
        w = stack
        hit = _long_run(model, orbitpos, w)
        if hit is not None:
            i, length, repl = hit
            w = _splice(w, i, length, repl)
            changed = True
    return tuple(w)


def _run_length(model, orbitpos, w, i, direction):
    """Length of the rotation run starting at index i (cyclic, capped)."""
    n = len(w)
    length = 1
    while length < n and length < model.n_sides:
        cur = w[(i + length - 1) % n]
        nxt = w[(i + length) % n]
        if direction > 0:
            ok = orbitpos[nxt] == (orbitpos[cur] + 1) % model.n_sides
        else:
            ok = (
                orbitpos[model.partner[nxt]]
                == (orbitpos[model.partner[cur]] - 1) % model.n_sides
            )
        if not ok:
            break
        length += 1
    return length


def _run_complement(model, orbitpos, w, i, length, direction):
    """Replacement arc for the run w[i:i+length] (cyclic indexing)."""
    first = w[i % len(w)]
    if direction > 0:
        return model.backward_arc(orbitpos[first], model.n_sides - length)
    start = (orbitpos[model.partner[first]] + 1) % model.n_sides
    return model.forward_arc(start, model.n_sides - length)


def _long_run(model, orbitpos, w):
    half = model.n_sides // 2
    for direction in (1, -1):
        for i in range(len(w)):
            length = _run_length(model, orbitpos, w, i, direction)
            if length > half:
                return i, length, _run_complement(model, orbitpos, w, i, length, direction)
    return None


def _half_runs(model, orbitpos, w):
    """Start indices and directions of exact-half rotation runs."""
    n = len(w)
    half = model.n_sides // 2
    out = []
    for direction in (1, -1):
        for i in range(n):
            if _run_length(model, orbitpos, w, i, direction) >= half:
                # skip runs that merely continue an earlier one
                prev = (i - 1) % n
                if n > 1 and _run_length(model, orbitpos, w, prev, direction) > half:
                    continue
                out.append((i, direction))
    return out


def _splice(w, i, length, repl):
    n = len(w)
    return list(repl) + [w[(i + length + t) % n] for t in range(n - length)]


# -- Dehn tables, one per move length -------------------------------------------


def reference_dehn_tables(genus):
    """(long_repl, half_repl): every factor of a relator shift longer than 2g,
    and every factor of exactly 2g letters, mapped to the inverse of the rest
    of its shift."""
    relator = make_surface(genus).relator
    long_repl, half_repl = {}, {}
    for base in (relator, inverse_word(relator)):
        for shift in rotations(base):
            for length in range(2 * genus, 4 * genus):
                table = half_repl if length == 2 * genus else long_repl
                table[shift[:length]] = inverse_word(shift[length:])
    return long_repl, half_repl


# -- spelling order -------------------------------------------------------------


def word_key(word):
    """Deterministic order: a1 < A1 < b1 < B1 < a2 < ..., shorter first."""
    return (len(word), tuple((abs(l), l < 0) for l in word))


def reference_min_rotation(word):
    return min(rotations(word), key=word_key)


# -- spelling closures, cell move by cell move ---------------------------------

ANNULUS_CAP = 60_000


def reference_spellings(genus, w):
    """Close the rotation-minimal cyclic geodesic w under half swaps and, for
    words long enough for multi-cell annulus rewrites, annulus rewrites."""
    t = _tables(genus)
    half = 2 * genus
    half_repl = reference_dehn_tables(genus)[1]
    chase = len(w) >= 2 * (2 * genus - 1)
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for state in frontier:
            n = len(state)
            doubled = state + state
            found = []
            for i in range(n):
                repl = half_repl.get(doubled[i : i + half])
                if repl is None:
                    continue
                new = cyclic_free_reduce(repl + doubled[i + half : i + n])
                if len(new) < n:
                    raise _Shortened(new)
                reduced = _cyclic_dehn_reduce(genus, new)
                if len(reduced) < len(new):
                    raise _Shortened(reduced)
                found.append(new)
            if chase:
                found.extend(_annulus_neighbors(t, state))
            for new in found:
                cand = _min_rotation(new)
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
            if len(seen) > _CLOSURE_CAP:
                raise ModelInconsistency("cyclic closure exploded")
        frontier = nxt
    return seen


def _cell_splice(rotated, flen, repl):
    """Replace the length-flen prefix of a rotated cyclic word by repl.

    Returns (word, mark) where mark bounds the surviving replacement letters;
    free reduction at the seam may eat into them, never past position 0.
    """
    out = list(repl)
    mark = len(out)
    for l in rotated[flen:]:
        if out and out[-1] == -l:
            out.pop()
            if len(out) < mark:
                mark = len(out)
        else:
            out.append(l)
    return tuple(out), mark


def _annulus_neighbors(t, word):
    """Equal-length conjugates of a cyclic geodesic across one relator annulus.

    Apply one cell move anywhere, then keep applying cell moves where the
    previous one left off, collecting every rewrite that returns to the
    original length.  Raises _Shortened if a strictly shorter conjugate turns
    up along the way.
    """
    n = len(word)
    maxlen = n + 2 * t.half
    out = set()
    seen = set()
    frontier = []

    def push(state):
        if state in seen:
            return
        seen.add(state)
        if len(seen) > ANNULUS_CAP:
            raise ModelInconsistency("annulus chase exploded")
        frontier.append(state)

    # a cell bordering a geodesic boundary keeps an outer arc of at least
    # half - 2 letters, and at most two shared edges ever join the arc, so
    # only factor lengths half - 2 .. half + 2 take part in chains and rings
    doubled = word + word
    for flen in range(t.half - 2, t.half + 1):
        for i in range(n):
            for repl in t.cell_moves.get(doubled[i : i + flen], ()):
                push(_cell_splice(doubled[i : i + n], flen, repl))
    while frontier:
        w, mark = frontier.pop()
        m = len(w)
        reduced = cyclic_free_reduce(w)
        if len(reduced) <= n:
            full = _cyclic_dehn_reduce(t.genus, reduced)
            if len(full) < n:
                raise _Shortened(full)
            if len(reduced) == n:
                out.add(reduced)
                continue
        d2 = w + w
        for flen in range(t.half - 2, t.half + 3):
            if flen > m:
                break
            for i in range(m):
                # only rewrite where the previous cell left off
                if i > mark + 1 and i + flen < m - 1:
                    continue
                for repl in t.cell_moves.get(d2[i : i + flen], ()):
                    if m - flen + len(repl) <= maxlen:
                        push(_cell_splice(d2[i : i + m], flen, repl))
    return out


# -- products on a tautened union ----------------------------------------------


def reference_merge_basis(s, mc1, mc2):
    """Product of two basis elements by one state sum over the tautened
    union of their components, one strand per unit of multiplicity."""
    classes = tuple(
        c for mc in (mc1, mc2) for c, m in mc.components for _ in range(m)
    )
    routes = tuple(_taut_single(s.genus, c.word)[0].routes[0] for c in classes)
    diagram = tauten_routes(s.genus, classes, routes)
    return _state_sum(s, diagram)


# -- crossing-resolution recursion ---------------------------------------------

_REFERENCE_EXPANSIONS = {}
_REFERENCE_MERGES = {}


def reference_expand(s, word):
    """The trace of the word in the multicurve basis, by the recursion."""
    reduced = normalize_word(s, tuple(word))
    if not reduced:
        return scalar_expression(s.genus, 2)
    return _reference_class(s, canonical_class(s, reduced))


def _reference_class(s, cls):
    key = (s.genus, cls.word)
    hit = _REFERENCE_EXPANSIONS.get(key)
    if hit is not None:
        return hit
    root, power = primitive_root(s, cls)
    if power >= 2:
        base = _reference_class(s, root)
        prev = scalar_expression(s.genus, 2)
        cur = base
        for _ in range(power - 1):
            cur, prev = reference_multiply(s, base, cur) - prev, cur
        out = cur
    else:
        out = _reference_primitive(s, cls)
    _REFERENCE_EXPANSIONS[key] = out
    return out


def _reference_primitive(s, cls):
    diagram = _taut_single(s.genus, cls.word)[0]
    if diagram.crossing_count == 0:
        return basis_expression(_multicurve(s.genus, {cls: 1}))
    (_, p), (_, q) = min(diagram.crossings)
    taut_route = diagram.routes[0]
    model = polygon_model(s.genus)
    n = len(taut_route)
    u = model.arc_word(taut_route, (p + 1) % n, q)
    v = model.arc_word(taut_route, (q + 1) % n, p)
    if canonical_class(s, u + v) != cls:
        raise ModelInconsistency("crossing loops do not recompose to the class")
    return reference_multiply(
        s, reference_expand(s, u), reference_expand(s, v)
    ) - reference_expand(s, u + inverse_word(v))


def reference_multiply(s, f, g):
    """Product of two expressions in the basis, by the recursion."""
    acc = {}
    for mc1, c1 in f.terms:
        for mc2, c2 in g.terms:
            for mc, coeff in _reference_merge(s, mc1, mc2).terms:
                acc[mc] = acc.get(mc, Fraction(0)) + coeff * c1 * c2
    return _from_terms(s.genus, acc)


def _reference_merge(s, mc1, mc2):
    key = (s.genus, mc1.components, mc2.components)
    hit = _REFERENCE_MERGES.get(key)
    if hit is not None:
        return hit
    crossing = [
        (x, y)
        for x, _ in mc1.components
        for y, _ in mc2.components
        if intersection_number(s, x, y) > 0
    ]
    if not crossing:
        counts = dict(mc1.components)
        for cls, m in mc2.components:
            counts[cls] = counts.get(cls, 0) + m
        out = basis_expression(_multicurve(s.genus, counts))
    else:
        # base the product at a crossing of the taut pair diagram: both
        # smoothings there are carried by the diagram minus that crossing
        x, y = crossing[0]
        d = _pair_taut(s.genus, x.word, y.word)
        (_, p), (_, q) = min(d.crossings)
        model = polygon_model(s.genus)
        u = model.route_word(d.routes[0], (p + 1) % len(d.routes[0]))
        v = model.route_word(d.routes[1], (q + 1) % len(d.routes[1]))
        if canonical_class(s, u) != x or canonical_class(s, v) != y:
            raise ModelInconsistency("crossing loops do not read the pair's classes")
        merged = reference_expand(s, u + v) + reference_expand(
            s, u + inverse_word(v)
        )
        out = reference_multiply(
            s,
            basis_expression(_remove_one(mc1, x)),
            reference_multiply(s, merged, basis_expression(_remove_one(mc2, y))),
        )
    _REFERENCE_MERGES[key] = out
    return out


def _remove_one(mc, cls):
    counts = dict(mc.components)
    if counts[cls] == 1:
        del counts[cls]
    else:
        counts[cls] -= 1
    return _multicurve(mc.genus, counts)


def reference_lamination_intersection(s, lam, c):
    total = Fraction(0)
    for comp, w in lam.weights:
        total += w * intersection_number(s, comp, c)
    return total


def _reference_multicurve_intersection(s, lam, mc):
    total = Fraction(0)
    for comp, mult in mc.components:
        total += mult * reference_lamination_intersection(s, lam, comp)
    return total


def reference_valuate(s, lam, f):
    if f.is_zero():
        return ValuationValue.bottom()
    return ValuationValue.of(
        max(_reference_multicurve_intersection(s, lam, mc) for mc, _ in f.terms)
    )


# -- intersection with a standard curve, one loop per splitting ---------------


def reference_hnn_count(genus, d, word):
    """i(d, word) by Britton pinches on the cyclic word cut at the stable
    letters."""
    k = (d + 1) // 2
    t = d + 1 if d % 2 else d - 1
    r_k = _commutators(list(range(k + 1, genus + 1)) + list(range(1, k)))
    ends = {1: (d,), -1: (inverse_word(r_k) if d % 2 == 0 else r_k) + (d,)}
    w = cyclic_free_reduce(word)
    cuts = [i for i, l in enumerate(w) if abs(l) == t]
    if not cuts:
        return 0
    w = w[cuts[0] :] + w[: cuts[0]]
    cuts = [i - cuts[0] for i in cuts] + [len(w)]
    signs = [1 if w[i] == t else -1 for i in cuts[:-1]]
    segs = [w[i + 1 : j] for i, j in zip(cuts, cuts[1:])]
    pinched = True
    while pinched and signs:
        pinched = False
        m = len(signs)
        for i in range(m):
            if signs[i] == signs[(i + 1) % m]:
                continue
            n = _power(segs[i], ends[signs[i]])
            if n is None:
                continue
            if m == 2:
                return 0
            j = (i - 1) % m
            signs = signs[j:] + signs[:j]
            segs = segs[j:] + segs[:j]
            merged = free_reduce(segs[0] + _repeat(ends[-signs[1]], n) + segs[2])
            signs = signs[:1] + signs[3:]
            segs = [merged] + segs[3:]
            pinched = True
            break
    return len(signs)


def _merge_syllables(syllables):
    """Cyclically merge neighbouring syllables of one factor, dropping any
    that cancel to the empty word."""
    out = []
    for side, word in syllables:
        if out and out[-1][0] == side:
            word = free_reduce(out.pop()[1] + word)
        if word:
            out.append((side, word))
    while len(out) > 1 and out[0][0] == out[-1][0]:
        side, word = out.pop()
        word = free_reduce(word + out[0][1])
        if word:
            out[0] = (side, word)
        else:
            out.pop(0)
    return out


def reference_amalgam_count(genus, h, word):
    """i([a1,b1]...[ah,bh], word) by moving every syllable that is a power of
    the edge word to the other factor and merging, until none is left."""
    joined = {
        True: _commutators(range(1, h + 1)),
        False: inverse_word(_commutators(range(h + 1, genus + 1))),
    }
    syllables = []
    for l in cyclic_free_reduce(word):
        side = abs(l) <= 2 * h
        if syllables and syllables[-1][0] == side:
            syllables[-1] = (side, syllables[-1][1] + (l,))
        else:
            syllables.append((side, (l,)))
    syllables = _merge_syllables(syllables)
    while len(syllables) > 1:
        for i, (side, part) in enumerate(syllables):
            n = _power(part, joined[side])
            if n is not None:
                syllables[i] = (not side, _repeat(joined[not side], n))
                syllables = _merge_syllables(syllables)
                break
        else:
            return len(syllables)
    return 0


def reference_count_through(genus: int, standard, chain, word) -> int:
    """i(phi(standard), word), where phi applies the twists of chain, each
    (class word, turns), first to last."""
    for twist in reversed(chain):
        word = mapping._substitute(
            mapping._twist_cached(genus, *twist).inverse_images, word
        )
    return twist_search(genus).counters[standard](word)


# -- diagram and state sum kernels, as first written ----------------------------


def _reference_ray_exits(model, route, pos, forward):
    n = len(route)
    t = 1
    while True:
        if forward:
            yield route[(pos + t) % n]
        else:
            yield model.partner[route[(pos - t) % n]]
        t += 1


def reference_ray_verdict(model, routes, ev_x, ev_y, anchor, budget):
    """curvetrace.diagrams._ray_verdict with each ray a generator of exits."""
    rx, ry = routes[ev_x[0]], routes[ev_y[0]]
    fx = rx[ev_x[1]] != anchor
    fy = ry[ev_y[1]] != anchor
    gx = _reference_ray_exits(model, rx, ev_x[1], fx)
    gy = _reference_ray_exits(model, ry, ev_y[1], fy)
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


def reference_assemble(model, classes, routes, slot_orders, budget):
    """curvetrace.diagrams._assemble by (side, rank) points: sort them round
    the circle and sweep it, testing each chord for membership in the list
    of open ones."""
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

    flat = [pt for strand in chord_points for pts in strand for pt in pts]
    circle = sorted(flat)
    index = {pt: n for n, pt in enumerate(circle)}
    if len(index) != len(circle):
        raise ModelInconsistency("duplicate boundary point in diagram")
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
        crossings.update((min(c, d), max(c, d)) for d in opened[at + 1 :])
        del opened[at]
    return CurveDiagram(
        genus=genus,
        classes=tuple(classes),
        routes=tuple(routes),
        slot_orders=slot_orders,
        chord_points=tuple(chord_points),
        crossings=frozenset(crossings),
    )


def reference_state_sum(s, diagram):
    """curvetrace.algebra._state_sum with every crossing relinked in every
    state, states in binary order, one multicurve key built per state and the
    terms ordered by total length, then sort key."""
    model = polygon_model(s.genus)
    arcs = list(strand_arcs(model, diagram))
    words = [word for word, _ in arcs]
    for i, cls in enumerate(diagram.classes):
        own = [word for word, arc in arcs if arc.strand == i]
        if not own:
            own = [model.route_word(diagram.routes[i])]
            words += own
        if _canonical_class(s.genus, _join(own)) != cls:
            raise ModelInconsistency("strand arcs do not read the strand's class")
    ends = {}  # (crossing, chord, 0 arriving / 1 leaving) -> arc end
    for k, (_, arc) in enumerate(arcs):
        n = len(diagram.routes[arc.strand])
        ends[arc.x_from, (arc.strand, arc.chord_from), 1] = 2 * k
        to = (arc.strand, (arc.chord_from + arc.n_events) % n)
        ends[arc.x_to, to, 0] = 2 * k + 1
    quads = [
        tuple(ends[x, chord, way] for chord in x for way in (0, 1))
        for x in sorted(diagram.crossings)
    ]
    reads = [w for word in words for w in (word, inverse_word(word))]
    link = [e ^ 1 for e in range(len(reads))]
    components = {}  # entered ends, from the least arc -> class or None
    acc = {}
    Budget().spend(1 << len(quads))
    for state in range(1 << len(quads)):
        for j, (in0, out0, in1, out1) in enumerate(quads):
            if state >> j & 1:
                link[in0], link[in1], link[out0], link[out1] = in1, in0, out1, out0
            else:
                link[in0], link[out1], link[in1], link[out0] = out1, in0, out0, in1
        coeff = (-1) ** (len(diagram.classes) + len(quads))
        counts = {}
        seen = [False] * len(words)
        for k in range(len(words)):
            if seen[k]:
                continue
            path, end = [], 2 * k
            while not path or end != 2 * k:
                seen[end >> 1] = True
                path.append(end)
                end = link[end ^ 1]
            path = tuple(path)
            if path not in components:
                components[path] = _canonical_class(
                    s.genus, _join(reads[e] for e in path)
                )
            cls = components[path]
            coeff *= -2 if cls is None else -1
            if cls is not None:
                counts[cls] = counts.get(cls, 0) + 1
        key = tuple(sorted(counts.items(), key=lambda kv: (len(kv[0].word), kv[0].word)))
        acc[key] = acc.get(key, 0) + coeff
    at_one = sum(c * 2 ** sum(m for _, m in key) for key, c in acc.items())
    if at_one != 2 ** len(diagram.classes):
        raise ModelInconsistency("state sum is wrong at the trivial representation")
    items = [(Multicurve(s.genus, key), c) for key, c in acc.items() if c]
    items.sort(key=lambda kv: (-kv[0].total_length(), kv[0].sort_key()))
    return TraceExpression(genus=s.genus, terms=tuple(items))


def reference_entry_count(genus, entry, word):
    """curvetrace.splitting.splitting_count through a twist search entry, as
    first written: the images of phi^-1 spliced in letter by letter and the
    word freely reduced once, then the standard curve's count by its
    reference loop."""
    standard, chain_, images = entry
    if chain_:
        word = free_reduce(
            l
            for x in word
            for l in (images[x - 1] if x > 0 else inverse_word(images[-x - 1]))
        )
    if len(standard) == 1:
        return reference_hnn_count(genus, standard[0], word)
    return reference_amalgam_count(genus, len(standard) // 4, word)
