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

reference_expand and reference_multiply keep the crossing-resolution
recursion the state sum in curvetrace.algebra must reproduce: resolve one
crossing of a taut diagram through t_u t_v = t_{uv} + t_{uv^-1}, re-expand
the loops read off there, and recurse; powers go through the Chebyshev
recursion t_{u^n} = t_u t_{u^n-1} - t_{u^n-2}.
"""
from fractions import Fraction
from itertools import permutations, product

from curvetrace.algebra import (
    _from_terms,
    _multicurve,
    basis_expression,
    scalar_expression,
)
from curvetrace.complement import _MAX_JITTER_RETRIES
from curvetrace.curves import (
    _pair_taut,
    _route_seeds,
    _taut_single,
    intersection_number,
    tauten_routes,
)
from curvetrace.errors import ModelInconsistency
from curvetrace.polygon import polygon_model
from curvetrace.words import (
    CurveClass,
    canonical_class,
    inverse_word,
    make_surface,
    normalize_word,
    oriented_spellings,
    primitive_root,
)

PERM_CAP = 200_000


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
    route, count = _taut_single(s.genus, cls.word)
    if count == 0:
        return basis_expression(_multicurve(s.genus, {cls: 1}))
    diagram = tauten_routes(s.genus, (cls,), (route,))
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
