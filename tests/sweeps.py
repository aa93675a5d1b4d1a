"""The exhaustive sweeps that gate the library in CI, one test each.

Tier-1 does not collect this file, whose name does not match test_*.py. CI
runs every sweep it collects, each in a fresh process, so its caches start
cold; locally, from the repository root:
python -m pytest -q -s tests/sweeps.py::test_product_sweep
Each check is a helper that returns a line per mismatch. A sweep prints them
and its counts and fails once; its tier-1 twin calls the helper on fewer
inputs:
- the expansion sweep: test_algebra.py's
  test_expansion_matches_reference_on_genus_two_classes and
  test_expansion_matches_reference_on_genus_three_sample;
- the product sweep: test_algebra.py's
  test_products_on_the_built_union_match_both_references;
- the pair search sweep, which also checks the Goldman bracket floor of each
  self-crossing pair: test_geometry.py's
  test_pair_search_matches_the_two_pass_reference;
- the bracket floor sweep, on pairs with a simple member: test_geometry.py's
  test_bracket_floor_meets_the_counts;
- the cobracket floor sweep: test_geometry.py's
  test_taut_single_matches_every_seed_reference;
- the splitting count sweep: test_splitting.py's
  test_composed_count_matches_the_chain_walk;
- the crossing order sweep: test_complement.py's
  test_a_triangle_is_placed_and_other_orders_are_read_off_the_boundary;
- the twist sweep: test_mapping.py's
  test_twists_fix_their_curve_and_square_its_intersections;
- the kernel sweep, which builds diagrams and sums states both as the
  package does and with the first versions of those kernels kept in the test
  oracles: test_geometry.py's test_kernels_match_their_first_versions.
The twist and kernel sweeps also run at genus 4.  The genus-3 pair sweep has
no twin.
"""
import random
import time
from itertools import chain, combinations, combinations_with_replacement, product

import oracles
import pytest

from curvetrace import algebra, curves, diagrams, mapping
from curvetrace.complement import Geometry
from curvetrace.diagrams import Budget, build_diagram, build_with_slots
from curvetrace.errors import CurvetraceError
from curvetrace.polygon import polygon_model
from curvetrace.representations import evaluate_trace, random_representation
from curvetrace.splitting import splitting_count, twist_search
from curvetrace.words import (
    canonical_class,
    format_word,
    homology_class,
    intersection_form,
    make_surface,
)


def expansion_mismatches(surface, words):
    """Each word's expansion against the crossing-resolution recursion of the
    test oracles, and, mod P, against its trace at three representations;
    its coefficients are ints, as an expansion's are integers."""
    reps = [random_representation(surface, seed) for seed in range(3)]
    lines = []
    for word in words:
        name = f"genus {surface.genus}: {format_word(word)}"
        f = algebra.expand_trace(surface, word)
        lines += not_ints(name, f)
        if f != oracles.reference_expand(surface, word):
            lines.append(f"{name} differs from the recursion")
        values = [algebra.evaluate_expression(r, f) for r in reps]
        if values != [evaluate_trace(r, word) for r in reps]:
            lines.append(f"{name} differs from its F_p traces")
    return lines


def not_ints(name, f):
    """A line if a coefficient of f is not an int: expansions and products of
    basis elements have integer coefficients, held as ints."""
    odd = sorted({type(c).__name__ for _, c in f.terms if type(c) is not int})
    return [f"{name} has {', '.join(odd)} coefficients"] if odd else []


def product_differences(surface, pairs):
    """Each product on the built union against the tautened union and, where
    both factors have total length <= 3, against the recursion, which shares
    no code with the state sum; how many met it; the slowest on each union.
    The built union's coefficients must be ints."""
    slowest = {"built union": (0.0, None), "tautened union": (0.0, None)}
    multiplies = (algebra._merge_basis, oracles.reference_merge_basis)
    lines, recursed = [], 0
    for x, y in pairs:
        got = []
        for side, multiply in zip(slowest, multiplies):
            start = time.perf_counter()
            got.append(multiply(surface, x, y))
            seconds = time.perf_counter() - start
            slowest[side] = max(slowest[side], (seconds, f"{x} * {y}"))
        lines += not_ints(f"{x} * {y}", got[0])
        if got[0] != got[1]:
            lines.append(f"{x} * {y}: the built union differs from the tautened union")
        if x.total_length() <= 3 and y.total_length() <= 3:
            recursed += 1
            f, g = algebra.basis_expression(x), algebra.basis_expression(y)
            if got[0] != oracles.reference_multiply(surface, f, g):
                lines.append(f"{x} * {y}: the built union differs from the recursion")
    return lines, recursed, slowest


def pair_search_misses(genus, pairs):
    """Each pair's count against the two-pass reference, wherever that
    answers, and against the built diagrams of its direct drawings and of
    its seed pairs: every one gives the same Goldman bracket floor, equal to
    the keyed reference's, |algebraic| <= floor <= count <= every built
    count, and the count has the algebraic intersection's parity.  A pair
    that raises is a miss.  Returns the lines, (wx, wy, outcome) where the
    reference raises, and how many pairs were answered from a built diagram,
    by a search that met the floor, and by the minimum."""
    model, surface = polygon_model(genus), make_surface(genus)
    lines, beyond, answered = [], [], {"built": 0, "search": 0, "minimum": 0}
    for wx, wy in pairs:
        name = f"genus {genus}: {format_word(wx)} {format_word(wy)}"
        got = oracles.pair_outcome(curves._pair_cross_refined, genus, wx, wy)
        want = oracles.pair_outcome(oracles.reference_pair_cross_refined, genus, wx, wy)
        if isinstance(want, tuple):
            beyond.append((wx, wy, got))
        elif got != want:
            lines.append(f"{name} gives {got}, the reference {want}")
        if isinstance(got, tuple):
            lines.append(f"{name} raises {got[0]}: {got[1]}")
            continue
        direct = tuple(curves._taut_single(genus, w)[0].routes[0] for w in (wx, wy))
        seeds = product(*(curves._route_seeds(genus, w) for w in (wx, wy)))
        built = [build_diagram(model, (), routes) for routes in (direct, *seeds)]
        floors = {bracket_floor_checked(model, d, name, lines) for d in built}
        counts = [d.cross_strand_crossings() for d in built]
        coords = [homology_class(surface, w).coords for w in (wx, wy)]
        algebraic = abs(intersection_form(*coords))
        if len(floors) != 1:
            lines.append(f"{name} has bracket floors {sorted(floors)}")
            continue
        (floor,) = floors
        if not algebraic <= floor <= got <= min(counts) or (got - algebraic) % 2:
            lines.append(
                f"{name} gives {got}, outside [{floor}, {min(counts)}], of the"
                f" wrong parity or its floor below the algebraic {algebraic}"
            )
        elif got in counts and got == floor:
            answered["built"] += 1
        else:
            answered["search" if got == floor else "minimum"] += 1
    return lines, beyond, answered


def bracket_floor_checked(model, diagram, name, lines):
    """curves._bracket_floor of the diagram, with a line in lines unless it
    equals the keyed reference of the test oracles."""
    floor = curves._bracket_floor(model, diagram)
    want = oracles.reference_bracket_floor(model, diagram)
    if floor != want:
        lines.append(f"{name} has bracket floor {floor}, the reference {want}")
    return floor


def bracket_misses(genus, pairs):
    """The Goldman bracket floor on the built diagram of the two taut routes
    of each pair with a simple member, against its intersection number and
    the keyed reference: a line wherever they differ."""
    model, surface = polygon_model(genus), make_surface(genus)
    lines = []
    for wx, wy in pairs:
        name = f"genus {genus}: {format_word(wx)} {format_word(wy)}"
        routes = tuple(curves._taut_single(genus, w)[0].routes[0] for w in (wx, wy))
        diagram = build_diagram(model, (), routes)
        floor = bracket_floor_checked(model, diagram, name, lines)
        count = curves.intersection_number(
            surface, *(canonical_class(surface, w) for w in (wx, wy))
        )
        if floor != count:
            lines.append(f"{name} has bracket floor {floor}, count {count}")
    return lines


def cobracket_misses(genus, words, against_reference):
    """Each class's taut diagram and count against its Turaev cobracket
    floor, taken on that diagram: the floor must equal the keyed reference
    of the test oracles and must not exceed the count, and the count must
    not exceed C(n, 2) for a class of length n.  With against_reference,
    the diagram's route and the count must also be those of the all-seeds
    reference.  Returns the lines and a tally of the classes that cross
    themselves: how many there are, and how many of their counts the direct
    drawing certifies (it meets the floor), the fallback to the route seeds
    certifies, or nothing certifies."""
    model = polygon_model(genus)
    lines = []
    tally = dict.fromkeys(("crossing", "direct", "fallback", "uncertified"), 0)
    for word in words:
        name = f"genus {genus}: {format_word(word)}"
        try:
            d, count = curves._taut_single(genus, word)
        except CurvetraceError as exc:
            lines.append(f"{name} raises {type(exc).__name__}: {exc}")
            continue
        floor = curves._cobracket_floor(model, d)
        want = oracles.reference_cobracket_floor(model, d)
        if floor != want:
            lines.append(f"{name} has cobracket floor {floor}, the reference {want}")
        if floor > count:
            lines.append(f"{name} has cobracket floor {floor}, count {count}")
        bound = len(word) * (len(word) - 1) // 2
        if count > bound:
            lines.append(f"{name} counts {count}, over C({len(word)}, 2) = {bound}")
        if count > 0:
            tally["crossing"] += 1
            if count > floor:
                tally["uncertified"] += 1
            else:
                tally["direct" if d.crossing_count == floor else "fallback"] += 1
        if against_reference:
            got, want = (d.routes[0], count), oracles.reference_taut_single(genus, word)
            if got != want:
                lines.append(f"{name} gives {got}, the reference {want}")
    return lines, tally


def splitting_differences(genus, deltas, alphas):
    """splitting_count, one substitution of the stored phi^-1, against the
    walk down the twist chain; the seconds each took."""
    search = twist_search(genus)
    hits = {delta: search.find(delta) for delta in deltas}
    lines = [f"the twist search missed {format_word(d)}" for d in hits if not hits[d]]
    hits = {d: hit[:2] for d, hit in hits.items() if hit}  # (standard, chain)
    start = time.perf_counter()
    got = [[splitting_count(genus, d, a) for a in alphas] for d in hits]
    composed = time.perf_counter() - start
    start = time.perf_counter()
    walk = oracles.reference_count_through
    want = [[walk(genus, *hit, a) for a in alphas] for hit in hits.values()]
    walked = time.perf_counter() - start
    for d, row, ref in zip(hits, got, want):
        for a, x, y in zip(alphas, row, ref):
            if x != y:
                name = f"{format_word(d)} against {format_word(a)}"
                lines.append(f"{name}: composed {x}, chain walk {y}")
    return lines, composed, walked


def placement_mismatches(model, diagrams):
    """Each named diagram's crossings in order along its chords, read off the
    boundary or, where three chords cross pairwise, placed exactly, against
    the rational placement of the test oracles and against Geometry's exact
    placement: a line wherever they differ.  Returns the lines and how many
    diagrams were read, how many placed, and on how many of those the order
    read off the boundary would have been wrong."""
    lines, paths = [], {"read": 0, "placed": 0, "misread": 0}
    for name, diagram in diagrams:
        geo = Geometry(model, diagram)
        want = oracles.reference_placement(model, diagram)
        if (geo.retry, geo.on_chord) != want:
            lines.append(f"{name}: the crossing order differs from the reference")
        if geo.placed_orders() != want:
            lines.append(f"{name}: the exact placement differs from the reference")
        paths["placed" if geo.exact else "read"] += 1
        paths["misread"] += geo.exact and geo.boundary_orders() != geo.on_chord
    return lines, paths


def twist_mismatches(surface, classes, pool, rng, samples=3):
    """Each simple class against the twists along it.  Its direct drawing
    must be embedded, and one turn either way must have certificate sign +1
    and fix the class.  Each twist must also move each of samples classes x,
    drawn by rng from the pool of simple classes, to a class that meets x
    i(class, x)^2 times (Farb & Margalit, A Primer on Mapping Class Groups,
    Proposition 3.2).  A twist that raises is a mismatch.  Returns the lines
    and how many checks were made."""
    genus = surface.genus
    lines, checks = [], 0
    for c in classes:
        name = f"genus {genus}: {format_word(c.word)}"
        checks += 1
        if curves._taut_single(genus, c.word)[0].crossing_count:
            lines.append(f"{name}: its direct drawing crosses itself")
        xs = rng.sample(pool, samples)
        for turns in (1, -1):
            checks += 2 + len(xs)
            try:
                t = mapping.twist_along(surface, c, turns)
                if t.certificate.sign != 1:
                    lines.append(f"{name}: turns {turns} has sign {t.certificate.sign}")
                if mapping.apply_to_class(surface, t, c) != c:
                    lines.append(f"{name}: turns {turns} moves the class")
                for x in xs:
                    moved = mapping.apply_to_class(surface, t, x)
                    got = curves.intersection_number(surface, moved, x)
                    want = curves.intersection_number(surface, c, x) ** 2
                    if got != want:
                        lines.append(
                            f"{name}: turns {turns} moves {format_word(x.word)} to"
                            f" meet it {got} times, not {want}"
                        )
            except CurvetraceError as exc:
                lines.append(f"{name}: turns {turns} raises {type(exc).__name__}: {exc}")
    return lines, checks


def _built(model, classes, routes, slot_orders):
    """The diagram and the Budget it spent: built by the comparator, or from
    the slot orders when they are given."""
    budget = Budget()
    if slot_orders is None:
        diagram = build_diagram(model, classes, routes, budget)
    else:
        diagram = build_with_slots(model, classes, routes, slot_orders, budget)
    return diagram, budget.used


def kernel_differences(genus, drawings, max_crossings):
    """Each drawing, (name, classes, routes, slot orders or None), built by
    the package and again with the rays and the assembly kept in the test
    oracles (reference_ray_verdict, reference_assemble): the two diagrams
    must have the same repr, so every field and the order the crossings
    iterate in agree, and spend the same Budget.  A drawing that names a
    class per strand and has at most max_crossings crossings also sums its
    states both ways, and the two expressions must have the same repr.
    Returns the lines, how many diagrams were built and how many summed."""
    model, surface = polygon_model(genus), make_surface(genus)
    drawings = list(drawings)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagrams, "_ray_verdict", oracles.reference_ray_verdict)
        patch.setattr(diagrams, "_assemble", oracles.reference_assemble)
        wanted = [_built(model, *drawing[1:]) for drawing in drawings]
    lines, summed = [], 0
    for (name, classes, routes, orders), (want, spent) in zip(drawings, wanted):
        name = f"genus {genus}: {name}"
        got, used = _built(model, classes, routes, orders)
        fields = [f for f, x, y in zip(got._fields, got, want) if repr(x) != repr(y)]
        if fields:
            lines.append(f"{name}: {', '.join(fields)} differ from the reference")
        if used != spent:
            lines.append(f"{name}: spends {used} operations, the reference {spent}")
        if classes and got.crossing_count <= max_crossings:
            summed += 1
            ours = algebra._state_sum(surface, got)
            if repr(ours) != repr(oracles.reference_state_sum(surface, got)):
                lines.append(f"{name}: the state sum differs from the reference")
    return lines, len(drawings), summed


def direct_drawings(genus, classes):
    """(name, (class,), its direct drawing's route, None) for each class."""
    model = polygon_model(genus)
    for c in classes:
        yield format_word(c.word), (c,), (model._sides(c.word),), None


def union_drawings(genus, classes, count, rng):
    """count drawings of two classes drawn by rng, side by side, one in five
    the same class twice (a doubled strand), each built by the comparator
    and also with every edge's events in route order and reversed."""
    model = polygon_model(genus)
    for _ in range(count):
        pair = rng.sample(classes, 2)
        if rng.random() < 0.2:
            pair[1] = pair[0]
        name = " ".join(format_word(c.word) for c in pair)
        routes = tuple(model._sides(c.word) for c in pair)
        orders = [[] for _ in range(2 * genus)]
        for i, route in enumerate(routes):
            for p, side in enumerate(route):
                orders[abs(model.sides[side]) - 1].append((i, p))
        yield name, tuple(pair), routes, None
        yield f"{name} in route order", tuple(pair), routes, tuple(map(tuple, orders))
        reverse = tuple(tuple(reversed(order)) for order in orders)
        yield f"{name} in reversed route order", tuple(pair), routes, reverse


def _fail_on(lines, *summary):
    print(*lines, *summary, sep="\n")
    assert not lines


def test_genus_three_pair_sweep():
    # complement_report raises unless its pair diagram's count equals
    # intersection_number, so this gates the bigon move at genus 3
    s = make_surface(3)
    pairs = list(combinations(curves.enumerate_simple_classes(s, 3), 2))
    for x, y in pairs:
        curves.complement_report(s, x, y)
    assert len(curves.enumerate_simple_classes(s, 4)) == 302
    print(f"{len(pairs)} genus-3 simple pairs of length <= 3: counts agree")


def test_expansion_sweep():
    lines, total = [], 0
    for genus, bound, size in ((2, 5, 2046), (3, 4, 2119)):
        s = make_surface(genus)
        classes = curves.enumerate_classes(s, bound)
        assert len(classes) == size
        lines += expansion_mismatches(s, [c.word for c in classes])
        total += size
    _fail_on(lines, f"{total} expansions, {len(lines)} mismatches")


def test_product_sweep():
    s = make_surface(2)
    pairs = list(combinations_with_replacement(algebra.enumerate_multicurves(s, 4), 2))
    lines, recursed, slowest = product_differences(s, pairs)
    _fail_on(
        lines,
        f"{len(pairs)} products of total length <= 4 against the tautened union",
        *(
            f"  slowest on the {side}: {pair}, {1000 * seconds:.1f} ms"
            for side, (seconds, pair) in slowest.items()
        ),
        f"{recursed} products of total length <= 3 against the recursion",
        f"{len(lines)} differences",
    )


def sweep_pairs(genus):
    """The pair sweep's pairs of two self-crossing classes: at genus 2, 600
    drawn of length <= 4 and the 27 fixed pairs of the benchmark's pairs
    workload; at genus 3, 300 drawn of length <= 3."""
    if genus == 3:
        return oracles.nonsimple_pairs(3, 3, 300)
    from perfbench.workloads import BUDGET_PAIRS, HEAVY_PAIRS, parse_text

    s = make_surface(2)
    return oracles.nonsimple_pairs(2, 4, 600) + [
        tuple(sorted(canonical_class(s, parse_text(text)).word for text in pair))
        for pair in HEAVY_PAIRS + BUDGET_PAIRS
    ]


def test_pair_search_sweep():
    # where the reference raises and the search answers, the answer must be
    # the least numpy table sum of the test oracles over the seed pairs,
    # wherever each has at most 2*10^7 slot assignments
    misses, counts = [], []
    for genus in (2, 3):
        model = polygon_model(genus)
        pairs = sweep_pairs(genus)
        found, beyond, answered = pair_search_misses(genus, pairs)
        exact = 0
        for wx, wy, got in beyond:
            if isinstance(got, tuple):
                continue
            seeds = product(*(curves._route_seeds(genus, w) for w in (wx, wy)))
            minima = [oracles.reference_cross_min(model, r, 2 * 10**7) for r in seeds]
            if None not in minima:
                exact += 1
                if got != min(minima):
                    name = f"genus {genus}: {format_word(wx)} {format_word(wy)}"
                    found.append(f"{name} gives {got}, the table sum {min(minima)}")
        misses += found
        counts.append(
            f"genus {genus}: {len(pairs)} pairs, {len(pairs) - len(beyond)} answered"
            f" by the reference, {exact} more by the table sum; {answered['built']}"
            f" answered from a built diagram, {answered['search']} by a search that"
            f" met the floor, {answered['minimum']} by the minimum"
        )
    _fail_on(misses, *counts, f"{len(misses)} misses")


def test_splitting_count_sweep():
    s = make_surface(2)
    deltas = [d.word for d in curves.enumerate_simple_classes(s, 6)]
    assert len(deltas) == 405
    alphas = random.Random(21).sample(curves.enumerate_classes(s, 5), 100)
    lines, composed, walked = splitting_differences(2, deltas, [a.word for a in alphas])
    _fail_on(
        lines,
        f"{len(deltas) * len(alphas)} counts: composed {composed:.2f} s,"
        f" chain walk {walked:.2f} s",
        f"{len(lines)} differences",
    )


def test_bracket_floor_sweep():
    lines, counts = [], []
    for genus, delta_len, alpha_len in ((2, 3, 4), (3, 2, 3)):
        s = make_surface(genus)
        deltas = [d.word for d in curves.enumerate_simple_classes(s, delta_len)]
        alphas = [a.word for a in curves.enumerate_classes(s, alpha_len)]
        lines += bracket_misses(genus, product(deltas, alphas))
        n = len(deltas) * len(alphas)
        counts.append(f"genus {genus}: {n} pairs with a simple member")
    _fail_on(lines, *counts, f"{len(lines)} misses")


def test_cobracket_floor_sweep():
    lines, counts = [], []
    # the all-seeds reference tautens every seed, so it runs at genus 2 only
    for genus, bound, size in ((2, 6, 11720), (3, 5, 18229)):
        s = make_surface(genus)
        words = [c.word for c in curves.enumerate_classes(s, bound)]
        assert len(words) == size
        found, tally = cobracket_misses(genus, words, genus == 2)
        lines += found
        counts.append(
            f"genus {genus}: {size} classes of length <= {bound}, {tally['crossing']}"
            f" cross themselves; the floor certifies {tally['direct']} counts on the"
            f" direct drawing and {tally['fallback']} on the route seeds, and"
            f" {tally['uncertified']} stay uncertified"
        )
    _fail_on(lines, *counts, f"{len(lines)} misses")


def test_crossing_order_sweep():
    def taut(genus, bound):
        s = make_surface(genus)
        for c in curves.enumerate_classes(s, bound):
            name = f"genus {genus}: {format_word(c.word)}"
            yield name, curves._taut_single(genus, c.word)[0]

    def seed_pairs(genus):
        model = polygon_model(genus)
        for wx, wy in sweep_pairs(genus):
            seeds = product(*(curves._route_seeds(genus, w) for w in (wx, wy)))
            for k, routes in enumerate(seeds):
                name = f"genus {genus}: {format_word(wx)} {format_word(wy)}, seed pair {k}"
                yield name, build_diagram(model, (), routes)

    def unions():
        s = make_surface(2)
        for x, y in combinations_with_replacement(algebra.enumerate_multicurves(s, 4), 2):
            yield f"{x} * {y}", algebra._built_union(s, x, y)

    families = (
        ("genus-2 taut diagrams of length <= 6", 2, taut(2, 6)),
        ("genus-3 taut diagrams of length <= 4", 3, taut(3, 4)),
        ("genus-2 pair sweep seed pairs", 2, seed_pairs(2)),
        ("genus-3 pair sweep seed pairs", 3, seed_pairs(3)),
        ("product sweep unions", 2, unions()),
    )
    lines, counts = [], []
    for family, genus, diagrams in families:
        found, paths = placement_mismatches(polygon_model(genus), diagrams)
        lines += found
        counts.append(
            f"{family}: {paths['read']} read off the boundary, {paths['placed']}"
            f" placed, {paths['misread']} of them misread by the boundary"
        )
    _fail_on(lines, *counts, f"{len(lines)} mismatches")


def test_twist_sweep():
    lines, counts = [], []
    for genus, bound, size in ((2, 6, 405), (3, 5, 1004), (4, 4, 754)):
        s = make_surface(genus)
        classes = curves.enumerate_simple_classes(s, bound)
        assert len(classes) == size
        pool = curves.enumerate_simple_classes(s, 2)
        found, checks = twist_mismatches(s, classes, pool, random.Random(genus))
        lines += found
        counts.append(
            f"genus {genus}: {size} simple classes of length <= {bound}, {checks} checks"
        )
    _fail_on(lines, *counts, f"{len(lines)} mismatches")


def test_kernel_sweep():
    # the state sums stop at 10 crossings, 1,024 states each way, to bound
    # the run; the union of a1^4 and b1^4 alone has 16
    lines, counts = [], []
    for genus, bound, sample in ((2, 6, None), (3, 4, 1500), (4, 3, 600)):
        s = make_surface(genus)
        classes = curves.enumerate_classes(s, bound)
        rng = random.Random(60 + genus)
        if sample:
            classes = rng.sample(classes, sample)
        drawings = chain(
            direct_drawings(genus, classes),
            union_drawings(genus, classes, 1000, rng),
        )
        found, built, summed = kernel_differences(genus, drawings, 10)
        lines += found
        counts.append(
            f"genus {genus}: {len(classes)} classes of length <= {bound} and 1000"
            f" unions of two, {built} diagrams, {summed} state sums"
        )
    s = make_surface(2)
    pairs = combinations_with_replacement(algebra.enumerate_multicurves(s, 4), 2)
    unions = ((f"{x} * {y}", algebra._built_union(s, x, y)) for x, y in pairs)
    found, built, summed = kernel_differences(
        2, ((name, d.classes, d.routes, None) for name, d in unions), 10
    )
    lines += found
    counts.append(f"product sweep unions: {built} diagrams, {summed} state sums")
    _fail_on(lines, *counts, f"{len(lines)} differences")
