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
  test_composed_count_matches_the_chain_walk.
The genus-3 pair sweep has none.
"""
import random
import time
from itertools import combinations, combinations_with_replacement, product

import oracles
from curvetrace import algebra, curves
from curvetrace.diagrams import build_diagram
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
    test oracles, and, mod P, against its trace at three representations."""
    reps = [random_representation(surface, seed) for seed in range(3)]
    lines = []
    for word in words:
        name = f"genus {surface.genus}: {format_word(word)}"
        f = algebra.expand_trace(surface, word)
        if f != oracles.reference_expand(surface, word):
            lines.append(f"{name} differs from the recursion")
        values = [algebra.evaluate_expression(r, f) for r in reps]
        if values != [evaluate_trace(r, word) for r in reps]:
            lines.append(f"{name} differs from its F_p traces")
    return lines


def product_differences(surface, pairs):
    """Each product on the built union against the tautened union and, where
    both factors have total length <= 3, against the recursion, which shares
    no code with the state sum; how many met it; the slowest on each union."""
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
    answers, and against the built diagrams of its seed pairs: every one
    gives the same Goldman bracket floor, |algebraic| <= floor <= count <=
    every built count, and the count has the algebraic intersection's
    parity.  A pair that raises is a miss.  Returns the lines,
    (wx, wy, outcome) where the reference raises, and how many pairs were
    answered from a built diagram, by a search that met the floor, and by
    the minimum."""
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
        seeds = product(*(curves._route_seeds(genus, w) for w in (wx, wy)))
        built = [build_diagram(model, (), routes) for routes in seeds]
        floors = {curves._bracket_floor(model, d) for d in built}
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


def bracket_misses(genus, pairs):
    """The Goldman bracket floor on the built diagram of the two taut routes
    of each pair with a simple member, against its intersection number: a
    line wherever they differ."""
    model, surface = polygon_model(genus), make_surface(genus)
    lines = []
    for wx, wy in pairs:
        routes = tuple(curves._taut_single(genus, w).routes[0] for w in (wx, wy))
        floor = curves._bracket_floor(model, build_diagram(model, (), routes))
        count = curves.intersection_number(
            surface, *(canonical_class(surface, w) for w in (wx, wy))
        )
        if floor != count:
            name = f"genus {genus}: {format_word(wx)} {format_word(wy)}"
            lines.append(f"{name} has bracket floor {floor}, count {count}")
    return lines


def cobracket_misses(genus, words, against_reference):
    """Each class's taut diagram against its Turaev cobracket floor, taken
    on that diagram: the floor must not exceed the count.  With
    against_reference, the diagram's route and count must also be those of
    the all-seeds reference.  Returns the lines, how many classes cross
    themselves, and on how many of those the floor meets the count."""
    model = polygon_model(genus)
    lines, crossing, met = [], 0, 0
    for word in words:
        name = f"genus {genus}: {format_word(word)}"
        try:
            d = curves._taut_single(genus, word)
        except CurvetraceError as exc:
            lines.append(f"{name} raises {type(exc).__name__}: {exc}")
            continue
        count = d.crossing_count
        floor = curves._cobracket_floor(model, d)
        if floor > count:
            lines.append(f"{name} has cobracket floor {floor}, count {count}")
        crossing += count > 0
        met += 0 < count == floor
        if against_reference:
            got, want = (d.routes[0], count), oracles.reference_taut_single(genus, word)
            if got != want:
                lines.append(f"{name} gives {got}, the reference {want}")
    return lines, crossing, met


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
        found, crossing, met = cobracket_misses(genus, words, genus == 2)
        lines += found
        counts.append(
            f"genus {genus}: {size} classes of length <= {bound}, {crossing} cross"
            f" themselves, the floor meets the count on {met}"
        )
    _fail_on(lines, *counts, f"{len(lines)} misses")
