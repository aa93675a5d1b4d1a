"""Named acceptance suites: one deterministic verdict line per criterion.

Every suite fixes its genus (2; presentation also 3) and its own seeds, and
every check is exact: rational arithmetic, or residues mod P at
representations in SL2(F_P).  `run_suite` executes one suite by name,
`run_all` the whole battery in order.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import (
    basis_expression,
    basis_rank_check,
    empty_multicurve,
    enumerate_multicurves,
    evaluate_expression,
    expand_trace,
    make_multicurve,
    zero_expression,
)
from .curves import (
    complement_report,
    enumerate_classes,
    enumerate_simple_classes,
    intersection_number,
)
from .errors import BadValue
from .mapping import (
    apply_to_class,
    central_twist,
    make_sign_character,
    semidirect_check,
    twist_generator,
    verify_algebra_automorphism,
)
from .representations import P, evaluate_trace, random_representation
from .valuations import (
    classify_discrete,
    curv_normalize,
    make_lamination,
    multiplicativity_check,
    thurston_max_check,
    valuate,
)
from .words import (
    _canonical_class,
    canonical_class,
    homology_class,
    inverse_word,
    letters,
    make_surface,
    mod2_class,
    oriented_spellings,
    parse_word,
    reduced_words,
    rotations,
)

@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    seconds: float
    budget: float
    detail: str

    @property
    def within_budget(self) -> bool:
        return self.seconds <= self.budget

    def line(self) -> str:
        verdict = "PASS" if self.passed and self.within_budget else "FAIL"
        return (
            f"{verdict} {self.name}"
            f" [{self.seconds:.1f}s/{self.budget:.0f}s] {self.detail}"
        )


def _random_word(rng, s, length, start=()):
    """A freely reduced word of the length: start, then random letters."""
    alphabet = letters(s.genus)
    word = list(start) or [rng.choice(alphabet)]
    while len(word) < length:
        nxt = rng.choice(alphabet)
        if nxt != -word[-1]:
            word.append(nxt)
    return tuple(word)


def _presentation_words(s, max_length, rng):
    """Every freely reduced word of length <= max_length; each factor of
    2g-2..4g-1 letters of a relator shift or of its inverse (the factors cell
    moves rewrite) with random tails of 1 to 4 letters; and each freely
    reduced product of two factors of 2g-2..2g letters, as two-cell ladders."""
    yield from reduced_words(s.genus, max_length)
    g = s.genus
    shifts = [*rotations(s.relator), *rotations(inverse_word(s.relator))]
    for shift in shifts:
        for length in range(2 * g - 2, 4 * g):
            for tail in range(1, 5):
                yield _random_word(rng, s, length + tail, shift[:length])
    cells = [shift[:n] for shift in shifts for n in range(2 * g - 2, 2 * g + 1)]
    yield from (f + h for f, h in product(cells, cells) if f[-1] != -h[0])


def _run_presentation():
    # traces are class functions: tr w must be tr of w's canonical word and of
    # each spelling of its class (2 if w is trivial), or a cell move is wrong
    words = spellings = trivial = mismatches = 0
    for genus, max_length in ((2, 5), (3, 4)):
        s = make_surface(genus)
        reps = [random_representation(s, seed) for seed in range(3)]
        want = {}  # canonical word -> its traces
        for word in _presentation_words(s, max_length, random.Random(101)):
            cls = _canonical_class(genus, word)
            trivial += cls is None
            target, checked = (cls.word if cls else ()), [word]
            if target not in want:
                want[target] = [evaluate_trace(rep, target) for rep in reps]
                checked += oriented_spellings(s, cls) if cls else ()
            for w in checked:
                mismatches += [evaluate_trace(rep, w) for rep in reps] != want[target]
            words, spellings = words + 1, spellings + len(checked) - 1
    passed = mismatches == 0
    detail = (
        f"{words} words (reduced len<=5 genus 2, len<=4 genus 3, relator factors"
        f" + tails, two-cell ladders; {trivial} trivial) and {spellings} class"
        f" spellings x3 reps: tr = tr canonical: mismatches {mismatches}"
    )
    return passed, detail


def _run_basis():
    s = make_surface(2)
    reps = [random_representation(s, seed) for seed in range(20)]
    mismatches = 0
    checked = 0

    def check(word):
        nonlocal mismatches, checked
        f = expand_trace(s, word)
        for rep in reps:
            if evaluate_expression(rep, f) != evaluate_trace(rep, word):
                mismatches += 1
        checked += 1

    for c in enumerate_classes(s, 4):
        check(c.word)
    rng = random.Random(202)
    for _ in range(120):
        check(_random_word(rng, s, rng.choice((5, 6))))
    a1 = canonical_class(s, (1,))
    b1 = canonical_class(s, (2,))
    a2 = canonical_class(s, (3,))
    six = [
        empty_multicurve(2),
        make_multicurve(s, {a1: 1}),
        make_multicurve(s, {b1: 1}),
        make_multicurve(s, {a2: 1}),
        make_multicurve(s, {a1: 1, a2: 1}),
        make_multicurve(s, {a1: 2}),
    ]
    report = basis_rank_check(s, six, trials=30, seed=7)
    passed = mismatches == 0 and report.full_rank
    detail = (
        f"{checked} expansions x{len(reps)} reps: mismatches {mismatches};"
        f" exact rank {report.rank}/{report.size}"
    )
    return passed, detail


def _run_thurston():
    s = make_surface(2)
    deltas = enumerate_simple_classes(s, 2)
    alphas = enumerate_classes(s, 5)
    failures = 0
    for delta in deltas:
        for alpha in alphas:
            if not thurston_max_check(s, delta, alpha.word).ok:
                failures += 1
    passed = failures == 0
    detail = (
        f"{len(deltas)} simple(len<=2) x {len(alphas)} classes(len<=5):"
        f" failures {failures}"
    )
    return passed, detail


def _acceptance_laminations(s):
    def cls(text):
        return canonical_class(s, parse_word(s, text))

    return [
        make_lamination(s, {cls("b1"): 1}),
        make_lamination(s, {cls("b1"): Fraction(1, 2), cls("b2"): 1}),
        make_lamination(s, {cls("a1b1A1B1"): Fraction(1, 2)}),
        make_lamination(s, {cls("a1"): 2, cls("a2"): 3}),
    ]


def _run_valuation():
    s = make_surface(2)
    lams = _acceptance_laminations(s)
    multicurves = enumerate_multicurves(s, 3)
    rng = random.Random(303)

    def random_expression():
        f = zero_expression(2)
        for _ in range(rng.randint(1, 3)):
            coeff = rng.randint(-5, 5) or 1
            f = f + basis_expression(rng.choice(multicurves)).scale(coeff)
        return f

    ultra_pairs, distinct_pairs, failures = 500, 0, 0
    for _ in range(ultra_pairs):
        lam = rng.choice(lams)
        f, g = random_expression(), random_expression()
        vf, vg = valuate(s, lam, f), valuate(s, lam, g)
        vs = valuate(s, lam, f + g)
        if not vs <= max(vf, vg):
            failures += 1
        if vf != vg:
            distinct_pairs += 1
            if vs != max(vf, vg):
                failures += 1
    mult_pairs = 200
    for _ in range(mult_pairs):
        lam = rng.choice(lams)
        f = basis_expression(rng.choice(multicurves))
        g = basis_expression(rng.choice(multicurves))
        if not multiplicativity_check(s, lam, f, g).ok:
            failures += 1
    passed = failures == 0
    detail = (
        f"{ultra_pairs} ultrametric pairs ({distinct_pairs} distinct-valued)"
        f" + {mult_pairs} multiplicativity pairs, exact: failures {failures}"
    )
    return passed, detail


def _run_discreteness():
    s = make_surface(2)
    pool = [mc for mc in enumerate_multicurves(s, 3) if mc.components]
    sep = canonical_class(s, parse_word(s, "a1b1A1B1"))
    rng = random.Random(404)

    vanishing, seen = [], set()
    while len(vanishing) < 50:
        base = rng.choice(pool)
        counts = {cls: 2 * mult for cls, mult in base.components}
        if rng.random() < 0.5 and all(
            intersection_number(s, sep, cls) == 0 for cls in counts
        ):
            counts[sep] = rng.choice((1, 3))
        mc = make_multicurve(s, counts)
        if mc not in seen:
            seen.add(mc)
            vanishing.append(mc)
    exprs = [expand_trace(s, c.word) for c in enumerate_classes(s, 5)]
    failures = 0
    for mc in vanishing:
        if any(mod2_class(s, mc.components)):
            failures += 1
            continue
        lam = make_lamination(
            s, {cls: Fraction(mult, 2) for cls, mult in mc.components}
        )
        if not classify_discrete(s, lam).discrete:
            failures += 1
            continue
        for f in exprs:
            v = valuate(s, lam, f)
            if not (v.finite and v.value.denominator == 1 and v.value >= 0):
                failures += 1
                break

    nonvanishing = [mc for mc in pool if any(mod2_class(s, mc.components))]
    witnessed = 0
    for mc in rng.sample(nonvanishing, 50):
        lam = make_lamination(
            s, {cls: Fraction(mult, 2) for cls, mult in mc.components}
        )
        report = classify_discrete(s, lam)
        if report.discrete or report.witness is None:
            failures += 1
        elif report.value.denominator > 1:
            witnessed += 1
        else:
            failures += 1
    passed = failures == 0
    detail = (
        f"50 vanishing: Discrete + integer values on {len(exprs)} expansions;"
        f" 50 nonvanishing: {witnessed} fractional witnesses; failures {failures}"
    )
    return passed, detail


def _run_complement():
    s = make_surface(2)
    simple = enumerate_simple_classes(s, 4)
    rng = random.Random(505)
    pairs, failures, crossing_pairs = 50, 0, 0
    for _ in range(pairs):
        x, y = rng.sample(simple, 2)
        # complement_census raises unless euler = 2 - 2g + i, and
        # complement_report unless F < i wherever i > 0
        report = complement_report(s, x, y)
        crossing_pairs += report.crossing_count > 0
        failures += not all(c >= 4 for c in report.corner_counts)
    passed = failures == 0
    detail = (
        f"{pairs} taut simple pairs ({crossing_pairs} crossing):"
        f" euler={2 - 2 * s.genus}+i,"
        f" corners>=4, F<i; failures {failures}"
    )
    return passed, detail


def _run_curv():
    s = make_surface(2)
    failures = 0
    for text in ("a1", "b1", "a2", "b2"):
        cls = canonical_class(s, parse_word(s, text))
        lam = curv_normalize(s, cls)
        if lam.weight(cls) != 1 or not classify_discrete(s, lam).discrete:
            failures += 1
    sep = canonical_class(s, parse_word(s, "a1b1A1B1"))
    lam = curv_normalize(s, sep)
    if lam.weight(sep) != Fraction(1, 2) or not classify_discrete(s, lam).discrete:
        failures += 1
    passed = failures == 0
    detail = (
        "weights 1 on a1,b1,a2,b2 and 1/2 on [a1,b1], all Discrete;"
        f" failures {failures}"
    )
    return passed, detail


def _run_actions():
    s = make_surface(2)
    characters = [
        make_sign_character(s, format(bits, f"0{s.rank}b"))
        for bits in range(2**s.rank)
    ]
    twists = [twist_generator(s, index) for index in range(1, 2 * s.genus + 2)]
    # the characters of a1 and of b1 + a2
    semidirect = [
        make_sign_character(s, [int(k in gens) for k in range(1, s.rank + 1)])
        for gens in ((1,), (2, 3))
    ]
    failures = 0
    for action in characters + twists:
        if not verify_algebra_automorphism(s, action, samples=50, seed=11).ok:
            failures += 1
    combos = 0
    for twist in twists:
        for character in semidirect:
            combos += 1
            if not semidirect_check(s, twist, character, bound=2).ok:
                failures += 1
    rep = random_representation(s, 5)
    words = [c.word for c in enumerate_classes(s, 3)]
    mismatches = 0
    for a in characters:
        twisted = central_twist(s, rep, a)
        for word in words:
            coords = homology_class(s, word, "Z2").coords
            expected = (-1) ** a.evaluate(coords) * evaluate_trace(rep, word) % P
            if evaluate_trace(twisted, word) != expected:
                mismatches += 1
    if mismatches:
        failures += 1
    passed = failures == 0
    detail = (
        f"{len(characters)} characters + {len(twists)} twists on 50 pairs;"
        f" {combos} semidirect combos"
        f" bound 2; central-twist mismatches {mismatches}; failures {failures}"
    )
    return passed, detail


def _run_twist_invariance():
    s = make_surface(2)
    universe = enumerate_simple_classes(s, 3)
    twists = [twist_generator(s, index) for index in range(1, 2 * s.genus + 2)]
    pairs = failures = 0
    for twist in twists:
        images = [apply_to_class(s, twist, c) for c in universe]
        for i in range(len(universe)):
            for j in range(i, len(universe)):
                pairs += 1
                want = intersection_number(s, universe[i], universe[j])
                got = intersection_number(s, images[i], images[j])
                if got != want:
                    failures += 1
    passed = failures == 0
    detail = (
        f"{len(twists)} twists x {pairs // len(twists)} simple pairs (len<=3), exact:"
        f" failures {failures}"
    )
    return passed, detail


SUITES = {
    "presentation": (60.0, _run_presentation),
    "basis": (120.0, _run_basis),
    "thurston": (120.0, _run_thurston),
    "valuation": (120.0, _run_valuation),
    "discreteness": (60.0, _run_discreteness),
    "complement": (60.0, _run_complement),
    "curv": (10.0, _run_curv),
    "actions": (180.0, _run_actions),
    "twist-invariance": (60.0, _run_twist_invariance),
}


def run_suite(name: str) -> CriterionResult:
    if name not in SUITES:
        known = ", ".join(SUITES)
        raise BadValue(f"unknown suite {name!r}; expected one of: {known}")
    budget, runner = SUITES[name]
    start = time.perf_counter()
    passed, detail = runner()
    seconds = time.perf_counter() - start
    return CriterionResult(
        name=name, passed=passed, seconds=seconds, budget=budget, detail=detail
    )


def run_all():
    return [run_suite(name) for name in SUITES]
