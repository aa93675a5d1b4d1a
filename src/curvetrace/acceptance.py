"""Named acceptance suites: one deterministic verdict line per criterion.

Every suite fixes genus 2, its own seeds, and its stated tolerance; exact
checks use rational arithmetic throughout.  `run_suite` executes one suite
by name, `run_all` the whole battery in order.
Words come from words.letters and reduced_words, mod-2 classes from
mod2_class, and SL2 products from representations._word_matrix and _inv.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
from .mapping import (
    apply_to_class,
    central_twist,
    make_sign_character,
    semidirect_check,
    twist_generator,
    verify_algebra_automorphism,
)
from .representations import _inv, _word_matrix, evaluate_trace, random_representation
from .valuations import (
    classify_discrete,
    curv_normalize,
    make_lamination,
    multiplicativity_check,
    thurston_max_check,
    valuate,
)
from .words import (
    canonical_class,
    homology_class,
    letters,
    make_surface,
    mod2_class,
    parse_word,
    reduced_words,
)

REPRESENTATION_COUNT = 20


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


def _random_word(rng, s, length):
    alphabet = letters(s.genus)
    word = [rng.choice(alphabet)]
    while len(word) < length:
        nxt = rng.choice(alphabet)
        if nxt != -word[-1]:
            word.append(nxt)
    return tuple(word)


def _run_presentation():
    s = make_surface(2)
    reps = [random_representation(s, seed) for seed in range(REPRESENTATION_COUNT)]
    t1_dev = max(abs(evaluate_trace(rep, ()) - 2) for rep in reps)
    # extended precision: the identity under test cancels exactly, so the
    # measured deviation is pure roundoff and must sit well under tolerance
    extended = [np.asarray(rep.matrices, dtype=np.clongdouble) for rep in reps]
    words = list(reduced_words(s.genus, 3))
    worst = 0.0
    for gens in extended:
        mats = np.stack([_word_matrix(gens, w) for w in words])
        invs = np.stack([_inv(m) for m in mats])
        traces = np.einsum("aii->a", mats)
        direct = np.einsum("aij,bji->ab", mats, mats)
        inverted = np.einsum("aij,bji->ab", mats, invs)
        dev = np.abs(np.outer(traces, traces) - direct - inverted).max()
        worst = max(worst, float(dev))
    rng = random.Random(101)
    sampled = 400
    for _ in range(sampled):
        wa = _random_word(rng, s, rng.randint(1, 6))
        wb = _random_word(rng, s, rng.randint(1, 6))
        for gens in extended:
            ma, mb = _word_matrix(gens, wa), _word_matrix(gens, wb)
            dev = abs(
                np.trace(ma) * np.trace(mb)
                - np.trace(ma @ mb)
                - np.trace(ma @ _inv(mb))
            )
            worst = max(worst, float(dev))
    passed = worst <= 1e-8 and t1_dev <= 1e-12
    detail = (
        f"{len(words)}^2 exhaustive(len<=3) + {sampled} sampled(len<=6) pairs"
        f" x{len(reps)} reps: max dev {worst:.1e}, |t_1-2| {t1_dev:.1e}"
    )
    return passed, detail


def _run_basis():
    s = make_surface(2)
    reps = [random_representation(s, seed) for seed in range(REPRESENTATION_COUNT)]
    worst = 0.0
    checked = 0

    def check(word):
        nonlocal worst, checked
        f = expand_trace(s, word)
        for rep in reps:
            dev = abs(evaluate_expression(rep, f) - evaluate_trace(rep, word))
            worst = max(worst, float(dev))
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
    passed = worst <= 1e-8 and report.full_rank and report.gap >= 1e-6
    detail = (
        f"{checked} expansions x{len(reps)} reps: max dev {worst:.1e};"
        f" rank {report.rank}/{report.size} gap {report.gap:.1e}"
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
        report = complement_report(s, x, y)
        ok = report.euler_total == -2 + report.crossing_count
        ok = ok and all(c >= 4 for c in report.corner_counts)
        if report.crossing_count > 0:
            crossing_pairs += 1
            ok = ok and report.face_count < report.crossing_count
        if not ok:
            failures += 1
    passed = failures == 0
    detail = (
        f"{pairs} taut simple pairs ({crossing_pairs} crossing): euler=-2+i,"
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
        make_sign_character(s, format(bits, "04b")) for bits in range(16)
    ]
    twists = [twist_generator(s, index) for index in range(1, 6)]
    failures = 0
    for action in characters + twists:
        if not verify_algebra_automorphism(s, action, samples=50, seed=11).ok:
            failures += 1
    combos = 0
    for twist in twists:
        for bits in ("1000", "0110"):
            combos += 1
            if not semidirect_check(
                s, twist, make_sign_character(s, bits), bound=2
            ).ok:
                failures += 1
    rep = random_representation(s, 5)
    words = [c.word for c in enumerate_classes(s, 3)]
    worst = 0.0
    for a in characters:
        twisted = central_twist(s, rep, a)
        for word in words:
            coords = homology_class(s, word, "Z2").coords
            expected = (-1) ** a.evaluate(coords) * evaluate_trace(rep, word)
            dev = abs(evaluate_trace(twisted, word) - expected)
            worst = max(worst, float(dev))
    if worst > 1e-8:
        failures += 1
    passed = failures == 0
    detail = (
        f"16 characters + 5 twists on 50 pairs; {combos} semidirect combos"
        f" bound 2; central-twist max dev {worst:.1e}; failures {failures}"
    )
    return passed, detail


def _run_twist_invariance():
    s = make_surface(2)
    universe = enumerate_simple_classes(s, 3)
    twists = [twist_generator(s, index) for index in range(1, 6)]
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
        f"5 twists x {pairs // 5} simple pairs (len<=3), exact:"
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
        raise ValueError(f"unknown suite {name!r}; expected one of: {known}")
    budget, runner = SUITES[name]
    start = time.perf_counter()
    passed, detail = runner()
    seconds = time.perf_counter() - start
    return CriterionResult(
        name=name, passed=passed, seconds=seconds, budget=budget, detail=detail
    )


def run_all():
    return [run_suite(name) for name in SUITES]
