"""The benchmark's workloads: seeded inputs, one timed call per item, checks.

Every workload runs at genus 2 and calls only public curvetrace functions.
``inputs`` builds a workload's items from the seed with the standard library
alone, so generating them warms no curvetrace cache. ``run`` is the timed
call for one item. ``check`` runs after the timed phase and returns None when
the item's answer is right, or a short failure code.
"""
from __future__ import annotations

import random
import re

GENUS = 2
LETTERS = tuple(l for k in range(1, 2 * GENUS + 1) for l in (k, -k))

# The 12 simple classes of length <= 2 at genus 2, as enumerate_simple_classes
# lists them; the self-test checks this list against the library.
DELTA_WORDS = (
    "a1", "b1", "a2", "b2", "a1B2", "a1B1",
    "a1b1", "a1a2", "b1A2", "b1b2", "a2B2", "a2b2",
)
# The alpha words of the five known thurston mismatches (ROADMAP item 1).
KNOWN_MISMATCH_ALPHAS = (
    "a1B2B2B2a2", "a1B2b1b1b2", "a1B1B2B1B1", "a1B1a2B1B1", "b1A2b2b2b2",
)
# The 68 nonempty multicurves of total length <= 3 at genus 2, as
# enumerate_multicurves(s, 3) lists them; the self-test checks this list.
MULTICURVES = (
    "a1^1", "b1^1", "a2^1", "b2^1", "a1^1,a2^1", "a1^1,b2^1", "a1^2",
    "b1^1,a2^1", "b1^1,b2^1", "b1^2", "a2^2", "b2^2", "a1B2^1", "a1B1^1",
    "a1b1^1", "a1a2^1", "b1A2^1", "b1b2^1", "a2B2^1", "a2b2^1", "a1^1,a2^2",
    "a1^1,b2^2", "a1^1,a1B2^1", "a1^1,a1a2^1", "a1^1,a2B2^1", "a1^1,a2b2^1",
    "a1^2,a2^1", "a1^2,b2^1", "a1^3", "b1^1,a2^2", "b1^1,b2^2",
    "b1^1,b1A2^1", "b1^1,b1b2^1", "b1^1,a2B2^1", "b1^1,a2b2^1", "b1^2,a2^1",
    "b1^2,b2^1", "b1^3", "a2^1,a1B1^1", "a2^1,a1b1^1", "a2^1,a1a2^1",
    "a2^1,b1A2^1", "a2^3", "b2^1,a1B2^1", "b2^1,a1B1^1", "b2^1,a1b1^1",
    "b2^1,b1b2^1", "b2^3", "a1A2B2^1", "a1A2b1^1", "a1B1B2^1", "a1B1B1^1",
    "a1B1a2^1", "a1a1B1^1", "a1a1b1^1", "a1b1B2^1", "a1b1b1^1", "a1b1a2^1",
    "a1a2B2^1", "a1a2b2^1", "a1b2b1^1", "b1B2A2^1", "b1b2A2^1", "b1b2a2^1",
    "a2B2B2^1", "a2a2B2^1", "a2a2b2^1", "a2b2b2^1",
)
# Pairs of non-simple classes that reach the exhaustive slot search. A scan
# of 1,000 random pairs (a word of length 2-3 against one of length 2-4,
# drawn from Random(77), PYTHONHASHSEED=0, in one process) at the parent gave
# 50 pairs whose search returned in 0.05-1 s, 63 that raised
# ReductionBudgetExceeded and 80 that ran past 1.5 s. HEAVY_PAIRS are the
# first 24 of the 50 and BUDGET_PAIRS the first 3 failures that took under
# 0.05 s. The pairs past 1.5 s are left out: one such item took most of a
# batch's time, and the host's speed changes within an item that long, so
# the batch time could not be measured steadily.
HEAVY_PAIRS = (
    ("A2B1B1", "A1a2"), ("A1B2", "A1a2"), ("b1a2", "A2a1"),
    ("A1a2A1", "B2a1a1"), ("b2b2a1", "a1a1B2a1"), ("b2A2a1", "a2a1a1"),
    ("b1B2", "A2A1A1"), ("a2A1", "A2a1"), ("b2B1", "b1a2"), ("a1b2a1", "A1a2"),
    ("b1b2b1", "A2b1B2B1"), ("a1B2B2", "A1a2B1"), ("a1a2b1", "b2A2a1a1"),
    ("A2b2A1", "A2A2A1"), ("B1b2", "b2b1b1"), ("A1a2", "B1B2a2B2"),
    ("A2A2B1", "b1b2b1"), ("A2B1", "A2A1B1"), ("a2a1a2", "a2b1"),
    ("B2b1A1", "B2B2a1"), ("A2b2a1", "b1B2"), ("A1a2", "B2b1a2a1"),
    ("B1b2", "b2B1"), ("b2b1a2", "b1A2a1"),
)
BUDGET_PAIRS = (("b1B2A1", "a1a1b2"), ("A1a2", "b2B1B1b2"), ("a2A1", "B2a2A1A1"))
TWIST_GENERATORS = 2 * GENUS + 1
# Each batch starts with CORE_SHARE of its items drawn from CORE_SEED, the
# same items in the same order in every run, and ends with items drawn from
# the run's seed. Random inputs of this package differ in cost by orders of
# magnitude and items share cached work, so with every item drawn per seed
# the spread between seeds of a run's time would exceed the benchmark's
# bounds. Item times are sparse around twist's median, so even a 5% seeded
# share moved its item_ms_p50 by up to 8% between seeds.
CORE_SEED = 1909
CORE_SHARE = 0.99


def random_word(rng: random.Random, length: int) -> tuple:
    """A freely reduced word of the given length over the genus-2 letters."""
    word = []
    while len(word) < length:
        letter = rng.choice(LETTERS)
        if not word or letter != -word[-1]:
            word.append(letter)
    return tuple(word)


def cyclic_key(word) -> tuple:
    """Smallest rotation of the cyclically reduced word or of its inverse."""
    w = list(word)
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    inverse = [-l for l in reversed(w)]
    return min(tuple(v[i:] + v[:i]) for v in (w, inverse) for i in range(len(v)))


def _name(letter: int) -> str:
    idx = (abs(letter) + 1) // 2
    base = "a" if abs(letter) % 2 else "b"
    return (base if letter > 0 else base.upper()) + str(idx)


def word_text(word) -> str:
    return "".join(_name(l) for l in word)


def parse_text(text: str) -> tuple:
    """The word of a text such as "a1B2" (capital letters are inverses)."""
    word = []
    for name, idx in re.findall(r"([abAB])(\d+)", text):
        letter = 2 * int(idx) - (1 if name.lower() == "a" else 0)
        word.append(letter if name.islower() else -letter)
    return tuple(word)


def algebraic_intersection(ct, s, x, y) -> int:
    """Symplectic pairing of the homology classes of two words."""
    u = ct.homology_class(s, x).coords
    v = ct.homology_class(s, y).coords
    return sum(
        u[2 * i] * v[2 * i + 1] - u[2 * i + 1] * v[2 * i] for i in range(GENUS)
    )


class Workload:
    name = ""
    items_per_s = 1.0  # at the parent on the reference host; sizes the batch
    min_items = 100
    # failure codes of known defects: prefixes of "ErrorName: message" for
    # raised CurvetraceErrors, and check codes
    known_failures = ()

    def item_count(self, seconds: float) -> int:
        return max(self.min_items, round(self.items_per_s * seconds))

    def inputs(self, rng: random.Random, count: int) -> list:
        fixed = round(count * CORE_SHARE)
        return self.draw(random.Random(CORE_SEED), fixed) + self.draw(rng, count - fixed)

    def draw(self, rng: random.Random, count: int) -> list:
        raise NotImplementedError

    def is_known(self, code: str) -> bool:
        return code.startswith(self.known_failures)

    def run(self, ct, s, item):
        raise NotImplementedError

    def check(self, ct, s, item, answer):
        raise NotImplementedError


class Thurston(Workload):
    """thurston_max_check over every simple delta of length <= 2 against
    random alpha words of length 3-6 and the five known mismatch alphas."""

    name = "thurston"
    items_per_s = 120.0
    min_items = 10 * len(DELTA_WORDS)
    known_failures = ("overcount",)

    def item_count(self, seconds):
        per_alpha = len(DELTA_WORDS)
        return per_alpha * round(super().item_count(seconds) / per_alpha)

    def draw(self, rng, count):
        return [word_text(random_word(rng, rng.randint(3, 6))) for _ in range(count)]

    def inputs(self, rng, count):
        drawn = count // len(DELTA_WORDS) - len(KNOWN_MISMATCH_ALPHAS)
        alphas = list(KNOWN_MISMATCH_ALPHAS) + super().inputs(rng, drawn)
        return [(d, a) for a in alphas for d in DELTA_WORDS]

    def run(self, ct, s, item):
        delta, alpha = item
        return ct.thurston_max_check(
            s, ct.canonical_class(s, ct.parse_word(s, delta)), ct.parse_word(s, alpha)
        )

    def check(self, ct, s, item, report):
        if report.ok:
            return None
        value = report.expansion_value
        if value.finite and report.diagram_count > value.value:
            # diagram counts bound i from above, so this is the known
            # overcount of intersection_number (ROADMAP item 1)
            return "overcount"
        return "mismatch"


class Pairs(Workload):
    """intersection_number on class pairs.

    Each batch starts with HEAVY_PAIRS, which reach the exhaustive slot
    search, then BUDGET_PAIRS, which raise ReductionBudgetExceeded at the
    parent. The other items pair a generator with a word of length 5-7,
    drawn like every workload's items. No pair of classes repeats in a
    batch: lru_cache keeps no exceptions, so a failing pair would be
    computed again in full.
    """

    name = "pairs"
    items_per_s = 9.0
    # light pairs beyond 100 keep the median among them dense: at 100 items
    # item_ms_p50 spread 0.16 over five seeds
    min_items = 150
    known_failures = ("ReductionBudgetExceeded",)

    @staticmethod
    def _key(x, y):
        # free-group conjugacy up to inversion; for the fixed pairs' words,
        # too short to hold half a relator, this is surface conjugacy (the
        # light pairs never fail, so a repeat among them costs little)
        return tuple(sorted((cyclic_key(x), cyclic_key(y))))

    def _fill(self, items, seen, rng, stop):
        while len(items) < stop:
            x = random_word(rng, 1)
            y = random_word(rng, rng.randint(5, 7))
            if self._key(x, y) not in seen:
                seen.add(self._key(x, y))
                items.append((x, y))

    def inputs(self, rng, count):
        items = [
            (parse_text(x), parse_text(y)) for x, y in HEAVY_PAIRS + BUDGET_PAIRS
        ]
        seen = {self._key(x, y) for x, y in items}
        fixed = len(items) + round((count - len(items)) * CORE_SHARE)
        self._fill(items, seen, random.Random(CORE_SEED), fixed)
        self._fill(items, seen, rng, count)
        return items

    def run(self, ct, s, item):
        x, y = item
        return ct.intersection_number(
            s, ct.canonical_class(s, x), ct.canonical_class(s, y)
        )

    def check(self, ct, s, item, i):
        alg = algebraic_intersection(ct, s, *item)
        if i < abs(alg) or (i - alg) % 2:
            return "bound"
        return None


class Twist(Workload):
    """T(x.y) = T(x).T(y) for a random twist generator T and multicurves x, y
    of total length <= 3."""

    name = "twist"
    items_per_s = 30.0
    # found by this benchmark: tauten_routes fails on some twisted products
    known_failures = ("ModelInconsistency: bigon arcs cross different edges",)

    def draw(self, rng, count):
        return [
            (
                rng.randint(1, TWIST_GENERATORS),
                rng.choice(MULTICURVES),
                rng.choice(MULTICURVES),
            )
            for _ in range(count)
        ]

    def run(self, ct, s, item):
        index, x_text, y_text = item
        twist = ct.twist_generator(s, index)
        x = ct.basis_expression(ct.parse_multicurve(s, x_text))
        y = ct.basis_expression(ct.parse_multicurve(s, y_text))
        left = ct.apply_to_expression(s, twist, ct.multiply_expressions(s, x, y))
        right = ct.multiply_expressions(
            s,
            ct.apply_to_expression(s, twist, x),
            ct.apply_to_expression(s, twist, y),
        )
        return left, right

    def check(self, ct, s, item, sides):
        left, right = sides
        return None if left == right else "unequal"


WORKLOADS = {w.name: w for w in (Thurston(), Pairs(), Twist())}
