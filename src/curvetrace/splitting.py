"""Intersection numbers with a simple class, read off its splitting of pi1.

A simple closed curve delta splits the surface group, and i(delta, alpha) is
the translation length of alpha on the Bass-Serre tree dual to delta (Serre,
Trees, 1980; Britton's lemma and the amalgam normal form in Lyndon & Schupp,
Combinatorial Group Theory, 1977, ch. IV).  The translation length is the
length of a cyclically reduced form, so the count is pure word algebra:

- delta = d, a generator, is non-separating: pi1 is an HNN extension of the
  free group on the other 2g-1 generators with stable letter t = b_k for
  d = a_k and t = a_k for d = b_k, and t d t^-1 = Y d.  Y is R_k for d = a_k
  and R_k^-1 for d = b_k, where R_k is the product of the other g-1
  commutators in cyclic order starting after handle k (the relator, rotated
  to start at handle k, reads [a_k, b_k] R_k).  Pinch t u t^-1 when u is a
  power of d and t^-1 u t when u is a power of Yd, until no pinch is left;
  the count is the number of t letters that remain.
- delta = [a1,b1]...[ah,bh] separates: pi1 is the amalgam of the free groups
  on the first h handles and on the rest over C1 = [a1,b1]...[ah,bh] =
  ([a_{h+1},b_{h+1}]...[ag,bg])^-1 = C2.  Move every syllable that is a power
  of C1 or C2 to the other factor and merge, until none is left; the count
  is the number of syllables, or 0 when one is left.

d, Yd, C1 and C2 are cyclically reduced, so a freely reduced word is a power
of one of them exactly when it is a repeat of it or of its inverse.

Any other simple delta is carried to one of these standard curves by a
product phi of short twists, and i(delta, alpha) is the count of
phi^-1(alpha).  phi is found by a search from delta, shortest twist image
first, that stops at a class whose phi is known; the table of known classes
is kept per genus.  Searching from delta rather than breadth-first from the
standard curves keeps the table to the classes asked about: on the benchmark's
twist workload, the breadth-first table took 371 classes to reach one simple
class of length 6.  The count is a conjugacy invariant, so phi^-1(alpha) is
only substituted and freely reduced, never normalized.
"""
from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush

from . import mapping
from .curves import enumerate_simple_classes
from .words import (
    canonical_class,
    cyclic_free_reduce,
    free_reduce,
    homology_class,
    inverse_word,
    make_surface,
)

# classes one search for phi visits before it gives up
_SPLIT_SEARCH_CAP = 2_000


def _commutators(handles) -> tuple:
    return tuple(
        l for j in handles for l in (2 * j - 1, 2 * j, 1 - 2 * j, -2 * j)
    )


def _power(word, base):
    """n with word = base^n as freely reduced words, or None."""
    n, rest = divmod(len(word), len(base))
    if rest:
        return None
    if word == base * n:
        return n
    if word == inverse_word(base) * n:
        return -n
    return None


def _repeat(base, n) -> tuple:
    return base * n if n >= 0 else inverse_word(base) * -n


def hnn_count(genus: int, d: int, word) -> int:
    """i(d, word) for a generator d, as the translation length on the tree
    of the HNN splitting along d."""
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
    # the cyclic word t^signs[0] segs[0] t^signs[1] segs[1] ...
    signs = [1 if w[i] == t else -1 for i in cuts[:-1]]
    segs = [w[i + 1 : j] for i, j in zip(cuts, cuts[1:])]
    pinched = True
    while pinched and signs:
        pinched = False
        m = len(signs)
        for i in range(m):
            if signs[i] == signs[(i + 1) % m]:
                continue
            # t u t^-1 = (Yd)^n for u = d^n; t^-1 u t = d^n for u = (Yd)^n
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


def _merge_syllables(syllables) -> list:
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


def amalgam_count(genus: int, h: int, word) -> int:
    """i([a1,b1]...[ah,bh], word), as the translation length on the tree of
    the amalgam splitting along that separating curve."""
    joined = {
        True: _commutators(range(1, h + 1)),
        False: inverse_word(_commutators(range(h + 1, genus + 1))),
    }
    w = cyclic_free_reduce(word)
    syllables = []
    for l in w:
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


def standard_count(genus: int, standard, word) -> int:
    """i(standard, word) for a standard curve: a generator or a separating
    [a1,b1]...[ah,bh]."""
    if len(standard) == 1:
        return hnn_count(genus, standard[0], word)
    return amalgam_count(genus, len(standard) // 4, word)


def count_through(genus: int, standard, chain, word) -> int:
    """i(phi(standard), word), where phi applies the twists of chain, each
    (class word, turns), first to last."""
    for twist in reversed(chain):
        word = mapping._substitute(
            mapping._twist_cached(genus, *twist).inverse_images, word
        )
    return standard_count(genus, standard, word)


class _TwistSearch:
    """Products of short twists that carry a standard curve to a given
    simple class: +-1 twists along the non-separating simple classes of
    length <= 2.

    reached maps each canonical class word found so far to (standard curve,
    twist chain) with phi(standard) = the class; it starts with the standard
    curves.  find searches from the class best-first, shortest image first,
    until an image is in reached, and records the chain of every class on
    the way.  A search that visits _SPLIT_SEARCH_CAP classes without
    meeting reached is a miss, remembered in missed.
    """

    def __init__(self, genus: int):
        s = make_surface(genus)
        self.genus = genus
        self.surface = s
        self.twists = tuple(
            (c.word, turns)
            for c in enumerate_simple_classes(s, 2)
            if not homology_class(s, c.word).is_zero()
            for turns in (1, -1)
        )
        standards = [(k,) for k in range(1, 2 * genus + 1)]
        standards += [_commutators(range(1, h + 1)) for h in range(1, genus // 2 + 1)]
        self.reached = {}
        self.missed = set()
        for standard in standards:
            self.reached.setdefault(canonical_class(s, standard).word, (standard, ()))

    def find(self, word):
        """(standard, chain) for the canonical class word, or None."""
        hit = self.reached.get(word)
        if hit is not None or word in self.missed:
            return hit
        came_from = {word: None}  # class -> (class it is a twist image of, twist)
        heap = [(len(word), word)]
        while heap and len(came_from) < _SPLIT_SEARCH_CAP:
            here = heappop(heap)[1]
            for twist in self.twists:
                f = mapping._twist_cached(self.genus, *twist)
                image = canonical_class(
                    self.surface, mapping._substitute(f.images, here)
                ).word
                if image in came_from:
                    continue
                came_from[image] = (here, twist)
                if image in self.reached:
                    # image = twist(here), so here = twist^-1(image)
                    standard, chain = self.reached[image]
                    while came_from[image] is not None:
                        image, (c, turns) = came_from[image]
                        chain = chain + ((c, -turns),)
                        self.reached[image] = (standard, chain)
                    return self.reached[word]
                heappush(heap, (len(image), image))
        self.missed.add(word)
        return None


@lru_cache(maxsize=None)
def twist_search(genus: int) -> _TwistSearch:
    return _TwistSearch(genus)


def splitting_count(genus: int, delta, word):
    """i(delta, word) for a simple class delta (canonical word), or None
    when the search finds no phi for delta."""
    hit = twist_search(genus).find(delta)
    if hit is None:
        return None
    standard, chain = hit
    return count_through(genus, standard, chain, word)
