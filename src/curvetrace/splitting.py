"""Intersection numbers with a simple class, read off its splitting of pi1.

A simple closed curve delta splits the surface group, and i(delta, alpha) is
the translation length of alpha on the Bass-Serre tree dual to delta (Serre,
Trees, 1980; Britton's lemma and the amalgam normal form in Lyndon & Schupp,
Combinatorial Group Theory, 1977, ch. IV).  The translation length is the
length of a cyclically reduced form, so the count is pure word algebra.

Both splittings are graphs of groups with one edge, so both counts are one
reduction of a cyclic word t^s0 u0 t^s1 u1 ... whose crossings t^+-1 of the
edge alternate with segments u in the vertex groups.  A segment between
crossings of opposite sign that is a power of the edge word on its side is a
backtrack: it is replaced by the same power of the edge word on the other
side and merges with its neighbours, and the count is the number of
crossings left when no backtrack is (_tree_length).  The two counts differ
only in their cutters:

- delta = d, a generator, is non-separating: pi1 is an HNN extension of the
  free group on the other 2g-1 generators with stable letter t = b_k for
  d = a_k and t = a_k for d = b_k, and t d t^-1 = Y d.  Y is R_k for d = a_k
  and R_k^-1 for d = b_k, where R_k is the product of the other g-1
  commutators in cyclic order starting after handle k (the relator, rotated
  to start at handle k, reads [a_k, b_k] R_k).  The crossings are the t
  letters, and the edge words are d after t and Yd after t^-1 (Britton's
  pinches).
- delta = [a1,b1]...[ah,bh] separates: pi1 is the amalgam of the free groups
  on the first h handles and on the rest over C1 = [a1,b1]...[ah,bh] =
  ([a_{h+1},b_{h+1}]...[ag,bg])^-1 = C2.  The crossings are where the word
  changes factor, +1 into handles h+1..g and -1 back, and the edge words are
  C2 after +1 and C1 after -1.

d, Yd, C1 and C2 are cyclically reduced, so a freely reduced word is a power
of one of them exactly when it is a repeat of it or of its inverse.

Any other simple delta is carried to one of these standard curves by a
product phi of short twists, and i(delta, alpha) is the count of
phi^-1(alpha).  phi is found by a search from delta, shortest twist image
first, that stops at a class whose phi is known; the table of known classes
is kept per genus.  Searching from delta rather than breadth-first from the
standard curves keeps the table to the classes asked about: on the benchmark's
twist workload, the breadth-first table took 371 classes to reach one simple
class of length 6.  The twists the search expands by are built on its first
miss, so a count against a standard curve draws no class.

The table holds one entry per class word: the standard curve, the chain,
and phi^-1 itself as the images of the generators, composed once when the
chain is recorded; a class the search missed is held as None.  Beside it,
each standard curve's count is built once, with its stable letter (or
handle bound) and edge words bound.  splitting_count is the one count
against a simple class: one lookup, then one substitution and one tree
reduction whatever the chain's length, and only the tree reduction for a
standard curve.  Substitutions are homomorphisms of the free group and
compose as such, so substituting the composed images into alpha gives the
same freely reduced word as substituting the chain's inverse twists one at
a time.  The count is a conjugacy invariant, so phi^-1(alpha) is only
substituted and freely reduced, never normalized.  A counter takes a freely
reduced word, a class word or a substitution's, and only strips it
cyclically; a backtrack merges reduced segments and edge words at their
seams.
"""
from __future__ import annotations

from functools import cached_property, lru_cache, partial
from heapq import heappop, heappush

from . import mapping
from .curves import enumerate_simple_classes
from .words import (
    _canonical_class,
    _cyclic_strip,
    _join,
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


def _tree_length(signs, segs, ends) -> int:
    """Translation length of the cyclic word t^signs[0] segs[0] t^signs[1]
    segs[1] ..., where ends[sign] is the edge word a segment after t^sign
    may be a power of: cancel backtracks until none is left."""
    pinched = True
    while pinched and signs:
        pinched = False
        m = len(signs)
        for i in range(m):
            if signs[i] == signs[(i + 1) % m]:
                continue
            # t^s u t^-s with u = ends[s]^n is ends[-s]^n on the other side
            n = _power(segs[i], ends[signs[i]])
            if n is None:
                continue
            if m == 2:
                return 0
            j = (i - 1) % m
            signs = signs[j:] + signs[:j]
            segs = segs[j:] + segs[:j]
            merged = _join((segs[0], _repeat(ends[-signs[1]], n), segs[2]))
            signs = signs[:1] + signs[3:]
            segs = [merged] + segs[3:]
            pinched = True
            break
    return len(signs)


def _segments(w, cuts, skip: int) -> list:
    """The pieces of the cyclic word w between its cut positions, each
    without the skip letters at its cut."""
    n, doubled = len(w), w + w
    return [
        doubled[i + skip : i + ((j - i) % n or n)]
        for i, j in zip(cuts, cuts[1:] + cuts[:1])
    ]


def _hnn_edge(genus: int, d: int):
    """(stable letter, edge words) of the HNN splitting along a generator d."""
    k = (d + 1) // 2
    t = d + 1 if d % 2 else d - 1
    r_k = _commutators(list(range(k + 1, genus + 1)) + list(range(1, k)))
    return t, {1: (d,), -1: (inverse_word(r_k) if d % 2 == 0 else r_k) + (d,)}


def _hnn_length(t: int, ends, word) -> int:
    w = _cyclic_strip(word)
    cuts = [i for i, l in enumerate(w) if abs(l) == t]
    signs = [1 if w[i] == t else -1 for i in cuts]
    return _tree_length(signs, _segments(w, cuts, 1), ends)


def _amalgam_edge(genus: int, h: int):
    """(last letter of the first h handles, edge words) of the amalgam
    splitting along [a1,b1]...[ah,bh]."""
    return 2 * h, {
        1: inverse_word(_commutators(range(h + 1, genus + 1))),
        -1: _commutators(range(1, h + 1)),
    }


def _amalgam_length(top: int, ends, word) -> int:
    w = _cyclic_strip(word)
    inner = [abs(l) <= top for l in w]
    cuts = [i for i in range(len(w)) if inner[i] != inner[i - 1]]
    signs = [-1 if inner[i] else 1 for i in cuts]
    return _tree_length(signs, _segments(w, cuts, 0), ends)


class _TwistSearch:
    """Products of short twists that carry a standard curve to a given
    simple class: +-1 twists along the non-separating simple classes of
    length <= 2, which twists builds on the first miss.

    counters maps each standard curve, a generator or a separating
    [a1,b1]...[ah,bh], to its count as a function of the word, with its
    splitting's cut letter and edge words bound.  classes maps each
    canonical class word searched for or passed on the way to (standard
    curve, twist chain, phi^-1) with phi(standard) = the class, phi^-1 given
    by the images of the generators, or to None for a miss; it starts with
    the standard curves.  find searches from the class best-first, shortest
    image first, until an image has an entry, and records the entry of
    every class on the way: a class one twist T further along has
    phi' = T phi, so its phi'^-1 sends generator k to phi^-1(T^-1(k)):
    phi^-1's images substituted into T's inverse images, one substitution
    per generator.  phi'^-1(w) is then the same freely reduced word as T^-1
    substituted first and phi^-1 after.  A search that visits
    _SPLIT_SEARCH_CAP classes without meeting an entry is a miss.
    """

    def __init__(self, genus: int):
        self.genus = genus
        self.counters = {
            (d,): partial(_hnn_length, *_hnn_edge(genus, d))
            for d in range(1, 2 * genus + 1)
        }
        for h in range(1, genus // 2 + 1):
            count = partial(_amalgam_length, *_amalgam_edge(genus, h))
            self.counters[_commutators(range(1, h + 1))] = count
        identity = tuple((k,) for k in range(1, 2 * genus + 1))
        self.classes = {
            _canonical_class(genus, standard).word: (standard, (), identity)
            for standard in self.counters
        }

    @cached_property
    def twists(self) -> tuple:
        """(class word, turns) of the twists find expands by, built on the
        first miss and kept with the search."""
        s = make_surface(self.genus)
        return tuple(
            (c.word, turns)
            for c in enumerate_simple_classes(s, 2)
            if not homology_class(s, c.word).is_zero()
            for turns in (1, -1)
        )

    def find(self, word):
        """(standard, chain, phi^-1 images) for the canonical class word, or
        None."""
        if word in self.classes:
            return self.classes[word]
        came_from = {word: None}  # class -> (class it is a twist image of, twist)
        heap = [(len(word), word)]
        while heap and len(came_from) < _SPLIT_SEARCH_CAP:
            here = heappop(heap)[1]
            for twist in self.twists:
                f = mapping._twist_cached(self.genus, *twist)
                image = _canonical_class(
                    self.genus, mapping._substitute(f.images, here)
                ).word
                if image in came_from:
                    continue
                came_from[image] = (here, twist)
                hit = self.classes.get(image)
                if hit is not None:
                    # image = twist(here), so here = twist^-1(image)
                    standard, chain, images = hit
                    while came_from[image] is not None:
                        image, (c, turns) = came_from[image]
                        chain = chain + ((c, -turns),)
                        f = mapping._twist_cached(self.genus, c, -turns)
                        images = tuple(
                            mapping._substitute(images, w) for w in f.inverse_images
                        )
                        self.classes[image] = (standard, chain, images)
                    return self.classes[word]
                heappush(heap, (len(image), image))
        self.classes[word] = None
        return None


@lru_cache(maxsize=None)
def twist_search(genus: int) -> _TwistSearch:
    return _TwistSearch(genus)


def splitting_count(genus: int, delta, word):
    """i(delta, word) for a simple class delta (canonical word) and a freely
    reduced word, or None when the search finds no phi for delta."""
    search = twist_search(genus)
    hit = search.find(delta)
    if hit is None:
        return None
    standard, chain, images = hit
    if chain:
        word = mapping._substitute(images, word)
    return search.counters[standard](word)
