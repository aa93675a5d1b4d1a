"""Words in a closed surface group: reduction, normal forms, conjugacy classes.

Letters are nonzero ints: +k is the k-th generator, -k its inverse, with
k = 1..2g ordered a1, b1, a2, b2, ... The defining relator is the product of
commutators [a1,b1][a2,b2]...[ag,bg].

The relator has all 4g letters pairwise distinct, so any two of its cyclic
shifts (or shifts of its inverse) share factors of length at most 1.  Dehn's
algorithm therefore applies: a word is geodesic iff it contains no factor
longer than half the relator.  Two conjugate cyclic geodesics are related by
rotations together with rewrites coming from an annulus of relator cells: a
lone cell is the exactly-half factor swap, while chains and rings of several
cells pass through longer intermediates.  Both kinds of rewrite are chased
when building canonical class representatives; cell chains and rings need at
least 2(2g-1) boundary letters, so shorter words only ever need half swaps.

half_swap_closure is the lone-cell part of that chase alone, for cyclic
words that need not be geodesic: it Dehn-reduces after every swap and keeps
going from whatever the swap exposed.

That chase (cyclic_spellings) is the costly step, so each oriented class is
chased at most once per process: its closure is stored as one frozenset under
every member, and the closure of the inverse class is stored with it as the
mirror image, which is exact because every rewrite table commutes with
inversion.  canonical_class therefore chases one orientation, and later
spellings of the class in either orientation are lookups.

The alphabet (letters, reduced_words) and the homology pairings live here too:
intersection_form is the symplectic form on H_1 (mod 2, the pairing behind the
sign characters) and mod2_class the mod-2 class of a weighted multicurve.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import BadLetter, GenusTooSmall, ModelInconsistency, TrivialClass

GroupWord = tuple  # tuple of nonzero ints

_TOKEN_RE = re.compile(r"([abAB])(\d+)")
_CLOSURE_CAP = 200_000
_ANNULUS_CAP = 60_000
# (genus, rotation-minimal cyclic geodesic) -> frozenset closure of its
# oriented class, filled by cyclic_spellings
_CLOSURES: dict = {}


@dataclass(frozen=True)
class Surface:
    """Closed orientable surface of genus >= 2 with its one-relator data."""

    genus: int
    generators: tuple
    relator: GroupWord

    def __post_init__(self):
        if self.genus < 2:
            raise GenusTooSmall(f"genus must be >= 2, got {self.genus}")

    @property
    def rank(self) -> int:
        return 2 * self.genus


@dataclass(frozen=True, order=True)
class CurveClass:
    """A nontrivial free homotopy class, keyed by its canonical cyclic word.

    Construct through canonical_class(); the word is cyclically reduced,
    geodesic, and lexicographically minimal over all rotations, relator-cell
    rewritings (half swaps, cell chains, cell rings), and both orientations.
    """

    genus: int
    word: GroupWord

    def __len__(self) -> int:
        return len(self.word)


def generator_name(letter: int) -> str:
    idx = (abs(letter) + 1) // 2
    base = "a" if abs(letter) % 2 == 1 else "b"
    return (base if letter > 0 else base.upper()) + str(idx)


def make_surface(genus: int) -> Surface:
    if genus < 2:
        raise GenusTooSmall(f"genus must be >= 2, got {genus}")
    relator = []
    for i in range(genus):
        a, b = 2 * i + 1, 2 * i + 2
        relator.extend((a, b, -a, -b))
    names = tuple(generator_name(k) for k in range(1, 2 * genus + 1))
    return Surface(genus=genus, generators=names, relator=tuple(relator))


def letters(genus: int) -> tuple:
    """The 4g letters in the order a1, A1, b1, B1, a2, ..."""
    return tuple(l for k in range(1, 2 * genus + 1) for l in (k, -k))


def reduced_words(genus: int, max_length: int) -> Iterator[GroupWord]:
    """Every nonempty freely reduced word of length <= max_length (depth first)."""
    alphabet = letters(genus)
    stack = [()]
    while stack:
        w = stack.pop()
        if w:
            yield w
        if len(w) < max_length:
            stack.extend(w + (l,) for l in alphabet if not w or l != -w[-1])


def parse_word(surface: Surface, text: str) -> GroupWord:
    """Parse text like 'a1 b2 A1' or 'a1b2A1' into letters.

    Uppercase means inverse.  Tokens may concatenate; an index is the maximal
    digit run after its letter, so single-digit indices never need spaces.
    """
    letters = []
    for token in text.split():
        consumed = 0
        for match in _TOKEN_RE.finditer(token):
            if match.start() != consumed:
                raise BadLetter(f"cannot parse {token!r}")
            consumed = match.end()
            base, idx = match.group(1), int(match.group(2))
            if idx < 1 or idx > surface.genus:
                raise BadLetter(
                    f"index {idx} outside genus-{surface.genus} alphabet in {token!r}"
                )
            k = 2 * (idx - 1) + (1 if base in "aA" else 2)
            letters.append(k if base.islower() else -k)
        if consumed != len(token):
            raise BadLetter(f"cannot parse {token!r}")
    return tuple(letters)


def format_word(word: Iterable) -> str:
    names = [generator_name(l) for l in word]
    if not names:
        return "-"
    if all(len(n) == 2 for n in names):
        return "".join(names)
    return " ".join(names)


def inverse_word(word: GroupWord) -> GroupWord:
    return tuple(-l for l in reversed(word))


def free_reduce(word: Iterable) -> GroupWord:
    out = []
    for l in word:
        if l == 0:
            raise BadLetter("letter 0 is not allowed")
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def cyclic_free_reduce(word: Iterable) -> GroupWord:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def rotations(word: GroupWord) -> Iterator[GroupWord]:
    for i in range(max(1, len(word))):
        yield word[i:] + word[:i]


def word_key(word: GroupWord):
    """Deterministic order: a1 < A1 < b1 < B1 < a2 < ..., shorter first."""
    return (len(word), tuple((abs(l), l < 0) for l in word))


class _Tables:
    """Per-genus Dehn rewriting tables."""

    def __init__(self, genus: int):
        self.genus = genus
        self.half = 2 * genus
        relator = make_surface(genus).relator
        self.relator = relator
        shifts = set()
        for base in (relator, inverse_word(relator)):
            for rot in rotations(base):
                shifts.add(rot)
        if len(shifts) != 8 * genus:
            raise ModelInconsistency("relator shifts collide")
        self.long_repl = {}
        self.half_repl = {}
        for s in shifts:
            for length in range(self.half, 4 * genus):
                factor, rest = s[:length], s[length:]
                repl = inverse_word(rest)
                table = self.half_repl if length == self.half else self.long_repl
                if table.setdefault(factor, repl) != repl:
                    raise ModelInconsistency("ambiguous Dehn replacement")
        # exactly-half replacement is an involution
        for factor, repl in self.half_repl.items():
            if self.half_repl[repl] != factor:
                raise ModelInconsistency("half replacement not involutive")
        # every relator-cell move: any prefix of a shift may be traded for the
        # inverse of its complement (lengthening when the prefix is short);
        # prefixes of length >= 2 determine their shift because pieces have
        # length <= 1, so only single letters carry two replacements
        moves = {}
        for s in shifts:
            for length in range(1, 4 * genus):
                factor, rest = s[:length], s[length:]
                moves.setdefault(factor, []).append(inverse_word(rest))
        self.cell_moves = {f: tuple(rs) for f, rs in moves.items()}
        # both move tables commute with inversion (factor f -> r gives f^-1 ->
        # r^-1); cyclic_spellings relies on this to mirror a closure exactly
        for factor, repl in self.half_repl.items():
            if self.half_repl.get(inverse_word(factor)) != inverse_word(repl):
                raise ModelInconsistency("half replacement not closed under inversion")
        for factor, repls in self.cell_moves.items():
            mirrored = self.cell_moves.get(inverse_word(factor), ())
            if set(mirrored) != {inverse_word(r) for r in repls}:
                raise ModelInconsistency("cell moves not closed under inversion")


@lru_cache(maxsize=None)
def _tables(genus: int) -> _Tables:
    return _Tables(genus)


def _first_long_match(t: _Tables, word: GroupWord):
    top = min(len(word), 4 * t.genus - 1)
    for length in range(top, t.half, -1):
        for i in range(len(word) - length + 1):
            repl = t.long_repl.get(word[i : i + length])
            if repl is not None:
                return i, length, repl
    return None


def dehn_reduce(genus: int, word: Iterable) -> GroupWord:
    """Shorten a word to Dehn-geodesic form (leftmost-longest replacements)."""
    t = _tables(genus)
    w = free_reduce(word)
    while True:
        hit = _first_long_match(t, w)
        if hit is None:
            return w
        i, length, repl = hit
        w = free_reduce(w[:i] + repl + w[i + length :])


def _half_swaps(t: _Tables, word: GroupWord) -> Iterator[GroupWord]:
    for i in range(len(word) - t.half + 1):
        repl = t.half_repl.get(word[i : i + t.half])
        if repl is not None:
            yield free_reduce(word[:i] + repl + word[i + t.half :])


def geodesic_spellings(genus: int, word: Iterable):
    """All geodesic spellings of the element (closure under half swaps)."""
    t = _tables(genus)
    w = dehn_reduce(genus, word)
    while True:
        seen = {w}
        frontier = [w]
        shortened = None
        while frontier and shortened is None:
            nxt = []
            for state in frontier:
                for new in _half_swaps(t, state):
                    if len(new) < len(state) or _first_long_match(t, new):
                        shortened = new
                        break
                    if new not in seen:
                        seen.add(new)
                        nxt.append(new)
                if shortened is not None:
                    break
                if len(seen) > _CLOSURE_CAP:
                    raise ModelInconsistency("geodesic closure exploded")
            frontier = nxt
        if shortened is None:
            return seen
        w = dehn_reduce(genus, shortened)


def normalize_word(surface: Surface, word: Iterable) -> GroupWord:
    """Canonical geodesic form of the group element (lex-min spelling)."""
    return min(geodesic_spellings(surface.genus, word), key=word_key)


def words_equal(surface: Surface, u: Iterable, v: Iterable) -> bool:
    return normalize_word(surface, tuple(u) + inverse_word(tuple(v))) == ()


def _cyclic_dehn_reduce(genus: int, word: Iterable) -> GroupWord:
    t = _tables(genus)
    w = cyclic_free_reduce(word)
    while True:
        n = len(w)
        if n == 0:
            return w
        doubled = w + w
        hit = None
        top = min(n, 4 * genus - 1)
        for length in range(top, t.half, -1):
            for i in range(n):
                repl = t.long_repl.get(doubled[i : i + length])
                if repl is not None:
                    hit = (i, length, repl)
                    break
            if hit:
                break
        if hit is None:
            return w
        i, length, repl = hit
        w = cyclic_free_reduce(repl + doubled[i + length : i + n])


def half_swap_closure(genus: int, word: GroupWord) -> set:
    """Every cyclic word that exactly-half swaps reach from the word, each one
    cyclically Dehn-reduced, as its rotation-minimal spelling (tuple order).

    A swap that exposes a shorter word keeps the shorter word and goes on
    from it, where cyclic_spellings stops.
    """
    t = _tables(genus)
    start = min(rotations(_cyclic_dehn_reduce(genus, word)))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            n = len(state)
            doubled = state + state
            for i in range(n):
                repl = t.half_repl.get(doubled[i : i + t.half])
                if repl is None:
                    continue
                new = _cyclic_dehn_reduce(genus, repl + doubled[i + t.half : i + n])
                new = min(rotations(new))
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
            if len(seen) > _CLOSURE_CAP:
                raise ModelInconsistency("half-swap closure exploded")
        frontier = nxt
    return seen


def _min_rotation(word: GroupWord) -> GroupWord:
    return min(rotations(word), key=word_key)


class _Shortened(Exception):
    """Internal signal: a cyclic word turned out not to be conjugacy-minimal."""

    def __init__(self, word: GroupWord):
        self.word = word


def _splice(rotated: GroupWord, flen: int, repl: GroupWord):
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


def _annulus_neighbors(t: _Tables, word: GroupWord):
    """Equal-length conjugates of a cyclic geodesic across one relator annulus.

    A lone relator cell meeting both boundary circles of an annulus is the
    exactly-half swap; chains and rings of several cells rewrite the word
    through longer intermediates that no sequence of half swaps visits.  Chase
    them: apply one cell move anywhere, then keep applying cell moves where
    the previous one left off, collecting every rewrite that returns to the
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
        if len(seen) > _ANNULUS_CAP:
            raise ModelInconsistency("annulus chase exploded")
        frontier.append(state)

    # a cell bordering a geodesic boundary keeps an outer arc of at least
    # half - 2 letters, and at most two shared edges ever join the arc, so
    # only factor lengths half - 2 .. half + 2 take part in chains and rings
    doubled = word + word
    for flen in range(t.half - 2, t.half + 1):
        for i in range(n):
            for repl in t.cell_moves.get(doubled[i : i + flen], ()):
                push(_splice(doubled[i : i + n], flen, repl))
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
                        push(_splice(d2[i : i + m], flen, repl))
    return out


def cyclic_spellings(genus: int, word: GroupWord) -> frozenset:
    """All cyclic geodesic spellings of the oriented class, up to rotation.

    Input must be cyclically Dehn-reduced; returns rotation-minimal
    representatives as one shared frozenset.  Each closure is chased once per
    process and stored in _CLOSURES under every member, together with its
    mirror, the closure of the inverse class: the move tables commute with
    inversion (checked in _Tables), so inverting every step of a chase from w
    gives a chase from w^-1 and the mirror is exact.  Raises _Shortened if a
    rewrite exposes a shorter conjugate (cannot happen for a true conjugacy
    geodesic, but callers restart on it); such a chase is not stored.
    """
    w = _min_rotation(word)
    closure = _CLOSURES.get((genus, w))
    if closure is None:
        closure = frozenset(_chase_spellings(genus, w))
        mirror = frozenset(_min_rotation(inverse_word(m)) for m in closure)
        for members in (closure, mirror):
            for m in members:
                _CLOSURES[genus, m] = members
    return closure


def _chase_spellings(genus: int, w: GroupWord) -> set:
    """Close the rotation-minimal cyclic geodesic w under half swaps and, for
    words long enough for multi-cell annulus rewrites, annulus rewrites."""
    t = _tables(genus)
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
                repl = t.half_repl.get(doubled[i : i + t.half])
                if repl is None:
                    continue
                new = cyclic_free_reduce(repl + doubled[i + t.half : i + n])
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


def canonical_class(surface: Surface, word: Iterable) -> CurveClass:
    """Canonical representative of the unoriented free homotopy class."""
    return _canonical_class(surface.genus, free_reduce(word))


@lru_cache(maxsize=None)
def _canonical_class(genus: int, word: GroupWord) -> CurveClass:
    # checked on cache misses only: a word that was ever cached is valid
    for l in word:
        if abs(l) > 2 * genus:
            raise BadLetter(f"letter {l!r} outside genus-{genus} alphabet")
    w = _cyclic_dehn_reduce(genus, word)
    if not w:
        raise TrivialClass("word is null-homotopic")
    while True:
        try:
            # the inverse of a cyclic Dehn geodesic is one; its closure is the
            # mirror stored by the first call, so only one orientation is chased
            members = cyclic_spellings(genus, w) | cyclic_spellings(
                genus, inverse_word(w)
            )
            break
        except _Shortened as s:
            w = _cyclic_dehn_reduce(genus, s.word)
            if not w:
                raise TrivialClass("word is null-homotopic") from None
    return CurveClass(genus=genus, word=min(members, key=word_key))


def oriented_spellings(surface: Surface, cls: CurveClass):
    """Cyclic geodesic spellings (rotation-minimal) of the canonical orientation.

    A lookup in the closure table once canonical_class has built the class.
    """
    try:
        return cyclic_spellings(surface.genus, cls.word)
    except _Shortened as s:  # canonical words are conjugacy-minimal
        raise ModelInconsistency(
            f"canonical word {cls.word} shortened to {s.word}"
        ) from None


def primitive_root(surface: Surface, cls: CurveClass):
    """Return (root_class, k) with cls = root^k and root primitive.

    Complete because relator letters are pairwise distinct: a factor of u^k
    longer than |u| repeats a letter, so no relator factor straddles more than
    one period and powers of cyclic geodesics stay cyclically geodesic; the
    periodic spelling of a power therefore appears in the swap closure.
    """
    n = len(cls.word)
    best = None  # (period, spelling)
    for member in oriented_spellings(surface, cls):
        for p in range(1, n):
            if n % p:
                continue
            if member == member[p:] + member[:p]:
                if best is None or p < best[0]:
                    best = (p, member)
                break
    if best is None:
        return cls, 1
    p, member = best
    return canonical_class(surface, member[:p]), n // p


def is_primitive(surface: Surface, cls: CurveClass) -> bool:
    return primitive_root(surface, cls)[1] == 1


@dataclass(frozen=True)
class HomologyVector:
    """Exponent-sum vector in H_1, over Z or Z/2, coordinates a1,b1,...,ag,bg."""

    ring: str  # "Z" or "Z2"
    coords: tuple

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def homology_class(surface: Surface, word: Iterable, ring: str = "Z") -> HomologyVector:
    if ring not in ("Z", "Z2"):
        raise ValueError(f"ring must be 'Z' or 'Z2', got {ring!r}")
    coords = [0] * surface.rank
    for l in word:
        if not isinstance(l, int) or l == 0 or abs(l) > surface.rank:
            raise BadLetter(f"letter {l!r} outside alphabet")
        coords[abs(l) - 1] += 1 if l > 0 else -1
    if ring == "Z2":
        coords = [c % 2 for c in coords]
    return HomologyVector(ring=ring, coords=tuple(coords))


def intersection_form(u, v) -> int:
    """Symplectic form on H_1 coordinates (a1, b1, ..., ag, bg): the algebraic
    intersection number; reduced mod 2 it is the mod-2 intersection pairing."""
    return sum(
        u[2 * i] * v[2 * i + 1] - u[2 * i + 1] * v[2 * i] for i in range(len(u) // 2)
    )


def mod2_class(surface: Surface, components) -> tuple:
    """Mod-2 homology coordinates of a weighted multicurve given as
    ((CurveClass, weight), ...); components of even weight drop out."""
    total = [0] * surface.rank
    for cls, weight in components:
        if weight % 2:
            for i, c in enumerate(homology_class(surface, cls.word, "Z2").coords):
                total[i] ^= c
    return tuple(total)
