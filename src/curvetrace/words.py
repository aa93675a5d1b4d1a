"""Words in a closed surface group: reduction, normal forms, conjugacy classes.

Letters are nonzero ints: +k is the k-th generator, -k its inverse, with
k = 1..2g ordered a1, b1, a2, b2, ... The defining relator is the product of
commutators [a1,b1][a2,b2]...[ag,bg].

The relator has all 4g letters pairwise distinct, so any two of its cyclic
shifts (or shifts of its inverse) share factors of length at most 1.  Dehn's
algorithm therefore applies: a word is trivial iff it Dehn-reduces to the
empty word.  A geodesic has no factor longer than half the relator, but the
converse fails: B2A2b1a1a1B1A1b2 has no such factor at 8 letters, yet it is
the 6-letter A2B2a1a2b2A2, which swapping exactly-half factors for their
complements exposes.  So geodesic_spellings restarts whenever a swap
shortens.  Two conjugate cyclic geodesics of equal length bound an annular
diagram of relator cells (Lyndon & Schupp, Combinatorial Group Theory,
ch. V), and each annulus is a ladder: a run of cells along the word,
each on a factor of 2g-2..2g letters and sharing one edge with the next, up
to a ring around the whole word.  A lone cell on 2g letters is the
exactly-half swap.  _ladders reads every ladder off the word directly, and
canonical class representatives close under those rewrites.

Every spelling search is one breadth-first closure (_closure, the one place
that checks _CLOSURE_CAP) under a neighbour function: half swaps in
geodesic_spellings (a swap that shortens raises _Shortened, and the search
restarts from the shorter word), cyclic half swaps in half_swap_closure (each
cyclically Dehn-reduced; shorter words are kept), and ladders in
_chase_spellings.  The one Dehn scan, _first_long_match, reads a cyclic word
w as w + w[:4g-2].

The ladder closure (cyclic_spellings) is the costly step, so each oriented
class is closed at most once per process: its closure is stored as one
frozenset under every member, and the closure of the inverse class is stored
with it as the mirror image, which is exact because the one move table,
_Tables.cell_moves, commutes with inversion.  The entry also holds the
canonical word, the least member of closure and mirror together, so
canonical_class closes one orientation and later spellings of the class in
either orientation are one table read.  Spellings of equal length are ordered
by their letter codes 2|l| + (l < 0), so a1 < A1 < b1 < B1 < a2 < ...

A caller's word is checked once, by _word, in every public function that
takes one, cached or not.  A CurveClass checks its word the same way when it
is built, and refuses an empty word or one that is not cyclically reduced.
The package's own words are valid by construction and unchecked: it reads
their classes through _canonical_class (None when null-homotopic), which
builds each class around its canonical word without that check.

Value types (surfaces, classes, multicurves, expressions, laminations and the
reports on them) are records built by _record: namedtuples that equal only
values of their own type, hash as the tuple of their fields and refuse tuple
+ and *.  A record class is built without generating code per class, which
a dataclass does at every import.  valuations.ThurstonReport is the one
dataclass, because the benchmark's self-test (perfbench/selftest.py)
corrupts reports with dataclasses.replace.
"""
from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property, lru_cache
from operator import add
from typing import Iterable, Iterator

from .errors import (
    BadArgument,
    BadLetter,
    BadValue,
    GenusTooSmall,
    ModelInconsistency,
    ReductionBudgetExceeded,
    TrivialClass,
)

GroupWord = tuple  # tuple of nonzero ints

_LETTER_RE = re.compile(r"[abAB]\d+")
_CLOSURE_CAP = 200_000
# (genus, rotation-minimal cyclic geodesic) -> (frozenset closure of its
# oriented class, canonical word of its unoriented class), filled by
# _closure_entry
_CLOSURES: dict = {}


def _record_eq(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _record_ne(self, other) -> bool:
    return not _record_eq(self, other)


def _refuse(self, other):
    return NotImplemented


def _record(name: str, fields: str) -> type:
    """A namedtuple base for a value type whose values equal only values of
    their own type, hash as the tuple of their fields (as a frozen dataclass
    does, so set and dict order stay fixed under one hash seed) and refuse
    tuple + and *.  A subclass sets __slots__ = () unless its values keep
    attributes beside their fields, such as a cached_property."""
    base = namedtuple(name, fields)
    base.__eq__, base.__ne__, base.__hash__ = _record_eq, _record_ne, tuple.__hash__
    base.__add__ = base.__mul__ = base.__rmul__ = _refuse
    return base


class Surface(_record("Surface", "genus generators relator")):
    """Closed orientable surface of genus >= 2 with its one-relator data."""

    def __new__(cls, genus: int, generators: tuple, relator: GroupWord):
        if genus < 2:
            raise GenusTooSmall(f"genus must be >= 2, got {genus}")
        return tuple.__new__(cls, (genus, generators, relator))

    @property
    def rank(self) -> int:
        return 2 * self.genus

    @cached_property
    def _letter_of(self) -> dict:
        """Each generator's name and its inverse's, 'a1' and 'A1', to the letter."""
        table = {}
        for k, name in enumerate(self.generators, 1):
            table[name], table[name.upper()] = k, -k
        return table


class CurveClass(_record("CurveClass", "genus word")):
    """A nontrivial free homotopy class, keyed by its canonical cyclic word.

    Construct through canonical_class(); the word is cyclically reduced,
    geodesic, and lexicographically minimal over all rotations, ladders of
    relator cells (a lone cell is a half swap, a closed ladder a ring), and
    both orientations.  Building a class checks its letters by _word and
    raises BadValue for an empty word or one that is not cyclically reduced;
    whether the word is canonical is not checked.  Classes order by (genus,
    word).
    """

    __slots__ = ()

    def __new__(cls, genus: int, word: GroupWord):
        word = _word(genus, word)
        # a letter cyclically next to its inverse sums with it to 0
        if not word or 0 in map(add, word, word[1:] + word[:1]):
            raise BadValue(
                f"a class word is cyclically reduced and not empty, not {word}"
            )
        return tuple.__new__(cls, (genus, word))

    def __len__(self) -> int:
        return len(self.word)


def generator_name(letter: int) -> str:
    idx = (abs(letter) + 1) // 2
    base = "a" if abs(letter) % 2 == 1 else "b"
    return (base if letter > 0 else base.upper()) + str(idx)


def make_surface(genus: int) -> Surface:
    relator = []
    try:
        handles = range(genus)
    except TypeError:
        raise BadArgument(f"a genus is an int, not {genus!r}") from None
    for i in handles:
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


def _text(text) -> str:
    """The text to parse; BadArgument unless it is a str."""
    if not isinstance(text, str):
        raise BadArgument(f"expected text (a str), not {text!r}")
    return text


def _spelled_letter(genus: int, piece: str, token: str) -> int:
    """The letter of a piece like 'a01' that is not a generator's own name."""
    base, idx = piece[0], int(piece[1:])
    if idx < 1 or idx > genus:
        raise BadLetter(f"index {idx} outside genus-{genus} alphabet in {token!r}")
    k = 2 * (idx - 1) + (1 if base in "aA" else 2)
    return k if base.islower() else -k


def parse_word(surface: Surface, text: str) -> GroupWord:
    """Parse text like 'a1 b2 A1' or 'a1b2A1' into letters.

    Uppercase means inverse.  Tokens may concatenate; an index is the maximal
    digit run after its letter, so single-digit indices never need spaces.
    """
    table = surface._letter_of
    letters = []
    for token in _text(text).split():
        pieces = _LETTER_RE.findall(token)
        if sum(map(len, pieces)) != len(token):
            raise BadLetter(f"cannot parse {token!r}")
        try:
            letters.extend([table[piece] for piece in pieces])
        except KeyError:
            letters.extend(_spelled_letter(surface.genus, p, token) for p in pieces)
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


def _join(pieces: Iterable) -> GroupWord:
    """Free reduction of the concatenation of freely reduced pieces: the
    letters of each piece cancel against the word so far only until one is
    kept, and the rest of that piece cannot cancel."""
    out = []
    for piece in pieces:
        i, n = 0, len(piece)
        while i < n and out and out[-1] == -piece[i]:
            out.pop()
            i += 1
        out += piece[i:]
    return tuple(out)


def cyclic_free_reduce(word: Iterable) -> GroupWord:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def rotations(word: GroupWord) -> Iterator[GroupWord]:
    for i in range(max(1, len(word))):
        yield word[i:] + word[:i]


def _letter_codes(word: GroupWord) -> tuple:
    """Codes 2|l| + (l < 0): equal-length words compare as their code tuples."""
    return tuple([2 * abs(l) + (l < 0) for l in word])


class _Tables:
    """Per-genus relator-cell moves: cell_moves maps each factor of a relator
    shift to the inverses of its complements.  A factor of 2 or more letters
    has exactly one, so the Dehn replacements (factors longer than 2g) and
    the exactly-half swaps (factors of 2g) read cell_moves[f][0]."""

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
        for factor, repls in self.cell_moves.items():
            if len(factor) >= 2 and len(repls) != 1:
                raise ModelInconsistency("ambiguous Dehn replacement")
            # the exactly-half replacement is an involution
            if len(factor) == self.half and self.cell_moves[repls[0]][0] != factor:
                raise ModelInconsistency("half replacement not involutive")
            # the moves commute with inversion (factor f -> r gives f^-1 ->
            # r^-1); cyclic_spellings relies on this to mirror a closure exactly
            mirrored = self.cell_moves.get(inverse_word(factor), ())
            if set(mirrored) != {inverse_word(r) for r in repls}:
                raise ModelInconsistency("cell moves not closed under inversion")


@lru_cache(maxsize=None)
def _tables(genus: int) -> _Tables:
    return _Tables(genus)


def _first_long_match(t: _Tables, word: GroupWord, span: int | None = None):
    """Leftmost of the longest factors (> 2g letters) of a relator shift, as
    (position, length, replacement), or None; only factors of at most span
    letters that start below span count (default len(word)).  Every factor of
    a relator shift is a key of cell_moves, so only a position whose first
    2g+1 letters match can match longer."""
    span = len(word) if span is None else span
    top, best = min(span, 4 * t.genus - 1), None
    for i in range(min(span, len(word) - t.half)):
        if word[i : i + t.half + 1] in t.cell_moves:
            length = min(top, len(word) - i)
            while word[i : i + length] not in t.cell_moves:
                length -= 1
            if best is None or length > best[1]:
                best = (i, length, t.cell_moves[word[i : i + length]][0])
    return best


def _closure(start, neighbours) -> set:
    """Breadth-first closure of start under neighbours(state), an iterable of
    states.  Raises ReductionBudgetExceeded, naming start and the cap, once
    it holds more than _CLOSURE_CAP states."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for new in neighbours(state):
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
            if len(seen) > _CLOSURE_CAP:
                raise ReductionBudgetExceeded(
                    f"spelling closure of {format_word(start)} holds more than"
                    f" {_CLOSURE_CAP} states"
                )
        frontier = nxt
    return seen


def dehn_reduce(genus: int, word: Iterable) -> GroupWord:
    """Shorten a word to Dehn-geodesic form (leftmost-longest replacements)."""
    t = _tables(genus)
    w = free_reduce(word)
    while True:
        hit = _first_long_match(t, w)
        if hit is None:
            return w
        i, length, repl = hit
        w = _join((w[:i], repl, w[i + length :]))


def geodesic_spellings(genus: int, word: Iterable):
    """All geodesic spellings of the element (closure under half swaps)."""
    t = _tables(genus)

    def half_swaps(state):
        for i in range(len(state) - t.half + 1):
            repls = t.cell_moves.get(state[i : i + t.half])
            if repls is not None:
                new = free_reduce(state[:i] + repls[0] + state[i + t.half :])
                if len(new) < len(state) or _first_long_match(t, new):
                    raise _Shortened(new)
                yield new

    w = dehn_reduce(genus, word)
    while True:
        try:
            return _closure(w, half_swaps)
        except _Shortened as s:
            w = dehn_reduce(genus, s.word)


def _word(genus: int, word) -> GroupWord:
    """The caller's word as a tuple, or BadLetter naming its first letter
    outside the genus's alphabet (a bool is none, though True == 1), or the
    word itself when it is not iterable."""
    try:
        word = tuple(word)
    except TypeError:
        raise BadLetter(f"letter {word!r} outside genus-{genus} alphabet") from None
    top = 2 * genus
    for l in word:
        if type(l) is not int or not 0 < abs(l) <= top:
            raise BadLetter(f"letter {l!r} outside genus-{genus} alphabet")
    return word


def normalize_word(surface: Surface, word: Iterable) -> GroupWord:
    """Canonical geodesic form of the group element (lex-min spelling)."""
    word = _word(surface.genus, word)
    return min(geodesic_spellings(surface.genus, word), key=_letter_codes)


def _cyclic_dehn_reduce(genus: int, word: Iterable) -> GroupWord:
    """Cyclic Dehn reduction.  Relator letters are pairwise distinct, so the
    cyclic factors that can match are the factors of w + w[:4g-2] in span."""
    t = _tables(genus)
    w = cyclic_free_reduce(word)
    while True:
        hit = _first_long_match(t, w + w[: 4 * genus - 2], len(w))
        if hit is None:
            return w
        i, length, repl = hit
        w = cyclic_free_reduce(repl + (w[i:] + w[:i])[length:])


def half_swap_closure(genus: int, word: GroupWord) -> set:
    """Every cyclic word that exactly-half swaps reach from the word, each one
    cyclically Dehn-reduced, as its rotation-minimal spelling (tuple order).

    A swap that exposes a shorter word keeps the shorter word and goes on
    from it, where cyclic_spellings stops.
    """
    t = _tables(genus)

    def cyclic_half_swaps(state):
        n = len(state)
        doubled = state + state
        for i in range(n):
            repls = t.cell_moves.get(doubled[i : i + t.half])
            if repls is not None:
                new = _cyclic_dehn_reduce(genus, repls[0] + doubled[i + t.half : i + n])
                yield min(rotations(new))

    return _closure(min(rotations(_cyclic_dehn_reduce(genus, word))), cyclic_half_swaps)


def _min_rotation(word: GroupWord) -> GroupWord:
    """The least rotation of the word in letter-code order."""
    codes = _letter_codes(word)
    n = len(codes)
    doubled = codes + codes
    least, start = codes, 0
    for i in range(1, n):
        rotation = doubled[i : i + n]
        if rotation < least:
            least, start = rotation, i
    return word[start:] + word[:start]


class _Shortened(Exception):
    """Internal signal: a word or cyclic word turned out not to be minimal."""

    def __init__(self, word: GroupWord):
        self.word = word


def _ladders(t: _Tables, word: GroupWord) -> Iterator[GroupWord]:
    """Equal-length conjugates of a cyclic geodesic across one ladder of
    relator cells.

    A ladder starts with a cell on any factor of 2g-2..2g letters and grows
    forward by further cells, each trading the next such factor for its cell
    move; a cell joins only where its replacement starts by walking back
    along the edge the ladder's replacement ends on, the edge the two cells
    share.  Every ladder, up to a ring covering the whole word, yields the
    cyclic free reduction of its replacement plus the rest of the word.  A
    lone cell on 2g letters is the exactly-half swap.  Raises _Shortened if
    a ladder exposes a shorter conjugate.
    """
    n = len(word)
    doubled = word + word
    # a cell meets each geodesic boundary in at most 2g letters and each
    # neighbour in one edge, so it covers 2g-2..2g letters of the word
    lengths = range(t.half - 2, min(t.half, n) + 1)
    stack = [
        (i, flen, repl)
        for i in range(n)
        for flen in lengths
        for repl in t.cell_moves.get(doubled[i : i + flen], ())
    ]
    while stack:
        i, covered, repl = stack.pop()
        new = cyclic_free_reduce(repl + doubled[i + covered : i + n])
        if len(new) <= n:
            reduced = _cyclic_dehn_reduce(t.genus, new)
            if len(reduced) < n:
                raise _Shortened(reduced)
            yield new
        j = i + covered
        for flen in lengths:
            if covered + flen > n:
                break
            for nxt in t.cell_moves.get(doubled[j : j + flen], ()):
                if nxt[0] == -repl[-1]:
                    stack.append((i, covered + flen, repl + nxt))


def cyclic_spellings(genus: int, word: GroupWord) -> frozenset:
    """All cyclic geodesic spellings of the oriented class, up to rotation."""
    return _closure_entry(genus, word)[0]


def _closure_entry(genus: int, word: GroupWord) -> tuple:
    """(closure, canonical word) of the class of the cyclic geodesic word.

    Input must be cyclically Dehn-reduced; the closure is one shared frozenset
    of rotation-minimal representatives.  Each closure is built once per
    process and stored in _CLOSURES under every member, together with its
    mirror, the closure of the inverse class: the move tables commute with
    inversion (checked in _Tables), so inverting every ladder from w gives a
    ladder from w^-1 and the mirror is exact.  A stored member is found as it
    stands; only a miss pays for the rotation-minimal key.  Raises _Shortened
    if a ladder exposes a shorter conjugate (cannot happen for a true
    conjugacy geodesic, but callers restart on it); such a closure is not
    stored.
    """
    entry = _CLOSURES.get((genus, word))
    if entry is None:
        w = _min_rotation(word)
        entry = _CLOSURES.get((genus, w))
        if entry is None:
            closure = frozenset(_chase_spellings(genus, w))
            mirror = frozenset(_min_rotation(inverse_word(m)) for m in closure)
            least = min(closure | mirror, key=_letter_codes)
            entry = (closure, least)
            for shared in (entry, (mirror, least)):
                for m in shared[0]:
                    _CLOSURES[genus, m] = shared
    return entry


def _chase_spellings(genus: int, w: GroupWord) -> set:
    """Close the rotation-minimal cyclic geodesic w under ladder rewrites."""
    t = _tables(genus)
    return _closure(w, lambda state: map(_min_rotation, _ladders(t, state)))


def canonical_class(surface: Surface, word: Iterable) -> CurveClass:
    """Canonical representative of the unoriented free homotopy class.  The
    caller's word is checked by _word on every call, cached or not."""
    cls = _canonical_class(surface.genus, _word(surface.genus, word))
    if cls is None:
        raise TrivialClass("word is null-homotopic")
    return cls


@lru_cache(maxsize=None)
def _canonical_class(genus: int, word: GroupWord) -> CurveClass | None:
    """The class of the word, None when it is null-homotopic; unchecked (see
    the module docstring).  A word that is not freely reduced is looked up
    again as its reduction, so both spellings build the class once.  The class
    skips CurveClass's check, which its canonical word passes by construction."""
    reduced = free_reduce(word)
    if reduced != word:
        return _canonical_class(genus, reduced)
    w = _cyclic_dehn_reduce(genus, word)
    while w:
        try:
            return tuple.__new__(CurveClass, (genus, _closure_entry(genus, w)[1]))
        except _Shortened as s:
            w = _cyclic_dehn_reduce(genus, s.word)
    return None  # null-homotopic, and cached so that repeats are not reduced


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
    try:
        n = len(cls.word)
    except AttributeError:
        raise BadArgument(f"expected a CurveClass, not {cls!r}") from None
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


class HomologyVector(_record("HomologyVector", "ring coords")):
    """Exponent-sum vector in H_1, over Z or Z/2, coordinates a1,b1,...,ag,bg;
    ring is "Z" or "Z2"."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def homology_class(surface: Surface, word: Iterable, ring: str = "Z") -> HomologyVector:
    if ring not in ("Z", "Z2"):
        raise BadValue(f"ring must be 'Z' or 'Z2', got {ring!r}")
    coords = [0] * surface.rank
    for l in _word(surface.genus, word):
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
