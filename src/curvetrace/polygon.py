"""The glued 4g-gon and crossing routes for free homotopy classes.

Sides 0..4g-1 run counterclockwise and carry the relator letters; the side
labeled x is glued to the side labeled x^-1 with reversed boundary parameter,
and all corners land on a single vertex v.

A curve transverse to the edges is encoded by its cyclic "route": the sequence
of sides through which it exits the polygon.  Reading a route back as a group
element uses the side table sigma: crossing out through side s contributes the
word sigma[s], and the class of any closed transversal equals the product of
sigma over its exits.  The table is solved once per genus from the corner walk:
each generator loop, pushed off the vertex, crosses exactly the germs between
its two ends in the vertex rotation, which pins every sigma up to the relator.

Route words are all read through exits_word, one free reduction of the chained
sigma words of a sequence of exits.

A route is also a word of the surface group itself, in the dual presentation:
name side s by its relator letter with every b_i inverted (side_letter), and
the corner walk around v reads exactly the relator.  Exiting through s and then
through its partner is a letter followed by its inverse, and a run of exits
turning around v is a relator factor.  So removing backtracks and replacing a
turn of more than half around v by the complementary turn is cyclic Dehn
reduction (words._cyclic_dehn_reduce), and flipping an exact half turn to the
other side of v is a half swap (words.half_swap_closure).

A letter's pushoff contributes a rotation arc around v (at most half a turn)
between its slide along the glued edge and the next letter's.  Exact half
turns are genuinely ambiguous (the two choices are isotopic across v):
route_for_spelling takes the forward one, and route_variants reaches the
others through the half-swap closure.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .errors import ModelInconsistency
from .words import (
    GroupWord,
    _cyclic_dehn_reduce,
    canonical_class,
    free_reduce,
    half_swap_closure,
    inverse_word,
    letters,
    make_surface,
    normalize_word,
    rotations,
)


class PolygonModel:
    def __init__(self, genus: int):
        surface = make_surface(genus)
        self.genus = genus
        self.n_sides = 4 * genus
        self.sides = surface.relator  # side index -> letter
        side_of = {}
        for idx, letter in enumerate(self.sides):
            side_of[letter] = idx
        if len(side_of) != self.n_sides:
            raise ModelInconsistency("relator letters not distinct")
        self.side_of = side_of
        self.partner = tuple(side_of[-l] for l in self.sides)
        # corner walk: start corner of side k meets end corner of its partner
        orbit = [0]
        while True:
            nxt = (self.partner[orbit[-1]] + 1) % self.n_sides
            if nxt == 0:
                break
            orbit.append(nxt)
            if len(orbit) > self.n_sides:
                raise ModelInconsistency("corner walk does not close up")
        self.orbit = tuple(orbit)
        # routes are words of the dual presentation: with every b_i inverted
        # the sides read the relator around the vertex (so it is the only one)
        self.side_letter = tuple(l if abs(l) % 2 else -l for l in self.sides)
        self.letter_side = {l: s for s, l in enumerate(self.side_letter)}
        if self._letters(self.orbit) != surface.relator:
            raise ModelInconsistency("vertex walk does not read the relator")
        # arc endpoints per letter: a letter's slide runs along its side from
        # the side's start corner to its end corner
        orbitpos = {s: k for k, s in enumerate(self.orbit)}
        self.start_pos = {}
        self.end_pos = {}
        for letter, s in side_of.items():
            self.start_pos[letter] = orbitpos[s]
            self.end_pos[letter] = orbitpos[(s + 1) % self.n_sides]
        self.sigma = self._solve_sigma(surface)
        self._verify(surface)

    # -- reading table ------------------------------------------------------

    def _solve_sigma(self, surface):
        n4 = self.n_sides
        relations = []  # (j, m, letter): V[j] = letter . V[m]
        for letter in letters(self.genus):
            relations.append(
                (self.start_pos[letter], self.end_pos[letter], letter)
            )
        v = [None] * n4
        v[0] = ()
        pending = list(relations)
        progress = True
        while progress:
            progress = False
            for j, m, letter in pending:
                if v[j] is None and v[m] is not None:
                    v[j] = free_reduce((letter,) + v[m])
                    progress = True
                elif v[m] is None and v[j] is not None:
                    v[m] = free_reduce((-letter,) + v[j])
                    progress = True
        if any(x is None for x in v):
            raise ModelInconsistency("corner relation graph is disconnected")
        for j, m, letter in relations:
            lhs = free_reduce(inverse_word(v[j]) + (letter,) + v[m])
            if normalize_word(surface, lhs) != ():
                raise ModelInconsistency("corner relations inconsistent")
        full = v + [()]
        sigma = [None] * n4
        for k in range(n4):
            sigma[self.orbit[k]] = free_reduce(
                inverse_word(full[k]) + full[k + 1]
            )
        return tuple(sigma)

    def _verify(self, surface):
        # crossing back is the inverse crossing
        for s in range(self.n_sides):
            if normalize_word(surface, self.sigma[s] + self.sigma[self.partner[s]]) != ():
                raise ModelInconsistency("sigma not inverse across partners")
        if normalize_word(surface, self.exits_word(self.orbit)) != ():
            raise ModelInconsistency("full turn around the vertex not trivial")
        # a route's word is only well defined up to conjugacy (its basepoint
        # sits on an edge, not at the vertex)
        for letter in letters(self.genus):
            route = self.route_for_spelling((letter,))
            read = canonical_class(surface, self.route_word(route)).word
            if read != canonical_class(surface, (letter,)).word:
                raise ModelInconsistency(f"route for letter {letter} reads wrong class")

    # -- arcs and routes ----------------------------------------------------

    def forward_arc(self, start_pos: int, steps: int):
        return [
            self.orbit[(start_pos + t) % self.n_sides] for t in range(steps)
        ]

    def backward_arc(self, start_pos: int, steps: int):
        return [
            self.partner[self.orbit[(start_pos - 1 - t) % self.n_sides]]
            for t in range(steps)
        ]

    def _letters(self, route) -> GroupWord:
        return tuple(self.side_letter[s] for s in route)

    def _sides(self, word) -> tuple:
        return tuple(self.letter_side[l] for l in word)

    def route_for_spelling(self, word: GroupWord) -> tuple:
        """Reduced route of the cyclic word: at each junction the shorter
        rotation arc, the forward one on an exact half turn."""
        if not word:
            raise ModelInconsistency("empty word has no route")
        n = len(word)
        route = []
        for i in range(n):
            at = self.end_pos[word[i]]
            steps = (self.start_pos[word[(i + 1) % n]] - at) % self.n_sides
            if 2 * steps <= self.n_sides:
                route += self.forward_arc(at, steps)
            else:
                route += self.backward_arc(at, self.n_sides - steps)
        return self.reduce_route(route)

    def reduce_route(self, route) -> tuple:
        """Cyclic Dehn reduction of the route read as a surface-group word."""
        return self._sides(_cyclic_dehn_reduce(self.genus, self._letters(route)))

    def route_variants(self, word: GroupWord) -> set:
        """Rotation-minimal routes of the spelling's route and of every route
        its half swaps reach."""
        start = self._letters(self.route_for_spelling(word))
        closure = half_swap_closure(self.genus, start)
        return {min(rotations(self._sides(w))) for w in closure}

    spelling_routes = route_variants  # perfbench/tracer.py wraps this name too

    def exits_word(self, exits) -> GroupWord:
        """Freely reduced word read by crossing out through the given sides."""
        return free_reduce(chain.from_iterable(self.sigma[s] for s in exits))

    def route_word(self, route, start: int = 0) -> GroupWord:
        """Group word read by the closed route, starting after position start."""
        return self.arc_word(route, start, start - 1)

    def arc_word(self, route, first: int, last: int) -> GroupWord:
        """Word read by the route exits first..last inclusive (cyclic)."""
        n = len(route)
        span = (last - first) % n + 1
        return self.exits_word(route[(first + t) % n] for t in range(span))


@lru_cache(maxsize=None)
def polygon_model(genus: int) -> PolygonModel:
    return PolygonModel(genus)
