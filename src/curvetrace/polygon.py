"""The glued 4g-gon and crossing routes for free homotopy classes.

Sides 0..4g-1 run counterclockwise and carry the relator letters; the side
labeled x is glued to the side labeled x^-1 with reversed boundary parameter,
and all corners land on a single vertex v.

A curve transverse to the edges is encoded by its cyclic "route": the sequence
of sides through which it exits the polygon.  A route is read as a word of the
surface group in the dual presentation, based at the centre of the polygon:
name side s by its relator letter with every b_i inverted (side_letter), and
the corner walk around v reads exactly the relator, so crossing out through s
is the dual generator side_letter[s].  Route and arc words are all read through
exits_word, which joins the letters of a sequence of exits at their seams.  So
a class's canonical word w, taken side by side (_sides), is a route of len(w)
sides that reads w itself: the class's direct drawing.

Exiting through s and then through its partner is a letter followed by its
inverse, and a run of exits turning around v is a relator factor.  So removing
backtracks and replacing a turn of more than half around v by the
complementary turn is cyclic Dehn reduction (words._cyclic_dehn_reduce), and
flipping an exact half turn to the other side of v is a half swap
(words.half_swap_closure).

The primal reading, based at v, names each generator by a loop at v.  Pushed
off v, generator k rotates from the base corner sector to the start corner of
its side, slides along the side and rotates back from its end corner, so in
the dual reading it is beta(k) = R[:start_pos k] R[:end_pos k]^-1, R the
relator (_beta).  beta sends R to 1 and reverses the intersection form on H1,
so it is induced by an orientation-reversing homeomorphism, and _verify
certifies both when the model is built.  The routes of route_variants draw a
class by its primal loops, so they read beta of the class: the count fallbacks
of curves take them as route seeds, and one homeomorphism carries every class
to what its seeds read, so they keep self and pair counts.

There a letter's pushoff contributes a rotation arc around v (at most half a
turn) between its slide along the glued edge and the next letter's.  Exact
half turns are genuinely ambiguous (the two choices are isotopic across v):
route_for_spelling takes the forward one, and route_variants reaches the
others through the half-swap closure.
"""
from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import ModelInconsistency
from .representations import Representation, random_representation
from .words import (
    GroupWord,
    _cyclic_dehn_reduce,
    canonical_class,
    dehn_reduce,
    free_reduce,
    half_swap_closure,
    homology_class,
    intersection_form,
    inverse_word,
    letters,
    make_surface,
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
        self._verify(surface, self._beta())

    @cached_property
    def trace_representation(self) -> Representation:
        """The one SL2(F_P) representation at which curves' floors compare
        loop traces, drawn on first use and kept with the model."""
        return random_representation(make_surface(self.genus), 0)

    # -- the primal reading -------------------------------------------------

    def _beta(self) -> tuple:
        """Images of the generators under beta, which reads a word of the
        primal presentation in the dual one: beta(k) = R[:start_pos k]
        R[:end_pos k]^-1, as generator k's rotations cross prefixes of the
        vertex walk and its slide crosses nothing (see the module docstring)."""
        relator = make_surface(self.genus).relator
        return tuple(
            free_reduce(
                relator[: self.start_pos[k]] + inverse_word(relator[: self.end_pos[k]])
            )
            for k in range(1, 2 * self.genus + 1)
        )

    def _verify(self, surface, beta):
        """Certify beta, and with it the route seeds of route_variants, which
        draw a class by its primal loops: beta sends R to 1, reverses the
        intersection form on H1 (the two readings are dual), and the route of
        each letter reads the class of its image."""
        genus = surface.genus

        def image(word):
            return free_reduce(
                l
                for x in word
                for l in (beta[x - 1] if x > 0 else inverse_word(beta[-x - 1]))
            )

        if dehn_reduce(genus, image(surface.relator)):
            raise ModelInconsistency("beta does not send the relator to 1")
        h1 = [homology_class(surface, w).coords for w in beta]
        degree = sum(intersection_form(h1[2 * i], h1[2 * i + 1]) for i in range(genus))
        if degree != -genus:
            raise ModelInconsistency(f"beta pairs to {degree} in H1, not -{genus}")
        # a route's word is only well defined up to conjugacy (its basepoint
        # sits on an edge, not at the vertex)
        for letter in letters(genus):
            route = self.route_for_spelling((letter,))
            read = canonical_class(surface, self.route_word(route))
            if read != canonical_class(surface, image((letter,))):
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
        """Freely reduced word of the dual presentation read by crossing out
        through the given sides: their side letters, joined at the seams."""
        return free_reduce(self._letters(exits))

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
