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

A letter's pushoff therefore contributes a rotation arc around v (at most half
a turn) between its slide along the glued edge and the next letter's; exact
half turns are genuinely ambiguous (the two choices are isotopic across v) and
are enumerated by the taut search.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .errors import ModelInconsistency
from .words import (
    GroupWord,
    canonical_class,
    free_reduce,
    inverse_word,
    letters,
    make_surface,
    normalize_word,
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
        if len(orbit) != self.n_sides:
            raise ModelInconsistency("polygon has more than one vertex")
        self.orbit = tuple(orbit)
        self.orbitpos = tuple(
            self.orbit.index(s) for s in range(self.n_sides)
        )
        # arc endpoints per letter: a letter's slide runs along its side from
        # the side's start corner to its end corner
        self.start_pos = {}
        self.end_pos = {}
        for letter, s in side_of.items():
            self.start_pos[letter] = self.orbitpos[s]
            self.end_pos[letter] = self.orbitpos[(s + 1) % self.n_sides]
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
            route = self.route_for_spelling((letter,))[0]
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

    def _junction_arcs(self, from_pos: int, to_pos: int):
        """Shorter rotation arc(s) between corner positions; an exact half
        turn is ambiguous and yields both."""
        fl = (to_pos - from_pos) % self.n_sides
        bl = (from_pos - to_pos) % self.n_sides
        if fl == 0:
            return ([],)
        if fl < bl:
            return (self.forward_arc(from_pos, fl),)
        if bl < fl:
            return (self.backward_arc(from_pos, bl),)
        return (self.forward_arc(from_pos, fl), self.backward_arc(from_pos, bl))

    def route_for_spelling(self, word: GroupWord):
        """One reduced route of the cyclic word, plus its exact-half runs."""
        routes = self.spelling_routes(word, cap=1)
        route = next(iter(routes))
        return route, self._half_runs(route)

    def spelling_routes(self, word: GroupWord, cap: int = 64):
        """Reduced routes of the cyclic word over all half-turn junction
        choices (capped)."""
        if not word:
            raise ModelInconsistency("empty word has no route")
        n = len(word)
        prefixes = [[]]
        for i in range(n):
            x, y = word[i], word[(i + 1) % n]
            arcs = self._junction_arcs(self.end_pos[x], self.start_pos[y])
            prefixes = [
                p + arc for p in prefixes for arc in arcs
            ][:cap]
        return {self.reduce_route(tuple(p)) for p in prefixes}

    def reduce_route(self, route) -> tuple:
        w = list(route)
        changed = True
        while changed:
            changed = False
            stack = []
            for s in w:
                if stack and stack[-1] == self.partner[s]:
                    stack.pop()
                    changed = True
                else:
                    stack.append(s)
            while len(stack) >= 2 and stack[0] == self.partner[stack[-1]]:
                stack.pop()
                stack.pop(0)
                changed = True
            w = stack
            hit = self._long_run(w)
            if hit is not None:
                i, length, repl = hit
                w = self._splice(w, i, length, repl)
                changed = True
        return tuple(w)

    def _run_length(self, w, i, direction):
        """Length of the rotation run starting at index i (cyclic, capped)."""
        n = len(w)
        length = 1
        while length < n and length < self.n_sides:
            cur = w[(i + length - 1) % n]
            nxt = w[(i + length) % n]
            if direction > 0:
                ok = self.orbitpos[nxt] == (self.orbitpos[cur] + 1) % self.n_sides
            else:
                ok = (
                    self.orbitpos[self.partner[nxt]]
                    == (self.orbitpos[self.partner[cur]] - 1) % self.n_sides
                )
            if not ok:
                break
            length += 1
        return length

    def _run_complement(self, w, i, length, direction):
        """Replacement arc for the run w[i:i+length] (cyclic indexing)."""
        first = w[i % len(w)]
        if direction > 0:
            start = self.orbitpos[first]
            return self.backward_arc(start, self.n_sides - length)
        start = (self.orbitpos[self.partner[first]] + 1) % self.n_sides
        return self.forward_arc(start, self.n_sides - length)

    def _long_run(self, w):
        n = len(w)
        if n == 0:
            return None
        half = self.n_sides // 2
        for direction in (1, -1):
            for i in range(n):
                length = self._run_length(w, i, direction)
                if length > half:
                    return i, length, self._run_complement(w, i, length, direction)
        return None

    def _half_runs(self, w):
        """Start indices and directions of exact-half rotation runs."""
        n = len(w)
        half = self.n_sides // 2
        out = []
        for direction in (1, -1):
            for i in range(n):
                if self._run_length(w, i, direction) >= half:
                    # skip runs that merely continue an earlier one
                    prev = (i - 1) % n
                    if n > 1 and self._run_length(w, prev, direction) > half:
                        continue
                    out.append((i, direction))
        return tuple(out)

    def _splice(self, w, i, length, repl):
        n = len(w)
        keep = [w[(i + length + t) % n] for t in range(n - length)]
        return list(repl) + keep

    def route_variants(self, word: GroupWord, cap: int = 64):
        """Closure of the reduced routes under exact-half run flips."""
        seeds = {
            self._canonical_rotation(r) for r in self.spelling_routes(word, cap)
        }
        seen = set(seeds)
        frontier = list(seeds)
        while frontier:
            nxt = []
            for r in frontier:
                for i, direction in self._half_runs(r):
                    repl = self._run_complement(r, i, self.n_sides // 2, direction)
                    flipped = self.reduce_route(
                        tuple(self._splice(list(r), i, self.n_sides // 2, repl))
                    )
                    flipped = self._canonical_rotation(flipped)
                    if flipped not in seen:
                        seen.add(flipped)
                        nxt.append(flipped)
                if len(seen) > cap:
                    return seen
            frontier = nxt
        return seen

    @staticmethod
    def _canonical_rotation(route):
        n = len(route)
        if n == 0:
            return route
        return min((route[i:] + route[:i] for i in range(n)), default=route)

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
