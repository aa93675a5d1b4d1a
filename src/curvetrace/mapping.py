"""Mapping classes and sign characters acting on the trace algebra.

Dehn twists are built on the one-vertex polygon model.  Each generator loop,
pushed off the vertex, becomes a rotation to its side's start corner, a slide
along the side, and a rotation back.  Twisting along a taut simple curve
inserts the curve's based loop word wherever the slide crosses a strand, with
the insertion direction set by the crossing side.  Images are stored in
normalized form, a free-group lift of the map only up to the relator, so every
constructor certifies itself in pi1: the relator's image under the map and
under the stored inverse Dehn-reduces to the empty word (both are endomorphisms
of pi1), and the stored inverse undoes the map on every generator (the inverse
is onto).  Surface groups are Hopfian, so the onto inverse is an automorphism
and the map is its inverse.  The orientation sign comes from H1, where an
automorphism keeps the intersection form up to sign: sum_i omega(phi(a_i),
phi(b_i)) must be +g or -g.

Sign characters flip basis coefficients by the mod-2 pairing with the class
of the multicurve; together with mapping classes they generate the symmetry
group checked by semidirect_check.
"""
from __future__ import annotations

import operator
import random
from functools import lru_cache

from .algebra import (
    Multicurve,
    TraceExpression,
    _from_terms,
    _multicurve,
    basis_expression,
    enumerate_multicurves,
    multiply_expressions,
)
from .curves import (
    _check_genus,
    _length_bound,
    _taut_single,
    check_disjoint_simple,
    intersection_number,
    is_simple,
)
from .errors import (
    BadArgument,
    BadIndex,
    BadLetter,
    BadValue,
    GenusMismatch,
    ModelInconsistency,
    NotSimple,
    NotSimpleImage,
    TrivialClass,
)
from .polygon import polygon_model
from .representations import P, Representation
from .words import (
    CurveClass,
    GroupWord,
    Surface,
    _canonical_class,
    _record,
    _text,
    _word,
    canonical_class,
    dehn_reduce,
    format_word,
    free_reduce,
    generator_name,
    homology_class,
    intersection_form,
    inverse_word,
    make_surface,
    mod2_class,
    normalize_word,
    parse_word,
)

# -- mapping classes ----------------------------------------------------------


class RelatorCertificate(_record("RelatorCertificate", "sign")):
    """Witness that a substitution is an endomorphism of pi1.

    The relator's image is trivial in pi1.  sign is the orientation read off
    H1: +1 when sum_i omega(phi(a_i), phi(b_i)) is g, -1 when it is -g.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"relator image: trivial in pi1, sign={self.sign:+d}"


class MappingClass(_record("MappingClass", "genus images inverse_images certificate")):
    """Surface-group automorphism given by generator images.

    images[k-1] and inverse_images[k-1] hold normalized words for the image
    of generator k under the map and its inverse; certificate is its
    RelatorCertificate.
    """

    __slots__ = ()

    def __str__(self) -> str:
        parts = ", ".join(
            f"{generator_name(k + 1)}->{format_word(w)}"
            for k, w in enumerate(self.images)
        )
        return f"[{parts}]"


def _substitute(images, word) -> GroupWord:
    parts = []
    for letter in word:
        if letter > 0:
            parts.extend(images[letter - 1])
        else:
            parts.extend(inverse_word(images[-letter - 1]))
    return free_reduce(parts)


def relator_certificate(s: Surface, images) -> RelatorCertificate:
    """Certify that the substitution is an endomorphism of pi1 (the relator's
    image Dehn-reduces to the empty word) and read its orientation sign off H1
    (sum_i omega(phi(a_i), phi(b_i)) is +g or -g); with an inverse that undoes
    it, this makes an automorphism, since surface groups are Hopfian."""
    if dehn_reduce(s.genus, _substitute(images, s.relator)):
        raise ModelInconsistency("relator image is not trivial in the surface group")
    h1 = [homology_class(s, w).coords for w in images]
    degree = sum(intersection_form(h1[2 * i], h1[2 * i + 1]) for i in range(s.genus))
    if abs(degree) != s.genus:
        raise ModelInconsistency(
            f"generator images pair to {degree} in H1, not +-{s.genus}"
        )
    return RelatorCertificate(sign=degree // s.genus)


def _checked(s: Surface, images, inverse_images) -> MappingClass:
    cert = relator_certificate(s, images)
    relator_certificate(s, inverse_images)
    for k in range(1, s.rank + 1):
        round_trip = _substitute(inverse_images, _substitute(images, (k,)))
        if dehn_reduce(s.genus, round_trip + (-k,)):
            raise ModelInconsistency(
                f"stored inverse does not undo the map on {generator_name(k)}"
            )
    return MappingClass(
        genus=s.genus,
        images=tuple(images),
        inverse_images=tuple(inverse_images),
        certificate=cert,
    )


def identity_mapping_class(s: Surface) -> MappingClass:
    gens = tuple((k,) for k in range(1, s.rank + 1))
    return _checked(s, gens, gens)


def compose_mapping_classes(s: Surface, f: MappingClass, g: MappingClass) -> MappingClass:
    """Mapping class acting as f after g."""
    _check_genus(s, f, g)
    images = tuple(normalize_word(s, _substitute(f.images, w)) for w in g.images)
    inverse_images = tuple(
        normalize_word(s, _substitute(g.inverse_images, w)) for w in f.inverse_images
    )
    return _checked(s, images, inverse_images)


def invert_mapping_class(f: MappingClass) -> MappingClass:
    s = make_surface(f.genus)
    return _checked(s, f.inverse_images, f.images)


# -- Dehn twists --------------------------------------------------------------


def _twist_words(s: Surface, cls: CurveClass, turns: int) -> tuple:
    """Raw generator images of the twist along cls, with the given number of
    turns (sign = handedness)."""
    model = polygon_model(s.genus)
    diagram = _taut_single(s.genus, cls.word)
    if diagram.crossing_count:
        raise NotSimple(f"cannot twist along {format_word(cls.word)}")
    route = diagram.routes[0]
    # prefixes[j]: word read rotating from the base corner sector past the
    # first j side germs of the vertex walk
    prefixes = [model.exits_word(model.orbit[:j]) for j in range(model.n_sides + 1)]
    n = len(route)
    images = []
    for k in range(1, s.rank + 1):
        word = list(prefixes[model.start_pos[k]])
        for _, p in diagram.slot_orders[k - 1]:
            # slide crossings in slot order; an exiting strand is read from
            # just before its edge event, an entering one from just after,
            # and the two directions insert opposite powers
            if route[p] == model.side_of[k]:
                loop = model.route_word(route, p)
                power = turns
            elif route[p] == model.side_of[-k]:
                loop = model.route_word(route, (p + 1) % n)
                power = -turns
            else:
                raise ModelInconsistency("slide crossing off its own edge")
            if power >= 0:
                word.extend(loop * power)
            else:
                word.extend(inverse_word(loop) * (-power))
        word.extend(inverse_word(prefixes[model.end_pos[k]]))
        images.append(free_reduce(word))
    return tuple(images)


def _twist_homology_check(s: Surface, cls: CurveClass, turns: int, images):
    model = polygon_model(s.genus)
    route = _taut_single(s.genus, cls.word).routes[0]
    curve = homology_class(s, model.route_word(route, 0)).coords
    for k in range(1, s.rank + 1):
        before = homology_class(s, (k,)).coords
        after = homology_class(s, images[k - 1]).coords
        shift = turns * intersection_form(curve, before)
        want = tuple(x + shift * c for x, c in zip(before, curve))
        if after != want:
            raise ModelInconsistency(
                f"twist image of {generator_name(k)} has homology {after},"
                f" expected {want}"
            )


@lru_cache(maxsize=None)
def _twist_cached(genus: int, word, turns: int) -> MappingClass:
    s = make_surface(genus)
    cls = CurveClass(genus, word)
    raw = _twist_words(s, cls, turns)
    raw_inverse = _twist_words(s, cls, -turns)
    _twist_homology_check(s, cls, turns, raw)
    images = tuple(normalize_word(s, w) for w in raw)
    inverse_images = tuple(normalize_word(s, w) for w in raw_inverse)
    return _checked(s, images, inverse_images)


def twist_along(s: Surface, cls: CurveClass, turns: int = 1) -> MappingClass:
    """Dehn twist along a simple class; turns < 0 gives the opposite twist.

    One positive turn along the first handle's meridian sends b1 to b1a1
    and fixes the other generators.
    """
    try:
        turns = operator.index(turns)
    except TypeError:
        raise BadArgument(f"turns {turns!r} must be an integer") from None
    _check_genus(s, cls)
    if not is_simple(s, cls):
        raise NotSimple(f"cannot twist along {format_word(cls.word)}")
    if turns == 0:
        return identity_mapping_class(s)
    return _twist_cached(s.genus, cls.word, turns)


# -- twist generators (Humphries family) --------------------------------------
#
# Twists along 2g+1 curves generate the mapping class group (Humphries,
# "Generators for the mapping class group", LNM 722, 1979; Farb & Margalit,
# A Primer on Mapping Class Groups, section 4.4): the chain b1, a1, c_1, a2,
# ..., c_{g-1}, a_g and the off-chain curve b2, with the connectors
# c_i = b_i a_{i+1} B_{i+1} A_{i+1}.  The chain is written down in this
# closed form and checked against its intersection pattern.

# c_1 at genus 2, the one exception: the family's b1a2B2A2 (canonically
# a1b1A1B2) also completes the chain, but the genus-2 tests, the actions and
# twist-invariance suites and the twist benchmark workload pin generator 4 as
# the twist along b1b2, so switching would change their work.
_GENUS2_CONNECTOR = (2, 4)


def _chain_pattern_ok(s: Surface, curves) -> bool:
    """Off-curve meets exactly the 4th chain curve once; consecutive chain
    curves meet once; all other pairs are disjoint."""
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            adjacent = i >= 1 and j == i + 1
            off_meets = i == 0 and j == 4
            want = 1 if (adjacent or off_meets) else 0
            if intersection_number(s, curves[i], curves[j]) != want:
                return False
    return True


@lru_cache(maxsize=None)
def _humphries(genus: int) -> tuple:
    s = make_surface(genus)
    words = [(4,), (2,), (1,)]
    for i in range(1, genus):
        b, a_next = 2 * i, 2 * i + 1
        c = _GENUS2_CONNECTOR if genus == 2 else (b, a_next, -(b + 2), -a_next)
        words += [c, (a_next,)]
    curves = tuple(canonical_class(s, w) for w in words)
    if not _chain_pattern_ok(s, curves):
        raise ModelInconsistency("twist-generator chain fails its own pattern")
    return curves


def humphries_classes(s: Surface) -> tuple:
    """The 2g+1 Humphries twist-generator curves in closed form: b2, then the
    chain b1, a1, c_1, a2, ..., c_{g-1}, a_g with c_i = b_i a_{i+1} B_{i+1}
    A_{i+1} (c_1 = b1b2 at genus 2).  Consecutive chain curves meet once, b2
    meets c_1 once, and all other pairs are disjoint (Humphries, LNM 722,
    1979; Farb & Margalit, A Primer on Mapping Class Groups, section 4.4)."""
    return _humphries(s.genus)


def twist_generator(s: Surface, index: int) -> MappingClass:
    """Dehn twist along the index-th twist-generator curve (1-based)."""
    curves = humphries_classes(s)
    if (
        isinstance(index, bool)
        or not isinstance(index, int)
        or not 1 <= index <= len(curves)
    ):
        raise BadIndex(
            f"twist generator index {index!r} outside 1..{len(curves)}"
        )
    return twist_along(s, curves[index - 1])


# -- action on words, classes, expressions ------------------------------------


def apply_to_word(s: Surface, f: MappingClass, word) -> GroupWord:
    _check_genus(s, f)
    return normalize_word(s, _substitute(f.images, _word(s.genus, word)))


def apply_to_class(s: Surface, f: MappingClass, cls: CurveClass) -> CurveClass:
    _check_genus(s, f, cls)
    image = _canonical_class(s.genus, _substitute(f.images, _word(s.genus, cls.word)))
    if image is None:  # cls was built around a null-homotopic word
        raise TrivialClass(f"{format_word(cls.word)} is null-homotopic")
    return image


def apply_to_multicurve(s: Surface, f: MappingClass, mc: Multicurve) -> Multicurve:
    _check_genus(s, f, mc)
    counts = {}
    for cls, mult in mc.components:
        image = apply_to_class(s, f, cls)
        counts[image] = counts.get(image, 0) + mult
    try:
        check_disjoint_simple(s, counts)
    except NotSimple as e:
        raise NotSimpleImage(f"after mapping: {e}") from None
    return _multicurve(s.genus, counts)


def apply_to_expression(
    s: Surface, f: MappingClass, expr: TraceExpression
) -> TraceExpression:
    acc = {}
    for mc, coeff in expr.terms:
        image = apply_to_multicurve(s, f, mc)
        acc[image] = acc.get(image, 0) + coeff
    return _from_terms(s.genus, acc)


# -- serialization ------------------------------------------------------------


def format_mapping_class(f: MappingClass) -> str:
    """Two generator<TAB>imageWord blocks (map, then inverse) separated by a
    blank line."""
    fwd = "\n".join(
        f"{generator_name(k + 1)}\t{format_word(w)}" for k, w in enumerate(f.images)
    )
    bwd = "\n".join(
        f"{generator_name(k + 1)}\t{format_word(w)}"
        for k, w in enumerate(f.inverse_images)
    )
    return fwd + "\n\n" + bwd


def _parse_block(s: Surface, lines) -> tuple:
    images = [None] * s.rank
    for line in lines:
        name, _, word_text = line.partition("\t")
        if not word_text:
            name, _, word_text = line.partition(" ")
        target = parse_word(s, name.strip())
        if len(target) != 1 or target[0] < 0:
            raise BadLetter(f"line {line!r} does not start with a generator")
        word = parse_word(s, word_text.strip())
        k = target[0]
        if images[k - 1] is not None:
            raise BadLetter(f"duplicate image for {generator_name(k)}")
        images[k - 1] = normalize_word(s, word)
    missing = [generator_name(k + 1) for k, w in enumerate(images) if w is None]
    if missing:
        raise BadLetter(f"missing image lines for {', '.join(missing)}")
    return tuple(images)


def parse_mapping_class(s: Surface, text: str) -> MappingClass:
    """Parse and re-certify the two-block format of format_mapping_class."""
    blocks, current = [], []
    for line in _text(text).splitlines():
        line = line.strip()
        if line.startswith("#"):
            continue
        if not line:
            if current:
                blocks.append(current)
                current = []
            continue
        current.append(line)
    if current:
        blocks.append(current)
    if len(blocks) != 2:
        raise BadLetter(
            "mapping class text needs an image block and an inverse block"
        )
    images = _parse_block(s, blocks[0])
    inverse_images = _parse_block(s, blocks[1])
    return _checked(s, images, inverse_images)


# -- sign characters ----------------------------------------------------------


class SignCharacter(_record("SignCharacter", "genus bits")):
    """Mod-2 cohomology class, one bit per generator in a1 b1 a2 b2 order."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_sign_character(self)

    def evaluate(self, coords) -> int:
        """Value (0 or 1) on the class with these homology coordinates."""
        return sum(b * c for b, c in zip(self.bits, coords)) % 2


def make_sign_character(s: Surface, bits) -> SignCharacter:
    if isinstance(bits, str):
        bits = bits.strip()
        if not all(ch in "01" for ch in bits):
            raise BadLetter(f"sign character {bits!r} must be 0/1 only")
        values = tuple(int(ch) for ch in bits)
    else:
        try:
            bits = tuple(bits)
        except TypeError:
            raise BadArgument(f"sign character bits are ints, not {bits!r}") from None
        if not all(isinstance(b, int) for b in bits):
            raise BadArgument(f"sign character bits are ints, not {bits!r}")
        values = tuple(int(b) for b in bits)
        if not all(b in (0, 1) for b in values):
            raise BadValue("sign character bits must be 0 or 1")
    if len(values) != s.rank:
        raise GenusMismatch(
            f"sign character needs {s.rank} bits, got {len(values)}"
        )
    return SignCharacter(genus=s.genus, bits=values)


def format_sign_character(a: SignCharacter) -> str:
    return "".join(str(b) for b in a.bits)


def parse_sign_character(s: Surface, text: str) -> SignCharacter:
    return make_sign_character(s, _text(text).strip())


def sign_pairing(s: Surface, a: SignCharacter, mc: Multicurve) -> int:
    """Evaluation of the character on the mod-2 class of the multicurve."""
    _check_genus(s, a, mc)
    return a.evaluate(mod2_class(s, mc.components))


def h1_action(s: Surface, a: SignCharacter, expr: TraceExpression) -> TraceExpression:
    """Flip each basis coefficient by the character's pairing with the class."""
    _check_genus(s, a, expr)
    acc = {}
    for mc, coeff in expr.terms:
        acc[mc] = -coeff if sign_pairing(s, a, mc) else coeff
    return _from_terms(s.genus, acc)


def central_twist(s: Surface, rep: Representation, a: SignCharacter) -> Representation:
    """Representation with each generator matrix flipped by the character."""
    _check_genus(s, rep, a)
    matrices = tuple(
        tuple(-x % P for x in m) if bit else m
        for m, bit in zip(rep.matrices, a.bits)
    )
    return Representation(genus=rep.genus, matrices=matrices)


# -- automorphism and semidirect checks ---------------------------------------


class AutomorphismReport(
    _record("AutomorphismReport", "kind samples seed bound failures")
):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures)} FAILED"
        return (
            f"{self.kind} multiplicativity: samples={self.samples}"
            f" bound={self.bound} seed={self.seed} {state}"
        )


def _action_on_expression(s: Surface, action):
    if isinstance(action, MappingClass):
        return "twist", lambda e: apply_to_expression(s, action, e)
    if isinstance(action, SignCharacter):
        return "sign", lambda e: h1_action(s, action, e)
    raise BadArgument(f"unsupported action {type(action).__name__}")


def verify_algebra_automorphism(
    s: Surface, action, samples: int = 25, seed: int = 0, bound: int = 2
) -> AutomorphismReport:
    """Check the action against products of randomly sampled basis pairs."""
    _length_bound(samples, 0, "samples")
    kind, act = _action_on_expression(s, action)
    universe = enumerate_multicurves(s, bound)
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        left = rng.choice(universe)
        right = rng.choice(universe)
        product = multiply_expressions(
            s, basis_expression(left), basis_expression(right)
        )
        lhs = act(product)
        rhs = multiply_expressions(
            s, act(basis_expression(left)), act(basis_expression(right))
        )
        if lhs != rhs:
            failures.append((left, right))
    return AutomorphismReport(
        kind=kind,
        samples=samples,
        seed=seed,
        bound=bound,
        failures=tuple(failures),
    )


def character_pullback(s: Surface, a: SignCharacter, f: MappingClass) -> SignCharacter:
    """The character evaluating on x as a does on the inverse image of x."""
    _check_genus(s, a, f)
    bits = []
    for k in range(1, s.rank + 1):
        coords = homology_class(s, f.inverse_images[k - 1], ring="Z2").coords
        bits.append(a.evaluate(coords))
    return SignCharacter(genus=s.genus, bits=tuple(bits))


class SemidirectReport(_record("SemidirectReport", "bound checked failures")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures)} FAILED"
        return f"semidirect relation: basis={self.checked} bound={self.bound} {state}"


def semidirect_check(
    s: Surface, f: MappingClass, a: SignCharacter, bound: int = 2
) -> SemidirectReport:
    """Conjugating the character's action by the mapping class equals the
    action of the character pulled back along the inverse map."""
    inverse = invert_mapping_class(f)
    pulled = character_pullback(s, a, f)
    failures = []
    universe = enumerate_multicurves(s, bound)
    for mc in universe:
        start = basis_expression(mc)
        lhs = apply_to_expression(
            s, f, h1_action(s, a, apply_to_expression(s, inverse, start))
        )
        rhs = h1_action(s, pulled, start)
        if lhs != rhs:
            failures.append(mc)
    return SemidirectReport(
        bound=bound, checked=len(universe), failures=tuple(failures)
    )
