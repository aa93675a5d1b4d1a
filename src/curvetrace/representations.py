"""Representations of the surface group in SL2(F_P), computed exactly.

Every identity the character algebra is checked against has integer
coefficients, so it holds word for word in SL2(F_P) as in SL2(C).  A matrix
[[a, b], [c, d]] is the residue tuple (a, b, c, d), and traces are residues.
An identity that fails over Q survives reduction mod P except on a root, a
chance of at most degree/P per random representation (Schwartz-Zippel), and
a full rank mod P proves linear independence over Q.

Sampling solves the last commutator equation [a_g, b_g] = C.  It puts
a_g = base U(s) with s solving Tr(a_g^-1 C) = Tr(a_g^-1), which is linear in
s, then b_g = y M - M a_g for a random M, with y = a_g^-1 C.  By
Cayley-Hamilton, y b_g - b_g a_g^-1 = (y^2 - Tr(y) y + I) M = 0.  Scaling b_g
by a square root of its determinant, x^((P+1)/4) as P = 3 mod 4, puts it in
SL2.
"""
from __future__ import annotations

import random

from .errors import BadArgument, BadLetter, ModelInconsistency, SolveFailed
from .words import Surface, _record, make_surface

P = 1073741783  # prime, P = 3 mod 4, below 2^30
_I = (1, 0, 0, 1)


def _mul(x: tuple, y: tuple) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return (
        (a * e + b * g) % P,
        (a * f + b * h) % P,
        (c * e + d * g) % P,
        (c * f + d * h) % P,
    )


def _inv(m: tuple) -> tuple:
    # the adjugate, which is the inverse in SL2
    a, b, c, d = m
    return (d, -b % P, -c % P, a)


def _det(m: tuple) -> int:
    a, b, c, d = m
    return (a * d - b * c) % P


def _letter_table(matrices) -> dict:
    """Letter -> matrix: k -> generator k and -k -> its inverse."""
    table = {}
    for k, g in enumerate(matrices, 1):
        table[k], table[-k] = g, _inv(g)
    return table


def _word_matrix(table: dict, word) -> tuple:
    """The word's matrix from a _letter_table, _mul inlined."""
    a, b, c, d = _I
    for l in word:
        # the int test first: a dict keyed by ints also finds 1.0 and True,
        # as 1.0 == True == 1
        m = table.get(l) if type(l) is int else None
        if m is None:
            raise BadLetter(f"letter {l!r} outside {len(table) // 2} generators")
        e, f, g, h = m
        a, b, c, d = (
            (a * e + b * g) % P,
            (a * f + b * h) % P,
            (c * e + d * g) % P,
            (c * f + d * h) % P,
        )
    return a, b, c, d


class Representation(_record("Representation", "genus matrices")):
    """2g matrices of SL2(F_P) that satisfy the surface relator exactly.
    matrices holds residue tuples (a, b, c, d), index k-1 for generator k.
    letters, letter -> matrix, is built once here so that traces invert no
    matrix; it is no field, so equality and hash ignore it."""

    def __new__(cls, genus: int, matrices: tuple):
        relator = make_surface(genus).relator
        if (
            len(matrices) != 2 * genus
            or any(_det(m) != 1 for m in matrices)
            or _word_matrix(letters := _letter_table(matrices), relator) != _I
        ):
            raise ModelInconsistency("matrices are not a representation in SL2(F_P)")
        self = tuple.__new__(cls, (genus, matrices))
        self.letters = letters
        return self


def _unipotent_product(rng: random.Random, factors: int = 4) -> tuple:
    m = _I
    for i in range(factors):
        x = rng.randrange(P)
        m = _mul(m, (1, x, 0, 1) if i % 2 == 0 else (1, 0, x, 1))
    return m


def trivial_representation(surface: Surface) -> Representation:
    return Representation(genus=surface.genus, matrices=(_I,) * surface.rank)


def _seed(seed) -> int:
    """seed, or BadArgument unless it is an int: Random(None) would seed from
    the OS, and a bool would stand for 0 or 1."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise BadArgument(f"a seed is an int, not {seed!r}")
    return seed


def random_representation(surface: Surface, seed: int) -> Representation:
    rng = random.Random(_seed(seed))
    g = surface.genus
    for _ in range(100):
        fixed = [_unipotent_product(rng) for _ in range(2 * g - 2)]
        prefix = _I
        for i in range(g - 1):
            a, b = fixed[2 * i], fixed[2 * i + 1]
            prefix = _mul(prefix, _mul(_mul(a, b), _mul(_inv(a), _inv(b))))
        c = _inv(prefix)
        base = _unipotent_product(rng)
        m = _inv(base)
        mc = _mul(m, c)
        denom = (mc[2] - m[2]) % P
        if denom == 0:
            continue
        s = (mc[0] + mc[3] - m[0] - m[3]) * pow(denom, -1, P) % P
        a_last = _mul(base, (1, s, 0, 1))
        y = _mul(_inv(a_last), c)
        free = tuple(rng.randrange(P) for _ in range(4))
        b_last = tuple(
            (u - v) % P for u, v in zip(_mul(y, free), _mul(free, a_last))
        )
        det = _det(b_last)
        root = pow(det, (P + 1) // 4, P)
        if det == 0 or root * root % P != det:
            continue
        scale = pow(root, -1, P)
        b_last = tuple(x * scale % P for x in b_last)
        return Representation(genus=g, matrices=tuple(fixed + [a_last, b_last]))
    raise SolveFailed(f"no representation within 100 resamples (seed {seed})")


def evaluate_trace(rep: Representation, word) -> int:
    """Trace of the word under the representation, as a residue mod P."""
    try:
        m = _word_matrix(rep.letters, word)
    except TypeError:  # letters are checked there: the word is no sequence
        raise BadLetter(f"letter {word!r} outside {2 * rep.genus} generators") from None
    return (m[0] + m[3]) % P
