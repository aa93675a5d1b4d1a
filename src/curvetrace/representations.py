"""Numerical SL2(C) representations of the surface group.

These are identity-testing oracles: double precision with residual gates, never
ground truth for exact outputs.  Sampling solves the last commutator equation
[a_g, b_g] = C by adjusting a_g with one unipotent parameter until the
conjugation obstruction Tr(a_g^-1 C) = Tr(a_g^-1) vanishes, then aligning
eigenvector frames to produce b_g.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadLetter, SolveFailed
from .words import GroupWord, Surface

_DET_TOL = 1e-12
_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Representation:
    """2g determinant-1 matrices satisfying the surface relator numerically."""

    genus: int
    matrices: tuple  # tuple of 2x2 complex ndarrays, index k-1 holds generator k
    relator_residual: float


def _inv(m: np.ndarray) -> np.ndarray:
    # adjugate: exact inverse for det-1 matrices, no linear solve noise; keeps
    # the input dtype so extended-precision callers stay extended
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=m.dtype)


def _unipotent_product(rng: np.random.Generator, factors: int = 4) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    for i in range(factors):
        x = 1.5 * rng.uniform(-1.0, 1.0)
        f = np.array([[1.0, x], [0.0, 1.0]]) if i % 2 == 0 else np.array(
            [[1.0, 0.0], [x, 1.0]]
        )
        m = m @ f
    return m


def _word_matrix(matrices, word) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    for l in word:
        if l == 0 or abs(l) > len(matrices):
            raise BadLetter(f"letter {l} outside alphabet")
        g = matrices[abs(l) - 1]
        m = m @ (g if l > 0 else _inv(g))
    return m


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b @ _inv(a) @ _inv(b)


def _eigenframe(m: np.ndarray, lam1: complex, lam2: complex) -> np.ndarray:
    """Columns: eigenvectors of m for lam1, lam2 (picked for numerical size)."""
    cols = []
    for lam in (lam1, lam2):
        v1 = np.array([m[0, 1], lam - m[0, 0]], dtype=complex)
        v2 = np.array([lam - m[1, 1], m[1, 0]], dtype=complex)
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        n = np.linalg.norm(v)
        if n < 1e-12:
            raise ArithmeticError("degenerate eigenvector")
        cols.append(v / n)
    return np.column_stack(cols)


def _det_normalize(m: np.ndarray) -> np.ndarray:
    d = np.linalg.det(m)
    if abs(d) < 1e-10:
        raise ArithmeticError("eigenframe nearly singular")
    return m / np.sqrt(d)


def relator_residual(surface: Surface, matrices) -> float:
    r = _word_matrix(matrices, surface.relator)
    return float(np.linalg.norm(r - np.eye(2), 2))


def trivial_representation(surface: Surface) -> Representation:
    mats = tuple(np.eye(2, dtype=complex) for _ in range(surface.rank))
    return Representation(genus=surface.genus, matrices=mats, relator_residual=0.0)


def random_representation(surface: Surface, seed: int) -> Representation:
    rng = np.random.default_rng(seed)
    g = surface.genus
    budget = 100
    while budget > 0:
        fixed = [_unipotent_product(rng) for _ in range(2 * g - 2)]
        prefix = np.eye(2, dtype=complex)
        for i in range(g - 1):
            prefix = prefix @ _commutator(fixed[2 * i], fixed[2 * i + 1])
        c = _inv(prefix)
        for _ in range(10):
            budget -= 1
            if budget < 0:
                break
            base = _unipotent_product(rng)
            m = _inv(base)
            mc = m @ c
            denom = mc[1, 0] - m[1, 0]
            if abs(denom) < 1e-6:
                continue
            s = (np.trace(mc) - np.trace(m)) / denom
            if abs(s) > 1e6:
                continue
            a_last = base @ np.array([[1.0, s], [0.0, 1.0]], dtype=complex)
            x = _inv(a_last)
            y = x @ c
            t = np.trace(x)
            disc = np.sqrt(t * t - 4.0 + 0j)
            if abs(disc) < 1e-3:  # near-parabolic: alignment ill-conditioned
                continue
            lam1, lam2 = (t + disc) / 2.0, (t - disc) / 2.0
            try:
                p = _det_normalize(_eigenframe(x, lam1, lam2))
                q = _det_normalize(_eigenframe(y, lam1, lam2))
            except ArithmeticError:
                continue
            b_last = q @ _inv(p)
            mats = tuple(fixed + [a_last, b_last])
            if any(abs(np.linalg.det(mm) - 1.0) > _DET_TOL for mm in mats):
                continue
            res = relator_residual(surface, mats)
            if res <= _RESIDUAL_TOL:
                return Representation(
                    genus=g, matrices=mats, relator_residual=res
                )
    raise SolveFailed(f"no well-conditioned representation within 100 resamples (seed {seed})")


def evaluate_trace(rep: Representation, word) -> complex:
    """Trace of the word under the representation."""
    return complex(np.trace(_word_matrix(rep.matrices, tuple(word))))
