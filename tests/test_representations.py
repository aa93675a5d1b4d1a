"""Exact representation sampling in SL2(F_P) and the defining trace identities."""
import random
import re

import pytest

from curvetrace.errors import BadArgument, BadLetter, ModelInconsistency
from curvetrace.representations import (
    P,
    Representation,
    _det,
    _mul,
    _word_matrix,
    evaluate_trace,
    random_representation,
    trivial_representation,
)
from curvetrace.words import inverse_word, make_surface

S2 = make_surface(2)
S3 = make_surface(3)


def test_residual_and_determinants():
    # the relator is exactly I and every generator has det 1
    for genus in (2, 3, 4):
        s = make_surface(genus)
        for seed in range(50):
            rep = random_representation(s, seed)
            assert _word_matrix(rep.letters, s.relator) == (1, 0, 0, 1)
            assert all(_det(m) == 1 for m in rep.matrices)


def test_genus_three_sampling():
    rep = random_representation(S3, 11)
    assert len(rep.matrices) == 6
    assert evaluate_trace(rep, S3.relator) == 2


def test_determinism():
    assert random_representation(S2, 42) == random_representation(S2, 42)
    assert random_representation(S2, 42) != random_representation(S2, 43)


@pytest.mark.parametrize(
    "seed", [None, 1.0, "1", True], ids=["None", "float", "str", "bool"]
)
def test_a_seed_that_is_not_an_int_is_a_typed_error(seed):
    # Random(None) seeds from the OS, so the representation could not be
    # redrawn; True was taken as the seed 1
    with pytest.raises(BadArgument):
        random_representation(S2, seed)


def test_identity_trace_is_exactly_two():
    rep = random_representation(S2, 0)
    assert evaluate_trace(rep, ()) == 2
    assert evaluate_trace(rep, S2.relator) == 2


def test_trivial_representation():
    rep = trivial_representation(S2)
    assert evaluate_trace(rep, (1, 2, -1)) == 2


def test_tampered_matrix_raises():
    rep = random_representation(S2, 3)
    a, b, c, d = rep.matrices[0]
    tampered = ((a, (b + 1) % P, c, d),) + rep.matrices[1:]
    with pytest.raises(ModelInconsistency):
        Representation(genus=2, matrices=tampered)
    # det 1 on every generator, but the relator is not I
    swapped = (rep.matrices[1], rep.matrices[0]) + rep.matrices[2:]
    with pytest.raises(ModelInconsistency):
        Representation(genus=2, matrices=swapped)


def test_evaluate_trace_rejects_letters_that_are_not_ints():
    rep = random_representation(S2, 0)
    # the letter table is a dict keyed by int, and 1.0 == 1 hashes alike, so
    # the int test, not the lookup, must turn 1.0 and True away; a bad letter
    # after good ones, and |letter| > 2g of either sign, raise too
    for word, letter in [
        ("a1", "a"), ((1, "b"), "b"), ((1.0,), 1.0), ((5,), 5), ((0,), 0),
        ((1, 2, 1.0), 1.0), ((1, -1.0), -1.0), ((3, 0), 0), ((1, 5), 5),
        ((-5,), -5), ((9,), 9), ((-9,), -9), ((True,), True), ((2, False), False),
    ]:
        with pytest.raises(BadLetter, match=re.escape(f"letter {letter!r} outside 4")):
            evaluate_trace(rep, word)


def test_the_letter_table_reads_each_generator_and_its_inverse():
    rep = random_representation(S2, 0)
    for k, m in enumerate(rep.matrices, 1):
        a, b, c, d = m
        assert rep.letters[k] == m
        assert rep.letters[-k] == (d, -b % P, -c % P, a)
    rng = random.Random(3)
    for _ in range(20):
        word = tuple(rng.choice((1, -1, 2, -2, 3, -3, 4, -4)) for _ in range(16))
        m = (1, 0, 0, 1)
        for l in word:
            m = _mul(m, rep.letters[l])
        assert evaluate_trace(rep, word) == (m[0] + m[3]) % P


def test_fundamental_trace_identity():
    # Tr(U)Tr(V) = Tr(UV) + Tr(UV^-1) for any U, V in SL2
    rng = random.Random(5)
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    reps = [random_representation(S2, seed) for seed in (1, 2, 3)]
    for _ in range(20):
        u = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 6)))
        v = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 6)))
        for rep in reps:
            lhs = evaluate_trace(rep, u) * evaluate_trace(rep, v) % P
            rhs = evaluate_trace(rep, u + v) + evaluate_trace(
                rep, u + inverse_word(v)
            )
            assert lhs == rhs % P


def test_trace_is_a_class_function():
    rng = random.Random(9)
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    rep = random_representation(S2, 8)
    for _ in range(20):
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 6)))
        c = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 5)))
        t = evaluate_trace(rep, w)
        assert evaluate_trace(rep, c + w + inverse_word(c)) == t
        assert evaluate_trace(rep, inverse_word(w)) == t
