"""Lyndon words, the Witt formula, and weighted dimension counts."""

import random

import pytest

from grtlab.errors import AtomicWordError, PreconditionError
from grtlab.words import (GradedAlphabet, LyndonWord, _lyndon_tuples,
                          _std_factorization, all_words, is_lyndon,
                          lyndon_words, standard_factorization, tate_weight,
                          weighted_witt_dims, witt_dim)

from conftest import XY, XYZ

WITT_2 = [2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335]


def test_witt_table_two_letters():
    assert [witt_dim(2, n) for n in range(1, 13)] == WITT_2


def test_lyndon_count_matches_witt():
    for n in range(1, 13):
        assert len(lyndon_words(XY, n)) == witt_dim(2, n)
    for n in range(1, 8):
        assert len(lyndon_words(XYZ, n)) == witt_dim(3, n)


def _lyndon_by_rotations(w):
    """The reference definition: strictly smaller than all proper
    rotations."""
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def test_is_lyndon_definition_brute_force():
    """A word is Lyndon iff strictly smaller than all proper rotations."""
    for alphabet, top in ((XY, 12), (XYZ, 7)):
        for n in range(1, top + 1):
            for w in all_words(alphabet, n):
                assert is_lyndon(w) == _lyndon_by_rotations(w), w
    assert not is_lyndon(())


def test_std_factorization_takes_longest_lyndon_suffix():
    """The least proper suffix is the longest proper Lyndon suffix, on
    every Lyndon word of equal and of weighted letter degrees."""
    for alphabet, top in ((XY, 14), (XYZ, 9),
                          (GradedAlphabet("a:1 b:2 c:3"), 14)):
        for n in range(2, top + 1):
            for w in _lyndon_tuples(alphabet.degrees, n):
                if len(w) == 1:
                    continue
                start = min(k for k in range(1, len(w))
                            if _lyndon_by_rotations(w[k:]))
                assert _std_factorization(w) == (w[:start], w[start:]), w


def test_all_words_count():
    for n in range(1, 7):
        assert sum(1 for _ in all_words(XY, n)) == 2 ** n
    weighted = GradedAlphabet("a:2 b:3")
    words6 = list(all_words(weighted, 6))
    # compositions of 6 into parts 2 and 3: 222, 33
    assert sorted(words6) == [(0, 0, 0), (1, 1)]


def test_standard_factorization_properties():
    """w = uv with u, v Lyndon, u < v, and v the longest Lyndon proper
    suffix; single letters are atomic."""
    for n in range(2, 9):
        for w in lyndon_words(XY, n):
            u, v = standard_factorization(w)
            wu, wv = u.letters, v.letters
            assert wu + wv == w.letters
            assert is_lyndon(wu) and is_lyndon(wv)
            assert wu < wv
            longest = min(k for k in range(1, len(w.letters))
                          if is_lyndon(w.letters[k:]))
            assert wv == w.letters[longest:]
    with pytest.raises(AtomicWordError):
        standard_factorization(lyndon_words(XY, 1)[0])


def test_weighted_witt_small_values_by_hand():
    """Generators of degrees 2 and 3: the only basis words through degree
    8 are a, b, ab, aab, abb, aabb+a(ab)b-type degree-8 words."""
    dims = weighted_witt_dims((2, 3), 8)
    assert dims[2] == 1 and dims[3] == 1
    assert dims[4] == 0 and dims[6] == 0
    assert dims[5] == 1  # ab
    assert dims[7] == 1  # aab
    assert dims[8] == 1  # abb


def test_weighted_witt_unit_degrees_reduce_to_witt():
    dims = weighted_witt_dims((1, 1), 12)
    assert [dims[n] for n in range(1, 13)] == WITT_2
    dims3 = weighted_witt_dims((1, 1, 1), 7)
    assert all(dims3[n] == witt_dim(3, n) for n in range(1, 8))


def test_weighted_witt_multiplicity():
    """Two generators in the same degree behave like a rescaled free
    algebra on two letters."""
    dims = weighted_witt_dims((2, 2), 10)
    assert [dims[2 * n] for n in range(1, 6)] == [witt_dim(2, n)
                                                  for n in range(1, 6)]
    assert all(dims[n] == 0 for n in range(1, 11) if n % 2)


def test_alphabet_parsing_and_validation():
    ab = GradedAlphabet("a:3 b:5")
    assert ab.names == ("a", "b") and ab.degrees == (3, 5)
    assert ab.word_degree((0, 1, 1)) == 13
    with pytest.raises(ValueError):
        GradedAlphabet("a:0")
    with pytest.raises(ValueError):
        GradedAlphabet("a a")
    with pytest.raises(ValueError):
        GradedAlphabet("")


def test_tate_weight_convention():
    assert [tate_weight(n) for n in (1, 2, 12)] == [-2, -4, -24]


def test_lyndon_words_weighted_alphabet():
    """Weighted enumeration agrees with filtering unit-degree words."""
    ab = GradedAlphabet("a:2 b:3")
    got = {w.letters for w in lyndon_words(ab, 12)}
    brute = {w for n in range(1, 7) for w in map(tuple, _all_tuples(n))
             if sum((2, 3)[i] for i in w) == 12 and is_lyndon(w)}
    assert got == brute


def _all_tuples(length):
    out = [()]
    for _ in range(length):
        out = [t + (i,) for t in out for i in (0, 1)]
    return out


def test_lyndon_words_sorted_and_distinct():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 10)
        ws = [w.letters for w in lyndon_words(XY, n)]
        assert ws == sorted(ws)
        assert len(set(ws)) == len(ws)


def _same_word(got, want):
    return (type(got) is LyndonWord and got == want
            and (got.alphabet, got.letters, got.degree)
            == (want.alphabet, want.letters, want.degree))


def test_generated_words_equal_validated_construction():
    """lyndon_words and standard_factorization skip the constructor's
    checks; what they hand out equals the validated words, and the public
    constructor still rejects what is not a Lyndon word."""
    for alphabet, top in ((XY, 12), (GradedAlphabet("a:1 b:2 c:3"), 10)):
        for n in range(1, top + 1):
            for w in lyndon_words(alphabet, n):
                assert _same_word(w, LyndonWord(alphabet, w.letters)), w
                if len(w) > 1:
                    u, v = standard_factorization(w)
                    a, b = _std_factorization(w.letters)
                    assert _same_word(u, LyndonWord(alphabet, a)), w
                    assert _same_word(v, LyndonWord(alphabet, b)), w
    for letters in ((), (1, 0), (0, 1, 0, 1), (0, 0), (0, 2)):
        with pytest.raises(PreconditionError):
            LyndonWord(XY, letters)
