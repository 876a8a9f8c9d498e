"""Lie element arithmetic: bracket axioms, tensor-algebra oracle, printing."""

import gc
import itertools
import random
from fractions import Fraction

import pytest

from grtlab import (
    AlphabetMismatchError,
    AssocPoly,
    GradedAlphabet,
    InhomogeneousError,
    LieElement,
    NotALiePolynomialError,
    bracket,
    expand_assoc,
    from_coordinates,
    lie_to_string,
    lyndon_words,
    parse_lie,
    project_lyndon,
    substitute,
    witt_dim,
)

from grtlab.lie import _tensor_coefficients, _word_images
from grtlab.words import _lyndon_tuples

from conftest import XY, XYZ, random_element, random_homogeneous


def test_bracket_antisymmetry_and_jacobi():
    # seeded battery over both alphabets and mixed degrees
    rng = random.Random(101)
    for _ in range(40):
        alphabet = rng.choice([XY, XYZ])
        a = random_element(alphabet, 4, rng)
        b = random_element(alphabet, 4, rng)
        c = random_element(alphabet, 3, rng)
        assert bracket(a, b) == -bracket(b, a)
        jac = (bracket(a, bracket(b, c))
               + bracket(b, bracket(c, a))
               + bracket(c, bracket(a, b)))
        assert not jac


def test_bracket_alternating():
    rng = random.Random(102)
    for _ in range(10):
        a = random_element(XY, 5, rng)
        assert not bracket(a, a)


def test_bracket_bilinearity():
    rng = random.Random(103)
    for _ in range(15):
        a = random_element(XY, 4, rng)
        b = random_element(XY, 4, rng)
        c = random_element(XY, 4, rng)
        assert bracket(a + b, c) == bracket(a, c) + bracket(b, c)
        assert bracket(a.scale(3), b) == bracket(a, b).scale(3)


def test_bracket_matches_tensor_commutator():
    # oracle: expand both sides in the tensor algebra and compare
    rng = random.Random(104)
    for _ in range(25):
        alphabet = rng.choice([XY, XYZ])
        a = random_element(alphabet, 4, rng)
        b = random_element(alphabet, 4, rng)
        ta, tb = expand_assoc(a), expand_assoc(b)
        assert expand_assoc(bracket(a, b)) == ta * tb - tb * ta


def test_basis_brackets_match_tensor_commutator():
    # every ordered pair of basis words, equal pairs included, so both
    # the memoized order and its antisymmetric mirror are checked
    for alphabet, top in ((XY, 10), (XYZ, 7)):
        words = [LieElement(alphabet, {w: 1})
                 for n in range(1, top)
                 for w in _lyndon_tuples(alphabet.degrees, n)]
        for a in words:
            ta = expand_assoc(a)
            for b in words:
                if (a.homogeneous_degree() + b.homogeneous_degree()
                        <= top):
                    tb = expand_assoc(b)
                    assert bracket(a, b) == project_lyndon(
                        ta * tb - tb * ta), (a, b)


def test_results_own_their_terms():
    # mutating a result reaches neither its operands nor later results
    rng = random.Random(113)
    x, y = (LieElement.generator(XY, c) for c in "xy")
    a = random_element(XY, 5, rng, rational=True)
    b = random_element(XY, 5, rng, rational=True)
    saved = [dict(e.terms) for e in (a, b, x, y)]
    ops = [lambda: a.scale(3), lambda: a.scale(1), lambda: -a,
           lambda: a + b, lambda: a - b,
           lambda: a + LieElement.zero(XY), lambda: bracket(a, b),
           lambda: bracket(a, b, max_degree=6),
           lambda: substitute(a, (y, x)),
           lambda: substitute(a, (x + y, y), max_degree=4)]
    for op in ops:
        want = op()
        assert want
        got = op()
        got.terms.clear()
        got.terms[(0,)] = 7
        assert [dict(e.terms) for e in (a, b, x, y)] == saved
        assert op() == want
    assert a.scale(0) == LieElement.zero(XY)
    assert not a.scale(0).terms


def test_truncated_bracket_matches_truncation():
    # the degree-grouped truncated bracket against the full one, on
    # inhomogeneous rational operands, equal and weighted letter degrees
    rng = random.Random(111)
    weighted = GradedAlphabet("a:2 b:3")
    for alphabet, top in ((XY, 6), (weighted, 12)):
        for _ in range(12):
            a = random_element(alphabet, top, rng, rational=True)
            b = random_element(alphabet, top, rng, rational=True)
            full = bracket(a, b)
            for k in range(0, 2 * top + 2):
                assert bracket(a, b, max_degree=k) == full.truncate(k)


def test_project_lyndon_roundtrip():
    rng = random.Random(105)
    for _ in range(25):
        alphabet = rng.choice([XY, XYZ])
        e = random_element(alphabet, 5, rng, rational=True)
        assert project_lyndon(expand_assoc(e)) == e


def test_project_lyndon_rejects_non_lie():
    # a bare word of length 2 is never primitive
    p = AssocPoly(XY, {(0, 1): 1})
    with pytest.raises(NotALiePolynomialError):
        project_lyndon(p)
    # symmetric product x.y + y.x likewise
    p = AssocPoly(XY, {(0, 1): 1, (1, 0): 1})
    with pytest.raises(NotALiePolynomialError):
        project_lyndon(p)


def test_expand_assoc_triangular():
    # the expansion of a Lyndon word starts with that word, coefficient 1
    for n in range(1, 7):
        for w in lyndon_words(XY, n):
            terms = expand_assoc(LieElement.from_word(w)).terms
            least = min(terms)
            assert least == w.letters
            assert terms[w.letters] == 1


def test_tensor_coefficients_read_the_expansion_by_word():
    # (P_l | s) from prefixes and suffixes, against the full expansions;
    # one memo serves every word of every degree
    for letters, top in ((2, 9), (3, 6)):
        memo = {}
        for n in range(1, top + 1):
            want = {}
            for w in _lyndon_tuples((1,) * letters, n):
                for s, c in expand_assoc(LieElement(
                        XY if letters == 2 else XYZ, {w: 1})).terms.items():
                    want.setdefault(s, {})[w] = c
            for s in itertools.product(range(letters), repeat=n):
                assert _tensor_coefficients(s, memo) == want.get(s, {}), s
        assert len(memo) == sum(letters ** n for n in range(1, top + 1))


def test_coordinates_roundtrip():
    rng = random.Random(106)
    for n in range(1, 7):
        dim = witt_dim(2, n)
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(dim)]
        e = from_coordinates(XY, n, coords)
        assert e.coordinates(n) == coords
        assert e.homogeneous_degree() in (n, None)


def test_coordinates_length_check():
    with pytest.raises(ValueError):
        from_coordinates(XY, 3, [1])


def test_homogeneous_degree():
    x = LieElement.generator(XY, "x")
    y = LieElement.generator(XY, "y")
    assert x.homogeneous_degree() == 1
    assert bracket(x, y).homogeneous_degree() == 2
    with pytest.raises(InhomogeneousError):
        (x + bracket(x, y)).homogeneous_degree()
    assert LieElement.zero(XY).homogeneous_degree() is None


def test_graded_components_and_truncate():
    rng = random.Random(107)
    e = random_element(XY, 6, rng)
    comps = e.graded_components()
    total = LieElement.zero(XY)
    for n, part in comps.items():
        assert part.homogeneous_degree() == n
        total = total + part
    assert total == e
    cut = e.truncate(3)
    assert all(XY.word_degree(w) <= 3 for w in cut.terms)
    assert cut == sum((p for n, p in comps.items() if n <= 3),
                      LieElement.zero(XY))


def test_alphabet_mismatch():
    x2 = LieElement.generator(XY, "x")
    x3 = LieElement.generator(XYZ, "x")
    with pytest.raises(AlphabetMismatchError):
        bracket(x2, x3)
    with pytest.raises(AlphabetMismatchError):
        x2 + x3


def test_substitute_is_homomorphism():
    # phi(a) = a evaluated on images; check phi([a,b]) == [phi a, phi b]
    rng = random.Random(108)
    x = LieElement.generator(XY, "x")
    y = LieElement.generator(XY, "y")
    for _ in range(12):
        img = (random_homogeneous(XY, rng.randint(1, 2), rng),
               random_homogeneous(XY, rng.randint(1, 2), rng))
        a = random_element(XY, 3, rng)
        b = random_element(XY, 3, rng)
        phi = lambda e: substitute(e, img)
        assert phi(bracket(a, b)) == bracket(phi(a), phi(b))
        assert phi(a + b) == phi(a) + phi(b)
    # identity images act as identity
    e = random_element(XY, 5, rng)
    assert substitute(e, (x, y)) == e


def test_substitute_truncation():
    rng = random.Random(109)
    x = LieElement.generator(XY, "x")
    y = LieElement.generator(XY, "y")
    img = (x + bracket(x, y), y)
    e = random_element(XY, 4, rng)
    full = substitute(e, img)
    cut = substitute(e, img, max_degree=4)
    assert cut == full.truncate(4)


def test_lie_to_string_parse_roundtrip():
    rng = random.Random(110)
    for _ in range(30):
        alphabet = rng.choice([XY, XYZ])
        e = random_element(alphabet, 5, rng, rational=True)
        assert parse_lie(lie_to_string(e), alphabet) == e
    assert lie_to_string(LieElement.zero(XY)) == "0"


def test_assoc_poly_algebra():
    rng = random.Random(111)
    x = AssocPoly(XY, {(0,): 1})
    y = AssocPoly(XY, {(1,): 1})
    assert (x * y).terms == {(0, 1): 1}
    for _ in range(10):
        a = expand_assoc(random_element(XY, 3, rng))
        b = expand_assoc(random_element(XY, 3, rng))
        c = expand_assoc(random_element(XY, 3, rng))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def _reference_product(a, b):
    """The product as every pair of words, concatenated: the unbounded
    loop the bounded product replaced, kept as its reference."""
    acc = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            acc[u + v] = acc.get(u + v, 0) + cu * cv
    return AssocPoly(a.alphabet, acc)


def _random_assoc(alphabet, rng, max_length=5, max_terms=8):
    """Random rational tensor element, the empty word included."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        w = tuple(rng.randrange(len(alphabet))
                  for _ in range(rng.randint(0, max_length)))
        terms[w] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return AssocPoly(alphabet, terms)


def test_bounded_product_matches_truncation():
    # degree, not length, decides what is dropped: the weighted alphabet
    # has letter degrees 1, 2, 3
    rng = random.Random(112)
    weighted = GradedAlphabet("a:1 b:2 c:3")
    for alphabet in (GradedAlphabet("u v"), weighted):
        top = 2 * 5 * max(alphabet.degrees)
        for _ in range(30):
            a = _random_assoc(alphabet, rng)
            b = _random_assoc(alphabet, rng)
            full = _reference_product(a, b)
            assert a * b == full
            assert a.times(b) == full
            for k in range(-1, top + 2):
                assert a.times(b, k) == full.truncate(k)
    with pytest.raises(AlphabetMismatchError):
        AssocPoly(XY, {(0,): 1}).times(AssocPoly(weighted, {(0,): 1}), 3)


def test_word_images_free_their_memo_without_gc():
    # the memo of a substitution map is in no reference cycle, so the
    # images go as soon as the map does, not at the next collection
    x, y = (LieElement.generator(XY, c) for c in "xy")
    gc.collect()
    gc.disable()
    try:
        on_word = _word_images((y, x))
        assert on_word((0, 0, 1, 0, 1, 1))
        del on_word
        assert gc.collect() == 0
    finally:
        gc.enable()
