"""Lie element arithmetic: bracket axioms, tensor-algebra oracle, printing."""

import gc
import itertools
import random
import sys
import threading
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

from grtlab import lie
from grtlab.lie import (_basis_bracket, _bracket_into, _id_images, _intern,
                        _word_of, _words_of)
from grtlab.words import _lyndon_tuples, _std_factorization

from conftest import (XY, XYZ, random_element, random_homogeneous,
                      reference_basis_bracket)


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


def test_word_ids_are_thread_safe_from_a_cold_table(monkeypatch):
    # four threads intern overlapping sets of words into an empty table,
    # in different orders, and bracket every pair of their words
    monkeypatch.setattr(lie, "_ID_WORDS", [])
    monkeypatch.setattr(lie, "_ID_LEFT", [])
    monkeypatch.setattr(lie, "_ID_RIGHT", [])
    monkeypatch.setattr(lie, "_ID_OF_WORD", {})
    words = [w for n in range(1, 12) for w in _lyndon_tuples((1, 1), n)]
    rng = random.Random(2411)
    step = len(words) // 6
    sets = [rng.sample(words[k * step:(k + 3) * step], 3 * step)
            for k in range(4)]
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(k):
        barrier.wait()
        ids = [_intern(w) for w in sets[k]]
        out = {}
        for u, v in itertools.product(ids, repeat=2):
            if len(_word_of(u)) + len(_word_of(v)) <= 12:
                out[_word_of(u), _word_of(v)] = _words_of(
                    _bracket_into({}, {u: 1}, {v: 1}))
        results[k] = ids, out

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    _basis_bracket.cache_clear()
    try:
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        table = lie._ID_WORDS
        assert len(set(table)) == len(table) == len(lie._ID_OF_WORD)
        assert all(lie._ID_OF_WORD[w] == i for i, w in enumerate(table))
        assert len(lie._ID_LEFT) == len(lie._ID_RIGHT) == len(table)
        assert all(len(w) == 1 if a is None else table[a] + table[b] == w
                   for w, a, b in zip(table, lie._ID_LEFT, lie._ID_RIGHT))
        for k, (ids, out) in enumerate(results):
            assert len(set(ids)) == len(ids)
            assert [_word_of(i) for i in ids] == sets[k]
            assert [_intern(w) for w in sets[k]] == ids
            for (u, v), got in out.items():
                serial = {} if u == v else dict(
                    reference_basis_bracket(*sorted((u, v))))
                if v < u:
                    serial = {w: -c for w, c in serial.items()}
                assert got == serial, (u, v)
    finally:
        # its entries hold ids of the table the test made
        _basis_bracket.cache_clear()


def test_basis_brackets_match_dict_based_jacobi():
    # every ordered pair of Lyndon words through total degree 12, over
    # equal and over weighted letter degrees
    for alphabet, count in ((XY, 1694), (GradedAlphabet("a:1 b:2 c:3"), 557)):
        words = [w for n in range(1, 12)
                 for w in _lyndon_tuples(alphabet.degrees, n)]
        deg = alphabet.word_degree
        pairs = 0
        for u in words:
            for v in words:
                if u < v and deg(u) + deg(v) <= 12:
                    got = _basis_bracket(_intern(u), _intern(v))
                    assert (tuple(sorted((_word_of(w), n) for w, n in got))
                            == reference_basis_bracket(u, v)), (u, v)
                    pairs += 1
        assert pairs == count


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
    # (P_l | s) read off the full expansions word by word obeys the
    # bracket identity P_l = [P_a, P_b] for the standard factorization
    # l = ab: (P_l | s) = (P_a | s') (P_b | s'') - (P_b | t') (P_a | t'')
    # over the two splits of s at |a| and at |b|
    for letters, top in ((2, 9), (3, 6)):
        alphabet = XY if letters == 2 else XYZ
        col = {}
        for n in range(1, top + 1):
            for w in _lyndon_tuples((1,) * letters, n):
                for s, c in expand_assoc(LieElement(alphabet,
                                                    {w: 1})).terms.items():
                    col.setdefault(s, {})[w] = c

        def at(s, w):
            return col.get(s, {}).get(w, 0)

        for s in itertools.product(range(letters), repeat=1):
            assert col[s] == {s: 1}
        for n in range(2, top + 1):
            for w in _lyndon_tuples((1,) * letters, n):
                a, b = _std_factorization(w)
                for s in itertools.product(range(letters), repeat=n):
                    want = (at(s[:len(a)], a) * at(s[len(a):], b)
                            - at(s[:len(b)], b) * at(s[len(b):], a))
                    assert at(s, w) == want, (w, s)


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
        on_id = _id_images((y, x))
        assert on_id(_intern((0, 0, 1, 0, 1, 1)))
        del on_id
        assert gc.collect() == 0
    finally:
        gc.enable()
