"""Derivations of the rank-two free Lie algebra: Leibniz rule, inner ideal."""

import random
from fractions import Fraction

import pytest

from grtlab import (
    AssocPoly,
    Derivation,
    bracket,
    der_bracket,
    derivation_from_coordinates,
    derivation_space_dim,
    expand_assoc,
    in_row_space,
    inner,
    inner_matrix,
    outder_dim,
    rank,
    witt_dim,
)
from grtlab.derivations import X, XY, Y

from conftest import random_element, random_homogeneous


def _random_derivation(rng, degree):
    return Derivation(random_homogeneous(XY, degree + 1, rng),
                      random_homogeneous(XY, degree + 1, rng),
                      degree=degree)


def test_leibniz_rule():
    rng = random.Random(401)
    for _ in range(25):
        d = _random_derivation(rng, rng.randint(1, 3))
        a = random_element(XY, 4, rng)
        b = random_element(XY, 4, rng)
        assert d(bracket(a, b)) == bracket(d(a), b) + bracket(a, d(b))
        assert d(a + b) == d(a) + d(b)


def _assoc_derivation(images, p):
    """The derivation of the tensor algebra with letter i -> images[i],
    applied to p one letter position at a time."""
    acc = {}
    for w, c in p.terms.items():
        for i, letter in enumerate(w):
            for t, ct in images[letter].terms.items():
                key = w[:i] + t + w[i + 1:]
                acc[key] = acc.get(key, 0) + c * ct
    return AssocPoly(XY, acc)


def test_apply_matches_tensor_route():
    # Leibniz images built on raw dicts against the associative
    # derivation on the tensor expansion, with rational coefficients
    rng = random.Random(408)
    for degree in (1, 2, 3, 4):
        for _ in range(3):
            scale = Fraction(rng.randint(1, 7), rng.randint(1, 5))
            d = Derivation(random_homogeneous(XY, degree + 1, rng),
                           random_homogeneous(XY, degree + 1, rng).scale(
                               scale), degree=degree)
            a = random_element(XY, 7, rng, rational=True)
            images = (expand_assoc(d.image_x), expand_assoc(d.image_y))
            assert expand_assoc(d(a)) == _assoc_derivation(
                images, expand_assoc(a))


def test_apply_results_own_their_terms():
    # mutating a result reaches neither the operand, the generator
    # images, the kept word images nor later results
    rng = random.Random(409)
    d = _random_derivation(rng, 3)
    a = random_element(XY, 6, rng, rational=True)
    saved = (dict(a.terms), dict(d.image_x.terms), dict(d.image_y.terms))
    want = d(a)
    images = {w: dict(t) for w, t in d._cache.items()}
    for e in (a, X, Y):
        got = d(e)
        got.terms.clear()
        got.terms[(0,)] = 7
    assert (dict(a.terms), dict(d.image_x.terms),
            dict(d.image_y.terms)) == saved
    assert {w: d._cache[w] for w in images} == images
    assert d(a) == want


def test_generator_images_define_derivation():
    rng = random.Random(402)
    d = _random_derivation(rng, 2)
    assert d(X) == d.image_x
    assert d(Y) == d.image_y


def test_degree_shift():
    rng = random.Random(403)
    for deg in (1, 2, 3):
        d = _random_derivation(rng, deg)
        a = random_homogeneous(XY, 3, rng)
        out = d(a)
        if out:
            assert out.homogeneous_degree() == 3 + deg


def test_inhomogeneous_images_rejected():
    with pytest.raises(Exception):
        Derivation(X + bracket(X, Y), Y)


def test_der_bracket_is_commutator():
    rng = random.Random(404)
    for _ in range(10):
        d1 = _random_derivation(rng, rng.randint(1, 2))
        d2 = _random_derivation(rng, rng.randint(1, 2))
        a = random_element(XY, 3, rng)
        lhs = der_bracket(d1, d2)(a)
        rhs = d1(d2(a)) - d2(d1(a))
        assert lhs == rhs
        assert der_bracket(d1, d2).degree == d1.degree + d2.degree


def test_inner_derivation_is_ad():
    rng = random.Random(405)
    for _ in range(10):
        v = random_homogeneous(XY, rng.randint(1, 3), rng)
        a = random_element(XY, 3, rng)
        assert inner(v)(a) == bracket(v, a)


def test_coordinates_roundtrip():
    rng = random.Random(406)
    for deg in (1, 2, 3):
        d = _random_derivation(rng, deg)
        back = derivation_from_coordinates(deg, d.coordinates())
        assert back == d
    with pytest.raises(ValueError):
        derivation_from_coordinates(2, [1])


def test_space_dims():
    for n in range(1, 6):
        assert derivation_space_dim(n) == 2 * witt_dim(2, n + 1)
        assert outder_dim(n) == 2 * witt_dim(2, n + 1) - witt_dim(2, n)
    with pytest.raises(ValueError):
        outder_dim(0)


def test_outder_dim_one_vanishes_by_matrix():
    # degree 1: ad is square and full rank, so no outer derivations
    m = inner_matrix(1)
    assert len(m) == derivation_space_dim(1)
    assert len(m[0]) == witt_dim(2, 1)
    assert rank(m) == witt_dim(2, 1)
    assert derivation_space_dim(1) - rank(m) == 0
    assert outder_dim(1) == 0


def test_inner_matrix_injective():
    # ad is injective in each degree (free algebra has trivial center)
    for n in range(1, 6):
        m = inner_matrix(n)
        assert rank(m) == witt_dim(2, n)
        assert derivation_space_dim(n) - rank(m) == outder_dim(n)


def test_inner_membership_via_matrix():
    rng = random.Random(407)
    for _ in range(8):
        n = rng.randint(1, 4)
        v = random_homogeneous(XY, n, rng)
        d = inner(v)
        # row space of the transpose = image of ad
        rows = [list(col) for col in zip(*inner_matrix(n))]
        assert in_row_space(rows, d.coordinates())
        # generic non-inner witness: dimension gap guarantees existence
        if outder_dim(n) > 0:
            coords = [0] * derivation_space_dim(n)
            found = False
            for i in range(len(coords)):
                probe = coords[:]
                probe[i] = 1
                if not in_row_space(rows, probe):
                    found = True
                    break
            assert found
