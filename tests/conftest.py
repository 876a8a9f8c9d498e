"""Shared builders for seeded random test data, a reference for the
Lyndon-basis structure constants, and a second route for the hex space of
the stable-space pipeline.

Every property test draws from an explicit random.Random(seed) so a
failure reproduces from the seed alone; nothing here touches global
random state.
"""

import functools
import random
from fractions import Fraction

from grtlab import bracket, kernel_basis
from grtlab.derivations import X, Y
from grtlab.lie import (LieElement, _merge_scaled, _word_images,
                        from_coordinates)
from grtlab.linalg import _column_kernel
from grtlab.words import GradedAlphabet, _lyndon_tuples, _std_factorization

XY = GradedAlphabet("x y")
XYZ = GradedAlphabet("x y z")


def random_homogeneous(alphabet, degree, rng, max_terms=3, bound=5):
    """Random integer combination of degree-``degree`` basis words;
    may be zero when the degree has no basis words."""
    words = _lyndon_tuples(alphabet.degrees, degree)
    if not words:
        return LieElement.zero(alphabet)
    chosen = rng.sample(words, min(max_terms, len(words)))
    terms = {}
    for w in chosen:
        c = rng.randint(-bound, bound)
        if c:
            terms[w] = c
    return LieElement(alphabet, terms)


def random_element(alphabet, max_degree, rng, rational=False):
    """Random inhomogeneous element with components up to max_degree."""
    out = LieElement.zero(alphabet)
    for d in range(1, max_degree + 1):
        if rng.random() < 0.6:
            piece = random_homogeneous(alphabet, d, rng)
            if rational and piece.terms:
                q = Fraction(rng.randint(1, 5), rng.randint(1, 4))
                piece = piece.scale(q)
            out = out + piece
    return out


def random_int_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


# ---------------------------------------------------------------------------
# The structure constants [sigma(u), sigma(v)] for Lyndon words u < v by the
# dict-based Jacobi step: each sub-result copied into a dict and bracketed
# with a or b through a generic bilinear loop.  It keeps its own memo and
# shares only the standard factorization and _merge_scaled with the
# package.


@functools.lru_cache(maxsize=None)
def reference_basis_bracket(u, v):
    """[sigma(u), sigma(v)] for Lyndon words u < v as a sorted tuple of
    (word, integer coefficient) pairs: sigma(uv) when (u, v) is the
    standard factorization of uv, else [a, [b, v]] + [[a, v], b] for
    u = a b."""
    if len(u) > 1:
        a, b = _std_factorization(u)
        if b < v:
            acc = _reference_bracket_into({}, {a: 1},
                                          dict(reference_basis_bracket(b, v)))
            _reference_bracket_into(acc, dict(reference_basis_bracket(a, v)),
                                    {b: 1})
            return tuple(sorted(acc.items()))
    return ((u + v, 1),)


def _reference_bracket_into(acc, t1, t2):
    """acc += [t1, t2] on {Lyndon word: coefficient} dicts."""
    for u, cu in t1.items():
        for v, cv in t2.items():
            if u < v:
                _merge_scaled(acc, dict(reference_basis_bracket(u, v)),
                              cu * cv)
            elif v < u:
                _merge_scaled(acc, dict(reference_basis_bracket(v, u)),
                              -cu * cv)
    return acc


# ---------------------------------------------------------------------------
# The hex space (special, 2-cycle and 3-cycle conditions) by the stacked
# formulation: the special pairs (f, u) as the kernel of one 2d-column
# matrix, and the 2-cycle and 3-cycle defects by substitution, with both
# z -> x and y -> z images.  It shares no stage with ihara._hex_pairs.


def stacked_special_columns(n):
    """The 2d sparse columns [y, w], then [w, z] = -[z, w], one of each per
    degree-n Lyndon word w: the matrix whose kernel is {(f, u) : [y, f] =
    [z, u]} in Lyndon coordinates, f then u."""
    words = [LieElement(XY, {w: 1})
             for w in _lyndon_tuples((1, 1), n)]
    z = -X - Y
    return ([bracket(Y, w).terms for w in words]
            + [bracket(w, z).terms for w in words])


def stacked_special_dense(n):
    """:func:`stacked_special_columns` as a dense matrix, one row per
    degree-(n + 1) Lyndon word in basis order."""
    cols = stacked_special_columns(n)
    return [[col.get(v, 0) for col in cols]
            for v in _lyndon_tuples((1, 1), n + 1)]


@functools.lru_cache(maxsize=None)
def _substitution(imgs):
    """The word images of the substitution letter i -> imgs[i], kept
    across calls."""
    return _word_images(imgs)


def substituted(f, imgs):
    """f with letter i replaced by imgs[i]."""
    on_word = _substitution(imgs)
    acc = {}
    for w, c in f.terms.items():
        _merge_scaled(acc, on_word(w).terms, c)
    return LieElement(f.alphabet, acc)


def symmetry_defects(f):
    """The 2-cycle defect f + f(y, x) and the 3-cycle defect
    f + f(y, z) + f(z, x) of f, by substitution."""
    z = -X - Y
    return (f + substituted(f, (Y, X)),
            f + substituted(f, (Y, z)) + substituted(f, (z, X)))


@functools.lru_cache(maxsize=None)
def stacked_specials(n, p=None):
    """The f halves of the stacked special-pair kernel: kernel_basis of
    the dense matrix over Q, its kernel over GF(p) when p is given."""
    d = len(_lyndon_tuples((1, 1), n))
    kernel = (kernel_basis(stacked_special_dense(n)) if p is None
              else _column_kernel(stacked_special_columns(n), p))
    return tuple(from_coordinates(XY, n, v[:d]) for v in kernel)


def stacked_hex_space(n, p=None):
    """A basis of the hex space in degree n, over GF(p) when p is given:
    the specials cut by one kernel of both defects stacked, the 2-cycle
    defect keyed by word and the 3-cycle defect by (1, word)."""
    specials = stacked_specials(n, p)
    cols = []
    for f in specials:
        two, three = symmetry_defects(f)
        cols.append({**two.terms,
                     **{(1, w): c for w, c in three.terms.items()}})
    hexes = []
    for t in _column_kernel(cols, p):
        acc = {}
        for tj, f in zip(t, specials):
            _merge_scaled(acc, f.terms, tj)
        hexes.append(LieElement(XY, acc))
    return hexes
