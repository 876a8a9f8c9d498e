"""Graded derivations of the free Lie algebra on two generators x, y.

A derivation is stored by its images of the generators and extended to
the whole algebra through the Leibniz rule along standard factorizations.
The image of each Lyndon word is a raw {word: coefficient} dict, built
with :func:`grtlab.lie._bracket_into` and cached per instance, for as long
as the instance lives: :func:`grtlab.ihara.ihara_bracket` keeps one
instance per operand, so its images serve every later bracket with it.
A derivation of degree d sends the degree-n piece to degree n + d; in the
weight convention used for display it acts in weight -2d.

``outder_dim`` counts outer derivations: derivations modulo the inner
ones (brackets with a fixed element), which are injective in positive
degree because the algebra is free of rank two, hence centerless beyond
degree considerations that the tests pin down explicitly.
"""

from __future__ import annotations

from typing import Sequence

from .errors import (AlphabetMismatchError, InhomogeneousError,
                     PreconditionError)
from .lie import (LieElement, _bracket_into, _merge_scaled, bracket,
                  from_coordinates)
from .words import (GradedAlphabet, lyndon_words, witt_dim,
                    _std_factorization)

#: The alphabet every derivation in this module acts on.
XY = GradedAlphabet("x y")

X = LieElement.generator(XY, "x")
Y = LieElement.generator(XY, "y")


class Derivation:
    """A homogeneous derivation of the free Lie algebra on x, y.

    ``image_x`` and ``image_y`` must be homogeneous of the same degree
    (zero is allowed in either slot); that common degree minus one is the
    degree of the derivation.  For the zero derivation pass ``degree``
    explicitly.
    """

    __slots__ = ("image_x", "image_y", "degree", "_cache")

    def __init__(self, image_x: LieElement, image_y: LieElement,
                 degree: int | None = None):
        for img in (image_x, image_y):
            if img.alphabet != XY:
                raise AlphabetMismatchError(
                    "derivations act on the x,y algebra")
        degs = {img.homogeneous_degree() for img in (image_x, image_y)}
        degs.discard(None)
        if len(degs) > 1:
            raise InhomogeneousError(
                f"generator images of mixed degrees {sorted(degs)}")
        if degs:
            inferred = degs.pop() - 1
            if degree is not None and degree != inferred:
                raise PreconditionError(
                    f"stated degree {degree} but images have degree "
                    f"{inferred + 1}")
            degree = inferred
        elif degree is None:
            degree = 0
        self.image_x = image_x
        self.image_y = image_y
        self.degree = degree
        self._cache: dict = {}

    def _on_word(self, w: tuple[int, ...]) -> dict:
        cached = self._cache.get(w)
        if cached is None:
            if len(w) == 1:
                cached = (self.image_x if w[0] == 0 else self.image_y).terms
            else:
                u, v = _std_factorization(w)
                cached = _bracket_into(
                    _bracket_into({}, self._on_word(u), {v: 1}),
                    {u: 1}, self._on_word(v))
            self._cache[w] = cached
        return cached

    def apply(self, e: LieElement) -> LieElement:
        """Extend through the Leibniz rule and evaluate at ``e``."""
        if e.alphabet != XY:
            raise AlphabetMismatchError("derivations act on the x,y algebra")
        acc: dict = {}
        for w, c in e.terms.items():
            _merge_scaled(acc, self._on_word(w), c)
        return LieElement._of(XY, acc)

    def __call__(self, e: LieElement) -> LieElement:
        return self.apply(e)

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.degree != other.degree:
            raise InhomogeneousError(
                f"cannot add derivations of degrees "
                f"{self.degree} and {other.degree}")
        return Derivation(self.image_x + other.image_x,
                          self.image_y + other.image_y, degree=self.degree)

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + other.scale(-1)

    def scale(self, scalar) -> "Derivation":
        return Derivation(self.image_x.scale(scalar),
                          self.image_y.scale(scalar), degree=self.degree)

    __rmul__ = scale

    def is_zero(self) -> bool:
        return not self.image_x and not self.image_y

    def __eq__(self, other) -> bool:
        return (isinstance(other, Derivation)
                and self.degree == other.degree
                and self.image_x == other.image_x
                and self.image_y == other.image_y)

    def __repr__(self) -> str:
        return (f"Derivation(x -> {self.image_x}, y -> {self.image_y}, "
                f"degree={self.degree})")

    def coordinates(self) -> list:
        """Coordinates in the degree-d derivation space: the coefficient
        vectors of image_x and image_y in degree d + 1, concatenated."""
        n = self.degree + 1
        return self.image_x.coordinates(n) + self.image_y.coordinates(n)


def der_bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """Commutator [d1, d2] = d1 d2 - d2 d1, again a derivation."""
    return Derivation(
        d1.apply(d2.image_x) - d2.apply(d1.image_x),
        d1.apply(d2.image_y) - d2.apply(d1.image_y),
        degree=d1.degree + d2.degree)


def inner(v: LieElement) -> Derivation:
    """The inner derivation ad(v): u -> [v, u], for homogeneous v."""
    deg = v.homogeneous_degree()
    return Derivation(bracket(v, X), bracket(v, Y),
                      degree=deg if deg is not None else 0)


def derivation_space_dim(n: int) -> int:
    """Dimension of the space of degree-n derivations: one free choice
    of degree-(n+1) image per generator."""
    if n < 1:
        raise PreconditionError("graded pieces start at degree 1 here")
    return 2 * witt_dim(2, n + 1)


def outder_dim(n: int) -> int:
    """Dimension of degree-n derivations modulo inner ones, n >= 1.

    Inner derivations are injective in these degrees (ad(v) = 0 forces
    v = 0 in a free algebra of rank two), so the count is
    2 * witt(2, n+1) - witt(2, n)."""
    if n < 1:
        raise PreconditionError("outder_dim is defined for degree >= 1")
    return derivation_space_dim(n) - witt_dim(2, n)


def inner_matrix(n: int) -> list[list]:
    """Matrix of ad : degree-n elements -> degree-n derivations, columns
    indexed by the Lyndon basis of degree n, rows by derivation
    coordinates.  Exposed so callers can check injectivity/surjectivity
    degree by degree rather than trust the closed formula."""
    if n < 1:
        raise PreconditionError("inner_matrix is defined for degree >= 1")
    cols = []
    for w in lyndon_words(XY, n):
        cols.append(inner(LieElement.from_word(w)).coordinates())
    # transpose: rows = coordinates, columns = domain basis
    return [list(col) for col in zip(*cols)]


def derivation_from_coordinates(n: int, vector: Sequence) -> Derivation:
    """Inverse of :meth:`Derivation.coordinates` in degree n."""
    dim = witt_dim(2, n + 1)
    vector = list(vector)
    if len(vector) != 2 * dim:
        raise PreconditionError(
            f"expected {2 * dim} coordinates in degree {n}")
    return Derivation(from_coordinates(XY, n + 1, vector[:dim]),
                      from_coordinates(XY, n + 1, vector[dim:]),
                      degree=n)
