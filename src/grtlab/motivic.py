"""Dimension bookkeeping for graded Lie algebras attached to number
fields.

Everything in this module is generating-function arithmetic: the degree-n
multiplicity d_n of generators is a closed three-case formula in the
field's real/complex place counts and the number of finite places
inverted, and the graded dimensions that follow are those of the free
Lie algebra on that generator profile.  Degree n carries weight -2n
(see :func:`grtlab.words.tate_weight`); no Galois-theoretic object is
materialized beyond these integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .words import weighted_witt_dims


@dataclass(frozen=True)
class NumberFieldProfile:
    """Shape data of a number field with a finite set of places inverted.

    ``r1`` real places, ``r2`` complex places, ``s_size`` the number of
    finite places in the inverted set (assumed nonempty).
    """

    r1: int
    r2: int
    s_size: int

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0:
            raise PreconditionError("place counts must be nonnegative")
        if self.s_size < 1:
            raise PreconditionError("s_size must be a positive integer")
        if self.r1 + 2 * self.r2 < 1:
            raise PreconditionError("r1 + 2*r2 must be at least 1")


#: The rational field with one finite place inverted; the profile behind
#: every "one odd generator per degree" table in this package.
RATIONAL_PROFILE = NumberFieldProfile(1, 0, 1)


def dn(profile: NumberFieldProfile, n: int) -> int:
    """Multiplicity of degree-n generators for the given profile.

    Three cases: units contribute r1 + r2 + s_size - 1 in degree 1,
    odd degrees > 1 contribute r1 + r2, even degrees contribute r2.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if n == 1:
        return profile.r1 + profile.r2 + profile.s_size - 1
    if n % 2:
        return profile.r1 + profile.r2
    return profile.r2


def ext_dim(profile: NumberFieldProfile, i: int, n: int) -> int:
    """Extension-group dimension table.

    1 for (i, n) = (0, 0); d_n for i = 1 and n > 0; 0 in every other
    bidegree, including all i >= 2.
    """
    if i < 0:
        raise PreconditionError("i must be >= 0")
    if (i, n) == (0, 0):
        return 1
    if i == 1 and n > 0:
        return dn(profile, n)
    return 0


def k_graded_dims(profile: NumberFieldProfile,
                  max_degree: int) -> dict[int, int]:
    """Graded dimensions of the free Lie algebra with dn(profile, n)
    generators in each degree n <= max_degree."""
    if max_degree < 1:
        raise PreconditionError("max_degree must be >= 1")
    gens: list[int] = []
    for n in range(1, max_degree + 1):
        gens.extend([n] * dn(profile, n))
    if not gens:
        return {n: 0 for n in range(1, max_degree + 1)}
    dims = weighted_witt_dims(gens, max_degree)
    return {n: dims.get(n, 0) for n in range(1, max_degree + 1)}


def image_model_dims(max_degree: int) -> dict[int, int]:
    """Graded dimensions of the free Lie algebra on one generator in each
    odd degree 3, 5, 7, ...: the model for the image of the degree-1-free
    part inside the outer derivation algebra, and the comparison column
    of :func:`grtlab.ihara.freeness_table`."""
    if max_degree < 3:
        raise PreconditionError("max_degree must be >= 3")
    gens = list(range(3, max_degree + 1, 2))
    dims = weighted_witt_dims(gens, max_degree)
    return {n: dims.get(n, 0) for n in range(1, max_degree + 1)}
