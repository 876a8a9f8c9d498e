"""Truncated unipotent groups in logarithm coordinates.

A class-c nilpotent group element is stored as its logarithm, a Lie
element with no component above degree c; the group law is the
Baker-Campbell-Hausdorff series truncated at c.  The universal series is
produced by Dynkin's explicit formula: expand log(exp u * exp v) in the
tensor algebra and send each word to its left-normed bracketing divided
by its length.  An independent route (triangular projection onto the
Lyndon basis) double-checks it in the tests.

The filtration half of the module turns a generating set into graded
integer lattices, one per degree, and reads the torsion of their
saturations off the Smith normal form: that torsion is exactly the gap
between the lower central series and its torsion-isolated refinement.
Since log(a b a^-1 b^-1) is [log a, log b] plus terms of higher degree,
the degree-m lattice is spanned by m-fold brackets of the generators'
degree-1 parts, provided those parts are linearly independent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (ClassMismatchError, LieSyntaxError, PreconditionError,
                     UnknownGeneratorError, UnsupportedFamilyError)
from .lie import (AssocPoly, LieElement, bracket, lie_to_string,
                  project_lyndon, substitute)
from .linalg import quotient_invariants
from .words import GradedAlphabet, _lyndon_tuples

_UV = GradedAlphabet("u v")


class NilpotentElement:
    """Group element of a class-``cls`` unipotent group, stored as its
    logarithm.  ``value`` must have no component above degree ``cls``."""

    __slots__ = ("value", "cls")

    def __init__(self, value: LieElement, cls: int):
        if cls < 1:
            raise PreconditionError("class must be a positive integer")
        if any(value.alphabet.word_degree(w) > cls for w in value.terms):
            raise PreconditionError(
                "element has a component above the class bound")
        self.value = value
        self.cls = cls

    def __eq__(self, other) -> bool:
        return (isinstance(other, NilpotentElement)
                and self.cls == other.cls and self.value == other.value)

    def __hash__(self):
        return hash((self.cls, self.value))

    def __repr__(self) -> str:
        return f"NilpotentElement({lie_to_string(self.value)}, class={self.cls})"


def _check_compatible(a: NilpotentElement, b: NilpotentElement) -> None:
    if a.cls != b.cls:
        raise ClassMismatchError(
            f"class {a.cls} element combined with class {b.cls} element")
    if a.value.alphabet != b.value.alphabet:
        raise ClassMismatchError(
            "elements live over different alphabets")


def _exp_tensor(p: AssocPoly, max_degree: int) -> AssocPoly:
    """exp of a tensor element with zero constant term, truncated."""
    unit = AssocPoly(p.alphabet, {(): 1})
    out = unit
    power = unit
    fact = 1
    for k in range(1, max_degree + 1):
        power = power.times(p, max_degree)
        fact *= k
        out = out + power.scale(Fraction(1, fact))
    return out


def _log_tensor(q: AssocPoly, max_degree: int) -> AssocPoly:
    """log of a tensor element with constant term 1, truncated."""
    r = q - AssocPoly(q.alphabet, {(): 1})
    out = AssocPoly.zero(q.alphabet)
    power = AssocPoly(q.alphabet, {(): 1})
    for k in range(1, max_degree + 1):
        power = power.times(r, max_degree)
        out = out + power.scale(Fraction((-1) ** (k - 1), k))
    return out


def _bch_tensor(cls: int) -> AssocPoly:
    """log(exp u * exp v) in the tensor algebra, truncated at ``cls``."""
    u = AssocPoly(_UV, {(0,): 1})
    v = AssocPoly(_UV, {(1,): 1})
    return _log_tensor(_exp_tensor(u, cls).times(_exp_tensor(v, cls), cls),
                       cls)


def _left_normed(word: tuple[int, ...]) -> LieElement:
    """[[..[w0, w1], w2], ..] as a Lie element over the series alphabet."""
    out = LieElement(_UV, {(word[0],): 1})
    for letter in word[1:]:
        out = bracket(out, LieElement(_UV, {(letter,): 1}))
    return out


@functools.lru_cache(maxsize=None)
def universal_bch(cls: int) -> LieElement:
    """The BCH series bch(u, v) truncated at degree ``cls``, by Dynkin's
    formula: each word of log(exp u * exp v) maps to its left-normed
    bracketing divided by its length."""
    if cls < 1:
        raise PreconditionError("class must be a positive integer")
    out = LieElement.zero(_UV)
    for w, c in _bch_tensor(cls).terms.items():
        out = out + _left_normed(w).scale(Fraction(c, len(w)))
    return out


def tensor_bch(cls: int) -> LieElement:
    """Same series as :func:`universal_bch` but projected onto the Lyndon
    basis by triangular elimination, which also certifies that the
    truncated series is a Lie element.  Kept as the independent route."""
    return project_lyndon(_bch_tensor(cls))


def bch(a: NilpotentElement, b: NilpotentElement) -> NilpotentElement:
    """Group product in logarithm coordinates."""
    _check_compatible(a, b)
    val = substitute(universal_bch(a.cls), (a.value, b.value), a.cls)
    return NilpotentElement(val, a.cls)


def inverse(a: NilpotentElement) -> NilpotentElement:
    return NilpotentElement(a.value.scale(-1), a.cls)


def group_commutator(a: NilpotentElement,
                     b: NilpotentElement) -> NilpotentElement:
    """a b a^-1 b^-1; its lowest component is the bracket of the lowest
    components of a and b.  :func:`filtration_report` does not call it:
    the lattices need only that lowest component.  It is kept as the
    group-law reference for :func:`word_to_group` and the filtration
    levels."""
    _check_compatible(a, b)
    return bch(bch(bch(a, b), inverse(a)), inverse(b))


def word_to_group(word: str, alphabet: GradedAlphabet,
                  cls: int) -> NilpotentElement:
    """Image of a free-group word under truncation at class ``cls``.

    Tokens are whitespace-separated ``g``, ``g^-1`` or ``g^k``; the empty
    word is the identity.
    """
    out = NilpotentElement(LieElement.zero(alphabet), cls)
    pos = 0
    for token in word.split():
        pos = word.index(token, pos)
        name, power = token, 1
        if "^" in token:
            name, _, exp = token.partition("^")
            try:
                power = int(exp)
            except ValueError:
                raise LieSyntaxError(
                    f"bad exponent {exp!r} in group word", pos)
        if not name:
            raise LieSyntaxError("empty generator name in group word", pos)
        try:
            idx = alphabet.index(name)
        except (KeyError, ValueError):
            raise UnknownGeneratorError(name, pos)
        gen = LieElement(alphabet, {(idx,): power})
        out = bch(out, NilpotentElement(gen, cls))
        pos += len(token)
    return out


# ---------------------------------------------------------------------
# Lower central series lattices and torsion.
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class FreeGroup:
    """Free group on ``num_generators`` letters, truncated at ``cls``."""
    num_generators: int
    cls: int

    def __post_init__(self):
        if self.num_generators < 1 or self.cls < 1:
            raise UnsupportedFamilyError(
                "free group parameters must be positive")


@dataclass(frozen=True)
class LatticeTimesCyclic:
    """Direct product of a rank-``rank`` lattice and a cyclic group of
    order ``torsion_order``."""
    rank: int
    torsion_order: int

    def __post_init__(self):
        if self.rank < 1 or self.torsion_order < 1:
            raise UnsupportedFamilyError(
                "lattice-times-cyclic parameters must be positive")


class SubgroupOfNilpotent:
    """Subgroup of a truncated free nilpotent group, given by the
    logarithms of its generators (all over one alphabet and class).

    :func:`filtration_report` needs integer degree-1 coordinates, so the
    graded spans are lattices, and linearly independent degree-1 parts.
    The second condition is conservative: it also refuses a repeated
    generator, which leaves the subgroup unchanged."""

    def __init__(self, generators):
        gens = tuple(generators)
        if not gens:
            raise UnsupportedFamilyError("need at least one generator")
        cls = gens[0].cls
        alph = gens[0].value.alphabet
        for g in gens:
            if g.cls != cls or g.value.alphabet != alph:
                raise UnsupportedFamilyError(
                    "generators must share one ambient algebra and class")
        self.generators = gens
        self.cls = cls
        self.alphabet = alph


def _free_alphabet(k: int) -> GradedAlphabet:
    if k == 2:
        return GradedAlphabet("x y")
    return GradedAlphabet(" ".join(f"x{i}" for i in range(1, k + 1)))


def _commutator_levels(gens, top: int) -> list[list[LieElement]]:
    """The left-normed m-fold brackets of the generators' degree-1 parts
    for m = 1..top, level m at index m - 1, one per generator index tuple
    (i1, .., im) with i1 < i2.  Level 2 is [g_i, g_j] for i < j; level
    m >= 3 is [c, g] for c in level m - 1 and g in level 1, so each
    bracket is formed once and every level comes in the lexicographic
    order of its index tuples.  The tuples left out span nothing new, by
    antisymmetry: i1 = i2 gives zero and i1 > i2 the negative of the
    bracket with i1 and i2 swapped."""
    first = [g.value.component(1) for g in gens]
    levels = [first]
    if top >= 2:
        levels.append([bracket(a, b) for i, a in enumerate(first)
                       for b in first[i + 1:]])
    for _ in range(2, top):
        levels.append([bracket(c, g) for c in levels[-1] for g in first])
    return levels


def _graded_rows(elements, m: int) -> list[list[int]]:
    """Integer degree-m coordinate rows of homogeneous Lie elements."""
    rows = [e.coordinates(m) for e in elements]
    if any(type(c) is not int and Fraction(c).denominator != 1
           for row in rows for c in row):
        raise UnsupportedFamilyError(
            "graded span is not an integer lattice; the report "
            "is defined for integral generator logarithms")
    return [[int(c) for c in row] for row in rows]


def _lattice_row(m: int, rows: list[list[int]], ambient: int) -> dict:
    free_of_quotient, torsion = quotient_invariants(rows, ambient)
    return {"m": m, "rank": ambient - free_of_quotient,
            "torsion": [], "d_mod_l": torsion}


def filtration_report(family, max_m: int) -> list[dict]:
    """Graded lower-central-series data of the group described by
    ``family``, one row per level m = 1..max_m.

    Row fields: ``rank`` is the rank of the degree-m lattice spanned by
    m-fold commutators of the generators; ``d_mod_l`` lists the torsion
    invariants of its saturation modulo the lattice (the gap between the
    torsion-isolated series and the lower central series at that level);
    ``torsion`` is the torsion of the saturated graded piece, empty by
    construction.

    The lattices come from Lie brackets, not from the group law: the
    logarithm of a b a^-1 b^-1 is [log a, log b] plus terms of degree at
    least deg a + deg b + 1, so the degree-m part of a left-normed m-fold
    group commutator is the left-normed bracket of the generators'
    degree-1 parts, and their higher terms never reach a lattice.  Each
    bracket extends one from level m - 1, and only index tuples with
    i1 < i2 are bracketed, since the others give zero or a negative (31
    brackets for two generators at class 6, not 124); the zero rows and
    rows repeated up to sign that remain are dropped before the Smith
    form.  Level m is read in degree m, which misses any element whose
    logarithm starts above degree 1, so generators whose degree-1 parts
    are linearly dependent raise :class:`UnsupportedFamilyError`.
    """
    if max_m < 1:
        raise PreconditionError("max_m must be >= 1")
    if isinstance(family, FreeGroup):
        family = SubgroupOfNilpotent(
            NilpotentElement(LieElement(_free_alphabet(family.num_generators),
                                        {(i,): 1}), family.cls)
            for i in range(family.num_generators))
    if isinstance(family, SubgroupOfNilpotent):
        if max_m > family.cls + 1:
            raise UnsupportedFamilyError(
                f"levels above class + 1 = {family.cls + 1} are not visible "
                "in a class-" + str(family.cls) + " truncation")
        letter_degrees = family.alphabet.degrees
        levels = _commutator_levels(family.generators,
                                    min(max_m, family.cls))
        out = []
        for m in range(1, max_m + 1):
            ambient = len(_lyndon_tuples(letter_degrees, m))
            if ambient == 0 or m > family.cls:
                out.append({"m": m, "rank": 0, "torsion": [], "d_mod_l": []})
                continue
            rows = _graded_rows(levels[m - 1], m)
            out.append(_lattice_row(m, rows, ambient))
        if out[0]["rank"] < len(family.generators):
            raise UnsupportedFamilyError(
                "the report needs generators whose degree-1 parts are "
                "linearly independent; level m is read in degree m and "
                "misses elements whose logarithm starts above degree 1")
        return out
    if isinstance(family, LatticeTimesCyclic):
        # Abelian: L^2 is trivial, and the level-2 gap is exactly the
        # torsion subgroup, read off the presentation by Smith reduction.
        ambient = family.rank + 1
        relation = [[0] * family.rank + [family.torsion_order]]
        _, torsion = quotient_invariants(relation, ambient)
        out = []
        for m in range(1, max_m + 1):
            if m == 1:
                out.append({"m": 1, "rank": family.rank, "torsion": [],
                            "d_mod_l": []})
            elif m == 2:
                out.append({"m": 2, "rank": 0, "torsion": [],
                            "d_mod_l": torsion})
            else:
                out.append({"m": m, "rank": 0, "torsion": [], "d_mod_l": []})
        return out
    raise UnsupportedFamilyError(
        f"unknown group family {type(family).__name__}")
