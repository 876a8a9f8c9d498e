"""Stable derivation algebra of the free Lie algebra on x, y.

A homogeneous Lie polynomial f(x, y) of degree n >= 2 belongs to the
stable subspace D_n when it satisfies four exact linear conditions, with
z := -x - y throughout:

* special: [y, f] = [z, u] for some u (the witness u is unique in
  degree >= 2 because ad z is injective there);
* 2-cycle: f(x, y) + f(y, x) = 0;
* 3-cycle: f(x, y) + f(y, z) + f(z, x) = 0;
* 5-cycle: the five-term cyclic sum of f evaluated at consecutive chord
  generators of the five-strand sphere braid Lie algebra vanishes.

The sphere braid algebra in question is modelled concretely as a
semidirect product F(a1, a2, a3) x| F(x, y): the fiber letters are the
chords meeting the fifth strand, and x, y act by the chord relations
(see ``_ACT_IM``).  Every chord x_{ij} is an explicit element of this
model, so the 5-cycle sum is a finite exact computation.

Each f in D_n determines the derivation D_f with D_f(x) = 0 and
D_f(y) = [y, f]; the space of all D_f closes under the bracket

    <f, g> = D_f(g) - D_g(f) + [f, g],

which is the bracket implemented by :func:`ihara_bracket`.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping, Sequence

from .derivations import X, XY, Y, Derivation
from .errors import (DegenerateLeadingTermError, NotOneDimensionalError,
                     PreconditionError, SpecialConditionError)
from .lie import (LieElement, _bracket_into, _merge_scaled, _word_images,
                  bracket, from_coordinates, lie_to_string)
from .linalg import (FullRankSolver, _echelon_int, _kernel_of_echelon,
                     kernel_basis, kernel_dim_mod, reduced_echelon)
from .motivic import image_model_dims
from .words import _lyndon_tuples, _std_factorization

Z = LieElement(XY, {(0,): -1, (1,): -1})

#: Default cap on the degree of stable-space computations offered by the
#: command line.  On a 2-core VM (Python 3.11) a build from cold caches
#: takes about 2.5 s through degree 10, about 20 s more for degree 11 and
#: about 110 s more for degree 12, at a peak RSS near 1.1 GB; the cost of
#: the 5-cycle evaluation grows with the fiber dimension past it.
DEFAULT_MAX_DEGREE = 12
HARD_MAX_DEGREE = 16


# ---------------------------------------------------------------------
# 5-cycle evaluation in the semidirect model of the sphere braid algebra.
#
# Elements of the model are pairs (fiber, base) of raw coefficient dicts
# {word tuple: int}, fiber over the letters a1, a2, a3 (indices 0, 1, 2)
# and base over x, y.  The action caches and the evaluations of words
# below the degree being cut are global and shared across degrees; the
# 5-cycle sums of degree-n elements are built on demand and not kept.
# ---------------------------------------------------------------------

_A1 = {(0,): 1}
_A2 = {(1,): 1}
_A3 = {(2,): 1}

# Images of the fiber letters under the action of the base letters: x
# moves the chord a1 a2 pair, y the a2 a3 pair, matching the relations
# among chords of five points on a sphere.
_ACT_IM = {
    (0,): (_bracket_into({}, _A1, _A2), _bracket_into({}, _A2, _A1), {}),
    (1,): ({}, _bracket_into({}, _A2, _A3), _bracket_into({}, _A3, _A2)),
}

_ACT_ON_WORD: dict = {}


def _act_im(w):
    """Images of a1, a2, a3 under the action of the base word w."""
    im = _ACT_IM.get(w)
    if im is None:
        u, v = _std_factorization(w)
        imv, imu = _act_im(v), _act_im(u)
        im = tuple(_act_into(_act_into({}, {u: 1}, imv[i], 1),
                             {v: 1}, imu[i], -1)
                   for i in range(3))
        _ACT_IM[w] = im
    return im


def _act_on_word(w, v) -> dict:
    """Action of the base basis word w on the fiber basis word v."""
    key = (w, v)
    r = _ACT_ON_WORD.get(key)
    if r is None:
        if len(v) == 1:
            r = _act_im(w)[v[0]]
        else:
            u2, v2 = _std_factorization(v)
            r = _bracket_into(_bracket_into({}, _act_on_word(w, u2), {v2: 1}),
                              {u2: 1}, _act_on_word(w, v2))
        _ACT_ON_WORD[key] = r
    return r


def _act_into(acc: dict, base: Mapping, fiber: Mapping, scale) -> dict:
    """acc += scale * (action of base on fiber); returns acc."""
    for w, cw in base.items():
        for v, cv in fiber.items():
            _merge_scaled(acc, _act_on_word(w, v), scale * cw * cv)
    return acc


def _sd_fiber(e1, e2) -> dict:
    """Fiber part of the bracket in the semidirect product, on (fiber,
    base) dict pairs."""
    (fa, pa), (fb, pb) = e1, e2
    acc = _act_into(_bracket_into({}, fa, fb), pa, fb, 1)
    return _act_into(acc, pb, fa, -1)


# Consecutive chords x_{12}, x_{23}, x_{34}, x_{45}, x_{51} written in the
# semidirect model; the 5-cycle condition sums f over consecutive pairs.
_CHORDS = [
    ({}, {(0,): 1}),
    ({}, {(1,): 1}),
    ({(0,): 1, (1,): 1}, {(0,): 1}),
    ({(0,): -1, (1,): -1, (2,): -1}, {}),
    ({(0,): 1}, {}),
]
_PAIR_ARGS = [(_CHORDS[i], _CHORDS[(i + 1) % 5]) for i in range(5)]
_EVAL_CACHE: list[dict] = [{} for _ in range(5)]


def _eval_word(p: int, w):
    """Standard bracketing of w evaluated at the p-th consecutive pair."""
    cache = _EVAL_CACHE[p]
    r = cache.get(w)
    if r is None:
        if len(w) == 1:
            r = _PAIR_ARGS[p][w[0]]
        else:
            u, v = _std_factorization(w)
            eu, ev = _eval_word(p, u), _eval_word(p, v)
            r = _sd_fiber(eu, ev), _bracket_into({}, eu[1], ev[1])
        cache[w] = r
    return r


def _pentagon_rows(n: int, elements: Sequence[Mapping]) -> list[dict]:
    """Fiber part of the 5-cycle sum of each element, a raw dict over
    degree-n Lyndon words (n >= 2).  The base part, f + f(y, x), is not
    built; pair 0, (x12, x23), lies in the base and is skipped.  Words are
    grouped by left standard factor u, and each group takes one bracket
    per element, [eval(u), sum_v c_v eval(v)], or one per word w = u v,
    whichever is fewer; degree-n evaluations are not cached."""
    groups: dict = {}
    for j, f in enumerate(elements):
        for w, c in f.items():
            u, v = _std_factorization(w)
            groups.setdefault(u, {}).setdefault(v, []).append((j, c))
    out = [{} for _ in elements]
    for p in range(1, 5):
        for u, by_v in groups.items():
            eu = _eval_word(p, u)
            users = {j for terms in by_v.values() for j, _ in terms}
            if len(users) < len(by_v):
                right = {j: ({}, {}) for j in users}
                for v, terms in by_v.items():
                    fv, bv = _eval_word(p, v)
                    for j, c in terms:
                        _merge_scaled(right[j][0], fv, c)
                        _merge_scaled(right[j][1], bv, c)
                for j, r in right.items():
                    _merge_scaled(out[j], _sd_fiber(eu, r), 1)
            else:
                for v, terms in by_v.items():
                    fib = _sd_fiber(eu, _eval_word(p, v))
                    for j, c in terms:
                        _merge_scaled(out[j], fib, c)
    return out


# ---------------------------------------------------------------------
# The stable space itself.
#
# Everything that depends on the degree n alone is cached per degree, so
# that queries (is_stable, special_witness, the verified bracket) reuse
# it: the factored ad(z) matrix, the 2-cycle and 3-cycle images of each
# Lyndon word, the hex basis and the 5-cycle cut in hex coordinates.
# ---------------------------------------------------------------------

def clear_caches() -> None:
    """Drop the stable-space caches: per-degree matrices, solvers and
    bases, 5-cycle evaluations of words and the action of base words on
    fiber words.  Later calls rebuild them, with identical results."""
    for cached in (_special_pair_matrix, _ad_z, _symmetry_images,
                   _hex_pairs, _hex_cut, _stable_pairs):
        cached.cache_clear()
    for cache in _EVAL_CACHE:
        cache.clear()
    _ACT_ON_WORD.clear()
    for w in [w for w in _ACT_IM if len(w) > 1]:
        del _ACT_IM[w]


def _ad_columns(a: LieElement, n: int) -> list[list]:
    """Coordinates of [a, w] in degree n + 1, one column per degree-n
    Lyndon word w, for a of degree 1."""
    return [bracket(a, LieElement(XY, {w: 1})).coordinates(n + 1)
            for w in _lyndon_tuples((1, 1), n)]


@functools.lru_cache(maxsize=None)
def _special_pair_matrix(n: int):
    """Integer matrix whose kernel is {(f, u) : [y, f] = [z, u]} in the
    coordinates (f over the degree-n Lyndon basis, then u likewise)."""
    cols = _ad_columns(Y, n) + [[-c for c in col]
                                for col in _ad_columns(Z, n)]
    return [list(row) for row in zip(*cols)]


@functools.lru_cache(maxsize=None)
def _ad_z(n: int) -> FullRankSolver:
    """ad(z) from degree n to degree n + 1, factored for solving; it is
    injective for n >= 2."""
    return FullRankSolver([list(row) for row in zip(*_ad_columns(Z, n))])


@functools.lru_cache(maxsize=None)
def _symmetry_images(n: int) -> dict:
    """For each degree-n Lyndon word w, its 2-cycle defect w + w(y, x)
    and its 3-cycle defect w + w(y, z) + w(z, x), as raw dicts."""
    yx, yz, zx = (_word_images(imgs) for imgs in ((Y, X), (Y, Z), (Z, X)))
    out = {}
    for w in _lyndon_tuples((1, 1), n):
        tau = {w: 1}
        _merge_scaled(tau, yx(w).terms, 1)
        cyc = {w: 1}
        _merge_scaled(cyc, yz(w).terms, 1)
        _merge_scaled(cyc, zx(w).terms, 1)
        out[w] = (tau, cyc)
    return out


def _symmetry_rows(f: LieElement, n: int) -> list:
    """Coordinates of the 2-cycle and 3-cycle defects of f, which is
    homogeneous of degree n."""
    images = _symmetry_images(n)
    tau: dict = {}
    cyc: dict = {}
    for w, c in f.terms.items():
        tw, cw = images[w]
        _merge_scaled(tau, tw, c)
        _merge_scaled(cyc, cw, c)
    basis = _lyndon_tuples((1, 1), n)
    return [tau.get(w, 0) for w in basis] + [cyc.get(w, 0) for w in basis]


@functools.lru_cache(maxsize=None)
def _hex_pairs(n: int) -> tuple:
    """Basis of {(f, u)} satisfying special, 2-cycle and 3-cycle, before
    the 5-cycle cut.  Entries are (f, u) LieElement pairs."""
    d = len(_lyndon_tuples((1, 1), n))
    pairs = [(from_coordinates(XY, n, v[:d]), from_coordinates(XY, n, v[d:]))
             for v in kernel_basis(_special_pair_matrix(n))]
    if not pairs:
        return ()
    cond = [_symmetry_rows(f, n) for f, _ in pairs]
    return tuple(_combine(kernel_basis([list(col) for col in zip(*cond)]),
                          pairs))


def _combine(combos, pairs) -> list:
    """The (f, u) pairs sum_j t_j pairs[j], one per coefficient vector t."""
    out = []
    for t in combos:
        f, u = {}, {}
        for tj, (fj, uj) in zip(t, pairs):
            _merge_scaled(f, fj.terms, tj)
            _merge_scaled(u, uj.terms, tj)
        out.append((LieElement(XY, f), LieElement(XY, u)))
    return out


@functools.lru_cache(maxsize=None)
def _hex_cut(n: int) -> tuple:
    """The 5-cycle condition on the hex space, in hex coordinates.

    Returns (solver, ech, pivots).  ``solver`` finds the coordinates t of
    an f-part in the hex basis, f = sum t_j h_j with h_j the f-parts of
    :func:`_hex_pairs`.  ``ech`` and ``pivots`` are the echelon form of
    the matrix whose columns C_j are the 5-cycle sums of the h_j over the
    fiber basis, so sum t_j C_j = 0 exactly when ech t = 0.
    """
    hexes = _hex_pairs(n)
    solver = FullRankSolver([[f.terms.get(w, 0) for f, _ in hexes]
                             for w in _lyndon_tuples((1, 1), n)])
    if not hexes:
        return solver, [], []
    # The evaluator skips the base part, f + f(y, x); it must vanish here.
    d = len(_lyndon_tuples((1, 1), n))
    if any(any(_symmetry_rows(f, n)[:d]) for f, _ in hexes):
        raise AssertionError(
            "5-cycle base component failed to cancel on a 2-cycle "
            "symmetric element")
    fiber_basis = _lyndon_tuples((1, 1, 1), n)
    cols = [[fib.get(v, 0) for v in fiber_basis]
            for fib in _pentagon_rows(n, [f.terms for f, _ in hexes])]
    return (solver, *_echelon_int([list(row) for row in zip(*cols)]))


@functools.lru_cache(maxsize=None)
def _stable_pairs(n: int) -> tuple:
    """Canonical basis of {(f, u) : f in D_n}, cut out of the hex space
    by the 5-cycle rows and put in reduced echelon form over the
    f-coordinates."""
    if n < 2:
        return ()
    hexes = _hex_pairs(n)
    _, ech, pivots = _hex_cut(n)
    combos = _kernel_of_echelon(ech, pivots, len(hexes))
    if not combos:
        return ()
    d = len(_lyndon_tuples((1, 1), n))
    # Canonical form: reduced echelon over the f-coordinates, with the u
    # witnesses transformed alongside.
    fm = [f.coordinates(n) + u.coordinates(n)
          for f, u in _combine(combos, hexes)]
    ech = reduced_echelon(fm)
    return tuple(
        (from_coordinates(XY, n, row[:d]), from_coordinates(XY, n, row[d:]))
        for row in ech)


def special_basis(n: int) -> list[LieElement]:
    """Canonical basis of the stable space D_n (reduced echelon form,
    primitive integer coordinate vectors)."""
    if n < 1:
        raise PreconditionError("degree must be >= 1")
    return [LieElement(XY, dict(f.terms)) for f, _ in _stable_pairs(n)]


def special_dim(n: int) -> int:
    """dim D_n."""
    if n < 1:
        raise PreconditionError("degree must be >= 1")
    return len(_stable_pairs(n))


def special_witness(f: LieElement) -> LieElement:
    """The unique u with [y, f] = [z, u], given f special of degree >= 2.

    One solve against the factored ad(z) matrix of degree n, cached per
    degree; the solve checks [z, u] = [y, f] exactly in every coordinate
    of degree n + 1.  Raises :class:`SpecialConditionError` when f is not
    special or not homogeneous of degree >= 2.
    """
    n = f.homogeneous_degree()
    if n is None or n < 2:
        raise SpecialConditionError("witness is defined in degree >= 2")
    u = _ad_z(n).solve(bracket(Y, f).coordinates(n + 1))
    if u is None:
        raise SpecialConditionError("[y, f] is not of the form [z, u]")
    return from_coordinates(XY, n, u)


def is_stable(f: LieElement, check_five_cycle: bool = True) -> bool:
    """Whether f satisfies the defining conditions of the stable space.

    The special condition is one solve against the factored degree-n
    ad(z) matrix, and the 2- and 3-cycle conditions merge cached per-word
    images.  The 5-cycle check then writes f in the hex basis (special,
    2-cycle and 3-cycle together) and tests those coordinates against the
    5-cycle cut; the first check in a degree builds the hex basis and the
    cut, everything after reuses them.  Pass
    ``check_five_cycle=False`` for the cheap necessary conditions only.
    """
    n = f.homogeneous_degree()
    if n is None:
        return not f.terms
    if n < 2:
        return False
    try:
        special_witness(f)
    except SpecialConditionError:
        return False
    if any(_symmetry_rows(f, n)):
        return False
    if check_five_cycle:
        solver, ech, _ = _hex_cut(n)
        t = solver.solve(f.coordinates(n))
        if t is None:
            raise AssertionError(
                "element satisfying the special, 2-cycle and 3-cycle "
                "conditions lies outside the hex span")
        return not any(sum(e * tj for e, tj in zip(row, t)) for row in ech)
    return True


def _stacked_condition_matrix(n: int):
    """All four condition blocks as one integer matrix over (f, u)
    coordinates.  Its kernel is {(f, u) : f in D_n}; intended for
    modest degrees, where it feeds the modular cross-check."""
    basis = _lyndon_tuples((1, 1), n)
    d = len(basis)
    fiber_basis = _lyndon_tuples((1, 1, 1), n)
    cols = [_symmetry_rows(LieElement(XY, {w: 1}), n)
            + [fib.get(v, 0) for v in fiber_basis]
            for w, fib in zip(basis,
                              _pentagon_rows(n, [{w: 1} for w in basis]))]
    return ([list(r) for r in _special_pair_matrix(n)]
            + [list(row) + [0] * d for row in zip(*cols)])


def special_dim_mod(n: int, p: int) -> int:
    """dim of the stable pair space computed entirely mod p.

    Over the rationals this equals :func:`special_dim` for n >= 2; a
    random prime giving a different answer would flag an integrality
    defect in the condition matrix.
    """
    if n < 2:
        raise PreconditionError("modular route is defined for degree >= 2")
    if p < 2:
        raise PreconditionError("p must be a prime >= 2")
    return kernel_dim_mod(_stacked_condition_matrix(n), p)


# ---------------------------------------------------------------------
# Distinguished generators and the bracket.
# ---------------------------------------------------------------------

def soule_generator(m: int) -> LieElement:
    """The canonical generator of D_m when that space is a line.

    Normalisation: primitive integer coordinates with the coefficient of
    the word x^(m-1) y positive.  Raises
    :class:`~grtlab.errors.NotOneDimensionalError` when dim D_m != 1 and
    :class:`~grtlab.errors.DegenerateLeadingTermError` when the
    x^(m-1) y coefficient vanishes.
    """
    basis = special_basis(m)
    if len(basis) != 1:
        raise NotOneDimensionalError(
            f"stable space in degree {m} has dimension {len(basis)}, "
            "so there is no canonical generator")
    f = basis[0]
    lead = f.terms.get((0,) * (m - 1) + (1,), 0)
    if not lead:
        raise DegenerateLeadingTermError(
            f"degree-{m} generator has zero coefficient on x^{m - 1} y")
    if lead < 0:
        f = f.scale(-1)
    return f


def stable_derivation(f: LieElement) -> Derivation:
    """The derivation D_f with D_f(x) = 0 and D_f(y) = [y, f]."""
    return Derivation(LieElement.zero(XY), bracket(Y, f))


def ihara_bracket(f: LieElement, g: LieElement,
                  verify: bool = True) -> LieElement:
    """<f, g> = D_f(g) - D_g(f) + [f, g].

    With ``verify`` set, both arguments are checked against the cheap
    necessary conditions (special with witness, 2-cycle, 3-cycle); the
    5-cycle condition is not re-derived here because the stable space is
    closed under this bracket.
    """
    if verify:
        for name, e in (("left", f), ("right", g)):
            if not is_stable(e, check_five_cycle=False):
                raise SpecialConditionError(
                    f"{name} operand fails the stable-space conditions")
    return stable_derivation(f)(g) - stable_derivation(g)(f) + bracket(f, g)


# ---------------------------------------------------------------------
# The cusp-form congruence and the freeness table.
# ---------------------------------------------------------------------

def check_congruence(modulus: int = 691,
                     combination: Sequence[tuple[int, int, int]] = (
                         (2, 3, 9), (-27, 5, 7))) -> dict:
    """Divisibility report for an integer combination of brackets.

    ``combination`` lists (coefficient, m1, m2) triples; the element
    tested is sum of coefficient * <sigma_m1, sigma_m2> over the triples,
    with sigma_m the normalised generator from :func:`soule_generator`.
    The default is the degree-12 combination whose coefficients are all
    divisible by 691.

    Returns a dict with the element, the gcd of its coordinates, the
    verdict, and, when the verdict is negative, a report of how close
    other sign choices for the generators come.
    """
    if modulus < 2:
        raise PreconditionError("modulus must be >= 2")
    gens: dict[int, LieElement] = {}
    for _, m1, m2 in combination:
        for m in (m1, m2):
            if m not in gens:
                gens[m] = soule_generator(m)
    element = LieElement.zero(XY)
    for c, m1, m2 in combination:
        element = element + ihara_bracket(gens[m1], gens[m2]).scale(c)
    degree = element.homogeneous_degree()
    coords = [int(c) for c in element.coordinates(degree)] if degree else []
    g = 0
    for c in coords:
        g = math.gcd(g, c)
    divisible = bool(coords) and g % modulus == 0
    report = {
        "element": lie_to_string(element),
        "degree": degree,
        "modulus": modulus,
        "coordinate_gcd": g,
        "divisible": divisible,
    }
    if not divisible:
        report["discrepancy"] = _sign_discrepancy_report(
            gens, combination, modulus)
    return report


def _sign_discrepancy_report(gens: dict[int, LieElement],
                             combination, modulus: int) -> dict:
    """When the headline divisibility fails, search the 2^k sign choices
    on the generators for one that restores it, and record the residue
    profile of each choice.  A mismatch here means the generator
    normalisation disagrees with the lattice the congruence was stated
    in, and the sign table localises the disagreement."""
    ms = sorted(gens)
    results = []
    for mask in range(1 << len(ms)):
        signs = {m: (-1 if mask >> i & 1 else 1) for i, m in enumerate(ms)}
        element = LieElement.zero(XY)
        for c, m1, m2 in combination:
            term = ihara_bracket(gens[m1].scale(signs[m1]),
                                 gens[m2].scale(signs[m2]), verify=False)
            element = element + term.scale(c)
        degree = element.homogeneous_degree()
        coords = [int(c) for c in element.coordinates(degree)] if degree else []
        g = 0
        for c in coords:
            g = math.gcd(g, c)
        results.append({"signs": signs, "coordinate_gcd": g,
                        "divisible": bool(coords) and g % modulus == 0})
    return {
        "generator_degrees": ms,
        "sign_table": results,
        "some_sign_choice_works": any(r["divisible"] for r in results),
    }


def freeness_table(max_degree: int = DEFAULT_MAX_DEGREE) -> list[dict]:
    """Per-degree comparison of dim D_n with the free Lie algebra on
    generators in odd degrees 3, 5, 7, ...

    Each row reports the computed stable dimension, the free-algebra
    prediction (:func:`grtlab.motivic.image_model_dims`), and whether
    they agree.  Degree 11 adds about 20 s and degree 12 about 110 s; see
    DEFAULT_MAX_DEGREE.
    """
    if max_degree < 3:
        raise PreconditionError("max_degree must be >= 3")
    expected = image_model_dims(max_degree)
    out = []
    for n in range(2, max_degree + 1):
        got = special_dim(n)
        out.append({"degree": n, "computed": got,
                    "expected": expected[n], "match": got == expected[n]})
    return out
