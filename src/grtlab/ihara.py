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
(see ``_LETTER_IM``).  Every chord x_{ij} is an explicit element of this
model, so the 5-cycle sum is a finite exact computation.

D_n is decided without the 5-cycle where it can.  A lower bound on dim
D_n from the degrees below certifies any space that contains D_n and has
that dimension.  The first space tried is the 2-cycle kernel of the
specials cut by single-letter rows of the linearized stuffle relation,
which every element of D_n satisfies (Furusho; see :func:`_stuffle_cut`).
Where that cut misses the bound, the hex space (special, 2-cycle and
3-cycle) is cut by the 5-cycle, in a quotient of the model certified the
same way, and then over the full model (see :func:`five_cycle_route`);
above degree 15, where that would run for hours, a miss raises
:class:`~grtlab.errors.FallbackLimitError`.
:func:`special_dim_mod` runs the same stages over GF(p).

Each f in D_n determines the derivation D_f with D_f(x) = 0 and
D_f(y) = [y, f]; the space of all D_f closes under the bracket

    <f, g> = D_f(g) - D_g(f) + [f, g],

which is the bracket implemented by :func:`ihara_bracket`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from .derivations import X, XY, Y, Derivation
from .errors import (AlphabetMismatchError, DegenerateLeadingTermError,
                     FallbackLimitError, NotOneDimensionalError,
                     PreconditionError, SpecialConditionError)
from .lie import (LieElement, _bracket_into, _factor_ids, _id_images,
                  _ids_of, _intern, _merge_scaled, _word_of, _words_of,
                  bracket, from_coordinates, lie_to_string)
from .linalg import (_check_prime, _column_kernel, _echelon,
                     _extend_echelon, _kernel_of_echelon, _positive,
                     _reduce, _sparse)
from .motivic import image_model_dims
from .words import _lyndon_tuples

Z = LieElement(XY, {(0,): -1, (1,): -1})

#: Default cap on the degree of stable-space computations offered by the
#: command line.  On a 2-core VM (Python 3.11) a cold ``ihara freeness
#: --max-degree N``, timed as a child process, takes 0.10-0.14 s at a
#: peak RSS of 18 MiB for N = 10 and 0.18-0.22 s at 21 MiB for N = 12
#: (three runs each).  Each degree above costs several times the one
#: before (see HARD_MAX_DEGREE), so the command line builds those only
#: when asked.
DEFAULT_MAX_DEGREE = 12
#: Highest degree the command line accepts.  On the same VM N = 13 takes
#: 0.50-0.58 s at 29 MiB, N = 14 takes 1.3-1.5 s at 49 MiB and N = 15
#: takes 11-12 s at 146 MiB, as does ``ihara basis --degree 15`` (three
#: runs each, BENCH_int-stuffle-route.json); the stuffle cut decides every
#: degree.  The 5-cycle route took 117 s at 831 MiB through degree 15
#: (BENCH_stuffle-cut.json).  Where the stuffle cut misses above
#: _FIVE_CYCLE_MAX_DEGREE, FallbackLimitError is raised (exit code 3).
HARD_MAX_DEGREE = 15
#: Highest degree at which a miss of the stuffle cut falls back to the
#: 5-cycle route, the highest one that route has been run at.  Above it
#: the fallback would run for hours, so _stable_pairs raises
#: FallbackLimitError instead, over Q and over GF(p) alike.
_FIVE_CYCLE_MAX_DEGREE = 15


# ---------------------------------------------------------------------
# 5-cycle evaluation in the semidirect model of the sphere braid algebra.
#
# Elements of the model are pairs (fiber, base).  Words are held as the
# int ids of grtlab.lie, which hash at no cost.  The base is a raw
# coefficient dict {id: int} over x, y.  The fiber, over the letters a1,
# a2, a3 (indices 0, 1, 2), is kept split by grade, as {(i, j): {id: int}}
# with group (i, j) holding the words of a1-degree i and a2-degree j.  The
# bracket of two words lies in the sum of their grades, so a fiber bracket
# takes each pair of groups into a single group, and its operands need no
# splitting.  _pentagon_rows takes and returns dicts keyed by word, and
# re-keys them once.
#
# Every function here takes a fiber budget ``cap``: None keeps the whole
# fiber, and a grade pair (c1, c2) keeps the fiber words of a1-degree
# <= c1 and a2-degree <= c2 only (c2 None: no a2 cap), which is a Lie
# homomorphism of the model onto a quotient (see _budgets).  Base dicts
# are never pruned.  The action caches and the evaluations of words below
# the degree being cut are global, keyed by budget and word ids and shared
# across degrees; the 5-cycle sums of degree-n elements are built on
# demand and not kept.
# ---------------------------------------------------------------------

def _grade(i: int) -> tuple[int, int]:
    w = _word_of(i)
    return w.count(0), w.count(1)


def _fiber_bracket(acc: dict, g1: Mapping, g2: Mapping, cap) -> dict:
    """acc += [g1, g2] on grade-split fiber dicts; returns acc.  Each pair
    of groups is bracketed into the group of the summed grade, or skipped
    when that grade is over the budget."""
    c1, c2 = cap or (math.inf, math.inf)
    if c2 is None:
        c2 = math.inf
    for (i1, j1), s1 in g1.items():
        for (i2, j2), s2 in g2.items():
            i, j = i1 + i2, j1 + j2
            if i <= c1 and j <= c2:
                _bracket_into(acc.setdefault((i, j), {}), s1, s2)
    return acc


# The ids of the letters 0, 1, 2: x and y in the base, a1, a2 and a3 in
# the fiber.
_L0, _L1, _L2 = (_intern((i,)) for i in range(3))
_A1 = {(1, 0): {_L0: 1}}
_A2 = {(0, 1): {_L1: 1}}
_A3 = {(0, 0): {_L2: 1}}

# Images of the fiber letters under the action of the base letters: x
# moves the chord a1 a2 pair, y the a2 a3 pair, matching the relations
# among chords of five points on a sphere.  Their a1-degree and a2-degree
# are at most 1, so they lie inside every budget.
_LETTER_IM = {
    _L0: (_fiber_bracket({}, _A1, _A2, None),
          _fiber_bracket({}, _A2, _A1, None), {}),
    _L1: ({}, _fiber_bracket({}, _A2, _A3, None),
          _fiber_bracket({}, _A3, _A2, None)),
}

_ACT_IM: dict = {}
_ACT_ON_WORD: dict = {}


def _budgets(n: int) -> tuple:
    """The fiber budgets tried in degree n, in order, each only where the
    one before misses the lower bound (see :func:`_stable_pairs`): a1 <= 1
    with a2 <= min(max(2, n - 7), max(4, n - 9)), then a1 <= 1 alone,
    then the full fiber.

    Why a budget (c1, c2) is exact: the base action never lowers
    a1-degree or a2-degree, since x sends a1 to [a1, a2] and a2 to
    [a2, a1], and y sends a2 to [a2, a3] and a3 to [a3, a2].  So the
    Lyndon words of a1-degree > c1 span an ideal of F(a1, a2, a3) stable
    under the action, so do those of a2-degree > c2, and so does the sum
    of the two.  The chords have a1-degree and a2-degree <= 1, and so
    survive.  Dropping the words over the budget after every fiber bracket
    and every action step is then a Lie homomorphism of the model onto its
    quotient, and the kernel of the quotient 5-cycle sum contains D_n; a
    larger c2 gives a finer quotient, whose kernel lies inside.

    With a1 <= 1 alone the quotient keeps witt(2, n) + 2^(n-1) fiber words
    in degree n instead of witt(3, n); the cap k on a2 cuts the 2^(n-1)
    a1-linear ones to the sum over j <= k of C(n - 1, j).  The first cap
    of the schedule met the bound in every degree measured, 2 to 15.  The
    smallest caps that meet it, with the cut one cap lower (dim against
    the bound):

    ======  ==========  ==================================
    degree  least cap   one cap lower
    ======  ==========  ==================================
    2-9     2           2 against 1 in degree 7 (cap 1),
                        4 against 1 in degree 9
    10      3           2 against 1
    11      4           5 against 2
    12      3           7 against 2
    13      4           16 against 3
    14      5           12 against 3
    ======  ==========  ==================================

    In degrees 2-6 and 8 the hex space is D_n already, and any cap meets
    the bound.  The schedule takes the least cap in every degree but 12,
    where it keeps 4 so that degrees 11 to 13 share one set of caches."""
    return (1, min(max(2, n - 7), max(4, n - 9))), (1, None), None


def _act_im(w: int, cap):
    """Images of a1, a2, a3 under the action of the base word with id w."""
    factors = _factor_ids(w)
    if factors is None:
        return _LETTER_IM[w]
    key = (cap, w)
    im = _ACT_IM.get(key)
    if im is None:
        u, v = factors
        imv, imu = _act_im(v, cap), _act_im(u, cap)
        im = tuple(_act_into(_act_into({}, {u: 1}, imv[i], 1, cap),
                             {v: 1}, imu[i], -1, cap)
                   for i in range(3))
        _ACT_IM[key] = im
    return im


def _act_on_word(w: int, v: int, cap) -> dict:
    """Action of the base basis word w on the fiber basis word v, by id."""
    key = (cap, w, v)
    r = _ACT_ON_WORD.get(key)
    if r is None:
        factors = _factor_ids(v)
        if factors is None:
            r = _act_im(w, cap)[_word_of(v)[0]]
        else:
            u2, v2 = factors
            r = _fiber_bracket(
                _fiber_bracket({}, _act_on_word(w, u2, cap),
                               {_grade(v2): {v2: 1}}, cap),
                {_grade(u2): {u2: 1}}, _act_on_word(w, v2, cap), cap)
        _ACT_ON_WORD[key] = r
    return r


def _act_into(acc: dict, base: Mapping, fiber: Mapping, scale, cap) -> dict:
    """acc += scale * (action of base on fiber); returns acc."""
    for w, cw in base.items():
        for group in fiber.values():
            for v, cv in group.items():
                s = scale * cw * cv
                for g, terms in _act_on_word(w, v, cap).items():
                    out = acc.setdefault(g, {})
                    get = out.get
                    for key, c in terms.items():
                        new = get(key, 0) + s * c
                        if new:
                            out[key] = new
                        else:
                            del out[key]
    return acc


def _sd_fiber(e1, e2, cap) -> dict:
    """Fiber part of the bracket in the semidirect product, on (fiber,
    base) dict pairs."""
    (fa, pa), (fb, pb) = e1, e2
    acc = _act_into(_fiber_bracket({}, fa, fb, cap), pa, fb, 1, cap)
    return _act_into(acc, pb, fa, -1, cap)


# Consecutive chords x_{12}, x_{23}, x_{34}, x_{45}, x_{51} written in the
# semidirect model; the 5-cycle condition sums f over consecutive pairs.
_CHORDS = [
    ({}, {_L0: 1}),
    ({}, {_L1: 1}),
    ({(1, 0): {_L0: 1}, (0, 1): {_L1: 1}}, {_L0: 1}),
    ({(1, 0): {_L0: -1}, (0, 1): {_L1: -1}, (0, 0): {_L2: -1}}, {}),
    ({(1, 0): {_L0: 1}}, {}),
]
_PAIR_ARGS = [(_CHORDS[i], _CHORDS[(i + 1) % 5]) for i in range(5)]
_EVAL_CACHE: list[dict] = [{} for _ in range(5)]


def _eval_word(p: int, w: int, cap):
    """Standard bracketing of the word with id w evaluated at the p-th
    consecutive pair, as a (fiber, base) pair of id-keyed dicts."""
    cache = _EVAL_CACHE[p]
    key = (cap, w)
    r = cache.get(key)
    if r is None:
        factors = _factor_ids(w)
        if factors is None:
            r = _PAIR_ARGS[p][_word_of(w)[0]]
        else:
            eu, ev = (_eval_word(p, x, cap) for x in factors)
            r = _sd_fiber(eu, ev, cap), _bracket_into({}, eu[1], ev[1])
        cache[key] = r
    return r


def _pentagon_rows(n: int, elements: Sequence[Mapping], cap) -> list[dict]:
    """Fiber part of the 5-cycle sum of each element, a raw dict over
    degree-n Lyndon words (n >= 2) within the budget ``cap``.  The base
    part, f + f(y, x), is not built; pair 0, (x12, x23), lies in the base
    and is skipped.  Words are grouped by left standard factor u, and each
    group takes one bracket per element, [eval(u), sum_v c_v eval(v)], or
    one per word w = u v, whichever is fewer; degree-n evaluations are not
    cached.  The sums are made on word ids, and each is keyed by word once
    at the end."""
    groups: dict = {}
    for j, f in enumerate(elements):
        for w, c in _ids_of(f).items():
            u, v = _factor_ids(w)
            groups.setdefault(u, {}).setdefault(v, []).append((j, c))
    out = [{} for _ in elements]
    for p in range(1, 5):
        for u, by_v in groups.items():
            eu = _eval_word(p, u, cap)
            users = {j for terms in by_v.values() for j, _ in terms}
            if len(users) < len(by_v):
                right = {j: ({}, {}) for j in users}
                for v, terms in by_v.items():
                    fv, bv = _eval_word(p, v, cap)
                    for j, c in terms:
                        fiber, base = right[j]
                        for g, group in fv.items():
                            _merge_scaled(fiber.setdefault(g, {}), group, c)
                        _merge_scaled(base, bv, c)
                for j, r in right.items():
                    for group in _sd_fiber(eu, r, cap).values():
                        _merge_scaled(out[j], group, 1)
            else:
                for v, terms in by_v.items():
                    fib = _sd_fiber(eu, _eval_word(p, v, cap), cap)
                    for j, c in terms:
                        for group in fib.values():
                            _merge_scaled(out[j], group, c)
    return [_words_of(col) for col in out]


def _cut(n: int, hexes, cap, p=None) -> tuple:
    """The hex elements whose 5-cycle sums vanish within the budget
    ``cap``, as :func:`_canonical_cut` gives them."""
    combos = _column_kernel(
        _pentagon_rows(n, [f.terms for f in hexes], cap), p)
    return _canonical_cut(combos, [_indexed(f, n) for f in hexes], n, p)


def _canonical_cut(combos, elements, n: int, p=None) -> tuple:
    """The combinations of ``elements``, raw dicts over the indices of the
    degree-n words, given by the coefficient vectors ``combos``, as
    (basis, rows, pivots): the canonical basis of their span, the same
    elements as reduced echelon rows keyed by Lyndon word (primitive
    integral, leading entry positive; over GF(p), monic residues), and
    their pivot words.  The echelon form is taken on the indices, which
    order the words as the words themselves do, so the rows are those of
    the echelon form in Lyndon coordinates, keyed by word at the end, and
    the result depends on the span alone."""
    words = _lyndon_tuples((1, 1), n)
    red, pivots = _echelon([f for f in _combine(combos, elements, p) if f],
                           p, reduced=True)
    rows = tuple({words[i]: c for i, c in _positive(row).items()}
                 for row in red)
    return (tuple(LieElement(XY, row) for row in rows), rows,
            tuple(words[i] for i in pivots))


# ---------------------------------------------------------------------
# The linearized stuffle cut.
#
# Racinet's dmr_0 ("Doubles melanges des polylogarithmes multiples aux
# racines de l'unite", Publ. IHES 95, 2002) holds the Lie series f whose
# stuffle image f_* is primitive for the stuffle coproduct.  Furusho
# proved that it contains grt_1 ("Double shuffle relation for
# associators", Ann. of Math. 174, 2011), and grt_1 in degree n is D_n in
# the variables x = e0, y = -e1.  Read the word x^(n1-1) y ... x^(nk-1) y
# as the composition (n1, ..., nk) of depth k.  Each single letter y_a and
# composition v of n - a then give a linear condition on D_n, the
# coefficient of y_a * v in f_*, with * the stuffle product, in which y_a
# merged with y_b is y_(a+b).  The correction term of f_* touches only
# the composition 1^n, so the rows of depth < n read f alone: a row sums
# (-1)^(k+1) (f | w) over the insertions w of y_a into v, of depth
# k + 1 = len(v) + 1, and (-1)^k (f | w) over its merges, of depth k,
# where (f | w) is the coefficient of w in the tensor expansion of f.
# ---------------------------------------------------------------------

def _composition_code(parts) -> int:
    """The code of the word x^(n1-1) y ... x^(nk-1) y of the composition
    parts (see :func:`_word_code`)."""
    code = 1
    for m in parts:
        code = code << m | 1
    return code


def _compositions(total: int, parts: int):
    """The compositions of ``total`` into ``parts`` positive parts, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def _stuffle_keys(n: int):
    """The single-letter stuffle rows (a, v) of degree n, in the fixed
    order in which :func:`_stuffle_cut` tries them: depth len(v) + 1
    ascending from 2 to n - 1, then a, then v lexicographic.  The one row
    of depth n, (1, 1^(n-1)), would read the correction term; it is
    skipped."""
    for depth in range(2, n):
        for a in range(1, n - depth + 2):
            for v in _compositions(n - a, depth - 1):
                yield a, v


def _stuffle_row(a: int, v: tuple) -> dict:
    """The row of (y_a, v) as {word code: coefficient} (see the notes
    above and :func:`_word_code`)."""
    k = len(v)
    row: dict = {}
    for i in range(k + 1):
        w = _composition_code((*v[:i], a, *v[i:]))
        row[w] = row.get(w, 0) - (-1) ** k
    for i in range(k):
        w = _composition_code((*v[:i], a + v[i], *v[i + 1:]))
        row[w] = row.get(w, 0) + (-1) ** k
    return row


# The tensor coefficients that the rows read, on int-coded words.  An x,y
# word of length L is coded as a leading 1 bit followed by one bit per
# letter, y = 1: the int 2^L + sum of s_i 2^(L-1-i).  Its prefix of length
# i is then code >> (L - i), its suffix from i is the low L - i bits with
# the leading bit set again, and two codes of equal length compare as
# their words do.  _TENSOR_MEMO maps a code to its coefficients keyed by
# the id of the Lyndon word; it serves every degree, over Q and GF(p)
# alike, since the coefficients are integers that depend on the word
# alone.  An entry is stored only once it is complete, so threads that
# meet on a word at worst build it twice.

#: Word code -> {id of the Lyndon word l: (P_l | s)}, see
#: :func:`_coded_tensor_coefficients`.
_TENSOR_MEMO: dict[int, dict[int, int]] = {}


def _word_code(w) -> int:
    """The int code of the x,y word w (see the notes above)."""
    code = 1
    for c in w:
        code = code << 1 | c
    return code


@functools.lru_cache(maxsize=None)
def _content_words(length: int, ys: int) -> tuple:
    """(splits, words): the Lyndon x,y words of the given length with
    ``ys`` letters y, in lexicographic order, each as (code, id, |a|, id
    of a, |b|, id of b) with a b its standard factorization; and the
    lengths |a| and |b| that occur, the only places where
    :func:`_coded_tensor_coefficients` splits a word of that content."""
    words = []
    for w in _lyndon_tuples((1, 1), length):
        if sum(w) == ys:
            i = _intern(w)
            a, b = _factor_ids(i)
            k = len(_word_of(a))
            words.append((_word_code(w), i, k, a, length - k, b))
    splits = sorted({k for w in words for k in (w[2], w[4])})
    return tuple(splits), tuple(words)


def _coded_tensor_coefficients(s: int) -> dict:
    """{id of l: (P_l | s)} for the x,y word with code s, kept in
    _TENSOR_MEMO: the coefficients of the standard bracketings P_l =
    sigma(l) on the word s in the tensor algebra, a column of
    :func:`lie.expand_assoc` read off one word without expanding any l.

    Only l <= s with the letters of s take part, since sigma(l) is l plus
    larger words of its content (the candidates of
    :func:`_content_words`).  For l = a b, its standard factorization,
    (P_l | s) = (P_a | s') (P_b | s'') - (P_b | t') (P_a | t''), with
    s = s' s'' split at |a| and s = t' t'' at |b|, so the coefficients on
    s come from those on its prefixes and suffixes.  A word below every
    candidate has no coefficient and reads no substring.  The values are
    shared, not copied."""
    got = _TENSOR_MEMO.get(s)
    if got is None:
        length = s.bit_length() - 1
        if length == 1:
            got = {_L1 if s & 1 else _L0: 1}
        else:
            got = {}
            splits, words = _content_words(length, s.bit_count() - 1)
            if words and words[0][0] <= s:
                pre, suf = [None] * length, [None] * length
                for i in splits:
                    low = 1 << length - i
                    pre[i] = _coded_tensor_coefficients(s >> length - i)
                    suf[i] = _coded_tensor_coefficients(s & low - 1 | low)
                for code, w, i, a, j, b in words:
                    if code > s:
                        break
                    c = (pre[i].get(a, 0) * suf[i].get(b, 0)
                         - pre[j].get(b, 0) * suf[j].get(a, 0))
                    if c:
                        got[w] = c
        _TENSOR_MEMO[s] = got
    return got


def _stuffle_cut(n: int, bound: int, p: int | None = None):
    """D_n cut out of the 2-cycle kernel by stuffle rows alone, as
    :func:`_canonical_cut` gives it, over GF(p) when ``p`` is given; None
    when the rows miss ``bound``, the number from :func:`_lower_bound`.

    The rows are tried in the order of :func:`_stuffle_keys`; a row is
    kept only when its values on the 2-cycle kernel raise the rank, and
    the rows stop as soon as the kernel left has dimension ``bound``.
    Every element of D_n satisfies every row (see the notes above), so
    the cut holds D_n, and a cut of dimension ``bound`` is D_n (see
    :func:`_stable_pairs`).  The value of a row on the element f_j is
    the sum of s_w (f_j | w) over its words w; (f_j | w) is kept per word
    code, read off the tensor coefficients of the Lyndon words on w
    (:func:`_coded_tensor_coefficients`, from the memo that every degree
    shares) against the columns of the elements keyed by word id."""
    elements = _two_cycle_kernel(n, p)
    target = len(elements) - bound
    if target < 0:
        raise AssertionError(
            f"degree {n}: lower bound {bound} exceeds the dimension "
            f"{len(elements)} of the 2-cycle kernel")
    ids = [_intern(w) for w in _lyndon_tuples((1, 1), n)]
    columns: dict = {}
    for j, f in enumerate(elements):
        for i, c in f.items():
            columns.setdefault(ids[i], []).append((j, c))
    on_word: dict = {}
    ech: list = []
    pivots: list = []
    keys = _stuffle_keys(n)
    while len(ech) < target:
        key = next(keys, None)
        if key is None:
            return None
        value: dict = {}
        for w, s in _stuffle_row(*key).items():
            at_w = on_word.get(w)
            if at_w is None:
                at_w = on_word[w] = {}
                for word, c in _coded_tensor_coefficients(w).items():
                    for j, cj in columns.get(word, ()):
                        at_w[j] = at_w.get(j, 0) + c * cj
            _merge_scaled(value, at_w, s)
        _extend_echelon(ech, pivots, _sparse(value, p), p)
    combos = _kernel_of_echelon(*_echelon(ech, p, reduced=True),
                                len(elements))
    return _canonical_cut(combos, elements, n, p)


# ---------------------------------------------------------------------
# The stable space itself.
#
# Everything that depends on the degree n (and the prime) alone is cached
# once, so that queries reuse it: is_stable reduces against the echelon
# rows of D_n, and special_witness and the cheap is_stable read the
# special-pair kernel, as reduced echelon rows, and the tau and sigma
# images of each Lyndon word.  The stuffle cut reads the tau images alone;
# the sigma images are built on the first 3-cycle check of a degree.  The
# hex basis of the fallback route is cached too.  The stages in between
# key their rows by the index of a word in the degree-n basis, or by its
# id (see grtlab.lie); only D_n itself is keyed by word.  The tensor
# coefficients of the stuffle rows are kept across degrees and primes, in
# _TENSOR_MEMO, keyed by word code, with the candidate words of each
# length and number of letters y beside them (_content_words).  The
# operand check of the verified bracket first reads the rows of a
# rational D_n already built, from _STABLE_ROWS: a plain dict rather than
# the cache of _stable_pairs, whose name a caller may rebind to a wrapper
# without cache attributes.
# ---------------------------------------------------------------------

#: Degree -> (rows, pivots) of each rational D_n that _stable_pairs has
#: decided, as :func:`_canonical_cut` gives them; never a D_n mod p.
_STABLE_ROWS: dict = {}


def clear_caches() -> None:
    """Drop the stable-space caches: per-degree matrices, kernels, echelon
    rows and bases; the tensor coefficients of the stuffle rows and their
    candidate words; under every fiber budget, 5-cycle evaluations of
    words and the action of base words on fiber letters and words; and what
    :func:`ihara_bracket` keeps: the derivations and verdicts per operand,
    the brackets per pair of operands and the rows of each D_n built that
    its operand check reads.  Later calls rebuild them, with identical
    results."""
    for cached in (_special_pairs, _witness_rows, _tau_images,
                   _sigma_images, _hex_pairs, _stable_pairs, _content_words,
                   _operand_derivation, _operand_is_stable,
                   _primitive_bracket):
        cached.cache_clear()
    for cache in (*_EVAL_CACHE, _ACT_ON_WORD, _ACT_IM, _STABLE_ROWS,
                  _TENSOR_MEMO):
        cache.clear()


def _per_degree(stage):
    """lru_cache for a stage(n, p=None), keyed (n, p) however p is passed,
    so that stage(n) and stage(n, None) share one entry."""
    cached = functools.lru_cache(maxsize=None)(stage)
    keyed = functools.wraps(stage)(lambda n, p=None: cached(n, p))
    keyed.cache_info, keyed.cache_clear = cached.cache_info, cached.cache_clear
    return keyed


def _special_pair_matrix(n: int) -> list[dict]:
    """The sparse columns [y, w], raw dicts over the ids of degree-(n + 1)
    words, one per degree-n Lyndon word w: with z = -x - y, [y, f] =
    [z, u] is [y, g] = -[x, u] for g = f + u, and [x, w] is the basis word
    x w (see :func:`_special_pairs`, its one reader, which is cached)."""
    y = _ids_of(Y.terms)
    return [_bracket_into({}, y, {_intern(w): 1})
            for w in _lyndon_tuples((1, 1), n)]


@_per_degree
def _special_pairs(n: int, p: int | None = None) -> tuple:
    """A basis of the pairs (f, u) with [y, f] = [z, u] in degree n >= 2,
    over GF(p) when ``p`` is given: dense vectors, f then u over the
    degree-n Lyndon basis.  g = f + u is admissible exactly when [y, g]
    has no term off the words x w, so g runs over the kernel of the
    columns of :func:`_special_pair_matrix` restricted to those other
    words; then u_w = -[y, g]_{x w} and f = g - u.  g -> f is a bijection,
    because ad z is injective in degree >= 2.  Over GF(p) the terms off
    the words x w vanish mod p, and the pairs are residues."""
    xw = [_intern((0, *w)) for w in _lyndon_tuples((1, 1), n)]
    off = set(xw)
    cols = _special_pair_matrix(n)
    pairs = []
    for g in _column_kernel([{v: c for v, c in col.items() if v not in off}
                             for col in cols], p):
        yg: dict = {}
        for gj, col in zip(g, cols):
            if gj:
                _merge_scaled(yg, col, gj)
        u = [-yg.pop(i, 0) for i in xw]
        if any(c % p if p else c for c in yg.values()):
            raise AssertionError(f"degree {n}: [y, g] is off the words x w")
        pair = [a - b for a, b in zip(g, u)] + u
        pairs.append(pair if p is None else [a % p for a in pair])
    return tuple(pairs)


@functools.lru_cache(maxsize=None)
def _witness_rows(n: int) -> tuple:
    """The rational special-pair kernel in degree n as (rows, pivots): its
    reduced echelon rows, sparse over the columns 0..d-1 of f and d..2d-1
    of u, and their pivot columns.  ad(z) is injective in degree >= 2, so
    no kernel vector is zero on f and every pivot is an f column."""
    d = len(_lyndon_tuples((1, 1), n))
    rows, pivots = _echelon([_sparse(v) for v in _special_pairs(n)],
                            reduced=True)
    if any(c >= d for c in pivots):
        raise AssertionError(
            f"degree {n}: special-pair kernel vector with f = 0")
    return tuple(rows), tuple(pivots)


@functools.lru_cache(maxsize=None)
def _tau_images(n: int) -> tuple:
    """The index of each degree-n word in basis order, and per word w the
    image tau(w) = w(y, x) as a dict over word indices, which hash faster
    than words: tau swaps x and y.  The 2-cycle defect reads these alone;
    the 3-cycle reads them too (see :func:`_sigma_images`)."""
    words = _lyndon_tuples((1, 1), n)
    return ({w: i for i, w in enumerate(words)},
            _images_by_index(words, (Y, X)))


@functools.lru_cache(maxsize=None)
def _sigma_images(n: int) -> list:
    """Per degree-n word w, in basis order, the image sigma(w) = w(y, z)
    as a dict over word indices (see :func:`_tau_images`): sigma maps
    x -> y -> z -> x.  sigma^2 = tau sigma tau, so where tau f = -f the
    3-cycle defect f + sigma f + sigma^2 f is f + sigma f - tau(sigma f),
    and z -> x is never substituted (see :func:`_symmetry_rows`).  The
    images are dense, so only the 3-cycle builds them: in the hex build
    of the fallback route and in the cheap :func:`is_stable`."""
    return _images_by_index(_lyndon_tuples((1, 1), n), (Y, Z))


def _images_by_index(words, imgs) -> list:
    """Per word w of ``words``, the image of w under letter i -> imgs[i],
    as a dict over the indices of ``words``, which it must span."""
    ids = [_intern(w) for w in words]
    at = {i: j for j, i in enumerate(ids)}
    on_id = _id_images(imgs)
    return [{at[v]: c for v, c in on_id(i).items()} for i in ids]


def _indexed(f: LieElement, n: int) -> dict:
    """The terms of f, homogeneous of degree n, keyed by the index of
    each word in the degree-n basis."""
    at = _tau_images(n)[0]
    return {at[w]: c for w, c in f.terms.items()}


def _symmetry_rows(own: Mapping, n: int, part: int) -> dict:
    """The 2-cycle defect f + tau f (part 0) or the 3-cycle defect
    f + sigma f - tau(sigma f) (part 1) of f, homogeneous of degree n, as
    a raw dict over word indices; f is given as ``own``, keyed the same
    way (see :func:`_indexed`).  Part 1 is f + f(y, z) + f(z, x) where
    part 0 vanishes (:func:`_sigma_images`), and means nothing else."""
    tau = _tau_images(n)[1]
    images = _sigma_images(n) if part else tau
    row: dict = {}
    for i, c in own.items():
        _merge_scaled(row, images[i], c)
    if part:
        for i, c in list(row.items()):
            _merge_scaled(row, tau[i], -c)
    _merge_scaled(row, own, 1)
    return row


def _symmetry_cut(elements, n: int, part: int, p=None) -> list:
    """A basis of the combinations of ``elements`` whose 2-cycle (part 0)
    or 3-cycle (part 1) defect vanishes (see :func:`_symmetry_rows`), as
    :func:`_combine` gives them; the elements and the result are raw
    dicts over word indices."""
    cols = [_symmetry_rows(f, n, part) for f in elements]
    return _combine(_column_kernel(cols, p), elements, p)


def _two_cycle_kernel(n: int, p: int | None = None) -> list:
    """The f halves of :func:`_special_pairs` cut by the 2-cycle, over
    GF(p) when ``p`` is given: the space that both routes of
    :func:`_stable_pairs` cut further, as raw dicts over the indices of
    the degree-n words, primitive integral or residues mod p.  The dense
    f halves are read straight into such dicts, and no word is met.  It is
    not cached; the fallback route rebuilds it."""
    d = len(_lyndon_tuples((1, 1), n))
    specials = [{i: c for i, c in enumerate(v[:d]) if c}
                for v in _special_pairs(n, p)]
    return _symmetry_cut(specials, n, 0, p)


@_per_degree
def _hex_pairs(n: int, p: int | None = None) -> tuple:
    """Basis of the hex space, over GF(p) when ``p`` is given: the f
    satisfying special, 2-cycle and 3-cycle, before the 5-cycle cut.  The
    name is kept, though entries are no longer (f, u) pairs, because the
    benchmark hooks it (``perfbench/spans.py``).  The 2-cycle kernel
    (:func:`_two_cycle_kernel`) is cut by the 3-cycle; there tau f = -f,
    so the 3-cycle defect is f + sigma f - tau(sigma f) (see
    :func:`_sigma_images`), one dense substitution per word."""
    words = _lyndon_tuples((1, 1), n)
    return tuple(LieElement._of(XY, {words[i]: c for i, c in f.items()})
                 for f in _symmetry_cut(_two_cycle_kernel(n, p), n, 1, p))


def _combine(combos, elements, p=None) -> list[dict]:
    """The elements sum_j t_j elements[j] of raw dicts, one per
    coefficient vector t, made primitive, or reduced mod p when ``p`` is
    given."""
    out = []
    for t in combos:
        f: dict = {}
        for tj, fj in zip(t, elements):
            if tj:
                _merge_scaled(f, fj, tj)
        out.append(_sparse(f, p))
    return out


@_per_degree
def _stable_pairs(n: int, p: int | None = None) -> tuple:
    """D_n as (basis, rows, pivots, route): its canonical basis, the same
    basis as reduced echelon rows keyed by Lyndon word with their pivot
    words (see :func:`_canonical_cut`), and what decided the cut: "stuffle"
    or a fiber budget of the 5-cycle (see :func:`five_cycle_budget`).
    With a prime ``p`` every stage runs over GF(p) instead (see
    :func:`special_dim_mod`).  The name is kept, though no witnesses are
    carried, because the benchmark hooks it (``perfbench/spans.py``).

    Two theorems bound dim D_n from below, in terms of lower degrees only:

    * D is closed under the Ihara bracket (Ihara), so the span B_n of the
      brackets <f, g> of basis elements of degrees adding up to n lies in
      D_n;
    * in odd degree n >= 3, D_n holds a Soule element with a nonzero
      x^(n-1) y coefficient (Soule; Ihara; Drinfeld for grt_1), and no
      bracket has that depth-1 term.

    The bound, dim B_n + [n odd, n >= 3] from :func:`_lower_bound`, reads
    D_m for m < n only, and those are decided first: the argument is an
    induction on the degree.  Any space K that contains D_n and has the
    dimension of the bound is D_n.  The first such K tried is the
    stuffle cut of the 2-cycle kernel (:func:`_stuffle_cut`), which
    contains D_n by Furusho's theorem.  Where it misses, the hex space is
    cut by the 5-cycle, first in a quotient of the fiber, the words of
    a1-degree <= 1 and a2-degree <= k (see the notes above the 5-cycle
    code and :func:`_budgets`).  The quotient map sends the full 5-cycle
    sum to the quotient one, so its kernel K_q contains D_n, and where dim
    K_q meets the bound that budget decides.  Otherwise the next budget
    cuts: the a1-degree <= 1 quotient alone, whose kernel lies inside the
    first one, and then the full fiber, which needs no bound.  Above
    degree _FIVE_CYCLE_MAX_DEGREE a miss raises
    :class:`~grtlab.errors.FallbackLimitError` instead.  Every bracket of
    B_n must lie in the cut that decides (see :func:`_check_brackets`).
    """
    if n < 2:
        return (), (), (), None
    bound, brackets = _lower_bound(n)
    cut = _stuffle_cut(n, bound, p)
    if cut is not None:
        _check_brackets(n, brackets, cut, "stuffle", p)
        return _decided(n, cut, "stuffle", p)
    if n > _FIVE_CYCLE_MAX_DEGREE:
        raise FallbackLimitError(n, bound, _FIVE_CYCLE_MAX_DEGREE)
    hexes = _hex_pairs(n, p)
    # The evaluator skips the base part, f + f(y, x); it must vanish here.
    # Only the 2-cycle defect is built: the 3-cycle images are dense.
    if any(_sparse(_symmetry_rows(_indexed(f, n), n, 0), p) for f in hexes):
        raise AssertionError(
            "5-cycle base component failed to cancel on a 2-cycle "
            "symmetric element")
    for budget in _budgets(n):
        cut = _cut(n, hexes, budget, p)
        _check_brackets(n, brackets, cut, "5-cycle", p)
        if budget is None:
            break
        dim_q = len(cut[0])
        if bound > dim_q:
            raise AssertionError(
                f"degree {n}: lower bound {bound} exceeds the dimension "
                f"{dim_q} of the quotient cut under budget {budget}")
        if bound == dim_q:
            break
    return _decided(n, cut, budget, p)


def _decided(n: int, cut, route, p=None) -> tuple:
    """The result of :func:`_stable_pairs` for the cut that decided D_n
    and its route; a rational cut's rows and pivots are also kept in
    ``_STABLE_ROWS`` for :func:`_operand_is_stable`."""
    if p is None:
        _STABLE_ROWS[n] = cut[1:]
    return (*cut, route)


def _lower_bound(n: int) -> tuple[int, list]:
    """(bound, brackets): dim B_n, plus 1 in odd degree n >= 3, a lower
    bound on dim D_n (see :func:`_stable_pairs`), a rank over the
    rationals that reads the lower degrees alone; and the nonzero
    brackets that span B_n, as (a, row) with a the degree of the left
    operand and row the bracket as a primitive word-keyed row, for
    :func:`_check_brackets`.  A bracket with an x^(n-1) y term is a bug,
    and raises AssertionError."""
    depth1 = (0,) * (n - 1) + (1,)
    brackets = []
    for a in range(1, n // 2 + 1):
        right = _stable_pairs(n - a)[0]
        for i, f in enumerate(_stable_pairs(a)[0]):
            for g in right[i + 1:] if 2 * a == n else right:
                b = ihara_bracket(f, g, verify=False)
                if b.terms.get(depth1):
                    raise AssertionError(
                        f"bracket of degrees {a} and {n - a} has an "
                        f"x^{n - 1} y term")
                if b:
                    brackets.append((a, _sparse(b.terms)))
    rank = len(_echelon([dict(row) for _, row in brackets])[1])
    return rank + (1 if n % 2 and n >= 3 else 0), brackets


def _check_brackets(n: int, brackets, cut, route: str, p=None) -> None:
    """Raise AssertionError, naming the ``route``, unless each bracket
    from :func:`_lower_bound` lies in the cut, given as
    :func:`_canonical_cut` returns it (over GF(p) for a prime ``p``): the
    cut holds D_n, so a bracket outside it is a bug."""
    _, rows, pivots = cut
    for a, row in brackets:
        if _reduce(_sparse(row, p), rows, pivots, p):
            raise AssertionError(
                f"bracket of degrees {a} and {n - a} lies outside the "
                f"{route} cut")


def five_cycle_route(n: int) -> str:
    """Which route decided D_n in degree n >= 2.

    "stuffle": the linearized stuffle cut of the 2-cycle kernel met the
    lower bound from two theorems, closure of D under the Ihara bracket
    and a Soule element in each odd degree n >= 3, applied to the lower
    degrees, which are decided first (induction on n); no 5-cycle was
    evaluated.  "bounds": the stuffle cut missed, and the 5-cycle cut in a
    quotient of the fiber met the bound; so the quotient cut is D_n
    itself.  "full": the bound fell short in every quotient too, and the
    hex space was cut over the full fiber.  :func:`five_cycle_budget`
    says which quotient; see :func:`_stable_pairs`.
    """
    budget = five_cycle_budget(n)
    if budget == "stuffle":
        return "stuffle"
    return "full" if budget is None else "bounds"


def five_cycle_budget(n: int) -> tuple | str | None:
    """What decided D_n in degree n >= 2: the string "stuffle" when the
    stuffle cut did and no 5-cycle budget applies; otherwise the fiber
    budget that decided the 5-cycle cut: (1, k) for the quotient by the
    fiber words of a1-degree > 1 or a2-degree > k, (1, None) for the
    a1-degree quotient alone, None for the full fiber.  The stuffle cut
    decides every degree from 2 to 15.  Where it misses, the schedule
    tries (1, k) first, with k from :func:`_budgets`, which decided every
    degree measured, 2 to 15."""
    if n < 2:
        raise PreconditionError("degree must be >= 2")
    return _stable_pairs(n)[3]


def special_basis(n: int) -> list[LieElement]:
    """Canonical basis of the stable space D_n (reduced echelon form,
    primitive integer coordinate vectors)."""
    if n < 1:
        raise PreconditionError("degree must be >= 1")
    return [LieElement._of(XY, dict(f.terms)) for f in _stable_pairs(n)[0]]


def special_dim(n: int) -> int:
    """dim D_n."""
    if n < 1:
        raise PreconditionError("degree must be >= 1")
    return len(_stable_pairs(n)[0])


def special_witness(f: LieElement) -> LieElement:
    """The unique u with [y, f] = [z, u], given f special of degree >= 2.

    Read off the reduced echelon rows (f_j, u_j) of the special-pair
    kernel of degree n, cached per degree (see :func:`_witness_rows`): f
    is special exactly when f = sum c_j f_j, with c_j the coefficient of
    f at the pivot of row j over that of f_j, and then u = sum c_j u_j.
    The sums are taken in integers, scaled by the lcm of the pivot
    entries and of the denominators of f.  Raises
    :class:`SpecialConditionError` when f is not special or not
    homogeneous of degree >= 2.
    """
    n = f.homogeneous_degree()
    if n is None or n < 2:
        raise SpecialConditionError("witness is defined in degree >= 2")
    coords = [Fraction(x) for x in f.coordinates(n)]
    d = len(coords)
    q = math.lcm(*(x.denominator for x in coords))
    target = [int(x * q) for x in coords]
    used = [(row, c) for row, c in zip(*_witness_rows(n)) if target[c]]
    den = math.lcm(*(row[c] for row, c in used))
    acc: dict = {}
    for row, c in used:
        _merge_scaled(acc, row, target[c] * (den // row[c]))
    if any(acc.get(j, 0) != t * den for j, t in enumerate(target)):
        raise SpecialConditionError("[y, f] is not of the form [z, u]")
    return from_coordinates(
        XY, n, [Fraction(acc.get(d + j, 0), den * q) for j in range(d)])


def is_stable(f: LieElement, check_five_cycle: bool = True) -> bool:
    """Whether f satisfies the defining conditions of the stable space.

    D_n is exactly the solution space of the four conditions, so the full
    check is a membership test: the terms of f are reduced against the
    cached word-keyed echelon rows of the canonical basis of D_n, and f
    lies in D_n exactly when nothing is left.  The first check in a
    degree builds that basis, whatever f is.  Pass
    ``check_five_cycle=False`` for the cheap necessary conditions only:
    the special condition, read off the cached echelon rows of the
    degree-n special-pair kernel by :func:`special_witness`, the 2-cycle,
    and, where it holds, the 3-cycle as f + sigma f - tau(sigma f) (see
    :func:`_sigma_images`), each merging cached per-word images.
    """
    if f.alphabet != XY:
        raise AlphabetMismatchError("the stable space lies in the x,y algebra")
    n = f.homogeneous_degree()
    if n is None:
        return True
    if n < 2:
        return False
    if check_five_cycle:
        _, rows, pivots, _ = _stable_pairs(n)
        return not _reduce(_sparse(f.terms), rows, pivots)
    try:
        special_witness(f)
    except SpecialConditionError:
        return False
    own = _indexed(f, n)
    return not any(_symmetry_rows(own, n, part) for part in (0, 1))


def special_dim_mod(n: int, p: int) -> int:
    """dim D_n by the stages of :func:`special_dim`, each over GF(p), for
    a prime p below 2^64.  The quotient cut mod p is certified by the
    number from :func:`_lower_bound`, a rank over the rationals from the
    lower degrees, never by dim D_n itself: the integer kernel of the full
    conditions is a saturated lattice, so dim K_q mod p >= dim K_full mod
    p >= dim D_n >= the bound, and equality with the bound makes them all
    equal.  Otherwise the full fiber cuts, which gives dim D_n except at
    the finitely many primes where the conditions lose rank mod p."""
    if n < 2:
        raise PreconditionError("modular route is defined for degree >= 2")
    _check_prime(p)
    return len(_stable_pairs(n, p)[0])


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


# The keys are callers' elements, not degrees or words, so the number of
# distinct keys is unbounded and each size is a fixed constant: 64 holds
# the 16 canonical basis elements through degree 14, and the brackets of
# every pair of them that the lower bounds take, with room to spare.  A
# derivation's size is its word images, which grow with every new right-
# hand side.  A kept bracket is one element of its degree: 64 dense
# degree-14 brackets (about 1,146 of 1,161 words each) hold 4.5 MiB, 72 KiB
# each, by tracemalloc on Python 3.11.  Like the other module caches these
# serve one process; two threads sharing an entry can only build the same
# word image or bracket twice.
@functools.lru_cache(maxsize=64)
def _operand_derivation(p: LieElement) -> Derivation:
    """D_p, kept with its images of Lyndon words for later brackets with
    the operand p or any rescaling of it (see :func:`_split_operand`)."""
    return stable_derivation(p)


@functools.lru_cache(maxsize=64)
def _operand_is_stable(p: LieElement) -> bool:
    """The cheap stable-space conditions on the operand p, kept per
    primitive operand like :func:`_operand_derivation`.  When a rational
    D_n of the degree of p is already built (``_STABLE_ROWS``; none is
    built here), p reduced to zero against its echelon rows passes: D_n
    satisfies the special, 2-cycle and 3-cycle conditions.  Otherwise the
    cheap :func:`is_stable` decides, and raises as it does."""
    if p.alphabet == XY:
        built = _STABLE_ROWS.get(p.homogeneous_degree())
        if built is not None and not _reduce(_sparse(p.terms), *built):
            return True
    return is_stable(p, check_five_cycle=False)


@functools.lru_cache(maxsize=64)
def _primitive_bracket(p: LieElement, q: LieElement) -> LieElement:
    """<p, q> for primitive operands p, q (see :func:`_split_operand`),
    kept for later brackets of any multiples of them; callers hand out
    scaled copies only.  p and q are re-keyed by word id once, and
    D_p(q) - D_q(p) + [p, q] is summed on ids, in the dict of D_p(q),
    which no one else holds, then keyed by word once.  The derivations
    are applied to the id-keyed operands directly, so the bracket does
    not pass through :meth:`Derivation.apply`."""
    tp, tq = _ids_of(p.terms), _ids_of(q.terms)
    acc = _operand_derivation(p)._apply_ids(tq)
    _merge_scaled(acc, _operand_derivation(q)._apply_ids(tp), -1)
    return LieElement._of(XY, _words_of(_bracket_into(acc, tp, tq)))


def _split_operand(f: LieElement) -> tuple:
    """(c, p) with f = c p exactly.  For nonzero f with int and Fraction
    coefficients, c = +-gcd(numerators) / lcm(denominators), signed so
    that the coefficient of p on its least word is positive, and p has
    coprime integer coefficients.  Otherwise c = 1 and p is a copy of f."""
    coeffs = f.terms.values()
    if not coeffs or not all(isinstance(c, (int, Fraction)) for c in coeffs):
        return 1, LieElement(f.alphabet, f.terms)
    g = math.gcd(*(c.numerator for c in coeffs))
    den = math.lcm(*(c.denominator for c in coeffs))
    if f.terms[min(f.terms)] < 0:
        g = -g
    c = g if den == 1 else Fraction(g, den)
    return c, LieElement._of(f.alphabet, {
        w: a.numerator // g * (den // a.denominator)
        for w, a in f.terms.items()})


def _bracket_order(p: LieElement) -> list:
    """The key that orders the operands of a kept bracket: terms sorted by
    word length, then word, then coefficient."""
    return sorted((len(w), w, c) for w, c in p.terms.items())


def ihara_bracket(f: LieElement, g: LieElement,
                  verify: bool = True) -> LieElement:
    """<f, g> = D_f(g) - D_g(f) + [f, g].

    With ``verify`` set, both arguments are checked against the cheap
    necessary conditions (special with witness, 2-cycle, 3-cycle); the
    5-cycle condition is not re-derived here because the stable space is
    closed under this bracket.  An operand that lies in a rational D_n
    already built passes by reduction against its echelon rows, with no
    witness and no sigma images; no D_n is built for the check, and any
    other operand takes the cheap check (see :func:`_operand_is_stable`).

    Each operand is split as c p with p primitive integral (see
    :func:`_split_operand`), and <f, g> is c_f c_g <p_f, p_g>.  The
    bracket <p_f, p_g> is computed once and kept in a cache of at most 64
    brackets, with the operands in a fixed order: the swapped pair is
    served by antisymmetry, and <p, p> = 0 is never computed.  Each call
    returns a new element.  The bracket itself takes D_p from a cache of
    at most 64 derivations that keep their word images, so brackets of p
    with new operands reuse them; it is summed on the int ids of interned
    words (see :mod:`grtlab.lie`) and keyed by word once.  The verdict of the check is kept beside
    D_p, since rescaling does not change it.  :func:`clear_caches` drops
    all three caches.
    """
    (cf, pf), (cg, pg) = _split_operand(f), _split_operand(g)
    if verify:
        for name, p in (("left", pf), ("right", pg)):
            if not _operand_is_stable(p):
                raise SpecialConditionError(
                    f"{name} operand fails the stable-space conditions")
    if not pf or not pg or pf == pg:
        return LieElement.zero(f.alphabet)
    if _bracket_order(pf) <= _bracket_order(pg):
        return _primitive_bracket(pf, pg).scale(cf * cg)
    return _primitive_bracket(pg, pf).scale(-cf * cg)


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
    g, divisible = _coordinate_gcd(element, modulus)
    report = {
        "element": lie_to_string(element),
        "degree": element.homogeneous_degree(),
        "modulus": modulus,
        "coordinate_gcd": g,
        "divisible": divisible,
    }
    if not divisible:
        report["discrepancy"] = _sign_discrepancy_report(
            gens, combination, modulus)
    return report


def _coordinate_gcd(element: LieElement, modulus: int) -> tuple[int, bool]:
    """The gcd of the coordinates of a homogeneous element (0 for zero),
    and whether ``modulus`` divides it; zero counts as not divisible."""
    coeffs = [int(c) for c in element.terms.values()]
    g = math.gcd(*coeffs)
    return g, bool(coeffs) and g % modulus == 0


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
        g, divisible = _coordinate_gcd(element, modulus)
        results.append({"signs": signs, "coordinate_gcd": g,
                        "divisible": divisible})
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
    they agree.  For the cost of each degree, see DEFAULT_MAX_DEGREE.
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
