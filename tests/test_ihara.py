"""The stable derivation space: dimensions, generators, bracket, congruence."""

import functools
import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from grtlab import (
    AlphabetMismatchError,
    FallbackLimitError,
    GradedAlphabet,
    LieElement,
    NotOneDimensionalError,
    PreconditionError,
    SpecialConditionError,
    bracket,
    check_congruence,
    der_bracket,
    expand_assoc,
    freeness_table,
    ihara_bracket,
    image_model_dims,
    in_row_space,
    inner_matrix,
    is_stable,
    kernel_basis,
    parse_lie,
    soule_generator,
    special_basis,
    special_dim,
    special_dim_mod,
    special_witness,
    stable_derivation,
    substitute,
)
from grtlab import ihara
from grtlab.cli import run
from grtlab.derivations import X, XY, Y
from grtlab.ihara import (_eval_word, _hex_pairs, _pentagon_rows,
                          _stuffle_cut, five_cycle_budget, five_cycle_route)
from grtlab.lie import (_intern, _merge_scaled, _word_of, _words_of,
                        from_coordinates)
from grtlab.linalg import _echelon, _positive, _sparse
from grtlab.words import _lyndon_tuples

from conftest import (random_homogeneous, stacked_hex_space,
                      stacked_specials, symmetry_defects)

# checked against the modular route below and the free model in
# test_freeness_table; degrees 11 and 12 live in the slow tests
STABLE_DIMS = {2: 0, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1, 8: 1, 9: 1, 10: 1}
PRIMES = [23, 101, 997]
# the fiber budget of the a1-degree <= 1 quotient alone; the first budget
# the schedule tries in degree n is ihara._budgets(n)[0]
A1_ONLY = (1, None)


@pytest.fixture
def force_five_cycle(monkeypatch):
    """force(degrees=None) makes the stuffle cut miss in ``degrees``, or
    in every degree, so that the 5-cycle route decides there.  The caches
    are cleared then and after the test, so that no other test sees the
    bases and routes built under the miss."""
    stuffle = ihara._stuffle_cut

    def force(degrees=None):
        monkeypatch.setattr(ihara, "_stuffle_cut", lambda n, *args: (
            None if degrees is None or n in degrees else stuffle(n, *args)))
        ihara.clear_caches()

    yield force
    ihara.clear_caches()


def test_stable_dims_through_10():
    for n, d in STABLE_DIMS.items():
        assert special_dim(n) == d
        assert len(special_basis(n)) == d
        # canonical: the coefficient on the least word (the pivot) is
        # positive; the raw echelon rows of degrees 7 and 9 lead negative
        assert all(f.terms[min(f.terms)] > 0 for f in special_basis(n))


@pytest.mark.slow
def test_stable_dims_11_12():
    assert special_dim(11) == 2
    assert special_dim(12) == 2


@pytest.mark.slow
def test_stable_dim_13(force_five_cycle):
    assert special_dim(13) == 3
    assert five_cycle_route(13) == five_cycle_budget(13) == "stuffle"
    want = special_basis(13)
    force_five_cycle({13})
    assert special_basis(13) == want
    assert five_cycle_route(13) == "bounds"
    assert five_cycle_budget(13) == ihara._budgets(13)[0]


def _cold_bases(degrees):
    """Canonical bases and the route that decided each degree, built from
    cold caches."""
    ihara.clear_caches()
    return {n: (special_basis(n), five_cycle_route(n)) for n in degrees}


def _check_quotient_route_against_full(monkeypatch, force_five_cycle,
                                       degrees):
    try:
        force_five_cycle()
        quotient = _cold_bases(degrees)
        # A bound of -1 is never met, so every degree is cut over the
        # full fiber, without the brackets of the lower degrees.
        monkeypatch.setattr(ihara, "_lower_bound", lambda n: (-1, []))
        full = _cold_bases(degrees)
        assert None in {cap for c in ihara._EVAL_CACHE for cap, _ in c}
    finally:
        ihara.clear_caches()
    assert {r for _, r in quotient.values()} == {"bounds"}
    assert {r for _, r in full.values()} == {"full"}
    assert ({n: b for n, (b, _) in quotient.items()}
            == {n: b for n, (b, _) in full.items()})


def test_quotient_route_matches_full_route(monkeypatch, force_five_cycle):
    _check_quotient_route_against_full(monkeypatch, force_five_cycle,
                                       range(2, 11))


@pytest.mark.slow
def test_quotient_route_matches_full_route_11_12(monkeypatch,
                                                 force_five_cycle):
    _check_quotient_route_against_full(monkeypatch, force_five_cycle,
                                       (11, 12))


def test_short_bound_falls_back_to_full_route(monkeypatch):
    # A bound one short in degree 9 is met by no cut that holds D_9: the
    # stuffle cut and both quotients miss, and the full fiber decides.
    lower = ihara._lower_bound
    try:
        want = _cold_bases(range(2, 10))
        monkeypatch.setattr(ihara, "_lower_bound", lambda n: (
            lower(n)[0] - (n == 9), lower(n)[1]))
        got = _cold_bases(range(2, 10))
    finally:
        ihara.clear_caches()
    assert got[9] == (want[9][0], "full")
    assert got == {**want, 9: got[9]}


def _stuffle(u, v):
    """The stuffle product of the compositions u and v as {composition:
    multiplicity}: (a u') * (b v') = a (u' * v) + b (u * v') +
    (a + b)(u' * v')."""
    if not u or not v:
        return {u + v: 1}
    out = {}
    for head, rest in ((u[0], _stuffle(u[1:], v)), (v[0], _stuffle(u, v[1:])),
                       (u[0] + v[0], _stuffle(u[1:], v[1:]))):
        for w, c in rest.items():
            out[(head, *w)] = out.get((head, *w), 0) + c
    return out


def _reference_stuffle_row(a, v):
    """The coefficient of y_a * v in f_* as {word over x, y: coefficient},
    from the stuffle product itself: with x = e0 and y = -e1, the word of a
    composition of depth k is read with the sign (-1)^k."""
    row = {}
    for comp, m in _stuffle((a,), v).items():
        w = tuple(c for part in comp for c in (0,) * (part - 1) + (1,))
        row[w] = row.get(w, 0) + (-1) ** len(comp) * m
    return row


def _check_stuffle_rows(degrees):
    """Every basis element of D_n satisfies every single-letter stuffle
    row of depth < n, read off its tensor expansion."""
    for n in degrees:
        keys = list(ihara._stuffle_keys(n))
        # all pairs (a, v) with v a composition of n - a, but (1, 1^(n-1))
        assert len(set(keys)) == len(keys) == 2 ** (n - 1) - 2
        assert (1, (1,) * (n - 1)) not in keys
        rows = [_reference_stuffle_row(a, v) for a, v in keys]
        # the library keys its rows by word code
        assert [ihara._stuffle_row(a, v) for a, v in keys] == [
            {ihara._word_code(w): c for w, c in row.items()} for row in rows]
        for f in special_basis(n):
            tensor = expand_assoc(f).terms
            for key, row in zip(keys, rows):
                assert not sum(c * tensor.get(w, 0)
                               for w, c in row.items()), (n, key)


def test_basis_satisfies_stuffle_rows():
    _check_stuffle_rows(range(2, 11))
    # the sign of y matters: with y = e1 instead, D_3 fails the row (1, 2)
    tensor = expand_assoc(special_basis(3)[0]).terms
    assert sum(m * tensor[tuple(c for part in comp
                                for c in (0,) * (part - 1) + (1,))]
               for comp, m in _stuffle((1,), (2,)).items())
    assert {five_cycle_route(n) for n in range(2, 11)} == {"stuffle"}
    assert {five_cycle_budget(n) for n in range(2, 11)} == {"stuffle"}


@pytest.mark.slow
def test_basis_satisfies_stuffle_rows_11_13():
    _check_stuffle_rows(range(11, 14))


def test_stuffle_miss_falls_back_to_five_cycle(monkeypatch):
    # One row is too few wherever the 2-cycle kernel needs more than one
    # cut, from degree 7 on; there the 5-cycle route decides, and must
    # give the same bases.
    want = {n: special_basis(n) for n in range(2, 11)}
    keys = ihara._stuffle_keys
    monkeypatch.setattr(ihara, "_stuffle_keys",
                        lambda n: itertools.islice(keys(n), 1))
    try:
        got = _cold_bases(range(2, 11))
    finally:
        ihara.clear_caches()
    assert {n: b for n, (b, _) in got.items()} == want
    assert {n: r for n, (_, r) in got.items()} == {
        **{n: "stuffle" for n in range(2, 7)},
        **{n: "bounds" for n in range(7, 11)}}


def test_word_codes_slice_as_words():
    # a leading 1 bit, then one bit per letter: every x,y word through
    # length 12 round-trips, its prefixes are shifts and its suffixes
    # masks, and codes of equal length compare as the words do
    for n in range(1, 13):
        words = list(itertools.product((0, 1), repeat=n))
        codes = [ihara._word_code(w) for w in words]
        assert codes == list(range(2 ** n, 2 ** (n + 1)))
        for w, code in zip(words, codes):
            assert tuple(int(c) for c in bin(code)[3:]) == w
            for i in range(1, n):
                low = 1 << n - i
                assert code >> n - i == ihara._word_code(w[:i])
                assert code & low - 1 | low == ihara._word_code(w[i:])
    assert ihara._composition_code((3, 1, 2)) == ihara._word_code(
        (0, 0, 1, 1, 0, 1))


def test_coded_tensor_coefficients_match_the_tuple_route():
    # (P_l | s) on word codes, keyed by the id of l, against the route on
    # word tuples: the columns of the full expansions of the Lyndon words
    # l, for every x,y word through length 11, from a cold memo that
    # every length then shares
    ihara.clear_caches()
    try:
        for n in range(1, 12):
            want = {}
            for w in _lyndon_tuples((1, 1), n):
                for s, c in expand_assoc(LieElement(XY, {w: 1})).terms.items():
                    want.setdefault(s, {})[w] = c
            for s in itertools.product((0, 1), repeat=n):
                got = ihara._coded_tensor_coefficients(ihara._word_code(s))
                assert ({_word_of(i): c for i, c in got.items()}
                        == want.get(s, {})), s
        assert len(ihara._TENSOR_MEMO) == 2 ** 12 - 2
    finally:
        ihara.clear_caches()


def test_stable_bases_are_thread_safe_from_cold_caches():
    # four threads build D_2 to D_11 from cold caches, two upwards and two
    # downwards, sharing the tensor-coefficient memo, the per-degree
    # caches and the table of word ids
    want = {n: special_basis(n) for n in range(2, 12)}
    ihara.clear_caches()
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(k):
        barrier.wait()
        degrees = range(2, 12) if k % 2 else range(11, 1, -1)
        results[k] = {n: special_basis(n) for n in degrees}

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert ihara._TENSOR_MEMO
        assert results == [want] * 4
        assert {n: five_cycle_route(n) for n in range(2, 12)} == dict.fromkeys(
            range(2, 12), "stuffle")
    finally:
        ihara.clear_caches()


@pytest.mark.slow
def test_stuffle_route_matches_five_cycle_route_through_13(force_five_cycle):
    # the second route at the height of the first, over Q and mod p
    keys = [(n, p) for n in range(2, 14) for p in (None, 2 ** 31 - 1)]
    ihara.clear_caches()
    stuffle = {k: ihara._stable_pairs(*k) for k in keys}
    force_five_cycle()
    five = {k: ihara._stable_pairs(*k) for k in keys}
    assert {k: r[3] for k, r in stuffle.items()} == dict.fromkeys(
        keys, "stuffle")
    assert {k: r[3] for k, r in five.items()} == {
        (n, p): ihara._budgets(n)[0] for n, p in keys}
    assert ({k: r[1:3] for k, r in stuffle.items()}
            == {k: r[1:3] for k, r in five.items()})


def test_first_budget_is_the_least_cap_that_meets_the_bound():
    # The first cap k of the schedule cuts D_n exactly; one cap lower the
    # cut is larger wherever the hex space is: in degrees 7, 9 and 10,
    # while in degree 8 the hex space is D_8 itself.
    larger = set()
    for n in range(7, 11):
        c1, k = ihara._budgets(n)[0]
        hexes = _hex_pairs(n)
        assert ihara._cut(n, hexes, (c1, k))[0] == tuple(special_basis(n))
        if len(ihara._cut(n, hexes, (c1, k - 1))[0]) > special_dim(n):
            larger.add(n)
    assert larger == {7, 9, 10}


def _cached_fibers():
    """(budget, grade-split fiber) for every fiber value the 5-cycle
    caches hold."""
    for (cap, _), images in ihara._ACT_IM.items():
        for fiber in images:
            yield cap, fiber
    for (cap, _, _), fiber in ihara._ACT_ON_WORD.items():
        yield cap, fiber
    for cache in ihara._EVAL_CACHE:
        for (cap, _), (fiber, _) in cache.items():
            yield cap, fiber


def test_graded_caches_are_consistent(force_five_cycle):
    try:
        force_five_cycle()
        for n in range(2, 10):
            special_basis(n)
        _pentagon_rows(7, [f.terms for f in _hex_pairs(7)], None)
        caps = set()
        for cap, fiber in _cached_fibers():
            caps.add(cap)
            for (i, j), terms in fiber.items():
                assert all((w.count(0), w.count(1)) == (i, j)
                           for w in map(_word_of, terms))
                if cap is not None:
                    assert i <= cap[0] and (cap[1] is None or j <= cap[1])
    finally:
        ihara.clear_caches()
    assert caps == {None, ihara._budgets(9)[0]}


def test_base_action_on_a1_linear_part_is_right_multiplication():
    # In the a1 <= 1 quotient the a1-linear fiber elements are
    # ad(m)(a1) = [c1, [c2, ..., [cr, a1]]] for m = c1 c2 ... cr in
    # T(a2, a3), and a base element b of degree k >= 2 acts on them as
    # right multiplication of m by (-1)^(k-1) b(-a2, a2 + a3).
    fiber = GradedAlphabet("a1 a2 a3")
    a1, a2, a3 = (LieElement.generator(fiber, c) for c in ("a1", "a2", "a3"))

    def ad(m):
        e = a1
        for c in reversed(m):
            e = bracket((a1, a2, a3)[c], e)
        return e

    monomials = [m for r in range(4) for m in itertools.product((1, 2),
                                                                 repeat=r)]
    for k in range(2, 7):
        for b in _lyndon_tuples((1, 1), k):
            image = expand_assoc(substitute(LieElement(XY, {b: 1}),
                                            (-a2, a2 + a3))).terms
            sign = (-1) ** (k - 1)
            for m in monomials:
                split = {}
                for w, c in ad(m).terms.items():
                    split.setdefault((w.count(0), w.count(1)),
                                     {})[_intern(w)] = c
                got = {}
                for terms in ihara._act_into({}, {_intern(b): 1}, split, 1,
                                             A1_ONLY).values():
                    _merge_scaled(got, _words_of(terms), 1)
                want = LieElement.zero(fiber)
                for w, c in image.items():
                    want = want + ad(m + w).scale(sign * c)
                assert LieElement(fiber, got) == want, (b, m)


def test_missed_budget_falls_back_to_a1_quotient(monkeypatch,
                                                 force_five_cycle):
    # With a2 <= 2 the quotient cut misses the bound in degree 10 (dim 2
    # against 1), and the a1-degree quotient alone decides it.
    want = {n: special_basis(n) for n in range(2, 11)}
    monkeypatch.setattr(ihara, "_budgets",
                        lambda n: ((1, 2), A1_ONLY, None))
    try:
        force_five_cycle()
        got = {n: (special_basis(n), five_cycle_budget(n))
               for n in range(2, 11)}
        assert five_cycle_route(10) == "bounds"
        assert len(ihara._cut(10, _hex_pairs(10), (1, 2))[0]) == 2
    finally:
        ihara.clear_caches()
    assert {n: b for n, (b, _) in got.items()} == want
    assert {n: budget for n, (_, budget) in got.items()} == {
        **{n: (1, 2) for n in range(2, 10)}, 10: A1_ONLY}


@pytest.mark.slow
def test_scheduled_cut_matches_a1_cut_11_13(monkeypatch, force_five_cycle):
    # a second route at the height of the first: the cut in the a1-degree
    # quotient alone, which the schedule tries only after a miss
    degrees = range(2, 14)
    first = {n: ihara._budgets(n)[0] for n in degrees}
    try:
        force_five_cycle()
        scheduled = {n: (special_basis(n), five_cycle_budget(n))
                     for n in degrees}
        monkeypatch.setattr(ihara, "_budgets", lambda n: (A1_ONLY, None))
        ihara.clear_caches()
        a1_only = {n: (special_basis(n), five_cycle_budget(n))
                   for n in degrees}
    finally:
        ihara.clear_caches()
    assert {n: b for n, (_, b) in scheduled.items()} == first
    assert {b for _, b in a1_only.values()} == {A1_ONLY}
    assert ({n: b for n, (b, _) in scheduled.items()}
            == {n: b for n, (b, _) in a1_only.items()})


def test_bracket_outside_cut_is_a_bug(monkeypatch, force_five_cycle):
    # D_10 is spanned by <s3, s7>; a hex element outside it in its place
    # must fail the exactness guard as a bug, not as a precondition.
    (f,) = special_basis(10)
    rows = [[int(c) for c in f.coordinates(10)]]
    outside = next(h for h in _hex_pairs(10)
                   if not in_row_space(rows, h.coordinates(10)))
    bracket_of = ihara.ihara_bracket
    monkeypatch.setattr(ihara, "ihara_bracket", lambda f, g, **kw: (
        outside if f.homogeneous_degree() + g.homogeneous_degree() == 10
        else bracket_of(f, g, **kw)))
    try:
        for route in ("stuffle", "5-cycle"):
            if route == "5-cycle":
                force_five_cycle()
            ihara.clear_caches()
            with pytest.raises(AssertionError,
                               match=f"outside the {route} cut"):
                special_dim(10)
            ihara.clear_caches()
            with pytest.raises(AssertionError):
                run(["ihara", "basis", "--degree", "10"])
    finally:
        ihara.clear_caches()


def test_modular_dims_match_rational(force_five_cycle):
    want = {n: special_basis(n) for n in range(2, 10)}
    for route in ("stuffle", "5-cycle"):
        if route == "5-cycle":
            force_five_cycle()
        for n in range(2, 10):
            for p in PRIMES + [2 ** 31 - 1]:
                assert special_dim_mod(n, p) == len(want[n])
                # the cut mod p is the canonical basis of D_n reduced mod p
                _, rows, pivots, budget = ihara._stable_pairs(n, p)
                terms = [_sparse(f.terms, p) for f in want[n]]
                assert (list(rows), list(pivots)) == _echelon(
                    terms, p, reduced=True)
                assert all(0 <= c < p for row in rows for c in row.values())
                assert budget == ("stuffle" if route == "stuffle"
                                  else ihara._budgets(n)[0])


@pytest.mark.slow
def test_modular_dim_9():
    assert special_dim_mod(9, 101) == special_dim(9) == 1


@pytest.mark.slow
def test_modular_dims_10_12():
    for n in (10, 11, 12):
        for p in (101, 2 ** 31 - 1):
            assert special_dim_mod(n, p) == special_dim(n)


@pytest.mark.slow
def test_modular_dim_13():
    p = 2 ** 31 - 1
    assert special_dim_mod(13, p) == special_dim(13) == 3
    assert ihara._stable_pairs(13, p)[3] == five_cycle_budget(13) == "stuffle"


def test_modular_miss_falls_back_to_a1_quotient():
    # Over GF(2) the stuffle cut misses the bound in degree 9, so does the
    # first budget (dim 3 against 1), and the a1-degree quotient alone
    # decides it.
    assert ihara._stuffle_cut(9, 1, 2) is None
    assert ihara._budgets(9)[0] == (1, 2)
    assert len(ihara._cut(9, _hex_pairs(9, 2), (1, 2), 2)[0]) == 3
    assert special_dim_mod(9, 2) == 1
    assert ihara._stable_pairs(9, 2)[3] == A1_ONLY
    # In degree 11 it misses too, and the first budget decides dim 2.
    assert ihara._stuffle_cut(11, 2, 2) is None
    assert special_dim_mod(11, 2) == 2
    assert ihara._stable_pairs(11, 2)[3] == ihara._budgets(11)[0] == (1, 4)


def test_miss_above_the_fallback_limit_raises(monkeypatch,
                                              force_five_cycle):
    # With the 5-cycle fallback limited to degree 10, a miss in degree 11
    # raises FallbackLimitError over Q and GF(p), never an AssertionError,
    # and the command line exits 3; degree 10 is unchanged.
    monkeypatch.setattr(ihara, "_FIVE_CYCLE_MAX_DEGREE", 10)
    force_five_cycle({11})
    for call in (lambda: special_dim(11), lambda: special_dim_mod(11, 101)):
        with pytest.raises(FallbackLimitError) as info:
            call()
        assert not isinstance(info.value, AssertionError)
        assert (info.value.degree, info.value.bound,
                info.value.limit) == (11, 2, 10)
        assert str(info.value).startswith("degree 11:")
    assert run(["ihara", "basis", "--degree", "11"]).status == 3
    assert special_dim(10) == 1 and five_cycle_route(10) == "stuffle"


def test_modular_short_bound_falls_back_to_full_route(monkeypatch):
    # A bound of -1 is never met, so the modular route cuts every degree
    # over the full fiber mod p, and must still agree.
    want = {n: special_dim(n) for n in range(2, 9)}
    monkeypatch.setattr(ihara, "_lower_bound", lambda n: (-1, []))
    try:
        ihara.clear_caches()
        for n in range(2, 9):
            assert special_dim_mod(n, 101) == want[n]
            assert ihara._stable_pairs(n, 101)[3] is None
    finally:
        ihara.clear_caches()


def test_preconditions_raise_precondition_error():
    calls = [lambda: special_basis(0), lambda: special_dim(0),
             lambda: special_dim_mod(1, 101), lambda: special_dim_mod(5, 1),
             lambda: special_dim_mod(2, 4), lambda: special_dim_mod(3, 4),
             lambda: special_dim_mod(4, 4), lambda: special_dim_mod(2, 9),
             lambda: special_dim_mod(5, 2 ** 61 + 1),
             lambda: check_congruence(modulus=1),
             lambda: freeness_table(2)]
    for call in calls:
        with pytest.raises(PreconditionError) as info:
            call()
        assert isinstance(info.value, ValueError)


def _pentagon_by_word(elements, cap):
    """Reference route for _pentagon_rows: the fiber part of the sum over
    all five pairs for each word on its own, then merged into one column
    per element."""
    rows = {}
    for w in {w for f in elements for w in f}:
        row = {}
        for p in range(5):
            for terms in _eval_word(p, _intern(w), cap)[0].values():
                _merge_scaled(row, _words_of(terms), 1)
        rows[w] = row
    cols = []
    for f in elements:
        col = {}
        for w, c in f.items():
            _merge_scaled(col, rows[w], c)
        cols.append(col)
    return cols


def test_pentagon_rows_match_per_word_route():
    for n in range(2, 11):
        hexes = [f.terms for f in _hex_pairs(n)]
        words = [{w: 1} for w in _lyndon_tuples((1, 1), n)]
        for cap in (None, A1_ONLY, (1, 4), ihara._budgets(n)[0]):
            assert (_pentagon_rows(n, hexes, cap)
                    == _pentagon_by_word(hexes, cap))
            if n <= 8:
                assert (_pentagon_rows(n, words, cap)
                        == _pentagon_by_word(words, cap))


def test_quotient_evaluation_is_the_pruned_full_one():
    # The words of a1-degree >= 2, and those of a2-degree > k, span ideals
    # stable under the action, so pruning at every step equals pruning
    # the full 5-cycle sum once.
    for n in range(2, 10):
        hexes = [f.terms for f in _hex_pairs(n)]
        for elements in (hexes,
                         [{w: 1} for w in _lyndon_tuples((1, 1), n)]):
            full = _pentagon_rows(n, elements, None)
            if elements is hexes:
                # modulo the ideal generated by a1, the 5-cycle sum of a
                # 2-cycle symmetric element vanishes
                assert all(v.count(0) for col in full for v in col)
            for c1, c2 in (A1_ONLY, (1, 2), (1, 3)):
                assert _pentagon_rows(n, elements, (c1, c2)) == [
                    {v: c for v, c in col.items() if v.count(0) <= c1
                     and (c2 is None or v.count(1) <= c2)}
                    for col in full]


def test_pentagon_base_part_is_two_cycle_defect():
    # The base parts of the five pairs add up to w + w(y, x), the 2-cycle
    # defect; this is why the 5-cycle evaluator may skip them.
    for n in range(2, 9):
        words = _lyndon_tuples((1, 1), n)
        for w in words:
            base = {}
            for p in range(5):
                _merge_scaled(base, _words_of(_eval_word(p, _intern(w),
                                                         None)[1]), 1)
            f = LieElement(XY, {w: 1})
            assert base == symmetry_defects(f)[0].terms, w
            # the library's 2-cycle defect, keyed by word index
            defect = ihara._symmetry_rows(ihara._indexed(f, n), n, 0)
            assert base == {words[i]: c for i, c in defect.items()}, w


def test_basis_elements_are_stable():
    for n in (3, 5, 7, 8):
        for f in special_basis(n):
            assert is_stable(f)
            assert f.homogeneous_degree() == n


def test_special_basis_hands_out_copies():
    # A caller mutating what it got must not reach the cached basis.
    for n in (3, 10):
        before = special_basis(n)
        got = special_basis(n)
        got[0].terms.clear()
        got[0].terms[(0,) * (n - 1) + (1,)] = 1
        assert not is_stable(got[0])
        assert special_basis(n) == before
        assert is_stable(before[0])


def test_degree_3_generator_exact():
    s3 = soule_generator(3)
    assert s3.terms == {(0, 0, 1): 1, (0, 1, 1): -1}
    assert s3 == parse_lie("[x,[x,y]] - [[x,y],y]", XY)


def test_generator_normalisation():
    for m in (3, 5, 7):
        f = soule_generator(m)
        lead = f.terms[(0,) * (m - 1) + (1,)]
        assert lead > 0
        coeffs = [int(c) for c in f.terms.values()]
        assert math.gcd(*coeffs) == 1


def test_generator_requires_a_line():
    for m in (2, 4, 6):
        with pytest.raises(NotOneDimensionalError):
            soule_generator(m)


@functools.lru_cache(maxsize=None)
def _ad_z_columns(n):
    z = -X - Y
    return tuple(bracket(z, LieElement(XY, {w: 1})).coordinates(n + 1)
                 for w in _lyndon_tuples((1, 1), n))


def _witness_by_kernel(f):
    """Reference oracle for special_witness: join -[y, f] to the columns
    [z, w] as one more column and read the kernel.  A witness exists iff
    some kernel vector has a nonzero last coordinate; None otherwise."""
    n = f.homogeneous_degree()
    cols = [*_ad_z_columns(n),
            [-t for t in bracket(Y, f).coordinates(n + 1)]]
    for v in kernel_basis([list(row) for row in zip(*cols)]):
        if v[-1]:
            return from_coordinates(
                XY, n, [Fraction(c, v[-1]) for c in v[:-1]])
    return None


def _span(elements, p=None):
    """The canonical basis of the span of the elements: reduced echelon
    rows keyed by word, primitive with positive leading entry, or monic
    residues over GF(p)."""
    rows = [r for r in (_sparse(f.terms, p) for f in elements) if r]
    red, _ = _echelon(rows, p, reduced=True)
    return [_positive(r) for r in red] if p is None else red


def _special_halves(n, p=None):
    """The (f, u) halves of ihara._special_pairs(n, p)."""
    d = len(_lyndon_tuples((1, 1), n))
    return [(from_coordinates(XY, n, v[:d]), from_coordinates(XY, n, v[d:]))
            for v in ihara._special_pairs(n, p)]


def test_hex_space_matches_stacked_route():
    # the special kernel on d columns, and the 3-cycle through sigma alone
    # after the 2-cycle, against the 2d-column kernel and one stacked cut
    # of both defects by substitution
    for n in range(2, 12):
        hexes = _hex_pairs(n)
        assert _span(hexes) == _span(stacked_hex_space(n)), n
        assert len(_span(hexes)) == len(hexes)
        specials = [f for f, _ in _special_halves(n)]
        assert _span(specials) == _span(stacked_specials(n)), n
    for p in (2, 3, 691):
        for n in range(2, 11):
            hexes = _hex_pairs(n, p)
            assert _span(hexes, p) == _span(stacked_hex_space(n, p), p)
            assert len(_span(hexes, p)) == len(hexes), (n, p)
            specials = [f for f, _ in _special_halves(n, p)]
            assert _span(specials, p) == _span(stacked_specials(n, p), p)


def test_special_pairs_satisfy_the_special_condition():
    z = -X - Y
    for n in range(2, 12):
        for f, u in _special_halves(n):
            lhs, rhs = bracket(Y, f), bracket(z, u)
            assert f and lhs == rhs, n
            if n <= 9:
                assert not expand_assoc(lhs - rhs).terms
    for p in (2, 3, 691):
        for n in range(2, 11):
            for f, u in _special_halves(n, p):
                assert all(c % p == 0 for c in
                           (bracket(Y, f) - bracket(z, u)).terms.values())


def test_per_degree_caches_key_on_degree_and_prime(force_five_cycle):
    # stage(n) and stage(n, None) are one entry: the witness reads the
    # kernel the stable build made, and _hex_pairs(n) the cached hex space
    # that the 5-cycle route built
    force_five_cycle()
    for n in range(2, 11):
        special_basis(n)
    assert ihara._special_pairs.cache_info()[:2] == (0, 9)
    special_witness(special_basis(10)[0])
    assert ihara._special_pairs.cache_info()[:2] == (1, 9)
    for stage in (_hex_pairs, ihara._stable_pairs):
        before = stage.cache_info()
        stage(10)
        stage(10, None)
        assert stage.cache_info()[:2] == (before.hits + 2, before.misses)


def test_special_witness_identity():
    z = -X - Y
    for m in (3, 5, 7, 8, 9, 10):
        for f in special_basis(m):
            f = f.scale(Fraction(-7, 3))
            u = special_witness(f)
            assert bracket(Y, f) == bracket(z, u)
            # independent route: the identity must also vanish termwise in
            # the tensor algebra, not only in the bracket basis
            assert not expand_assoc(bracket(Y, f) - bracket(z, u)).terms
            assert u == _witness_by_kernel(f)
    with pytest.raises(SpecialConditionError):
        special_witness(bracket(X, Y))
    rng = random.Random(502)
    # degrees 4 and 6 have no specials: their special-pair kernels are
    # empty, so the witness has no rows to read and every f must fail
    assert not ihara._special_pairs(4) and not ihara._special_pairs(6)
    for n in (8, 10, 4, 6):
        for _ in range(4):
            f = random_homogeneous(XY, n, rng, max_terms=6)
            assert f and _witness_by_kernel(f) is None
            with pytest.raises(SpecialConditionError):
                special_witness(f)


def test_special_witness_cold_degree_13():
    # <sigma5, b> with b in D_8 is special of degree 13 and needs only the
    # stable spaces through degree 8; the witness and the cheap check then
    # build the degree-13 special-pair kernel from cold caches, without D_13
    f = ihara_bracket(soule_generator(5), special_basis(8)[0])
    assert f.homogeneous_degree() == 13
    ihara.clear_caches()
    u = special_witness(f)
    assert bracket(Y, f) == bracket(-X - Y, u)
    assert all(type(c) is Fraction for c in u.terms.values())
    assert is_stable(f, check_five_cycle=False)
    # neither the hex space nor any stable space was built
    assert ihara._hex_pairs.cache_info().currsize == 0
    assert ihara._stable_pairs.cache_info().currsize == 0
    assert special_witness(f).terms == u.terms


def test_is_stable_rejects_on_five_cycle_alone():
    # In these degrees the special, 2-cycle and 3-cycle conditions leave
    # more than D_n; only the 5-cycle condition cuts the rest away.
    for n, hex_dim in ((7, 2), (9, 4), (10, 2)):
        basis = special_basis(n)
        assert len(basis) == 1
        hexes = list(_hex_pairs(n))
        assert len(hexes) == hex_dim
        rows = [[int(c) for c in b.coordinates(n)] for b in basis]
        outside = [f for f in hexes
                   if not in_row_space(rows, f.coordinates(n))]
        assert outside
        for f in outside:
            assert not is_stable(f)
            assert is_stable(f, check_five_cycle=False)
        assert is_stable(basis[0].scale(Fraction(5, 4)))
        assert not is_stable(basis[0].scale(Fraction(5, 4)) + outside[0])


def test_is_stable_rejections():
    rng = random.Random(501)
    assert not is_stable(X)
    assert not is_stable(bracket(X, Y))
    assert is_stable(LieElement.zero(XY))
    # the degree-3 generator's words over another two-letter alphabet
    ab = LieElement(GradedAlphabet("a b"), soule_generator(3).terms)
    with pytest.raises(AlphabetMismatchError):
        is_stable(ab)
    # degree 4 and 6 have no stable elements at all
    for n in (4, 6):
        for _ in range(5):
            f = random_homogeneous(XY, n, rng)
            if f:
                assert not is_stable(f)


def _in_d_by_four_conditions(f, n):
    """Reference oracle for is_stable: f is special (a witness by the
    dense kernel route), its 2-cycle and 3-cycle defects vanish (by
    substitution), and it lies in the row space of the basis of D_n."""
    if not f:
        return True
    if _witness_by_kernel(f) is None or any(symmetry_defects(f)):
        return False
    rows = [[int(c) for c in b.coordinates(n)] for b in special_basis(n)]
    return in_row_space(rows, f.coordinates(n))


def test_is_stable_matches_four_condition_oracle():
    rng = random.Random(503)
    for n in range(2, 12):
        basis = special_basis(n)
        outside = [h for h in _hex_pairs(n)
                   if not _in_d_by_four_conditions(h, n)]
        # the hex space is bigger than D_n exactly in these degrees
        assert bool(outside) == (n in (7, 9, 10, 11)), n
        cases = [(LieElement.zero(XY), True)]
        ints = LieElement.zero(XY)
        fracs = LieElement.zero(XY)
        for b in basis:
            ints = ints + b.scale(rng.choice([-3, -1, 2, 5]))
            fracs = fracs + b.scale(Fraction(rng.choice([-7, 1, 4]),
                                             rng.choice([3, 5, 6])))
        cases += [(ints, True), (fracs, True)]
        for h in outside:
            assert is_stable(h, check_five_cycle=False)
            cases += [(h, False), (h.scale(Fraction(-2, 3)), False)]
            if basis:
                cases.append((basis[0] + h, False))
        for _ in range(3):
            f = random_homogeneous(XY, n, rng, max_terms=5)
            if f and basis:
                cases.append((f + basis[-1].scale(2), None))
            cases.append((f, None))
        for f, want in cases:
            got = is_stable(f)
            assert got is _in_d_by_four_conditions(f, n), (n, f)
            assert want is None or got is want, (n, f)


def test_stable_derivation_images():
    s3 = soule_generator(3)
    d = stable_derivation(s3)
    assert not d(X)
    assert d(Y) == bracket(Y, s3)
    assert d.degree == 3


def test_ihara_bracket_antisymmetric_and_closed():
    s3 = soule_generator(3)
    s5 = soule_generator(5)
    b = ihara_bracket(s3, s5)
    assert b
    assert b.homogeneous_degree() == 8
    assert ihara_bracket(s5, s3) == -b
    assert not ihara_bracket(s3, s3)
    # closure: the bracket satisfies all four conditions again
    assert is_stable(b)
    # and spans the one-dimensional degree-8 space
    (f8,) = special_basis(8)
    coords8 = b.coordinates(8)
    rows = [[int(c) for c in f8.coordinates(8)]]
    assert in_row_space(rows, coords8)


def test_ihara_bracket_jacobi_on_generators():
    f = {m: soule_generator(m) for m in (3, 5, 7)}

    def ib(a, b):
        # operands here are brackets of verified generators; closure is
        # established above, so skip the per-call recheck
        return ihara_bracket(a, b, verify=False)

    for trip in [(3, 3, 5), (3, 3, 7), (3, 5, 5), (3, 5, 7), (5, 5, 5)]:
        a, b, c = (f[m] for m in trip)
        jac = ib(a, ib(b, c)) + ib(b, ib(c, a)) + ib(c, ib(a, b))
        assert not jac, trip


def test_bracket_matches_derivation_commutator():
    # D_<f,g> = [D_f, D_g], checked on both generator images
    f = {m: soule_generator(m) for m in (3, 5, 7, 9)}
    for m1, m2 in [(3, 5), (3, 7), (3, 9), (5, 7), (5, 9), (7, 9)]:
        lhs = stable_derivation(ihara_bracket(f[m1], f[m2], verify=False))
        rhs = der_bracket(stable_derivation(f[m1]),
                          stable_derivation(f[m2]))
        assert lhs(X) == rhs(X)
        assert lhs(Y) == rhs(Y)


def test_ihara_bracket_not_inner():
    s3 = soule_generator(3)
    s5 = soule_generator(5)
    d = stable_derivation(ihara_bracket(s3, s5))
    rows = [list(col) for col in zip(*inner_matrix(8))]
    assert not in_row_space(rows, d.coordinates())


def test_ihara_bracket_verifies_operands():
    s3 = soule_generator(3)
    with pytest.raises(SpecialConditionError):
        ihara_bracket(bracket(X, Y), s3)
    with pytest.raises(SpecialConditionError):
        ihara_bracket(s3, X.scale(2))


SCALES = [1, -1, 3, -2, Fraction(1, 2), Fraction(-3, 4)]


def test_ihara_bracket_verifies_each_primitive_operand_once(monkeypatch):
    s3, s5 = soule_generator(3), soule_generator(5)
    bad = bracket(X, Y)
    verdicts = ihara._operand_is_stable
    check = ihara.is_stable
    for cold in (True, False):
        checked = []
        monkeypatch.setattr(ihara, "is_stable", lambda f, **kw: (
            checked.append(f) or check(f, **kw)))
        ihara.clear_caches()
        if not cold:
            special_basis(5)
        try:
            for s in SCALES:
                assert (ihara_bracket(s3.scale(s), s5.scale(-s))
                        == ihara_bracket(s3, s5).scale(-s * s))
                with pytest.raises(SpecialConditionError,
                                   match="left operand"):
                    ihara_bracket(bad.scale(s), s3)
                with pytest.raises(SpecialConditionError,
                                   match="right operand"):
                    ihara_bracket(s5, bad.scale(s))
            # one verdict per primitive operand, whatever the scale
            info = verdicts.cache_info()
            assert (info.misses, info.currsize) == (3, 3)
        finally:
            ihara.clear_caches()
        # cold, each operand takes the cheap check; with D_3 and D_5
        # built, s3 and s5 pass by their echelon rows, and D_2 = 0 sends
        # bad on to the cheap check
        assert checked == ([s3, s5, bad] if cold else [bad])


def _count_calls(monkeypatch, name):
    """Calls of ihara.<name> from now on, as a list of their first
    arguments."""
    calls = []
    fn = getattr(ihara, name)
    monkeypatch.setattr(ihara, name, lambda f, *args, **kw: (
        calls.append(f) or fn(f, *args, **kw)))
    return calls


def test_verified_operands_read_the_built_stable_space(monkeypatch):
    # Under a plain wrapper of _stable_pairs, as a tracer installs, the
    # operand check still finds the D_n built through it.
    pairs = ihara._stable_pairs
    ihara.clear_caches()
    monkeypatch.setattr(ihara, "_stable_pairs", lambda *args: pairs(*args))
    try:
        b3, b9 = special_basis(3)[0], special_basis(9)[0]
        witnesses = _count_calls(monkeypatch, "special_witness")
        assert ihara._sigma_images.cache_info().currsize == 0
        got = ihara_bracket(b3.scale(2), b9.scale(Fraction(-1, 3)))
        assert got == _reference_bracket(b3, b9).scale(Fraction(-2, 3))
        # neither the witness nor any sigma image was needed
        assert witnesses == []
        assert ihara._sigma_images.cache_info().currsize == 0
        assert ihara._operand_is_stable.cache_info().misses == 2
        # a hex element outside D_9 still passes, by the cheap check
        rows = [[int(c) for c in b9.coordinates(9)]]
        outside = next(h for h in _hex_pairs(9)
                       if not in_row_space(rows, h.coordinates(9)))
        assert ihara_bracket(b3, outside, verify=True)
        assert len(witnesses) == 1
        # and an operand that fails the conditions is still rejected
        word = next(w for w in _lyndon_tuples((1, 1), 9)
                    if w.count(0) != w.count(1))
        with pytest.raises(SpecialConditionError, match="right operand"):
            ihara_bracket(b3, b9 + LieElement(XY, {word: 1}))
        assert len(witnesses) == 2
    finally:
        monkeypatch.setattr(ihara, "_stable_pairs", pairs)
        ihara.clear_caches()


def test_operand_check_never_reads_a_modular_stable_space(monkeypatch):
    b3, b9 = special_basis(3)[0], special_basis(9)[0]
    ihara.clear_caches()
    try:
        # D_9 over GF(101) only; the lower bound builds D_3 over Q
        ihara._stable_pairs(9, 101)
        assert 9 not in ihara._STABLE_ROWS and 3 in ihara._STABLE_ROWS
        witnesses = _count_calls(monkeypatch, "special_witness")
        assert ihara_bracket(b9, b3) == _reference_bracket(b9, b3)
        assert witnesses == [b9]
        # and the check built no D_9
        assert 9 not in ihara._STABLE_ROWS
    finally:
        ihara.clear_caches()


def test_stable_basis_passes_the_cheap_conditions():
    # the premise of the operand check: D_n satisfies the special, 2-cycle
    # and 3-cycle conditions, so its rows may stand in for them
    for n in range(2, 13):
        for f in special_basis(n):
            assert is_stable(f, check_five_cycle=False), n


def _reference_bracket(f, g):
    """<f, g> from fresh derivations, with no cache across calls."""
    return stable_derivation(f)(g) - stable_derivation(g)(f) + bracket(f, g)


def _basis_pairs(max_total):
    elements = [b for n in range(3, max_total - 2) for b in special_basis(n)]
    return [(f, g) for i, f in enumerate(elements) for g in elements[i:]
            if f.homogeneous_degree() + g.homogeneous_degree() <= max_total]


def _check_scaled_brackets(pairs):
    for f, g in pairs:
        # every scale on each side, each pair of scales once per rotation
        for k in (1, 4):
            for s, t in zip(SCALES, SCALES[k:] + SCALES[:k]):
                fs, gt = f.scale(s), g.scale(t)
                got = ihara_bracket(fs, gt)
                assert got == _reference_bracket(fs, gt), (s, t)
                assert got == ihara_bracket(f, g).scale(s * t)


def test_ihara_bracket_matches_uncached_reference():
    ihara.clear_caches()
    _check_scaled_brackets(_basis_pairs(13))
    s3, s5 = soule_generator(3), soule_generator(5)
    # all 36 scale pairs on one pair of generators
    for s in SCALES:
        for t in SCALES:
            fs, gt = s3.scale(s), s5.scale(t)
            assert ihara_bracket(fs, gt) == _reference_bracket(fs, gt)
    zero = LieElement.zero(XY)
    assert not ihara_bracket(zero, s5) and not ihara_bracket(s3, zero)
    assert ihara_bracket(zero, s5) == _reference_bracket(zero, s5)
    # unverified operands need not be special
    f = LieElement(XY, {(0, 1): Fraction(-2, 3)})
    assert not is_stable(f, check_five_cycle=False)
    for g in (s3, X.scale(5), f.scale(-4)):
        assert (ihara_bracket(f, g, verify=False)
                == _reference_bracket(f, g))


@pytest.mark.slow
def test_ihara_bracket_matches_uncached_reference_through_14():
    pairs = [(f, g) for f, g in _basis_pairs(14)
             if f.homogeneous_degree() + g.homogeneous_degree() == 14]
    assert len(pairs) == 4  # (3, 11) twice, (5, 9) and (7, 7)
    _check_scaled_brackets(pairs)


def test_ihara_bracket_of_integral_operands_is_integral():
    for f, g in _basis_pairs(13):
        for s, t in ((1, 1), (-3, 2), (6, -4)):
            b = ihara_bracket(f.scale(s), g.scale(t))
            assert all(type(c) is int for c in b.terms.values())


def test_split_operand():
    f = LieElement(XY, {(0, 0, 1): Fraction(-3, 4), (0, 1, 1): Fraction(9, 2)})
    c, p = ihara._split_operand(f)
    assert c == Fraction(-3, 4) and p.terms == {(0, 0, 1): 1, (0, 1, 1): -6}
    assert p.scale(c) == f
    assert all(type(a) is int for a in p.terms.values())
    c, p = ihara._split_operand(f.scale(Fraction(-4, 3)))
    assert type(c) is int and c == 1 and p.terms == {(0, 0, 1): 1,
                                                     (0, 1, 1): -6}
    # coefficients outside Z and Q key on a copy of the element
    g = LieElement(XY, {(0, 1): 1.5})
    c, p = ihara._split_operand(g)
    assert c == 1 and p == g and p is not g


def test_rescaled_operand_reuses_derivation_images():
    s3, s7, s9 = (soule_generator(m) for m in (3, 7, 9))
    ihara.clear_caches()
    ihara_bracket(s3, s7)
    d3 = ihara._operand_derivation(s3)
    size = len(d3._cache)
    assert size
    for s in SCALES:
        ihara_bracket(s3.scale(s), s7.scale(-2))
        ihara_bracket(s7, s3.scale(s))
    assert len(d3._cache) == size
    assert ihara._operand_derivation(s3) is d3
    # two distinct primitive operands so far
    assert ihara._operand_derivation.cache_info().currsize == 2
    # a new right-hand side adds images, but no derivation entry for s3
    ihara_bracket(s3.scale(-1), s9)
    assert len(d3._cache) > size
    assert ihara._operand_derivation.cache_info().currsize == 3


def test_operand_derivation_cache_is_bounded():
    ihara.clear_caches()
    cache = ihara._operand_derivation
    maxsize = cache.cache_parameters()["maxsize"]
    assert maxsize == 64
    for k in range(1, maxsize + 10):
        f = LieElement(XY, {(0, 0, 1): 1, (0, 1, 1): k})
        ihara_bracket(f.scale(k + 1), Y, verify=False)
        assert cache.cache_info().currsize <= maxsize
    assert cache.cache_info().currsize == maxsize


def test_bracket_cache_computes_each_primitive_pair_once():
    s3, s5 = soule_generator(3), soule_generator(5)
    ihara.clear_caches()
    cache = ihara._primitive_bracket
    for s in SCALES:
        for t in SCALES:
            # rescaled, negated and swapped operands share one bracket
            for f, g in ((s3.scale(s), s5.scale(t)),
                         (s5.scale(t), s3.scale(s))):
                assert ihara_bracket(f, g) == _reference_bracket(f, g)
    assert cache.cache_info().misses == 1
    # <p, p> = 0, never computed, nor is a bracket with zero
    assert not ihara_bracket(s3.scale(2), s3.scale(-5))
    assert not ihara_bracket(LieElement.zero(XY), s5)
    assert cache.cache_info().misses == 1
    assert cache.cache_info().currsize == 1


def test_bracket_cache_hands_out_copies():
    s3, s7 = soule_generator(3), soule_generator(7)
    want = _reference_bracket(s3, s7)
    ihara.clear_caches()
    for f, g, sign in ((s3, s7, 1), (s7, s3, -1), (s3.scale(-1), s7, -1)):
        got = ihara_bracket(f, g)
        assert got == want.scale(sign)
        got.terms.clear()
        got.terms[(0, 1)] = 1
    assert ihara_bracket(s3, s7) == want
    assert ihara_bracket(s7, s3) == -want


def test_bracket_results_own_their_terms():
    # a caller mutating a bracket, or a basis element it bracketed,
    # reaches neither the operands, the kept bracket, the kept
    # derivation images nor later results
    ihara.clear_caches()
    s3, f8 = soule_generator(3), special_basis(8)[0]
    saved = (dict(s3.terms), dict(f8.terms))
    want = _reference_bracket(s3, f8)
    (_, p3), (_, p8) = ihara._split_operand(s3), ihara._split_operand(f8)
    misses = ihara._primitive_bracket.cache_info().misses + 1
    for f, g in ((s3, f8), (f8.scale(2), s3), (s3.scale(-1), f8)):
        got = ihara_bracket(f, g)
        got.terms.clear()
        got.terms[(0, 1)] = 1
    first, second = sorted((p3, p8), key=ihara._bracket_order)
    sign = 1 if first == p3 else -1
    kept = ihara._primitive_bracket(first, second)
    assert ihara._primitive_bracket.cache_info().misses == misses
    assert kept == want.scale(sign)
    images = {p: {w: dict(t) for w, t in ihara._operand_derivation(p)
                  ._cache.items()} for p in (p3, p8)}
    basis = special_basis(8)
    basis[0].terms.clear()
    assert (dict(s3.terms), dict(f8.terms)) == saved
    assert ihara_bracket(s3, special_basis(8)[0]) == want
    assert ihara_bracket(f8, s3) == -want
    assert ihara._primitive_bracket(first, second) is kept
    assert kept == want.scale(sign)
    assert ihara._primitive_bracket.cache_info().misses == misses
    assert {p: ihara._operand_derivation(p)._cache
            for p in (p3, p8)} == images


def test_congruence_sign_table_reuses_two_brackets():
    for m in (3, 5, 7, 9):
        soule_generator(m)
    ihara._primitive_bracket.cache_clear()
    report = check_congruence(7)
    assert len(report["discrepancy"]["sign_table"]) == 16
    # <s3, s9> and <s5, s7>, for the headline and all 16 sign choices
    assert ihara._primitive_bracket.cache_info().misses == 2


def test_lower_bound_brackets_serve_later_queries():
    ihara.clear_caches()
    special_dim(10)
    before = ihara._primitive_bracket.cache_info()
    assert before.currsize
    s3, s7 = special_basis(3)[0], special_basis(7)[0]
    assert ihara_bracket(s3, s7) == _reference_bracket(s3, s7)
    after = ihara._primitive_bracket.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 1


def test_bracket_cache_is_bounded():
    ihara.clear_caches()
    cache = ihara._primitive_bracket
    maxsize = cache.cache_parameters()["maxsize"]
    assert maxsize == 64
    for k in range(1, maxsize + 10):
        f = LieElement(XY, {(0, 0, 1): 1, (0, 1, 1): k})
        ihara_bracket(f.scale(k + 1), Y, verify=False)
        assert cache.cache_info().currsize <= maxsize
    assert cache.cache_info().currsize == maxsize


def test_congruence_default():
    report = check_congruence()
    assert report["divisible"]
    assert report["degree"] == 12
    assert report["coordinate_gcd"] % 691 == 0
    assert report["coordinate_gcd"] % 5 != 0
    assert "discrepancy" not in report


def test_congruence_failure_reports_signs():
    # a modulus that does not divide the combination: the report must
    # include the sign-flip table rather than just a bare verdict
    report = check_congruence(modulus=97, combination=((1, 3, 5),))
    assert not report["divisible"]
    disc = report["discrepancy"]
    assert disc["generator_degrees"] == [3, 5]
    assert len(disc["sign_table"]) == 4
    assert not disc["some_sign_choice_works"]
    with pytest.raises(ValueError):
        check_congruence(modulus=1)


def test_freeness_table():
    rows = freeness_table(10)
    expected = image_model_dims(10)
    assert [r["degree"] for r in rows] == list(range(2, 11))
    for r in rows:
        assert r["match"], r
        assert r["expected"] == expected[r["degree"]]
    with pytest.raises(ValueError):
        freeness_table(2)


@pytest.mark.slow
def test_freeness_table_through_12():
    rows = freeness_table(12)
    assert all(r["match"] for r in rows)
    assert [r["computed"] for r in rows if r["degree"] >= 11] == [2, 2]


def test_clear_caches_rebuilds_identical_bases(force_five_cycle):
    # start cold: earlier tests leave the caches of other budgets behind;
    # the 5-cycle route decides every degree, so that its caches fill
    force_five_cycle()
    before = {n: special_basis(n) for n in range(2, 10)}
    first = {ihara._budgets(n)[0] for n in range(2, 10)}
    # fill the full-fiber caches too, next to the quotient ones
    _pentagon_rows(8, [f.terms for f in _hex_pairs(8)], None)
    assert {k[0] for k in ihara._ACT_ON_WORD} == {None, *first}
    ihara_bracket(before[3][0], before[5][0])
    assert ihara._operand_derivation.cache_info().currsize
    assert ihara._operand_is_stable.cache_info().currsize
    assert ihara._primitive_bracket.cache_info().currsize
    # the stuffle cut, which the fixture bypasses, fills the shared
    # tensor-coefficient memo and gives the bases the 5-cycle route gave

    def stuffle_bases():
        return {n: list(_stuffle_cut(n, ihara._lower_bound(n)[0])[0])
                for n in range(2, 10)}

    assert stuffle_bases() == before
    assert ihara._TENSOR_MEMO and ihara._content_words.cache_info().currsize
    ihara.clear_caches()
    assert not any(ihara._EVAL_CACHE) and not ihara._ACT_ON_WORD
    assert not ihara._ACT_IM and not ihara._STABLE_ROWS
    assert not ihara._TENSOR_MEMO
    # every lru_cache of the module, so that a new one is not missed: six
    # per-degree caches, the candidate words of the tensor coefficients,
    # the per-operand derivations and verdicts of ihara_bracket, and its
    # brackets per pair of operands
    cached = [f for f in vars(ihara).values() if hasattr(f, "cache_info")
              and f.__module__ == ihara.__name__]
    assert len(cached) == 10
    assert all(f.cache_info().currsize == 0 for f in cached)
    assert ihara._operand_derivation.cache_info().currsize == 0
    assert {n: special_basis(n) for n in range(2, 10)} == before
    assert not ihara._TENSOR_MEMO
    assert stuffle_bases() == before
    # the bounds decided every degree, so only the quotient was evaluated,
    # and only on the factors of degree-9 words, not on the words
    keys = [k for c in (*ihara._EVAL_CACHE, ihara._ACT_IM) for k in c]
    assert {cap for cap, _ in keys} == first
    assert {k[0] for k in ihara._ACT_ON_WORD} == first
    assert max(len(_word_of(w)) for c in ihara._EVAL_CACHE
               for _, w in c) == 8
