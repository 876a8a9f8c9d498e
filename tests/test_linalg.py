"""Exact linear algebra: kernels, echelon forms, Smith form, modular ranks."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from grtlab import (
    LieElement,
    PreconditionError,
    bracket,
    in_row_space,
    kernel_basis,
    kernel_dim,
    kernel_dim_mod,
    quotient_invariants,
    rank,
    rank_mod,
    reduced_echelon,
    smith_normal_form,
)
from grtlab import ihara, malcev
from grtlab.linalg import (_column_kernel, _echelon, _kernel_of_echelon,
                           _rows_of, _sparse)
from grtlab.words import _lyndon_tuples

from conftest import (random_int_matrix, stacked_special_dense,
                      stacked_specials, symmetry_defects)

PRIMES = [23, 101, 997]
# 5-cycle fiber budgets: the a1-degree <= 1 quotient alone, and the one
# the schedule tries first in degrees 11 to 13
A1_ONLY = (1, None)
A2_LE_4 = (1, 4)


# ---------------------------------------------------------------------------
# Reference: fraction-free and modular elimination over dense rows, a
# route independent of the sparse eliminator in grtlab.linalg, for the
# differential tests.


def _reduce_content(ints: list[int]) -> list[int]:
    g = 0
    for x in ints:
        g = gcd(g, x)
        if g == 1:
            return ints
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def _primitive_int_row(row) -> list[int]:
    """Scale a rational row to integers and divide out the content.
    Sign is preserved."""
    if all(type(x) is int for x in row):
        return _reduce_content(list(row))
    fracs = [x if isinstance(x, Fraction) else Fraction(x) for x in row]
    mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
    return _reduce_content([int(f * mult) for f in fracs])


def _sign_normalize(row: list[int]) -> list[int]:
    for x in row:
        if x:
            return row if x > 0 else [-y for y in row]
    return row


def _echelon_int(rows: list[list]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form.  Returns the nonzero echelon rows
    (primitive integral) and the list of pivot columns."""
    work = [_primitive_int_row(r) for r in rows]
    work = [r for r in work if any(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        best = None
        for i in range(r, len(work)):
            v = work[i][col]
            if v and (best is None or abs(v) < abs(work[best][col])):
                best = i
        if best is None:
            continue
        work[r], work[best] = work[best], work[r]
        a = work[r][col]
        for i in range(r + 1, len(work)):
            b = work[i][col]
            if b:
                g = gcd(a, b)
                fa, fb = a // g, b // g
                work[i] = _reduce_content(
                    [fa * x - fb * y for x, y in zip(work[i], work[r])])
        work = work[:r + 1] + [row for row in work[r + 1:] if any(row)]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return [work[i] for i in range(r)], pivots


def _clear_above_pivots(ech: list[list[int]], pivots: list[int]) -> None:
    """Fraction-free back elimination, in place: turns the echelon form
    from :func:`_echelon_int` into a reduced one, each pivot column zero
    outside its pivot row.  Rows stay primitive integral."""
    for i in reversed(range(len(ech))):
        p = pivots[i]
        a = ech[i][p]
        for j in range(i):
            c = ech[j][p]
            if c:
                g = gcd(a, c)
                fa, fc = a // g, c // g
                ech[j] = _reduce_content(
                    [fa * x - fc * y for x, y in zip(ech[j], ech[i])])


def _rows_mod(rows: list[list], p: int) -> list[list[int]]:
    out = []
    for row in rows:
        new = []
        for x in row:
            if type(x) is int:
                new.append(x % p)
                continue
            f = x if isinstance(x, Fraction) else Fraction(x)
            if f.denominator % p == 0:
                raise ZeroDivisionError(
                    f"denominator divisible by {p} in modular reduction")
            new.append(f.numerator * pow(f.denominator, -1, p) % p)
        out.append(new)
    return out


def _reference_rank_mod(m, p: int) -> int:
    """Rank over GF(p); p must be prime.  Rows below the pivot row are
    zero left of the pivot column, so updates start at that column."""
    work = _rows_mod([list(r) for r in m], p)
    work = [r for r in work if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][col], -1, p)
        tail = [x * inv % p for x in work[r][col:]]
        for row in work[r + 1:]:
            c = row[col]
            if c:
                row[col:] = [(x - c * y) % p
                             for x, y in zip(row[col:], tail)]
        r += 1
        if r == len(work):
            break
    return r


def _reference_mat_mul(a, b):
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _reference_smith(m):
    """The Smith form by the dense scans that :func:`smith_normal_form`
    replaced: the same operation sequence, the pivot found by scanning
    every entry of the trailing block, the divisor check by scanning
    every entry below and right of the pivot, and U A V re-multiplied
    densely.  Returns (U, D, V)."""
    A = [list(row) for row in m]
    nr = len(A)
    nc = len(A[0]) if A else 0
    U = [[int(i == j) for j in range(nr)] for i in range(nr)]
    V = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i, j, q):
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):
        for row in A + V:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A + V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nr, nc):
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if A[i][j] and (pivot is None
                                or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if A[i][t]:
                    row_op(i, t, A[i][t] // A[t][t])
                    if A[i][t]:
                        swap_rows(i, t)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, nc):
                if A[t][j]:
                    col_op(j, t, A[t][j] // A[t][t])
                    if A[t][j]:
                        swap_cols(j, t)
                        dirty = True
                        break
            if dirty:
                continue
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if A[i][j] % A[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)
        t += 1
    for i in range(min(nr, nc)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    assert _reference_mat_mul(_reference_mat_mul(U, m), V) == A
    return U, A, V


# ---------------------------------------------------------------------------


def _mat_vec(rows, x):
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


def test_rank_hand_values():
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[Fraction(1, 2), Fraction(1, 3)]]) == 1


def test_kernel_vectors_annihilate():
    rng = random.Random(301)
    for _ in range(30):
        m = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        basis = kernel_basis(m)
        assert len(basis) == kernel_dim(m)
        for v in basis:
            assert all(s == 0 for s in _mat_vec(m, v))
        # rank-nullity
        assert rank(m) + kernel_dim(m) == len(m[0])


def test_kernel_basis_is_canonical():
    # invariant under row shuffles and row scaling
    rng = random.Random(302)
    for _ in range(20):
        m = random_int_matrix(rng, 4, 6)
        basis = kernel_basis(m)
        shuffled = m[:]
        rng.shuffle(shuffled)
        factors = [rng.choice([1, 2, -3]) for _ in shuffled]
        scaled = [[c * x for x in row] for c, row in zip(factors, shuffled)]
        assert kernel_basis(scaled) == basis
        # each vector primitive with positive leading entry
        for v in basis:
            nz = [x for x in v if x]
            assert nz and nz[0] > 0


def _kernel_by_fractions(m):
    """Kernel read off the echelon form by Fraction back-substitution,
    the reference route for the fraction-free read-off."""
    ncols = len(m[0])
    ech, pivots = _echelon_int(m)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [0] * ncols
        x[f] = Fraction(1)
        for i in reversed(range(len(ech))):
            p = pivots[i]
            s = sum(ech[i][j] * x[j] for j in range(p + 1, ncols) if x[j])
            x[p] = -Fraction(s, ech[i][p])
        basis.append(_sign_normalize(_primitive_int_row(x)))
    return basis


def _rank_deficient(rng, rows, cols, rank):
    """A random rows x cols integer matrix of rank at most ``rank``, with
    a column zeroed now and then."""
    left = random_int_matrix(rng, rows, rank, bound=4)
    right = random_int_matrix(rng, rank, cols, bound=4)
    m = [[sum(row[k] * right[k][j] for k in range(rank))
          for j in range(cols)] for row in left]
    for j in range(cols):
        if rng.random() < 0.2:
            for row in m:
                row[j] = 0
    return m


def test_kernel_read_off_matches_fraction_route():
    rng = random.Random(308)
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 9)
        m = _rank_deficient(rng, rows, cols, rng.randint(0, min(rows, cols)))
        assert kernel_basis(m) == _kernel_by_fractions(m)
    for cols in range(1, 6):
        m = [[rng.randint(-5, 5) for _ in range(cols)]]
        assert kernel_basis(m) == _kernel_by_fractions(m)
        assert kernel_basis([[0] * cols]) == _kernel_by_fractions(
            [[0] * cols])
    for n in range(2, 10):
        m = stacked_special_dense(n)
        assert kernel_basis(m) == _kernel_by_fractions(m)


def test_kernel_read_off_leaves_cached_echelon_alone():
    for n in (7, 9, 10):
        red, pivots = _cut_echelon(n, A1_ONLY)
        before = [dict(row) for row in red], list(pivots)
        _kernel_of_echelon(red, pivots, len(ihara._hex_pairs(n)))
        assert (red, pivots) == before
        # the cached D_n rows survive every reduction against them
        _, rows, piv, _ = ihara._stable_pairs(n)
        cached = [dict(row) for row in rows], list(piv)
        for f in [*ihara._hex_pairs(n), *ihara.special_basis(n)]:
            ihara.is_stable(f)
        ihara._lower_bound(n, ((), rows, piv))
        assert ([dict(row) for row in rows], list(piv)) == cached


def _dense(cols, keys=None):
    """The dense matrix whose column j is the sparse dict cols[j], one row
    per key of ``keys``, by default every key met, in order of appearance."""
    if keys is None:
        keys = dict.fromkeys(k for col in cols for k in col)
    return [[col.get(k, 0) for col in cols] for k in keys]


def _cut_echelon(n, cap, p=None):
    """Reduced echelon form of the 5-cycle cut matrix in degree n: the
    fiber-word columns of the hex elements transposed into sparse rows."""
    rows = {}
    for j, col in enumerate(ihara._pentagon_rows(
            n, [f.terms for f in ihara._hex_pairs(n, p)], cap)):
        for v, c in col.items():
            rows.setdefault(v, {})[j] = c
    sparse = (_sparse(row, p) for row in rows.values())
    return _echelon([row for row in sparse if row], p, reduced=True)


def _cut_matrix(n, cap, p=None):
    """The dense fiber word x hex matrix of the 5-cycle cut in degree n,
    on the hex basis over GF(p) when p is given."""
    cols = ihara._pentagon_rows(
        n, [f.terms for f in ihara._hex_pairs(n, p)], cap)
    words = sorted({v for col in cols for v in col})
    return [[col.get(v, 0) for col in cols] for v in words]


def _symmetry_matrix(n):
    """The 2- and 3-cycle conditions on the specials of degree n, one
    column per special: the matrix whose kernel gives the hex space."""
    basis = _lyndon_tuples((1, 1), n)
    return [list(row) for row in zip(*(
        [defect.terms.get(w, 0) for defect in symmetry_defects(f)
         for w in basis] for f in stacked_specials(n)))]


def _differential_inputs():
    """Seeded integer and Fraction matrices of every shape the eliminator
    meets, then the matrices of the staged stable-space route in low
    degree, over the rationals and mod p."""
    rng = random.Random(310)
    for _ in range(40):
        rows, cols = rng.randint(1, 8), rng.randint(1, 9)
        m = _rank_deficient(rng, rows, cols, rng.randint(0, min(rows, cols)))
        if rng.random() < 0.3:
            m.insert(rng.randint(0, rows), [0] * cols)
        yield m
        # Fractions with denominators prime to every p tested
        yield [[Fraction(x, rng.choice([1, 5, 7, 35])) for x in row]
               for row in m]
    for k in range(1, 6):
        yield [[rng.randint(-5, 5) for _ in range(k)]]
        yield [[rng.randint(-5, 5)] for _ in range(k)]
        yield [[0] * k]
    for n in range(2, 11):
        yield stacked_special_dense(n)
        for cap in ((A1_ONLY, A2_LE_4, None) if n <= 8
                    else (A1_ONLY, A2_LE_4)):
            m = _cut_matrix(n, cap)
            if m:
                yield m
    for n in range(2, 11):
        m = _symmetry_matrix(n)
        if m:
            yield m
    for n in range(5, 10):
        m = _cut_matrix(n, A1_ONLY, 101)
        if m:
            yield m


def test_eliminator_matches_dense_reference():
    rng = random.Random(311)
    for m in _differential_inputs():
        ech, pivots = _echelon_int(m)
        assert rank(m) == len(ech)
        assert _echelon(_rows_of(m)[0])[1] == pivots
        assert kernel_basis(m) == _kernel_by_fractions(m)
        red = [list(row) for row in ech]
        _clear_above_pivots(red, pivots)
        assert reduced_echelon(m) == [_sign_normalize(r) for r in red]
        ncols = len(m[0])
        probes = [list(m[rng.randrange(len(m))]),
                  [rng.randint(-3, 3) for _ in range(ncols)],
                  [sum(rng.randint(-2, 2) * row[j] for row in m)
                   + (j == rng.randrange(ncols)) for j in range(ncols)]]
        for v in probes:
            assert in_row_space(m, v) == (
                len(_echelon_int(m + [v])[0]) == len(ech))
        _check_column_kernel(m, [{i: row[j] for i, row in enumerate(m)
                                  if row[j]} for j in range(ncols)])
    # tuple row keys and an empty column
    m = _rank_deficient(random.Random(312), 6, 5, 3)
    for row in m:
        row[2] = 0
    cols = [{("r", i % 3, i): row[j] for i, row in enumerate(m) if row[j]}
            for j in range(5)]
    assert cols[2] == {}
    _check_column_kernel(m, cols)


def _check_column_kernel(m, cols):
    """_column_kernel of the columns of m, given as sparse dicts, is
    kernel_basis(m) over Q; mod p its vectors annihilate m and there are
    ncols - rank_mod(m, p) of them."""
    assert _column_kernel(cols) == kernel_basis(m)
    for p in (2, 3, 23, 101):
        r = _reference_rank_mod(m, p)
        assert rank_mod(m, p) == r
        kernel = _column_kernel(cols, p)
        assert len(kernel) == len(cols) - r
        for v in kernel:
            assert all(s % p == 0 for s in _mat_vec(_rows_mod(m, p), v))


def test_five_cycle_echelon_matches_dense_reference():
    for n in range(2, 11):
        hexes = ihara._hex_pairs(n)
        for cap in (A1_ONLY, A2_LE_4):
            dense = _cut_matrix(n, cap)
            red, pivots = _cut_echelon(n, cap)
            assert pivots == _echelon_int(dense)[1]
            if dense:
                assert (_kernel_of_echelon(red, pivots, len(hexes))
                        == _kernel_by_fractions(dense))


def test_reduced_echelon_properties():
    rng = random.Random(303)
    for _ in range(20):
        m = random_int_matrix(rng, 5, 5)
        ech = reduced_echelon(m)
        shuffled = m[:]
        rng.shuffle(shuffled)
        assert reduced_echelon(shuffled) == ech
        assert len(ech) == rank(m)
        # every original row reduces to zero against the echelon rows
        for row in m:
            assert in_row_space(ech, row)
        for erow in ech:
            assert in_row_space(m, erow)


def test_in_row_space():
    rows = [[1, 0, 1], [0, 1, 1]]
    assert in_row_space(rows, [1, 1, 2])
    assert in_row_space(rows, [Fraction(1, 2), 0, Fraction(1, 2)])
    assert not in_row_space(rows, [0, 0, 1])


def test_smith_normal_form_factorization():
    rng = random.Random(304)
    for _ in range(20):
        m = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        res = smith_normal_form(m)
        inv = res.invariants
        # divisibility chain
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0
        assert all(d > 0 for d in inv)
        assert len(inv) == rank(m)


def test_smith_rejects_fractions():
    with pytest.raises(ValueError):
        smith_normal_form([[Fraction(1, 2)]])


def _free_level(k, m, ordered_pairs_only):
    """The degree-m coordinate rows of the left-normed m-fold brackets of
    the k letters, over every index tuple or over those with i1 < i2."""
    gens = [LieElement(malcev._free_alphabet(k), {(i,): 1}) for i in range(k)]
    level = [(i,) for i in range(k)]
    for _ in range(1, m):
        level = [t + (i,) for t in level for i in range(k)]
    if ordered_pairs_only:
        level = [t for t in level if t[0] < t[1]]
    rows = []
    for t in level:
        e = gens[t[0]]
        for i in t[1:]:
            e = bracket(e, gens[i])
        rows.append(e.coordinates(m))
    return rows


def _with_repeats(rng, m):
    """m with some of its rows appended again, some of them negated."""
    out = [list(row) for row in m]
    for _ in range(rng.randint(1, 4)):
        row = rng.choice(m)
        out.append([-x for x in row] if rng.random() < 0.5 else list(row))
    rng.shuffle(out)
    return out


def test_smith_matches_dense_reference():
    rng = random.Random(20261020)
    mats = []
    for _ in range(120):
        nr, nc = rng.randint(0, 8), rng.randint(1, 8)
        density = rng.random()
        bound = rng.choice([1, 2, 3, 9])
        m = [[rng.randint(-bound, bound) if rng.random() < density else 0
              for _ in range(nc)] for _ in range(nr)]
        mats.append(m)
        if m:
            mats.append(_with_repeats(rng, m))
    # tall sparse lattice matrices: the 64 x 9 level-6 matrix of two
    # letters over every index tuple, and the 243 x 116 one of three
    # letters over the tuples with i1 < i2
    big = [_free_level(2, 6, False), _free_level(3, 6, True)]
    assert [(len(m), len(m[0])) for m in big] == [(64, 9), (243, 116)]
    for m in mats + big:
        res = smith_normal_form(m)
        assert (res.U, res.D, res.V) == _reference_smith(m)


def test_smith_of_matrices_without_columns():
    for nr in range(4):
        res = smith_normal_form([[] for _ in range(nr)])
        assert res.U == [[int(i == j) for j in range(nr)] for i in range(nr)]
        assert res.D == [[] for _ in range(nr)]
        assert res.V == []
        assert res.invariants == []
    assert quotient_invariants([[]], 0) == (0, [])
    assert quotient_invariants([[], []], 0) == (0, [])


def test_quotient_invariants_ignore_zero_and_repeated_rows():
    rng = random.Random(20261021)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = random_int_matrix(rng, rng.randint(1, 6), n,
                              bound=rng.choice([2, 9]))
        want = quotient_invariants(m, n)
        assert quotient_invariants(m + [[0] * n], n) == want
        assert quotient_invariants([[0] * n] + m, n) == want
        repeated = _with_repeats(rng, m)
        assert quotient_invariants(repeated, n) == want
        # the Smith form of every row, the repeats included, agrees
        D = _reference_smith(repeated)[1]
        inv = [D[i][i] for i in range(min(len(D), n)) if D[i][i]]
        assert want == (n - len(inv), [d for d in inv if d > 1])
    assert quotient_invariants([[0, 0], [0, 0]], 2) == (2, [])
    assert (quotient_invariants([[2, 0], [-2, 0], [0, 3], [2, 0]], 2)
            == (0, [6]))
    # equal up to sign means all entries at once, not entry by entry
    assert quotient_invariants([[1, -1], [1, 1]], 2) == (0, [2])


def test_quotient_invariants_hand_values():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6
    assert quotient_invariants([[2, 0], [0, 3]], 2) == (0, [6])
    # Z^2 / <(1,0)> = Z
    assert quotient_invariants([[1, 0]], 2) == (1, [])
    # Z^2 / <(2,2),(0,4)> : SNF diag(2,4)
    assert quotient_invariants([[2, 2], [0, 4]], 2) == (0, [2, 4])
    # empty relation set
    assert quotient_invariants([], 3) == (3, [])
    with pytest.raises(ValueError):
        quotient_invariants([[1, 2, 3]], 2)


def test_quotient_invariants_random_consistency():
    # the quotient's free rank equals ambient minus rational rank
    rng = random.Random(305)
    for _ in range(15):
        n = rng.randint(1, 5)
        m = random_int_matrix(rng, rng.randint(1, 5), n)
        free, torsion = quotient_invariants(m, n)
        assert free == n - rank(m)
        assert all(d > 1 for d in torsion)


def test_modular_rank_bounds():
    rng = random.Random(306)
    for _ in range(20):
        m = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        r = rank(m)
        for p in PRIMES:
            rp = rank_mod(m, p)
            assert rp <= r
            assert kernel_dim_mod(m, p) == len(m[0]) - rp
    # drop happens exactly at primes dividing an invariant factor
    m = [[2, 0], [0, 3]]
    assert rank_mod(m, 2) == 1
    assert rank_mod(m, 3) == 1
    assert rank_mod(m, 5) == 2
    assert rank_mod(m, 2 ** 61 - 1) == 2
    # a modulus that is not a prime below 2^64 is refused, not used
    for p in (0, 1, 4, 9, 91, 3215031751, 2 ** 64 + 13, 2.0):
        for call in (rank_mod, kernel_dim_mod):
            with pytest.raises(PreconditionError):
                call([[2, 1], [1, 1]], p)


def test_rank_mod_agrees_generically():
    # invariants coprime to p leave the rank unchanged
    rng = random.Random(307)
    for _ in range(15):
        m = random_int_matrix(rng, 4, 4)
        inv = smith_normal_form(m).invariants
        for p in PRIMES:
            if all(d % p for d in inv):
                assert rank_mod(m, p) == rank(m)


def test_rank_mod_integer_and_fraction_entries_agree():
    # integer entries reduce with x % p, fractions through the inverse
    # of the denominator; the same matrix must give the same rank
    rng = random.Random(309)
    for _ in range(20):
        m = _rank_deficient(rng, rng.randint(1, 6), rng.randint(1, 7),
                            rng.randint(0, 4))
        fr = [[Fraction(x) for x in row] for row in m]
        for p in PRIMES + [2, 3]:
            assert rank_mod(m, p) == rank_mod(fr, p)
        assert rank_mod(m, 997) == rank(m)
    with pytest.raises(ZeroDivisionError):
        rank_mod([[Fraction(1, 23)]], 23)


def test_kernel_of_fraction_rows():
    m = [[Fraction(1, 2), 1], [1, 2]]
    assert kernel_basis(m) == [[2, -1]]
    assert rank(m) == 1
    with pytest.raises(ValueError):
        kernel_basis([[1, 2], [3]])
