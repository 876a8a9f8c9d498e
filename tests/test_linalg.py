"""Exact linear algebra: kernels, echelon forms, Smith form, modular ranks."""

import json
import random
from fractions import Fraction

import pytest

from grtlab import (
    RatMatrix,
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
from grtlab import ihara
from grtlab.linalg import (FullRankSolver, _echelon_int, _primitive_int_row,
                           _sign_normalize)

from conftest import random_int_matrix

PRIMES = [23, 101, 997]


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
        m = ihara._special_pair_matrix(n)
        assert kernel_basis(m) == _kernel_by_fractions(m)


def test_kernel_read_off_leaves_cached_echelon_alone():
    for n in (7, 9, 10):
        _, ech, _, _ = ihara._hex_cut(n)
        before = [list(row) for row in ech]
        ihara._stable_pairs.cache_clear()
        ihara._stable_pairs(n)
        assert ech == before


def test_full_rank_solver_roundtrip():
    rng = random.Random(307)
    solved = 0
    for _ in range(40):
        nr = rng.randint(1, 7)
        m = random_int_matrix(rng, nr, rng.randint(1, nr))
        if rank(m) < len(m[0]):
            with pytest.raises(ValueError):
                FullRankSolver(m)
            continue
        solver = FullRankSolver(m)
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
             for _ in m[0]]
        b = _mat_vec(m, x)
        assert solver.solve(b) == x
        solved += 1
        # a right-hand side outside the column space has no solution
        if nr > len(m[0]):
            off = list(b)
            off[rng.randrange(nr)] += 1
            if not in_row_space([list(c) for c in zip(*m)], off):
                assert solver.solve(off) is None
    assert solved > 20
    with pytest.raises(ValueError):
        FullRankSolver([[Fraction(1, 2)]])


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


def test_rat_matrix_json_roundtrip():
    m = RatMatrix.from_rows([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    blob = json.dumps(m.to_json(), sort_keys=True)
    back = RatMatrix.from_json(json.loads(blob))
    assert back == m
    with pytest.raises(ValueError):
        RatMatrix.from_rows([[1, 2], [3]])
    bad = m.to_json()
    bad["rows"] = 5
    with pytest.raises(ValueError):
        RatMatrix.from_json(bad)


def test_kernel_of_rat_matrix_input():
    m = RatMatrix.from_rows([[Fraction(1, 2), 1], [1, 2]])
    assert kernel_basis(m) == [[2, -1]]
    assert rank(m) == 1
