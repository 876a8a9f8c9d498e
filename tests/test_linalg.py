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
from grtlab.linalg import FullRankSolver

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
