"""Truncated unipotent groups: BCH series, group words, filtration lattices."""

import itertools
import random
from fractions import Fraction

import pytest

from grtlab import (
    AssocPoly,
    ClassMismatchError,
    FreeGroup,
    GradedAlphabet,
    LatticeTimesCyclic,
    LieElement,
    LieSyntaxError,
    NilpotentElement,
    PreconditionError,
    SubgroupOfNilpotent,
    UnknownGeneratorError,
    UnsupportedFamilyError,
    bch,
    bracket,
    filtration_report,
    group_commutator,
    inverse,
    malcev,
    parse_lie,
    universal_bch,
    witt_dim,
    word_to_group,
)
from grtlab.malcev import (_commutator_levels, _exp_tensor, _log_tensor,
                           tensor_bch)

from conftest import XY, random_homogeneous


def _element(value, cls):
    return NilpotentElement(value.truncate(cls), cls)


def _random_group_element(rng, cls, nonzero_degree_one=False):
    x = random_homogeneous(XY, 1, rng)
    if nonzero_degree_one:
        while not x:
            x = random_homogeneous(XY, 1, rng)
    val = x
    for n in range(2, cls + 1):
        val = val + random_homogeneous(XY, n, rng)
    return NilpotentElement(val, cls)


def test_universal_bch_low_classes():
    u = (0,)
    v = (1,)
    assert universal_bch(1).terms == {u: 1, v: 1}
    assert universal_bch(2).terms == {u: 1, v: 1, (0, 1): Fraction(1, 2)}
    assert universal_bch(3).terms == {
        u: 1, v: 1,
        (0, 1): Fraction(1, 2),
        (0, 0, 1): Fraction(1, 12),   # [u,[u,v]]
        (0, 1, 1): Fraction(1, 12),   # [[u,v],v]
    }
    with pytest.raises(ValueError):
        universal_bch(0)


def test_universal_bch_matches_tensor_route():
    for cls in range(1, 8):
        assert universal_bch(cls) == tensor_bch(cls)


def _reference_exp(p, k):
    """exp truncated at k, each power formed in full and then truncated:
    the route the degree-bounded product replaced."""
    out = power = AssocPoly(p.alphabet, {(): 1})
    fact = 1
    for j in range(1, k + 1):
        power = (power * p).truncate(k)
        fact *= j
        out = out + power.scale(Fraction(1, fact))
    return out


def _reference_log(q, k):
    r = q - AssocPoly(q.alphabet, {(): 1})
    out = AssocPoly.zero(q.alphabet)
    power = AssocPoly(q.alphabet, {(): 1})
    for j in range(1, k + 1):
        power = (power * r).truncate(k)
        out = out + power.scale(Fraction((-1) ** (j - 1), j))
    return out


def test_tensor_exp_and_log_match_reference():
    # both BCH routes share _exp_tensor and _log_tensor, so they are
    # checked here against the full-then-truncate route and against
    # log(exp p) = p, with letter degrees 1, 2, 3 so degree != length
    rng = random.Random(604)
    for alphabet in (GradedAlphabet("u v"), GradedAlphabet("a:1 b:2 c:3")):
        for _ in range(8):
            k = rng.randint(1, 6)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                w = tuple(rng.randrange(len(alphabet))
                          for _ in range(rng.randint(1, 3)))
                terms[w] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            p = AssocPoly(alphabet, terms)
            e = _exp_tensor(p, k)
            assert e == _reference_exp(p, k)
            assert _log_tensor(e, k) == _reference_log(e, k)
            assert _log_tensor(e, k) == p.truncate(k)
    u = AssocPoly(GradedAlphabet("u v"), {(0,): 1})
    v = AssocPoly(GradedAlphabet("u v"), {(1,): 1})
    for k in range(1, 6):
        q = _reference_exp(u, k) * _reference_exp(v, k)
        assert _log_tensor(q, k) == _reference_log(q, k)


def test_identity_and_inverse():
    rng = random.Random(601)
    for _ in range(10):
        cls = rng.randint(1, 4)
        a = _random_group_element(rng, cls)
        e = NilpotentElement(LieElement.zero(XY), cls)
        assert bch(a, e) == a
        assert bch(e, a) == a
        assert bch(a, inverse(a)) == e
        assert bch(inverse(a), a) == e


def test_associativity_sample():
    rng = random.Random(602)
    for _ in range(20):
        cls = rng.randint(2, 4)
        a = _random_group_element(rng, cls)
        b = _random_group_element(rng, cls)
        c = _random_group_element(rng, cls)
        assert bch(bch(a, b), c) == bch(a, bch(b, c))


def test_commutator_leading_term():
    rng = random.Random(603)
    for _ in range(10):
        a = _random_group_element(rng, 4, nonzero_degree_one=True)
        b = _random_group_element(rng, 4, nonzero_degree_one=True)
        comm = group_commutator(a, b)
        lead = bracket(a.value.component(1), b.value.component(1))
        assert comm.value.component(2) == lead
        # abelian truncation: at class 1 all commutators die
        a1 = _element(a.value, 1)
        b1 = _element(b.value, 1)
        assert not group_commutator(a1, b1).value


def test_malcev_preconditions_raise_precondition_error():
    x = LieElement.generator(XY, "x")
    y = LieElement.generator(XY, "y")
    with pytest.raises(PreconditionError):
        NilpotentElement(x, 0)
    with pytest.raises(PreconditionError):
        NilpotentElement(bracket(x, y), 1)
    with pytest.raises(PreconditionError):
        universal_bch(0)
    with pytest.raises(PreconditionError):
        filtration_report(FreeGroup(2, 2), 0)


def test_class_bound_enforced():
    x = LieElement.generator(XY, "x")
    y = LieElement.generator(XY, "y")
    with pytest.raises(ValueError):
        NilpotentElement(bracket(x, y), 1)
    with pytest.raises(ClassMismatchError):
        bch(NilpotentElement(x, 2), NilpotentElement(y, 3))


def test_word_to_group():
    x = LieElement.generator(XY, "x")
    y = LieElement.generator(XY, "y")
    cls = 3
    gx = NilpotentElement(x, cls)
    gy = NilpotentElement(y, cls)
    assert word_to_group("", XY, cls).value == LieElement.zero(XY)
    assert word_to_group("x", XY, cls) == gx
    assert word_to_group("x^3", XY, cls).value == x.scale(3)
    assert word_to_group("x y", XY, cls) == bch(gx, gy)
    assert (word_to_group("x y x^-1 y^-1", XY, cls)
            == group_commutator(gx, gy))
    assert word_to_group("x x^-1", XY, cls).value == LieElement.zero(XY)


def test_word_to_group_errors():
    with pytest.raises(LieSyntaxError):
        word_to_group("x^two", XY, 2)
    with pytest.raises(UnknownGeneratorError) as exc:
        word_to_group("x q", XY, 2)
    assert exc.value.position == 2


def test_free_group_filtration():
    rows = filtration_report(FreeGroup(2, 3), 3)
    assert [r["rank"] for r in rows] == [2, 1, 2]
    assert all(r["d_mod_l"] == [] for r in rows)
    assert all(r["torsion"] == [] for r in rows)
    # three generators: Witt numbers 3, 3, 8
    rows3 = filtration_report(FreeGroup(3, 3), 3)
    assert [r["rank"] for r in rows3] == [3, 3, 8]
    assert all(r["d_mod_l"] == [] for r in rows3)


def test_lattice_times_cyclic_filtration():
    rows = filtration_report(LatticeTimesCyclic(1, 3), 2)
    assert rows[0] == {"m": 1, "rank": 1, "torsion": [], "d_mod_l": []}
    assert rows[1] == {"m": 2, "rank": 0, "torsion": [], "d_mod_l": [3]}
    # trivial torsion leaves no gap
    rows = filtration_report(LatticeTimesCyclic(2, 1), 3)
    assert rows[1]["d_mod_l"] == []
    assert rows[2] == {"m": 3, "rank": 0, "torsion": [], "d_mod_l": []}


def test_subgroup_filtration_with_index():
    # subgroup generated by x and 2y inside the class-2 free group
    x = LieElement.generator(XY, "x")
    y = LieElement.generator(XY, "y")
    sub = SubgroupOfNilpotent([NilpotentElement(x, 2),
                               NilpotentElement(y.scale(2), 2)])
    rows = filtration_report(sub, 2)
    assert rows[0]["rank"] == 2
    assert rows[0]["d_mod_l"] == [2]
    assert rows[1]["rank"] == 1
    assert rows[1]["d_mod_l"] == [2]


def test_filtration_rejects_bad_input():
    with pytest.raises(UnsupportedFamilyError):
        FreeGroup(0, 3)
    with pytest.raises(UnsupportedFamilyError):
        LatticeTimesCyclic(1, 0)
    with pytest.raises(UnsupportedFamilyError):
        filtration_report(FreeGroup(2, 2), 4)  # level above class + 1
    with pytest.raises(UnsupportedFamilyError):
        filtration_report(42, 2)
    with pytest.raises(ValueError):
        filtration_report(FreeGroup(2, 2), 0)
    with pytest.raises(UnsupportedFamilyError):
        SubgroupOfNilpotent([])
    # non-integral logarithm has no graded lattice
    x = LieElement.generator(XY, "x")
    half = NilpotentElement(x.scale(Fraction(1, 2)), 2)
    with pytest.raises(UnsupportedFamilyError, match="integer lattice"):
        filtration_report(SubgroupOfNilpotent([half]), 1)
    # dependent degree-1 parts: b has degree 2, and [x,y] has none
    ab = GradedAlphabet("a:1 b:2")
    weighted = [NilpotentElement(LieElement.generator(ab, name), 4)
                for name in ("a", "b")]
    with pytest.raises(UnsupportedFamilyError, match="independent"):
        filtration_report(SubgroupOfNilpotent(weighted), 4)
    starts_high = [NilpotentElement(parse_lie(text, XY), 3)
                   for text in ("[x,y]", "x")]
    with pytest.raises(UnsupportedFamilyError, match="independent"):
        filtration_report(SubgroupOfNilpotent(starts_high), 3)
    # mixed classes cannot generate one subgroup
    with pytest.raises(UnsupportedFamilyError):
        SubgroupOfNilpotent([NilpotentElement(x, 2),
                             NilpotentElement(x, 3)])


def _reference_iterated_commutators(gens, m):
    """Every left-normed m-fold group commutator of the generators, each
    built from scratch along its index tuple and keyed by that tuple, in
    lexicographic order: the route the commutator tree replaced, kept as
    its reference."""
    out = {}
    for idx in itertools.product(range(len(gens)), repeat=m):
        c = gens[idx[0]]
        for i in idx[1:]:
            c = group_commutator(c, gens[i])
        out[idx] = c
    return out


def _free_generators(k, cls):
    alphabet = malcev._free_alphabet(k)
    return [NilpotentElement(LieElement(alphabet, {(i,): 1}), cls)
            for i in range(k)]


def test_commutator_levels_match_reference():
    higher = [NilpotentElement(parse_lie(text, XY), 4)
              for text in ("x + [x,y]", "2*y - [x,[x,y]]")]
    # seeded class-5 generators whose terms above degree 1 are rational
    rng = random.Random(20261018)
    rational = []
    for _ in range(2):
        value = _random_group_element(rng, 5, nonzero_degree_one=True).value
        linear = value.component(1)
        rational.append(NilpotentElement(
            linear + (value - linear).scale(Fraction(1, 6)), 5))
    assert any(Fraction(c).denominator != 1
               for g in rational for c in g.value.terms.values())
    for gens, top in ((_free_generators(2, 5), 5),
                      (_free_generators(3, 4), 4),
                      (higher, 4),
                      (rational, 5)):
        levels = _commutator_levels(gens, top)
        assert len(levels) == top
        for m, level in enumerate(levels, start=1):
            ref = {idx: c.value.component(m) for idx, c in
                   _reference_iterated_commutators(gens, m).items()}
            assert level == [v for idx, v in ref.items()
                             if m == 1 or idx[0] < idx[1]]
            # each tuple left out brackets to zero or to the negative of
            # the tuple with its first two indices swapped
            for idx, v in ref.items():
                if m > 1 and idx[0] == idx[1]:
                    assert not v
                elif m > 1 and idx[0] > idx[1]:
                    assert v == ref[(idx[1], idx[0]) + idx[2:]].scale(-1)
    # index 2 in every level comes from the generator 2*y
    rows = filtration_report(SubgroupOfNilpotent(higher), 4)
    assert [r["rank"] for r in rows] == [2, 1, 2, 3]
    assert all(r["d_mod_l"] for r in rows)


def test_filtration_avoids_the_group_law(monkeypatch):
    def refuse(*args):
        raise AssertionError("filtration_report used the group law")

    monkeypatch.setattr(malcev, "group_commutator", refuse)
    monkeypatch.setattr(malcev, "bch", refuse)
    rows = filtration_report(FreeGroup(2, 6), 6)
    assert [r["rank"] for r in rows] == [2, 1, 2, 3, 6, 9]


def test_filtration_forms_each_commutator_once(monkeypatch):
    calls = []
    real = malcev.bracket

    def counted(a, b, *args, **kwargs):
        calls.append(1)
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(malcev, "bracket", counted)
    rows = filtration_report(FreeGroup(2, 6), 6)
    assert [r["rank"] for r in rows] == [2, 1, 2, 3, 6, 9]
    # one bracket [x, y] at level 2, then two per bracket of the level below
    assert len(calls) == sum(2 ** m for m in range(5)) == 31


def test_free_group_ranks_follow_witt_formula():
    # Witt's formula for the lower central series of a free group
    # (Magnus-Karrass-Solitar, Combinatorial Group Theory, 5.7): the
    # level-m quotient is free abelian of rank witt_dim(k, m)
    for k, cls in ((2, 10), (3, 6)):
        rows = filtration_report(FreeGroup(k, cls), cls)
        assert [r["rank"] for r in rows] == [witt_dim(k, m)
                                             for m in range(1, cls + 1)]
        assert not any(r["d_mod_l"] or r["torsion"] for r in rows)
