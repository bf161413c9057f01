"""Factorization over F_q[t]: squarefree parts, radicals, full factoring."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fqtlab import (FiniteField, Poly, enumerate_monic_irreducibles, factor,
                    is_irreducible, monic_polys_of_degree, pth_root, radical,
                    squarefree_decomposition)
from fqtlab import poly as poly_module
from fqtlab.factor import distinct_degree_split

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
F9 = FiniteField(3, 2)
t = Poly(F2, [0, 1])


def P2(*cs):
    return Poly(F2, list(cs))


def test_factor_frozen_f2():
    # t^4 + t = t (t+1) (t^2+t+1)
    fl = factor(P2(0, 1, 0, 0, 1))
    assert fl.unit == 1
    assert fl.factors == ((t, 1), (P2(1, 1), 1), (P2(1, 1, 1), 1))
    assert fl.max_degree() == 2
    # (t+1)^2 = t^2 + 1
    fl = factor(P2(1, 0, 1))
    assert fl.factors == ((P2(1, 1), 2),)


def test_factor_frozen_f3():
    two_t_plus_one = Poly(F3, [1, 2])
    fl = factor(two_t_plus_one)
    assert fl.unit == 2
    assert fl.factors == ((Poly(F3, [2, 1]), 1),)
    assert fl.expand() == two_t_plus_one


def test_factor_constant_and_zero():
    fl = factor(Poly.constant(F3, 2))
    assert fl.unit == 2 and fl.factors == ()
    assert fl.expand(field=F3) == Poly.constant(F3, 2)
    with pytest.raises(ValueError):
        fl.expand()
    with pytest.raises(ZeroDivisionError):
        factor(Poly.zero(F2))


def test_squarefree_decomposition_frozen():
    # t^4 + t^2 = (t^2+t)^2 over F2
    unit, parts = squarefree_decomposition(P2(0, 0, 1, 0, 1))
    assert unit == 1
    assert parts == ((P2(0, 1, 1), 2),)
    # mixed multiplicities: t (t+1)^2
    a = t * P2(1, 1) * P2(1, 1)
    unit, parts = squarefree_decomposition(a)
    assert parts == ((t, 1), (P2(1, 1), 2))


def test_pth_root():
    # (t^2+t+1)^2 = t^4+t^2+1 over F2
    sq = P2(1, 0, 1, 0, 1)
    assert pth_root(sq) == P2(1, 1, 1)
    with pytest.raises(ValueError):
        pth_root(t)
    # F9: ninth... third root uses the field Frobenius inverse on coefficients
    a = Poly(F9, [2, 0, 0, 1])  # t^3 + 2 = (t + 2^(1/3))^3 form; cube of t + c
    r = pth_root(a)
    assert r ** 3 == a


def test_radical():
    assert radical(P2(0, 0, 1)) == t                      # rad(t^2) = t
    assert radical(P2(0, 0, 1, 0, 1)) == P2(0, 1, 1)      # rad((t^2+t)^2)
    a = P2(0, 1, 0, 0, 1)                                 # already squarefree
    assert radical(a) == a
    assert radical(radical(P2(1, 0, 1))) == radical(P2(1, 0, 1))
    with pytest.raises(ValueError):
        radical(Poly.constant(F3, 2))


def test_is_irreducible_small_f2():
    # all monic irreducibles of degree <= 4 over F2, by hand
    known = {
        (0, 1), (1, 1),
        (1, 1, 1),
        (1, 1, 0, 1), (1, 0, 1, 1),
        (1, 1, 0, 0, 1), (1, 0, 0, 1, 1), (1, 1, 1, 1, 1),
    }
    for d in range(1, 5):
        for f in monic_polys_of_degree(F2, d):
            assert is_irreducible(f) == (f.coeffs in known)


def test_is_irreducible_edge_cases():
    assert not is_irreducible(Poly.one(F2))
    assert not is_irreducible(Poly.zero(F2))
    assert is_irreducible(Poly(F9, [1, 1]))


@st.composite
def nonzero_poly(draw, field, max_index=3000):
    # index >= q skips the constants, whose FactorList has no intrinsic field
    k = draw(st.integers(min_value=field.q, max_value=max_index))
    return Poly.from_index(field, k)


@given(nonzero_poly(F2))
@settings(max_examples=50, deadline=None)
def test_factor_multiplies_back_f2(a):
    fl = factor(a)
    assert fl.expand() == a
    for p, m in fl.factors:
        assert p.monic() == p and m >= 1 and is_irreducible(p)


@given(nonzero_poly(F3, max_index=700))
@settings(max_examples=40, deadline=None)
def test_factor_multiplies_back_f3(a):
    fl = factor(a)
    assert fl.expand() == a
    for p, _ in fl.factors:
        assert is_irreducible(p)


@given(nonzero_poly(F4, max_index=600))
@settings(max_examples=30, deadline=None)
def test_factor_multiplies_back_f4(a):
    fl = factor(a)
    assert fl.expand() == a


@given(nonzero_poly(F9, max_index=600))
@settings(max_examples=20, deadline=None)
def test_factor_multiplies_back_f9(a):
    fl = factor(a)
    assert fl.expand() == a


def test_factor_deterministic_across_seeds():
    rng = random.Random(7)
    fields = [F2, F3, F4]
    for _ in range(25):
        F = rng.choice(fields)
        a = Poly.from_index(F, rng.randrange(1, 2000))
        base = factor(a, seed=0)
        for seed in (1, 17, 123456):
            assert factor(a, seed=seed) == base


def test_factor_product_of_all_quadratics():
    # product of the monic irreducible quadratics over F3 refactors exactly
    quads = enumerate_monic_irreducibles(F3, 2)
    prod = Poly.one(F3)
    for q in quads:
        prod = prod * q
    fl = factor(prod)
    assert fl.factors == tuple((q, 1) for q in sorted(quads, key=Poly.sort_key))


def _random_irreducible(field, rng, d):
    while True:
        f = Poly(field, [rng.randrange(field.q) for _ in range(d)] + [1])
        if is_irreducible(f):
            return f


def _count_series_inverses(monkeypatch):
    calls = []
    series_inverse = poly_module._series_inverse

    def counting(*args):
        calls.append(1)
        return series_inverse(*args)

    monkeypatch.setattr(poly_module, "_series_inverse", counting)
    return calls


def test_is_irreducible_builds_one_newton_inverse(monkeypatch):
    # one Modulus per call, and one inverse once its reductions have done
    # _NEWTON_WORK = 3,000 of schoolbook work.  For f of degree 40 over F_3,
    # powmod steps 1-3 leave t^3, t^9, t^27 unreduced.  Step 4 cubes t^27:
    # t^54 mod f is a quotient of 15 terms (15*40 = 600), and t^27 times
    # that residue, of degree 38, one of 26 (1,040).  Step 5 squares a
    # residue of degree 39, a quotient of 39 terms (1,560).  The sum, 3,200,
    # crosses the rule at step 5, which builds the inverse, and it serves
    # every later step.  g's step 5 squares a residue of degree 37, so
    # 600 + 1,040 + 35*40 = 3,040 crosses there too, before its first gcd
    # checkpoint, at step 8, finds a factor.
    rng = random.Random(40)
    f = _random_irreducible(F3, rng, 40)
    g = Poly(F3, [rng.randrange(3) for _ in range(40)] + [1])
    calls = _count_series_inverses(monkeypatch)
    assert is_irreducible(f)
    assert len(calls) == 1
    calls.clear()
    is_irreducible(g)
    assert len(calls) == 1


def test_distinct_degree_split_builds_one_inverse_per_modulus(monkeypatch):
    # a = (two linear) * (one cubic) * I30 * I31, degree 66, over F_3.  The
    # split runs powmod on three moduli.  Mod a (d = 1) and mod a/(linears),
    # degree 64 (d = 2, 3), h stays t^(3^d), below t^64, so neither reduces
    # anything.  Mod the degree-61 cofactor of the cubic (d = 4..30), d = 4
    # reduces t^81, a quotient of 21 terms, 21*61 = 1,281 of work, and d = 5
    # squares a full residue, a quotient of 60 terms, 60*61 = 3,660 more:
    # the sum, 4,941, crosses _NEWTON_WORK = 3,000 there, and that one
    # inverse serves the rest.  The divisions as f shrinks do 65*2 = 130,
    # 62*3 = 186, 32*30 = 960 and 26*31 = 806 of work (f // g three times,
    # then h % f), each below 3,000, so 1 inverse in all.  The two earlier
    # rules built 3, one per modulus of degree >= 26; one per powmod step
    # made 30.
    rng = random.Random(66)
    parts = [Poly(F3, [0, 1]), Poly(F3, [1, 1]),
             _random_irreducible(F3, rng, 3),
             _random_irreducible(F3, rng, 30),
             _random_irreducible(F3, rng, 31)]
    a = Poly.one(F3)
    for g in parts:
        a = a * g
    calls = _count_series_inverses(monkeypatch)
    split = distinct_degree_split(a)
    assert [d for _, d in split] == [1, 3, 30, 31]
    assert split[0][0] == parts[0] * parts[1]
    assert len(calls) == 1
