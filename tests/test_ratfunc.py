"""Rational functions over F_q(t), and the RatFunc reference for K[X] that
the relation solvers are tested against."""

import pytest
from hypothesis import given, settings, strategies as st

from fqtlab import (ExactDivisionError, FiniteField, Poly, RatFunc,
                    fit_polynomial)
from helpers import (kpoly, kpoly_divmod, kpoly_eval, kpoly_from_polys,
                     kpoly_mul, lagrange_interpolate)

F2 = FiniteField(2)
F3 = FiniteField(3)
t = Poly(F2, [0, 1])
one = Poly.one(F2)


def P2(*cs):
    return Poly(F2, list(cs))


def R(num, den=None):
    return RatFunc(num, den)


def test_normalization():
    # (t^2+t)/t reduces to t+1 with denominator 1
    r = R(P2(0, 1, 1), t)
    assert r.is_poly()
    assert r.to_poly() == P2(1, 1)
    # denominators are forced monic
    u = Poly(F3, [0, 2])  # 2t
    r3 = RatFunc(Poly.one(F3), u)
    assert r3.den == Poly(F3, [0, 1])
    assert r3.num == Poly.constant(F3, 2)  # 1/(2t) = 2/t


def test_zero_and_equality():
    assert RatFunc.zero(F2).is_zero()
    assert not RatFunc.zero(F2)
    assert R(t) == RatFunc.from_poly(t)
    assert R(t, P2(1, 1)) != R(t)
    assert hash(R(P2(0, 1, 1), t)) == hash(R(P2(1, 1)))


def test_arithmetic_frozen():
    # 1/t + 1/(t+1) = 1/(t^2+t)  (numerators cancel over F2)
    a = R(one, t)
    b = R(one, P2(1, 1))
    assert a + b == R(one, P2(0, 1, 1))
    assert a * b == R(one, P2(0, 1, 1))
    assert a - b == a + b
    assert (a / b) == R(P2(1, 1), t)


def test_pow():
    a = R(one, t)
    assert a ** 3 == R(one, P2(0, 0, 0, 1))
    assert a ** 0 == RatFunc.one(F2)
    assert a ** -2 == R(P2(0, 0, 1))
    with pytest.raises(ZeroDivisionError):
        RatFunc.zero(F2) ** -1


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        R(one) / RatFunc.zero(F2)
    with pytest.raises(ZeroDivisionError):
        RatFunc(one, Poly.zero(F2))
    with pytest.raises(ExactDivisionError):
        R(one, t).to_poly()


@given(st.integers(min_value=0, max_value=400), st.integers(min_value=1, max_value=400),
       st.integers(min_value=0, max_value=400), st.integers(min_value=1, max_value=400))
@settings(max_examples=60, deadline=None)
def test_field_axioms(an, ad, bn, bd):
    a = RatFunc(Poly.from_index(F2, an), Poly.from_index(F2, ad))
    b = RatFunc(Poly.from_index(F2, bn), Poly.from_index(F2, bd))
    assert a + b == b + a
    assert a * b == b * a
    assert a + (b - b) == a
    if not b.is_zero():
        assert (a / b) * b == a


def test_kpoly_divmod():
    # X^2 + 1 = (X + t)(X + t) + (t^2 + 1) over F2(t)
    a = kpoly_from_polys([one, Poly.zero(F2), one])
    b = kpoly_from_polys([t, one])
    q, r = kpoly_divmod(a, b)
    assert len(q) == 2
    # reassemble: q*b + r == a
    total = list(kpoly_mul(q, b))
    for i, c in enumerate(r):
        total[i] = total[i] + c
    assert kpoly(total) == a
    with pytest.raises(ZeroDivisionError):
        kpoly_divmod(a, ())


def test_kpoly_eval():
    # f(X) = X^2 + t at X = t+1 gives (t^2+1) + t over F2
    f = kpoly_from_polys([t, Poly.zero(F2), one])
    v = kpoly_eval(f, RatFunc.from_poly(P2(1, 1)))
    assert v == RatFunc.from_poly(P2(1, 1, 1))


def test_lagrange_frozen():
    # through (0,0), (1,1), (t, t^2): the squaring polynomial X^2
    pts = [(Poly.zero(F2), Poly.zero(F2)), (one, one), (t, t * t)]
    coeffs = lagrange_interpolate(pts)
    assert len(coeffs) == 3
    assert coeffs[2] == RatFunc.one(F2)
    assert coeffs[1].is_zero() and coeffs[0].is_zero()
    assert fit_polynomial(pts, 2).coeffs == coeffs


def test_lagrange_reproduces_samples():
    xs = [Poly.from_index(F3, k) for k in range(5)]
    f = lambda x: x ** 3 + Poly(F3, [0, 1]) * x + Poly.one(F3)
    coeffs = lagrange_interpolate([(x, f(x)) for x in xs])
    for x in xs:
        assert kpoly_eval(coeffs, RatFunc.from_poly(x)) == RatFunc.from_poly(f(x))
    assert fit_polynomial([(x, f(x)) for x in xs], 4).coeffs == coeffs


def test_lagrange_errors():
    with pytest.raises(ValueError):
        lagrange_interpolate([])
    with pytest.raises(ValueError):
        lagrange_interpolate([(t, one), (t, t)])
    with pytest.raises(ValueError, match="positions 0 and 1"):
        fit_polynomial([(t, one), (t, t)], 1)
