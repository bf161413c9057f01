"""poly_gcd against sympy's galoistools and a Poly-level Euclid.

poly_gcd runs Euclid on kernel forms: bit-packed ints over GF(2), reversed
Kronecker forms with unreduced slots over odd p, table loops over extension
fields.  Over prime fields it must agree with `galoistools.gf_gcd`; over
F_4 and F_9, which galoistools does not cover, with `reference_gcd`, the
Euclid of one Poly division per step that poly_gcd used to be.  The primes
include 2^31 - 1 and 2^64 + 13, whose Kronecker slots are wider than eight
bytes.  poly_gcd has no size crossover, so one length range serves every
field.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fqtlab import FiniteField, Poly, factor, poly_gcd
from fqtlab import poly as poly_module

galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ

PRIMES = [2, 3, 5, 7, 2**31 - 1, 18446744073709551629]
FIELDS = {q: FiniteField(q) for q in PRIMES}
EXT_FIELDS = [FiniteField(2, 2), FiniteField(3, 2)]
MAX_LEN = 60


def reference_gcd(a, b):
    """Euclid with one Poly division per step."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def to_gf(a):
    return [int(c) for c in reversed(a.coeffs)]


@st.composite
def poly_over(draw, F, max_len=MAX_LEN):
    n = draw(st.integers(min_value=0, max_value=max_len))
    return Poly(F, draw(st.lists(st.integers(min_value=0, max_value=F.q - 1),
                                 min_size=n, max_size=n)))


@st.composite
def gcd_pair(draw, fields):
    """(a, b) = (g*u, g*v): a common factor g makes most gcds nontrivial,
    and any of g, u, v may be zero or constant."""
    F = draw(st.sampled_from(fields))
    g, u, v = (draw(poly_over(F, n)) for n in (12, MAX_LEN, MAX_LEN))
    return g * u, g * v


@given(gcd_pair([FIELDS[p] for p in PRIMES]))
@settings(max_examples=150, deadline=None)
def test_gcd_matches_gf_gcd(inst):
    a, b = inst
    p = a.field.p
    assert to_gf(poly_gcd(a, b)) == galoistools.gf_gcd(to_gf(a), to_gf(b),
                                                       p, ZZ)


@given(gcd_pair(EXT_FIELDS))
@settings(max_examples=100, deadline=None)
def test_gcd_matches_reference_over_extension_fields(inst):
    a, b = inst
    assert poly_gcd(a, b) == reference_gcd(a, b)


def _rand(F, rng, n):
    return Poly(F, [rng.randrange(F.q) for _ in range(n - 1)] + [1])


@pytest.mark.parametrize("p", [3, 7, 2**31 - 1, 18446744073709551629])
def test_long_euclid_across_slot_reductions(p, monkeypatch):
    # about 300 remainder phases and 600 division steps.  Over p <= 7 the
    # slots absorb 8 steps or more per reduction; over the large primes,
    # whose slots are widened to about 4 phases, 4 steps or more.
    F = FIELDS[p]
    rng = random.Random(p)
    g = _rand(F, rng, 6)
    a, b = g * _rand(F, rng, 300), g * _rand(F, rng, 280)
    unpacks = []
    slots = poly_module._kron_slots

    def counting_slots(buf, s, n, p):
        unpacks.append(n)
        return slots(buf, s, n, p)

    monkeypatch.setattr(poly_module, "_kron_slots", counting_slots)
    got = poly_gcd(a, b)
    monkeypatch.undo()
    assert to_gf(got) == galoistools.gf_gcd(to_gf(a), to_gf(b), p, ZZ)
    # one unpack reads the result; the rest are slot reductions
    reductions = len(unpacks) - 1
    assert reductions >= 1
    assert reductions * (8 if p <= 7 else 4) < 600


@pytest.mark.parametrize("F", list(FIELDS.values()) + EXT_FIELDS,
                         ids=lambda F: "q%d" % F.q)
def test_gcd_zero_operands(F):
    zero = Poly.zero(F)
    a = Poly(F, [1, F.q - 1, 0, F.q - 1])  # leading coefficient q-1
    assert poly_gcd(zero, zero) == zero
    assert poly_gcd(a, zero) == poly_gcd(zero, a) == a.monic()
    assert poly_gcd(a, Poly.one(F)) == Poly.one(F)
    assert poly_gcd(a, a) == a.monic()


@pytest.mark.parametrize("qs", [(2, 3), (3, 5), (4, 2), (9, 3), (4, 8)])
def test_gcd_rejects_mixed_fields(qs):
    E, F = (FiniteField(*{4: (2, 2), 8: (2, 3), 9: (3, 2)}.get(q, (q,)))
            for q in qs)
    t_e, t_f = Poly.gen(E), Poly.gen(F)
    for a, b in ((t_e, t_f), (t_e, Poly.zero(F)), (Poly.zero(E), t_f)):
        with pytest.raises(ValueError, match="mixed-field polynomial operation"):
            poly_gcd(a, b)


@pytest.mark.parametrize("pe", [(2, 1), (3, 1), (2, 2)], ids=["F2", "F3", "F4"])
def test_gcd_makes_no_poly_division(pe, monkeypatch):
    # factor's gcds (squarefree parts, distinct-degree and equal-degree
    # splits) run on kernel forms: no Poly.__divmod__ inside any of them.
    # `fqtlab.factor` is also the name of the function, so the module is
    # taken from sys.modules.
    F = FiniteField(*pe)
    rng = random.Random(11)
    inputs = [_rand(F, rng, 30) * _rand(F, rng, 5) ** 2 for _ in range(3)]
    divisions = []
    divmod_ = Poly.__divmod__

    def counting_divmod(a, b):
        divisions.append(1)
        return divmod_(a, b)

    factor_module = sys.modules["fqtlab.factor"]
    gcd = factor_module.poly_gcd
    inside = []

    def counting_gcd(a, b):
        before = len(divisions)
        g = gcd(a, b)
        inside.append(len(divisions) - before)
        return g

    monkeypatch.setattr(Poly, "__divmod__", counting_divmod)
    monkeypatch.setattr(factor_module, "poly_gcd", counting_gcd)
    for a in inputs:
        factor(a, seed=1)
    assert len(inside) > 10 and len(divisions) > 0
    assert sum(inside) == 0
