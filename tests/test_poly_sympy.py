"""Prime-field Poly arithmetic and factoring against sympy's galoistools.

galoistools writes a polynomial over F_p as a list of ints, highest degree
first, and is an independent implementation: schoolbook loops throughout.
Input lengths reach past every size crossover in `fqtlab.poly`, so each
odd-p kernel (schoolbook, Kronecker, Newton division in `powmod` and in a
single long division) meets the oracle on both sides of its threshold; GF(2) runs bit-packed at every
length.  The large prime 2^31 - 1 makes the Kronecker slots wider than
eight bytes.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fqtlab import FiniteField, Poly, factor, is_irreducible, poly_xgcd
from fqtlab.factor import squarefree_decomposition
from fqtlab import poly as poly_module
from fqtlab.poly import _KRON_MIN_WORK, _NEWTON_WORK, Modulus
from fqtlab.residues import index_arrays

from helpers import direct_indices

galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ

PRIMES = [2, 3, 5, 7, 2**31 - 1]
FIELDS = {p: FiniteField(p) for p in PRIMES}
# long enough that products len(a)*len(b) fall on both sides of
# _KRON_MIN_WORK, and GF(2) lengths on both sides of 24, the length from
# which GF(2) products were once bit-packed
MAX_LEN = 3 * math.isqrt(_KRON_MIN_WORK) + 24


def to_gf(a):
    return [int(c) for c in reversed(a.coeffs)]


def from_gf(F, dense):
    return Poly(F, reversed([int(c) for c in dense]))


@st.composite
def poly_over(draw, F, max_len=MAX_LEN, nonzero=False, min_len=0):
    n = draw(st.integers(min_value=max(min_len, int(nonzero)),
                         max_value=max_len))
    cs = draw(st.lists(st.integers(min_value=0, max_value=F.p - 1),
                       min_size=n, max_size=n))
    if nonzero:
        cs[-1] = draw(st.integers(min_value=1, max_value=F.p - 1))
    return Poly(F, cs)


@st.composite
def pair(draw, max_len=MAX_LEN, min_len=1):
    """(F, a, b) with b nonzero and at least min_len coefficients long."""
    F = FIELDS[draw(st.sampled_from(PRIMES))]
    return F, draw(poly_over(F, max_len)), draw(
        poly_over(F, max_len, nonzero=True, min_len=min_len))


@given(pair())
@settings(max_examples=100, deadline=None)
def test_mul_matches_gf_mul(inst):
    F, a, b = inst
    assert to_gf(a * b) == galoistools.gf_mul(to_gf(a), to_gf(b), F.p, ZZ)
    assert to_gf(b * b) == galoistools.gf_sqr(to_gf(b), F.p, ZZ)


@given(pair())
@settings(max_examples=100, deadline=None)
def test_divmod_matches_gf_div(inst):
    F, a, b = inst
    q, r = divmod(a, b)
    assert [to_gf(q), to_gf(r)] == list(
        galoistools.gf_div(to_gf(a), to_gf(b), F.p, ZZ))


def gf_index(x, m, p):
    """The index of x mod m by gf_rem, which lists coefficients from the
    top: read them as base-p digits."""
    return sum(c * p ** i for i, c in enumerate(reversed(
        galoistools.gf_rem(to_gf(x), to_gf(m), p, ZZ))))


def check_residues(moduli, xs):
    """The per-entry reference matches gf_rem on every x, and so do the
    arrays of index_arrays wherever an index fits an array type."""
    p = moduli[0].field.p
    expected = [[gf_index(x, m, p) for m in moduli] for x in xs]
    assert [direct_indices(moduli, x) for x in xs] == expected
    if p ** max(m.deg for m in moduli) <= 1 << 64:
        arrays = index_arrays(moduli, xs, "Q")
        assert [list(r) for r in zip(*arrays)] == expected


@given(st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(
    st.lists(poly_over(FIELDS[p], 30, nonzero=True), min_size=1, max_size=9),
    poly_over(FIELDS[p], 4 * MAX_LEN))))
@settings(max_examples=80, deadline=None)
def test_remainder_tree_matches_gf_rem(inst):
    # x and x*x run from below deg M, M the product of the moduli, to far
    # past it, so the one division, by M, meets the oracle with quotients
    # of none to many terms
    moduli, x = inst
    check_residues(moduli, [x, x * x])


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_remainder_tree_arrays_with_slots_past_eight_bytes(p):
    # linear and quadratic moduli keep every index in 64 bits while a slot
    # of the column map, e*L*(p-1)^2, needs nine bytes or more
    F = FiniteField(p)
    rng = random.Random(p)
    moduli = [Poly(F, [rng.randrange(p) for _ in range(d)] + [1])
              for d in (1, 1, 2, 1, 2) if p ** d <= 1 << 64]
    xs = [Poly(F, [rng.randrange(p) for _ in range(n)])
          for n in (0, 1, 2, 3, 8, 40, 41)]
    check_residues(moduli, xs)


# gf_pow_mod returns 1 for k = 0 even modulo a constant, so b has degree >= 1.
# A Modulus of degree d builds its Newton inverse once its reductions have
# done _NEWTON_WORK of schoolbook work, d*(d-1) per full squaring: up to
# this length, moduli cross the rule at their first reduction, part-way
# through a powmod of exponent <= 200, or never.
POWMOD_MAX_LEN = math.isqrt(_NEWTON_WORK) + 8


@given(pair(max_len=POWMOD_MAX_LEN, min_len=2),
       st.integers(min_value=0, max_value=200))
@settings(max_examples=60, deadline=None)
def test_powmod_matches_gf_pow_mod(inst, k):
    F, a, b = inst
    assert to_gf(a.powmod(k, b)) == galoistools.gf_pow_mod(
        to_gf(a), k, to_gf(b), F.p, ZZ)


NEWTON_PRIMES = [3, 7, 2**31 - 1]
W = _NEWTON_WORK
# (quotient length, deg(divisor)) of a single division on both sides of the
# rule's edge k*db = W: 32*92 = 2,944 below and 32*94 = 3,008 past it, each
# both ways round; shapes with a side under 32, which the earlier one-off
# rule kept on the schoolbook loop: a one-term quotient (1*2,999 and
# 1*3,000), a side of 10 (10*299 and 10*300), of 3 (3*1,000) and of 31
# (31*128); and 96*96, far past the edge
DIVMOD_SHAPES = [(31, 128), (128, 31), (32, 92), (92, 32), (32, 94), (94, 32),
                 (96, 96), (1, W - 1), (1, W), (10, W // 10 - 1),
                 (10, W // 10), (W // 10 - 1, 10), (W // 10, 10),
                 (3, W // 3), (W // 3, 3)]


@pytest.mark.parametrize("p", NEWTON_PRIMES)
@pytest.mark.parametrize("k, db", DIVMOD_SHAPES)
def test_divmod_matches_gf_div_around_the_newton_rule(monkeypatch, p, k, db):
    F = FIELDS[p]
    rng = random.Random(k * db + p)
    b = Poly(F, [rng.randrange(p) for _ in range(db)] + [rng.randrange(1, p)])
    built = []
    newton_inverse = poly_module._newton_inverse

    def counting(m, k, F):
        built.append(k)
        return newton_inverse(m, k, F)

    monkeypatch.setattr(poly_module, "_newton_inverse", counting)
    for _ in range(3):
        a = Poly(F, [rng.randrange(p) for _ in range(db + k - 1)]
                 + [rng.randrange(1, p)])
        q, r = divmod(a, b)
        assert [to_gf(q), to_gf(r)] == list(
            galoistools.gf_div(to_gf(a), to_gf(b), p, ZZ))
    # a single division counts only its own work, k*db: each of the three
    # builds an inverse of its own or none does
    assert built == ([k] * 3 if k * db >= W else [])


# the least degree d whose first full squaring, a quotient of d - 1 terms,
# does _NEWTON_WORK of work on its own: 56*55 = 3,080, while 55*54 = 2,970;
# moduli of lower degree cross it part-way through the powers below, or
# never
NEWTON_DEG = next(d for d in range(2, 100) if d * (d - 1) >= W)


@pytest.mark.parametrize("p", NEWTON_PRIMES)
@pytest.mark.parametrize("deg", [3, 25, 26, 45, NEWTON_DEG - 1, NEWTON_DEG])
def test_shared_modulus_powmod_matches_gf_pow_mod(p, deg):
    F = FIELDS[p]
    rng = random.Random(deg * p)
    b = Poly(F, [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])
    mod = Modulus(b)
    assert mod._newton is None
    # squaring a residue of degree deg - 1 is one reduction, deg*(deg - 1)
    c = Poly(F, [rng.randrange(p) for _ in range(deg - 1)]
             + [rng.randrange(1, p)])
    assert to_gf(c.powmod(2, mod)) == galoistools.gf_pow_mod(
        to_gf(c), 2, to_gf(b), p, ZZ)
    assert (mod._newton is not None) == (deg >= NEWTON_DEG)
    # bases shorter than, as long as and longer than twice the modulus
    for n in (1, deg // 2, deg + 1, 2 * deg + 5):
        a = Poly(F, [rng.randrange(p) for _ in range(n)])
        for k in (0, 1, 2, p, 97, 1000):
            assert to_gf(a.powmod(k, mod)) == galoistools.gf_pow_mod(
                to_gf(a), k, to_gf(b), p, ZZ)


@pytest.mark.parametrize("p", NEWTON_PRIMES)
def test_shared_modulus_crosses_the_newton_rule_mid_run(p):
    # a Modulus of degree 20 counts 20*19 = 380 of work per squaring of a
    # residue of degree 19 (a quotient of 19 terms): squarings 1-7 leave it
    # at 2,660 < 3,000, and the 8th, at 3,040, builds the inverse, which
    # serves that squaring and every later power
    d = 20
    crossing = -(-W // (d * (d - 1)))
    assert crossing == 8
    F = FIELDS[p]
    rng = random.Random(p)
    b = Poly(F, [rng.randrange(p) for _ in range(d)] + [1])
    mod = Modulus(b)
    for i in range(1, crossing + 3):
        a = Poly(F, [rng.randrange(p) for _ in range(d - 1)]
                 + [rng.randrange(1, p)])
        assert to_gf(a.powmod(2, mod)) == galoistools.gf_pow_mod(
            to_gf(a), 2, to_gf(b), p, ZZ)
        assert (mod._newton is not None) == (i >= crossing)
    for k in (0, 1, 3, p, 1000):
        a = Poly(F, [rng.randrange(p) for _ in range(2 * d + 5)])
        assert to_gf(a.powmod(k, mod)) == galoistools.gf_pow_mod(
            to_gf(a), k, to_gf(b), p, ZZ)


@pytest.mark.parametrize("p", NEWTON_PRIMES)
@pytest.mark.parametrize("deg", [3, 12, 40])
def test_remainder_by_a_modulus_matches_gf_rem(p, deg):
    # a.powmod(1, mod) is one reduction of a mod b, by the Modulus's
    # prepared form.  The Modulus adds (quotient length)*deg of work for
    # each and builds its inverse, for quotients of up to deg - 1 terms,
    # once the sum reaches _NEWTON_WORK.  Quotients run from none to k
    # terms and one past it: for k = deg - 1, the inverse's reach, then for
    # the least k whose work alone crosses the rule, then for deg - 1
    # again, so the Newton and schoolbook kernels both meet the oracle
    F = FIELDS[p]
    rng = random.Random(p * deg)
    b = Poly(F, [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])
    mod = Modulus(b)
    work = 0
    for k in (deg - 1, -(-W // deg), deg - 1):
        for n in (0, deg, deg + 1, deg + k // 2, deg + k, deg + k + 1):
            a = Poly(F, [rng.randrange(p) for _ in range(n)])
            if a.deg >= deg:
                work += (a.deg - deg + 1) * deg
            assert to_gf(a.powmod(1, mod)) == galoistools.gf_rem(
                to_gf(a), to_gf(b), p, ZZ)
            assert (mod._newton is not None) == (work >= W)
    assert mod._newton is not None


@given(pair())
@settings(max_examples=60, deadline=None)
def test_xgcd_matches_gf_gcdex(inst):
    F, a, b = inst
    g, u, v = poly_xgcd(a, b)
    s, t, h = galoistools.gf_gcdex(to_gf(a), to_gf(b), F.p, ZZ)
    assert (to_gf(u), to_gf(v), to_gf(g)) == (s, t, h)


@st.composite
def factor_input(draw):
    p = draw(st.sampled_from(PRIMES))
    F = FIELDS[p]
    max_len = 9 if p > 7 else 25
    # repeated factors, p-th powers included, exercise every branch
    parts = draw(st.lists(poly_over(F, max_len // 3, nonzero=True),
                          min_size=1, max_size=3))
    exps = draw(st.lists(st.sampled_from([1, 2, 3, min(p, 7)]),
                         min_size=len(parts), max_size=len(parts)))
    a = Poly.one(F)
    for g, m in zip(parts, exps):
        a = a * g ** m
    return F, a


def _merge(parts):
    """Squarefree factors as {multiplicity: product} over dense lists."""
    out = {}
    for g, m in parts:
        out[m] = g if m not in out else out[m] * g
    return {m: to_gf(g.monic()) for m, g in out.items() if g.deg > 0}


@given(factor_input())
@settings(max_examples=60, deadline=None)
def test_squarefree_matches_gf_sqf_list(inst):
    F, a = inst
    unit, parts = squarefree_decomposition(a)
    lc, ref = galoistools.gf_sqf_list(to_gf(a), F.p, ZZ)
    assert unit == lc
    assert _merge(parts) == _merge([(from_gf(F, g), m) for g, m in ref])


@given(factor_input())
@settings(max_examples=60, deadline=None)
def test_factor_matches_gf_factor(inst):
    F, a = inst
    fl = factor(a)
    lc, ref = galoistools.gf_factor(to_gf(a), F.p, ZZ)
    assert fl.unit == lc
    assert sorted((to_gf(g), m) for g, m in fl.factors) == sorted(
        (list(g), m) for g, m in ref)


@given(st.sampled_from(PRIMES).flatmap(
    lambda p: poly_over(FIELDS[p], 9 if p > 7 else 30, min_len=2,
                        nonzero=True)))
@settings(max_examples=80, deadline=None)
def test_is_irreducible_matches_gf_irreducible_p(a):
    assert is_irreducible(a) == bool(
        galoistools.gf_irreducible_p(to_gf(a), a.field.p, ZZ))
