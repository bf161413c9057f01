"""CRT lifts checked against sympy's galoistools, an independent oracle.

galoistools writes a polynomial over F_p as a list of ints, highest degree
first.  Its `gf_crt` is the integer CRT, so the oracle here is `gf_rem`:
the lift must reduce to each residue modulo each modulus.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fqtlab import (CRTBasis, FiniteField, Poly, crt,
                    enumerate_monic_irreducibles)
from fqtlab.poly import _NEWTON_WORK

galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ


def to_gf(a):
    return [int(c) for c in reversed(a.coeffs)]


M31 = 2 ** 31 - 1


def big_prime_pool(draw, field):
    """Distinct t + a and t^2 + d^2 over F_(2^31-1): p = 3 mod 4 makes -1,
    and so -d^2, a non-square, so each quadratic is irreducible."""
    p = field.p
    roots = draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                          min_size=1, max_size=6, unique=True))
    squares = draw(st.lists(st.integers(min_value=1, max_value=p - 1),
                            max_size=3, unique_by=lambda d: d * d % p))
    return ([Poly(field, [a, 1]) for a in roots]
            + [Poly(field, [d * d % p, 0, 1]) for d in squares])


@st.composite
def lift_instance(draw):
    field = FiniteField(draw(st.sampled_from([2, 3, 5, 7, M31])))
    if field.p == M31:
        pool = big_prime_pool(draw, field)
    else:
        pool = []
        for d in (1, 2, 3):
            pool.extend(enumerate_monic_irreducibles(field, d))
    k = draw(st.integers(min_value=1, max_value=6))
    moduli = draw(st.permutations(pool))[:k]
    residues = [
        Poly.from_index(field, draw(st.integers(min_value=0,
                                                max_value=field.q ** 8)))
        for _ in moduli
    ]
    return field, residues, moduli


@given(lift_instance())
@settings(max_examples=80, deadline=None)
def test_crt_lift_matches_gf_rem(inst):
    field, residues, moduli = inst
    p = field.p
    lift = crt(residues, CRTBasis(moduli))
    total_deg = sum(m.deg for m in moduli)
    assert lift.is_zero() or lift.deg < total_deg
    for r, m in zip(residues, moduli):
        assert galoistools.gf_irreducible_p(to_gf(m), p, ZZ)
        assert (galoistools.gf_rem(to_gf(lift), to_gf(m), p, ZZ)
                == galoistools.gf_rem(to_gf(r), to_gf(m), p, ZZ))


@given(lift_instance(), st.data())
@settings(max_examples=60, deadline=None)
def test_repeated_lifts_through_the_memo_match_gf_rem(inst, data):
    # many lifts through one basis, drawing residues from a small pool with
    # repeats, reduced and not: memo hits must give the lifts a fresh
    # reduction would, and each term keeps only reduced residues, at most
    # q^deg P of them
    field, pool, moduli = inst
    p = field.p
    basis = CRTBasis(moduli)
    pool = pool + [r % m for r in pool for m in moduli]
    for _ in range(data.draw(st.integers(min_value=2, max_value=6))):
        residues = [data.draw(st.sampled_from(pool)) for _ in moduli]
        lift = crt(residues, basis)
        for r, m in zip(residues, moduli):
            assert (galoistools.gf_rem(to_gf(lift), to_gf(m), p, ZZ)
                    == galoistools.gf_rem(to_gf(r), to_gf(m), p, ZZ))
    for m, (_, _, _, memo) in zip(moduli, basis._terms):
        assert len(memo) <= field.q ** m.deg
        assert all(Poly._make(field, x).deg < m.deg for x in memo)


@pytest.mark.parametrize("p", [3, 7, M31])
def test_crt_lift_matches_gf_rem_around_the_newton_rule(p):
    # a CRT term reduces r*u mod P by P's `Modulus` on a memo miss.  The
    # Modulus adds (quotient length)*deg P of work for each reduction and
    # builds its inverse once the sum reaches _NEWTON_WORK.  A miss on a
    # reduced residue is a quotient of up to deg P - 1 terms, so the lifts
    # below accumulate about 600 and 870 of work per round on the moduli
    # of degree 25 and 30, which cross within eight rounds, and at most
    # 132 and 2 on those of degree 12 and 2, which do not.  Long residues
    # then take the schoolbook loop, past the inverse's reach: the 200-term
    # one alone adds 199*12 = 2,388 on the degree-12 modulus, which
    # crosses, while the degree-2 one never does.  `work` is that count,
    # kept here independently of the Modulus.
    field = FiniteField(p)
    rng = random.Random(p)
    moduli = []
    for d in (2, 12, 25, 30):
        while True:
            m = Poly(field, [rng.randrange(p) for _ in range(d)] + [1])
            if all(galoistools.gf_gcd(to_gf(m), to_gf(o), p, ZZ) == [1]
                   for o in moduli):
                break
        moduli.append(m)
    basis = CRTBasis(moduli)
    work = [0] * len(moduli)

    def newton_built():
        return [m._newton is not None for m, _, _, _ in basis._terms]

    def lift_and_check(residues):
        for i, (r, (m, u, _, memo)) in enumerate(zip(residues, basis._terms)):
            if r and u and r._k not in memo:
                quot = len(r.coeffs) + len(u) - 1 - m.poly.deg
                work[i] += max(quot, 0) * m.poly.deg
        lift = crt(residues, basis)
        for r, m in zip(residues, moduli):
            assert (galoistools.gf_rem(to_gf(lift), to_gf(m), p, ZZ)
                    == galoistools.gf_rem(to_gf(r), to_gf(m), p, ZZ))
        assert newton_built() == [w >= _NEWTON_WORK for w in work]

    assert newton_built() == [False] * 4
    for _ in range(8):
        lift_and_check([Poly(field, [rng.randrange(p) for _ in range(m.deg)])
                        for m in moduli])
    assert newton_built() == [False, False, True, True]
    # short residues take the Newton quotient, long ones the schoolbook loop
    for n in (0, 10, 60, 200):
        lift_and_check([Poly(field, [rng.randrange(p) for _ in range(n)])
                        for _ in moduli])
    assert newton_built() == [False, True, True, True]
