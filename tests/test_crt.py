"""Chinese remaindering over F_q[t]."""

import pytest
from hypothesis import given, settings, strategies as st

import fqtlab.poly
from fqtlab import (CRTBasis, FiniteField, NotCoprime, Poly,
                    build_counterexample, crt, enumerate_monic_irreducibles,
                    poly_gcd)

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)
F4 = FiniteField(2, 2)
t = Poly(F2, [0, 1])
one = Poly.one(F2)


def P2(*cs):
    return Poly(F2, list(cs))


def test_crt_two_moduli_frozen():
    # x = 1 mod t, x = 0 mod t+1  ->  x = t+1
    r = crt([one, Poly.zero(F2)], [t, P2(1, 1)])
    assert r == P2(1, 1)
    # swap the targets: x = 0 mod t, x = 1 mod t+1  ->  x = t
    assert crt([Poly.zero(F2), one], [t, P2(1, 1)]) == t


def test_crt_single_modulus():
    m = P2(1, 1, 1)
    assert crt([P2(0, 1)], [m]) == P2(0, 1)
    # residue is reduced mod m
    assert crt([m * t + one], [m]) == one


def test_crt_not_coprime():
    with pytest.raises(NotCoprime) as info:
        crt([one, one], [P2(0, 1, 1), t])
    assert info.value.pair == (0, 1)


def test_crt_argument_errors():
    with pytest.raises(ValueError):
        crt([one], [t, P2(1, 1)])
    with pytest.raises(ValueError):
        crt([], [])
    with pytest.raises(ZeroDivisionError):
        crt([one], [Poly.zero(F2)])


def test_crt_constant_modulus_is_vacuous():
    # a unit modulus imposes no condition
    assert crt([one, t], [t, one]) == one


@st.composite
def crt_instance(draw, field):
    # distinct irreducible moduli guarantee coprimality
    pool = []
    for d in (1, 2, 3):
        pool.extend(enumerate_monic_irreducibles(field, d))
    k = draw(st.integers(min_value=1, max_value=3))
    moduli = draw(st.permutations(pool))[:k]
    residues = [
        Poly.from_index(field, draw(st.integers(min_value=0, max_value=200))) % m
        for m in moduli
    ]
    return residues, moduli


@given(crt_instance(F2))
@settings(max_examples=60, deadline=None)
def test_crt_congruences_and_degree_f2(inst):
    residues, moduli = inst
    r = crt(residues, moduli)
    total_deg = sum(m.deg for m in moduli)
    assert r.is_zero() or r.deg < total_deg
    for res, m in zip(residues, moduli):
        assert r % m == res


@given(crt_instance(F3))
@settings(max_examples=40, deadline=None)
def test_crt_congruences_and_degree_f3(inst):
    residues, moduli = inst
    r = crt(residues, moduli)
    for res, m in zip(residues, moduli):
        assert r % m == res


def test_crt_result_is_unique():
    moduli = [t, P2(1, 1), P2(1, 1, 1)]
    residues = [one, Poly.zero(F2), t]
    r = crt(residues, moduli)
    # any other lift of the same residues differs by a multiple of the product
    prod = moduli[0] * moduli[1] * moduli[2]
    other = r + prod
    assert other % moduli[2] == residues[2]
    assert other.deg >= prod.deg
    assert poly_gcd(prod, prod).monic() == prod  # sanity on the product itself


@given(st.sampled_from([F2, F3, F5, F4]).flatmap(crt_instance))
@settings(max_examples=60, deadline=None)
def test_crt_basis_agrees_with_list(inst):
    residues, moduli = inst
    basis = CRTBasis(moduli)
    assert len(basis) == len(moduli)
    assert crt(residues, basis) == crt(residues, moduli)
    assert basis.lift(residues) == crt(residues, moduli)


def test_crt_basis_reused_across_lifts():
    moduli = [t, P2(1, 1), P2(1, 1, 1)]
    basis = CRTBasis(moduli)
    assert basis.modulus == moduli[0] * moduli[1] * moduli[2]
    for k in range(16):
        residues = [Poly.from_index(F2, k) % m for m in moduli]
        assert crt(residues, basis) == crt(residues, moduli)


def test_crt_basis_not_coprime():
    with pytest.raises(NotCoprime) as info:
        CRTBasis([P2(0, 1, 1), t])
    assert info.value.pair == (0, 1)


def test_crt_basis_argument_errors():
    basis = CRTBasis([t, P2(1, 1)])
    with pytest.raises(ValueError):
        crt([one], basis)
    with pytest.raises(ValueError):
        basis.lift([one, one, one])
    with pytest.raises(ValueError):
        CRTBasis([])
    with pytest.raises(ZeroDivisionError):
        CRTBasis([t, Poly.zero(F2)])


def test_build_counterexample_checks_coprimality_once_per_level(monkeypatch):
    # q=2, D=5 has k_n = 2, 3, 5, 8, 14 monic irreducibles of degree <= n;
    # one basis per level costs C(k_n, 2) gcds there, 133 in all.  A basis
    # rebuilt per row would cost thousands.
    calls = []
    real_gcd = fqtlab.poly.poly_gcd

    def counting_gcd(a, b):
        calls.append(1)
        return real_gcd(a, b)

    monkeypatch.setattr(fqtlab.poly, "poly_gcd", counting_gcd)
    table, trace = build_counterexample(F2, 5)
    assert len(trace.rows) == 62
    assert len(calls) == 1 + 3 + 10 + 28 + 91 == 133
