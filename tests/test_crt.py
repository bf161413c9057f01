"""Chinese remaindering over F_q[t]."""

import pytest
from hypothesis import given, settings, strategies as st

import fqtlab.poly
from fqtlab import (CRTBasis, FiniteField, NotCoprime, Poly,
                    build_counterexample, crt, enumerate_monic_irreducibles,
                    poly_gcd, poly_xgcd)

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)
F4 = FiniteField(2, 2)
M31 = 2 ** 31 - 1
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
    # one basis per level costs one xgcd per modulus there, 32 in all, and
    # that xgcd, which gives u_i, is the coprimality check: no basis runs a
    # pairwise gcd.  A basis rebuilt per row would cost thousands.
    calls = {"gcd": 0, "xgcd": 0}

    def counting(name, real):
        def count(a, b):
            calls[name] += 1
            return real(a, b)
        return count

    monkeypatch.setattr(fqtlab.poly, "poly_gcd",
                        counting("gcd", fqtlab.poly.poly_gcd))
    monkeypatch.setattr(fqtlab.poly, "poly_xgcd",
                        counting("xgcd", fqtlab.poly.poly_xgcd))
    table, trace = build_counterexample(F2, 5)
    assert len(trace.rows) == 62
    assert calls["gcd"] == 0
    assert calls["xgcd"] == 2 + 3 + 5 + 8 + 14 == 32


def pairwise_scan(moduli):
    """The first pair (i, j), i < j, of moduli with a nonconstant common
    factor, by one gcd per pair; None when they are pairwise coprime."""
    return next(((i, j) for i in range(len(moduli))
                 for j in range(i + 1, len(moduli))
                 if poly_gcd(moduli[i], moduli[j]).deg > 0), None)


@given(st.sampled_from([F2, F3, F4]).flatmap(lambda field: st.lists(
    st.lists(st.sampled_from(
        [m for d in (1, 2) for m in enumerate_monic_irreducibles(field, d)]
        + [Poly.one(field)]), min_size=1, max_size=3),
    min_size=1, max_size=7)))
@settings(max_examples=150, deadline=None)
def test_not_coprime_pair_matches_the_pairwise_scan(factor_lists):
    # products of a few small irreducibles, so that shared factors are
    # common: the basis names the same pair as the pairwise scan
    moduli = []
    for factors in factor_lists:
        m = factors[0]
        for f in factors[1:]:
            m = m * f
        moduli.append(m)
    want = pairwise_scan(moduli)
    if want is None:
        CRTBasis(moduli)
        return
    with pytest.raises(NotCoprime) as info:
        CRTBasis(moduli)
    assert info.value.pair == want


def reference_basis(moduli):
    """(M, lift) for the Poly-form lift: for each modulus P_i, one product
    r_i*u_i, one reduction mod P_i and one multiply by the cofactor C_i,
    summed as Poly (each summand has degree < deg M: no final reduction)."""
    F = moduli[0].field
    total = Poly.one(F)
    for m in moduli:
        total = total * m
    terms = []
    for m in moduli:
        cof = total // m
        _, u, _ = poly_xgcd(cof % m, m)
        terms.append((m, u, cof))

    def lift(residues):
        acc = Poly.zero(F)
        for r, (m, u, cof) in zip(residues, terms):
            acc = acc + ((r * u) % m) * cof
        return acc

    return total, lift


def reference_lift(residues, moduli):
    return reference_basis(moduli)[1](residues)


LIFT_FIELDS = [F2, F3, F5, FiniteField(7), F4, FiniteField(2, 3),
               FiniteField(3, 2), FiniteField(2, 4), FiniteField(M31)]


def coprime_pool(draw, field):
    """Pairwise coprime monic irreducibles: every one of degree <= 3 (<= 2
    over F16) for small q; over F_(2^31-1), where -1 is a non-square,
    distinct t + a and t^2 + d^2."""
    if field.q <= 9:
        return [m for d in (1, 2, 3)
                for m in enumerate_monic_irreducibles(field, d)]
    if field.q == 16:
        return [m for d in (1, 2)
                for m in enumerate_monic_irreducibles(field, d)]
    elems = st.integers(min_value=0, max_value=field.q - 1)
    roots = draw(st.lists(elems, min_size=1, max_size=8, unique=True))
    squares = draw(st.lists(st.integers(min_value=1, max_value=field.q - 1),
                            max_size=3, unique_by=lambda d: d * d % field.q))
    return ([Poly(field, [a, 1]) for a in roots]
            + [Poly(field, [d * d % field.q, 0, 1]) for d in squares])


@st.composite
def packed_lift_case(draw):
    field = draw(st.sampled_from(LIFT_FIELDS))
    pool = draw(st.permutations(coprime_pool(draw, field)))
    # composite moduli: consecutive runs of the pool multiplied together
    moduli = []
    while pool and len(moduli) < 5:
        k = draw(st.integers(min_value=1, max_value=3))
        m = Poly.one(field)
        for f in pool[:k]:
            m = m * f
        moduli.append(m)
        pool = pool[k:]
    if draw(st.booleans()):
        unit = Poly.constant(field, draw(st.integers(min_value=1,
                                                     max_value=field.q - 1)))
        moduli.insert(draw(st.integers(min_value=0, max_value=len(moduli))),
                      unit)
    coeff = st.integers(min_value=0, max_value=field.q - 1)
    residues = []
    for m in moduli:
        kind = draw(st.sampled_from(["zero", "reduced", "higher"]))
        n = {"zero": 0, "reduced": m.deg,
             "higher": m.deg + draw(st.integers(min_value=1, max_value=6))}[kind]
        residues.append(Poly(field, draw(st.lists(coeff, min_size=n,
                                                  max_size=n))))
    return residues, moduli


@given(packed_lift_case())
@settings(max_examples=150, deadline=None)
def test_packed_lift_matches_poly_form_reference(case):
    residues, moduli = case
    basis = CRTBasis(moduli)
    got = basis.lift(residues)
    assert got == reference_lift(residues, moduli)
    assert got.is_zero() or got.deg < basis.modulus.deg
    for r, m in zip(residues, moduli):
        assert (got - r) % m == Poly.zero(m.field)


def test_packed_lift_wide_slots():
    # over F_(2^31-1) a slot bounds deg M * (p-1)^2 > 2^64 once deg M >= 5:
    # the byte-slot path wider than 8 bytes
    F = FiniteField(M31)
    moduli = [Poly(F, [a, 1]) for a in (0, 1, 5, 7)] + [Poly(F, [1, 0, 1])]
    assert fqtlab.poly._slot_bytes(6, M31) > 8
    residues = [Poly(F, [M31 - 1 - a, a + 2, M31 - 2]) for a in range(5)]
    basis = CRTBasis(moduli)
    assert basis.lift(residues) == reference_lift(residues, moduli)
    assert basis.lift([Poly.zero(F)] * 5) == Poly.zero(F)


def test_packed_lift_unit_moduli_only():
    # every modulus a unit: M is a constant and the lift is 0
    for field in (F2, F3, F4):
        moduli = [Poly.one(field), Poly.constant(field, field.q - 1)]
        residues = [Poly.gen(field), Poly.one(field)]
        assert CRTBasis(moduli).lift(residues) == Poly.zero(field)
        assert reference_lift(residues, moduli) == Poly.zero(field)


def test_packed_lift_rejects_mixed_fields():
    basis = CRTBasis([t, P2(1, 1)])
    with pytest.raises(ValueError):
        basis.lift([one, Poly.one(F3)])


def test_memoised_lift_still_rejects_mixed_fields():
    # the field check runs before the memo look-up: a residue from another
    # field whose coefficients equal a memoised key still raises
    F9, F9b = FiniteField(3, 2), FiniteField(3, 2, (2, 1, 1))
    for field, other in ((F3, F9), (F9, F9b), (F9, F3)):
        moduli = enumerate_monic_irreducibles(field, 1)[:2]
        basis = CRTBasis(moduli)
        ones = [Poly.one(field)] * 2
        assert basis.lift(ones) == Poly.one(field)
        assert all(memo for _, _, _, memo in basis._terms)
        with pytest.raises(ValueError):
            basis.lift([Poly.one(field), Poly.one(other)])
        assert basis.lift(ones) == Poly.one(field)
