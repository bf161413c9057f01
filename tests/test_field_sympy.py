"""Extension-field tables and Moebius values against sympy's reference code."""

import random

import pytest

from fqtlab.field import FiniteField, default_modulus
from fqtlab.irreducibles import _mobius

sympy = pytest.importorskip("sympy")
galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ

# every extension field the tables support: (p, e >= 2) with p^e <= 256
EXTENSIONS = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in range(2, 9)
              if p ** e <= 256]
FIELDS = [FiniteField(p, e) for p, e in EXTENSIONS] + [
    FiniteField(3, 2, modulus=(2, 2, 1))]
SAMPLE_PAIRS = 2000


def _dense(coeffs):
    """Little-endian coefficients as sympy's big-endian dense list."""
    return galoistools.gf_strip([int(c) for c in reversed(coeffs)])


def _code(F, dense):
    digits = [int(c) for c in reversed(dense)]
    return F.from_coords(digits + [0] * (F.e - len(digits)))


def test_sixteen_extension_fields():
    assert len(EXTENSIONS) == 16


@pytest.mark.parametrize("p,e", EXTENSIONS)
def test_default_modulus_is_first_irreducible_candidate(p, e):
    modulus = default_modulus(p, e)
    assert galoistools.gf_irreducible_p(_dense(modulus), p, ZZ)
    # candidates x^e + c in ascending code order of c; all earlier ones fail
    for code in range(p ** e):
        candidate = tuple(code // p ** i % p for i in range(e)) + (1,)
        if candidate == modulus:
            break
        assert not galoistools.gf_irreducible_p(_dense(candidate), p, ZZ)
    else:
        pytest.fail("default modulus %r is not a scan candidate" % (modulus,))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_mul_and_inv_agree_with_sympy(F):
    p, q = F.p, F.q
    modulus = _dense(F.modulus)
    assert galoistools.gf_irreducible_p(modulus, p, ZZ)
    if q <= 27:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q))
                 for _ in range(SAMPLE_PAIRS)]
    for a, b in pairs:
        prod = galoistools.gf_rem(
            galoistools.gf_mul(_dense(F.coords(a)), _dense(F.coords(b)), p, ZZ),
            modulus, p, ZZ)
        assert F.mul(a, b) == _code(F, prod), (a, b)
    for a in F.units():
        assert F.mul(a, F.inv(a)) == 1


def test_mobius_agrees_with_sympy():
    for n in range(1, 201):
        assert _mobius(n) == sympy.mobius(n), n
