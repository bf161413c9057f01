"""The sieve's irreducibles against sympy.

Over F_p, galoistools' gf_irreducible_p decides every monic candidate of
degree d with q^d <= 4096, and the enumeration must keep exactly those it
accepts.  Over F_4 and F_9 sympy has no polynomials, so the check goes
through the norm: for f monic of degree d over F_q, q = p^e, with F_q =
F_p[x]/(mu), N(f) = Res_x(mu, f) over F_p is a power of one irreducible g,
and f is irreducible iff lcm(e, deg g) = d*e (the roots of g then have
degree d over F_q).  sympy computes the resultant and factors it.
"""

from math import lcm

import pytest

from fqtlab import (FiniteField, count_irreducibles,
                    enumerate_monic_irreducibles, monic_polys_of_degree)

sympy = pytest.importorskip("sympy")
galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ

T, X = sympy.symbols("t x")
FIELDS = [FiniteField(2), FiniteField(3), FiniteField(5), FiniteField(7),
          FiniteField(2, 2), FiniteField(3, 2)]
IDS = ["F2", "F3", "F5", "F7", "F4", "F9"]


def sympy_irreducible(f):
    F = f.field
    p, e = F.p, F.e
    if e == 1:
        return bool(galoistools.gf_irreducible_p(
            [int(c) for c in reversed(f.coeffs)], p, ZZ))
    mu = sympy.Poly(sum(c * X ** b for b, c in enumerate(F.modulus)),
                    X, T, modulus=p)
    g = sympy.Poly(sum(c * X ** b * T ** i for i, code in enumerate(f.coeffs)
                       for b, c in enumerate(F.coords(code))),
                   X, T, modulus=p)
    _, parts = mu.resultant(g).factor_list()
    return len(parts) == 1 and lcm(e, parts[0][0].degree()) == f.deg * e


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_enumeration_matches_sympy(field):
    # every candidate where q^d <= 256, and up to q^d <= 4096 over F_p; past
    # 256 over F_4 and F_9 each enumerated polynomial is irreducible and
    # there are as many as the Moebius count, so they are all of them
    q = field.q
    for d in (d for d in range(1, 13) if q ** d <= 4096):
        polys = enumerate_monic_irreducibles(field, d)
        assert len(polys) == count_irreducibles(q, d)
        if field.e == 1 or q ** d <= 256:
            assert polys == tuple(f for f in monic_polys_of_degree(field, d)
                                  if sympy_irreducible(f))
        else:
            assert list(polys) == sorted(set(polys))
            assert all(f.is_monic() and f.deg == d and sympy_irreducible(f)
                       for f in polys)
