"""Monic irreducibles over F_q: enumeration, counting, and degree sums.

Enumeration is a sieve.  Every monic composite of degree d is f*g with f a
monic irreducible of degree k <= d/2 and g monic of degree d - k, so
marking the index of every such product, from the cached irreducibles of
the lower degrees, leaves exactly the irreducibles of degree d, in index
order.  Rabin's test (`factor.is_irreducible`) then confirms each survivor,
so the sieve keeps an independent check: a survivor that fails it raises.

Counting uses the Moebius-inverted formula N_d = (1/d) sum_{e|d} mu(e) q^(d/e).
The degree sum dsum(n) = sum_{d<=n} d*N_d is the degree of the product of all
monic irreducibles of degree <= n and always lies in [q^n, 2*q^n).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DEFAULT_DEGREE_BUDGET, BudgetExceeded, power_exceeds
from .factor import is_irreducible
from .field import divisors, prime_factors
from .poly import Poly, _kindex, _kmul, monic_polys_of_degree


def _mobius(n: int) -> int:
    ps = prime_factors(n)
    if any(n % (r * r) == 0 for r in ps):
        return 0
    return (-1) ** len(ps)


@lru_cache(maxsize=None)
def count_irreducibles(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d over F_q."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    total = sum(_mobius(e) * q ** (d // e) for e in divisors(d))
    assert total % d == 0
    return total // d


@lru_cache(maxsize=None)
def enumerate_monic_irreducibles(field, d: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree d, in canonical order: the monic
    polynomials of degree d that no product of a monic irreducible of
    degree k <= d/2 and a monic polynomial of degree d - k reaches, each
    confirmed by `is_irreducible`."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    base = field.q ** d  # the monic ones of degree d have indices base + i
    composite = bytearray(base)
    for k in range(1, d // 2 + 1):
        gs = [g._k for g in monic_polys_of_degree(field, d - k)]
        for f in enumerate_monic_irreducibles(field, k):
            for g in gs:
                composite[_kindex(_kmul(f._k, g, field), field) - base] = 1
    out = tuple(Poly.from_index(field, base + i)
                for i, c in enumerate(composite) if not c)
    for p in out:
        if not is_irreducible(p):
            raise AssertionError("the sieve kept a reducible %s" % (p,))
    return out


def degree_sum(q: int, n: int) -> int:
    """Degree of the product of all monic irreducibles of degree <= n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(d * count_irreducibles(q, d) for d in range(1, n + 1))


@lru_cache(maxsize=None)
def irreducible_product(field, n: int) -> Poly:
    """Product of all monic irreducibles of degree <= n (1 when n <= 0)."""
    if n <= 0:
        return Poly.one(field)
    prev = irreducible_product(field, n - 1)
    for p in enumerate_monic_irreducibles(field, n):
        prev = prev * p
    return prev


def product_identity_check(field, n: int,
                           budget: int = DEFAULT_DEGREE_BUDGET) -> bool:
    """Whether prod over d|n of the monic irreducibles of degree d equals
    t^(q^n) - t, compared coefficientwise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q = field.q
    if power_exceeds(q, n, budget):
        raise BudgetExceeded(
            "identity at n=%d materializes degree q^n > budget %d"
            % (n, budget))
    lhs = Poly.one(field)
    for d in divisors(n):
        for p in enumerate_monic_irreducibles(field, d):
            lhs = lhs * p
    t = Poly.gen(field)
    rhs = t ** (q ** n) - t
    return lhs == rhs
