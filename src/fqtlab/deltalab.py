"""Products Delta = (U^n - 1)(U^(n-1) - 1) ... (U^(n-m) - 1) and the exact
root-of-unity counting that lower-bounds the degree of their radicals.

Everything here reduces to integer arithmetic on multiplicative orders.
Over characteristic p, x^a = 1 has exactly a / p^v solutions where p^v is the
largest p-power dividing a, so set sizes, unions and intersections are
computed from p'-parts, gcds and lcms, never by enumerating field elements.
The only polynomial arithmetic is in delta() itself and the factorization
crosschecks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_DEGREE_BUDGET, BudgetExceeded
from .factor import factor, radical
from .field import divisors, prime_factors
from .poly import Poly


@dataclass(frozen=True)
class DeltaSpec:
    """Parameters (U, m, n) with 0 <= m < n, U nonconstant and U' != 0."""
    u: Poly
    m: int
    n: int

    def __post_init__(self):
        if not (0 <= self.m < self.n):
            raise ValueError("need 0 <= m < n")
        if self.u.deg < 1:
            raise ValueError("U must be nonconstant")
        if self.u.derivative().is_zero():
            raise ValueError("U' must be nonzero")

    @property
    def delta_small(self) -> int:
        return self.u.deg

    @property
    def p(self) -> int:
        return self.u.field.p

    @property
    def product_degree(self) -> int:
        return self.delta_small * s0(self.m, self.n)


def delta(spec: DeltaSpec, budget: int = DEFAULT_DEGREE_BUDGET) -> Poly:
    """The exact product of U^(n-i) - 1 over i = 0..m."""
    if spec.product_degree > budget:
        raise BudgetExceeded("product degree %d exceeds budget %d"
                             % (spec.product_degree, budget))
    field = spec.u.field
    one = Poly.one(field)
    power = spec.u ** (spec.n - spec.m)
    acc = power - one
    for _ in range(spec.m):
        power = power * spec.u
        acc = acc * (power - one)
    return acc


def d_mnu(spec: DeltaSpec, budget: int = DEFAULT_DEGREE_BUDGET) -> int:
    """Degree of the radical of the product."""
    return radical(delta(spec, budget)).deg


def roots_of_unity_count(n_minus_i: int, p: int) -> int:
    """Number of solutions of x^a = 1 in the algebraic closure: the largest
    divisor of a coprime to p."""
    if n_minus_i < 1:
        raise ValueError("exponent must be >= 1")
    a = n_minus_i
    while a % p == 0:
        a //= p
    return a


def s0(m: int, n: int) -> int:
    return (2 * n - m) * (m + 1) // 2


def _multiple_sum(m: int, n: int, step: int) -> int:
    # arithmetic series of the multiples of step inside [n-m, n]
    hi = n // step
    lo = -((m - n) // step)  # ceil((n-m)/step)
    return step * (hi + lo) * (hi - lo + 1) // 2


def s1(m: int, n: int, p: int) -> int:
    return _multiple_sum(m, n, p)


def s2(m: int, n: int, p: int) -> int:
    return _multiple_sum(m, n, p * p)


@dataclass(frozen=True)
class CountReport:
    """Exact counting data for one (U, m, n) triple.

    survivors lists the i in 0..m with n-i not divisible by p^2; ai_sizes
    pairs each survivor with the number of (n-i)-th roots of unity.  The
    margins compare the computed radical degree d against the two lower
    bound shapes: d >= delta*M*n^(2-eps) - C7 for caller-supplied constants
    (margin_a, float) and d >= delta*(1 - 1/p + 1/p^2 - 1/p^3)*m*n - C8*n - C9
    with C8 = C9 = 0 (margin_b, exact Fraction).
    """
    spec: DeltaSpec
    d: int
    s0: int
    s1: int
    s2: int
    survivors: tuple[int, ...]
    ai_sizes: tuple[tuple[int, int], ...]
    pairwise_cap: int
    pairwise_ok: bool
    margin_b: Fraction
    part_b_rhs: Fraction
    margin_a: float | None
    part_a_rhs: float | None
    part_a_applicable: bool


def count_report(spec: DeltaSpec,
                 part_a: tuple[float, float, float] | None = None,
                 budget: int = DEFAULT_DEGREE_BUDGET) -> CountReport:
    """Compute the counting identity and bound margins for one spec.

    part_a, when given, is (M, eps, C7).  The identity sum over survivors
    = S0 - S1 + (S1 - S2)/p is asserted, the bound margins are only
    reported.
    """
    m, n, p = spec.m, spec.n, spec.p
    v0, v1, v2 = s0(m, n), s1(m, n, p), s2(m, n, p)
    survivors = tuple(i for i in range(m + 1) if (n - i) % (p * p) != 0)
    sizes = tuple((i, roots_of_unity_count(n - i, p)) for i in survivors)
    total = sum(sz for _, sz in sizes)
    if p * total != p * (v0 - v1) + (v1 - v2):
        raise AssertionError("roots-of-unity count identity failed")
    pairwise_ok = True
    for a in range(len(survivors)):
        for b in range(a + 1, len(survivors)):
            i, j = survivors[a], survivors[b]
            common = roots_of_unity_count(math.gcd(n - i, n - j), p)
            if common > m:
                pairwise_ok = False
    d = d_mnu(spec, budget)
    delta_small = spec.delta_small
    rhs_b = delta_small * Fraction(p**3 - p**2 + p - 1, p**3) * m * n
    margin_b = Fraction(d) - rhs_b
    margin_a = rhs_a = None
    applicable = m == n - 1
    if part_a is not None:
        big_m, eps, c7 = part_a
        rhs_a = delta_small * big_m * float(n) ** (2 - eps) - c7
        margin_a = d - rhs_a
    return CountReport(spec=spec, d=d, s0=v0, s1=v1, s2=v2,
                       survivors=survivors, ai_sizes=sizes,
                       pairwise_cap=m, pairwise_ok=pairwise_ok,
                       margin_b=margin_b, part_b_rhs=rhs_b,
                       margin_a=margin_a, part_a_rhs=rhs_a,
                       part_a_applicable=applicable)


def _totient_from_factorization(d: int, primes) -> int:
    out = d
    for q in primes:
        if d % q == 0:
            out -= out // q
    return out


def union_size_identity_map(spec: DeltaSpec) -> int:
    """|union of the root sets| for U = t, by divisor arithmetic.

    A root of the product is a zeta with zeta^(n-i) = 1 for some i, i.e. an
    element whose order divides the p'-part of some n-i.  Summing the
    totient over qualifying divisors of the lcm counts them exactly.
    """
    m, n, p = spec.m, spec.n, spec.p
    orders = [roots_of_unity_count(n - i, p) for i in range(m + 1)]
    lcm = 1
    for a in orders:
        lcm = lcm * a // math.gcd(lcm, a)
    primes = prime_factors(lcm)
    return sum(_totient_from_factorization(d, primes) for d in divisors(lcm)
               if any(a % d == 0 for a in orders))


@dataclass(frozen=True)
class CrosscheckReport:
    spec: DeltaSpec
    d_via_radical: int
    d_via_factorization: int
    union_size: int | None
    ok: bool


def root_count_crosscheck(spec: DeltaSpec,
                          budget: int = DEFAULT_DEGREE_BUDGET) -> CrosscheckReport:
    """Recompute the radical degree from a full factorization, and for U = t
    against the pure-arithmetic union count."""
    prod = delta(spec, budget)
    d_rad = radical(prod).deg
    fl = factor(prod)
    d_fac = sum(g.deg for g, _ in fl.factors)
    union = None
    ok = d_rad == d_fac
    if spec.u == Poly.gen(spec.u.field):
        union = union_size_identity_map(spec)
        ok = ok and d_rad == union
    return CrosscheckReport(spec=spec, d_via_radical=d_rad,
                            d_via_factorization=d_fac, union_size=union,
                            ok=ok)
