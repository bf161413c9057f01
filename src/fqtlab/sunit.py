"""Unit-equation experiments: solutions of x + y = 1 inside a finitely
generated subgroup of F_q(t)*, their collapse into Frobenius orbits, and the
search for a large irreducible factor of A - U^n.

Solutions are enumerated exactly over an exponent box [-E, E]^dim times the
constant units.  Orbit reduction repeatedly takes p-th roots of both
coordinates.  F_q is perfect, so a reduced fraction N/D with D monic is a
p-th power in the rational function field iff N and D have nonzero
coefficients only at exponents divisible by p (Lidl and Niederreiter,
Finite Fields, Thm 1.20); one coefficient scan of each decides it and
yields the root, with no factorization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DEFAULT_DEGREE_BUDGET, DEFAULT_ENUM_BUDGET,
                     BudgetExceeded)
from .factor import factor, pth_root
from .poly import NEG_INF, Poly
from .ratfunc import RatFunc


@dataclass(frozen=True)
class GroupSpec:
    """Multiplicative subgroup of F_q(t)* spanned by the generators together
    with all constant units."""
    generators: tuple[Poly, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("need at least one generator")
        if any(g.is_zero() for g in self.generators):
            raise ValueError("generators must be nonzero")

    @property
    def field(self):
        return self.generators[0].field

    def rank(self, seed: int = 0) -> int:
        """Rank of the factor-exponent lattice of the generators (constants
        contribute nothing; the constant-unit part is torsion)."""
        cols: dict[int, int] = {}
        rows = []
        for g in self.generators:
            fl = factor(g, seed)
            row: dict[int, Fraction] = {}
            for prime, mult in fl.factors:
                idx = cols.setdefault(prime.index(), len(cols))
                row[idx] = Fraction(mult)
            rows.append(row)
        dense = [[row.get(c, Fraction(0)) for c in range(len(cols))]
                 for row in rows]
        rank = 0
        for col in range(len(cols)):
            pivot = next((r for r in range(rank, len(dense))
                          if dense[r][col] != 0), None)
            if pivot is None:
                continue
            dense[rank], dense[pivot] = dense[pivot], dense[rank]
            inv = 1 / dense[rank][col]
            dense[rank] = [v * inv for v in dense[rank]]
            for r in range(len(dense)):
                if r != rank and dense[r][col] != 0:
                    f = dense[r][col]
                    dense[r] = [a - f * b for a, b in zip(dense[r], dense[rank])]
            rank += 1
        return rank


@dataclass(frozen=True)
class GroupElem:
    """Element written on the generators: unit * prod gen_i^exponents[i]."""
    exponents: tuple[int, ...]
    unit: int
    value: RatFunc


@dataclass(frozen=True)
class SolutionPair:
    x: GroupElem
    y: GroupElem

    def check(self) -> bool:
        total = self.x.value + self.y.value
        return total == RatFunc.one(total.field)


def enumerate_solutions(spec: GroupSpec, E: int,
                        budget: int = DEFAULT_ENUM_BUDGET) -> list[SolutionPair]:
    """All (x, y) in the box with x + y = 1, both coordinates indexed by
    their first-found box representation, pairs of constants excluded.

    The scan runs over exponent vectors in lexicographic order over
    [-E, E]^dim and units in ascending code order; x iterates in that order
    and y is looked up, so results are deterministic.
    """
    if E < 1:
        raise ValueError("E must be >= 1")
    field = spec.field
    dim = len(spec.generators)
    units = [u for u in field.elements() if u != 0]
    count = (2 * E + 1) ** dim * len(units)
    if count > budget:
        raise BudgetExceeded("box holds %d candidates, budget %d"
                             % (count, budget))
    gens = [RatFunc.from_poly(g) for g in spec.generators]
    box: dict[RatFunc, GroupElem] = {}
    order: list[GroupElem] = []
    for exps in itertools.product(range(-E, E + 1), repeat=dim):
        base = RatFunc.one(field)
        for g, e in zip(gens, exps):
            if e:
                base = base * g ** e
        for u in units:
            val = base * RatFunc.from_poly(Poly.constant(field, u))
            elem = GroupElem(exponents=exps, unit=u, value=val)
            if val not in box:
                box[val] = elem
                order.append(elem)
    one = RatFunc.one(field)
    out = []
    for elem in order:
        partner = box.get(one - elem.value)
        if partner is None:
            continue
        if elem.value.is_constant() and partner.value.is_constant():
            continue
        out.append(SolutionPair(x=elem, y=partner))
    return out


def _pth_root_ratfunc(v: RatFunc):
    """Exact p-th root in F_q(t), or None when v is not a p-th power."""
    try:
        num, den = pth_root(v.num), pth_root(v.den)
    except ValueError:
        return None
    return RatFunc(num, den)


@dataclass(frozen=True)
class SolutionOrbit:
    """Frobenius orbit: members are (x0^(p^k), y0^(p^k)) for the recorded
    ks; the base pair admits no further simultaneous p-th root."""
    base_x: RatFunc
    base_y: RatFunc
    members: tuple[tuple[int, SolutionPair], ...]


@dataclass(frozen=True)
class OrbitReport:
    orbits: tuple[SolutionOrbit, ...]
    rank: int
    bound: int
    ok: bool


def orbit_reduce(solutions, spec: GroupSpec, seed: int = 0) -> OrbitReport:
    """Group solutions by repeated simultaneous p-th-root descent and compare
    the orbit count against p^(2r) - 1.  `seed` goes to the `factor` calls
    behind the rank.

    The count is box-relative: the search can only exhibit orbits, so ok
    means no overflow was observed, not that the global bound is attained.
    """
    grouped: dict[tuple[RatFunc, RatFunc], list[tuple[int, SolutionPair]]] = {}
    for pair in solutions:
        x, y = pair.x.value, pair.y.value
        k = 0
        # a constant is always a p-th power: a pair of constants is its own
        # base
        while not (x.is_constant() and y.is_constant()):
            rx = _pth_root_ratfunc(x)
            if rx is None:
                break
            ry = _pth_root_ratfunc(y)
            if ry is None:
                break
            x, y = rx, ry
            k += 1
        grouped.setdefault((x, y), []).append((k, pair))
    orbits = tuple(
        SolutionOrbit(base_x=bx, base_y=by, members=tuple(members))
        for (bx, by), members in grouped.items())
    r = spec.rank(seed)
    bound = spec.field.p ** (2 * r) - 1
    return OrbitReport(orbits=orbits, rank=r, bound=bound,
                       ok=len(orbits) <= bound)


# -- large irreducible factors of A - U^n ------------------------------------


@dataclass(frozen=True)
class ScanRow:
    n: int
    in_s: bool
    diff_degree: int | None
    max_factor_degree: int | None
    qualifies: bool


@dataclass(frozen=True)
class LargeFactorReport:
    """First n in range where A - U^n gains an irreducible factor of degree
    >= M, with the full scan log.

    in_s marks n with n*v(U) - v(A) nonzero mod p, v taken at the pivot
    irreducible (the least-ordered factor of U whose multiplicity is not
    divisible by p; one exists exactly because U' != 0).  For such n the
    quotient U^n/A is not a p-th power, which is what makes the search
    promising at infinitely many n.
    """
    found: bool
    n: int | None
    witness: Poly | None
    pivot: Poly
    pivot_mult_u: int
    pivot_mult_a: int
    rows: tuple[ScanRow, ...]


def find_large_factor(a: Poly, u: Poly, min_degree: int, n_range,
                      budget: int = DEFAULT_DEGREE_BUDGET,
                      seed: int = 0) -> LargeFactorReport:
    if a.is_zero():
        raise ValueError("A must be nonzero")
    if u.deg < 1:
        raise ValueError("U must be nonconstant")
    if u.derivative().is_zero():
        raise ValueError("U' must be nonzero")
    if min_degree < 1:
        raise ValueError("M must be >= 1")
    field = u.field
    p = field.p
    pivot = mult_u = None
    for prime, mult in factor(u, seed).factors:
        if mult % p:
            pivot, mult_u = prime, mult
            break
    assert pivot is not None  # guaranteed by U' != 0
    mult_a = 0
    rem = a
    while True:
        quo, r = divmod(rem, pivot)
        if not r.is_zero():
            break
        rem = quo
        mult_a += 1
    rows = []
    found_n = witness = None
    for n in n_range:
        if u.deg * n > budget:
            raise BudgetExceeded("deg(U^n) = %d exceeds budget" % (u.deg * n))
        in_s = (n * mult_u - mult_a) % p != 0
        diff = a - u ** n
        if diff.is_zero():
            rows.append(ScanRow(n=n, in_s=in_s, diff_degree=None,
                                max_factor_degree=None, qualifies=False))
            continue
        dd = diff.deg
        dd = None if dd is NEG_INF else dd
        parts = factor(diff, seed).factors
        max_deg = max((g.deg for g, _ in parts), default=0)
        ok = max_deg >= min_degree
        rows.append(ScanRow(n=n, in_s=in_s, diff_degree=dd,
                            max_factor_degree=max_deg, qualifies=ok))
        if ok:
            found_n = n
            witness = next(g for g, _ in parts if g.deg >= min_degree)
            break
    return LargeFactorReport(found=found_n is not None, n=found_n,
                             witness=witness, pivot=pivot,
                             pivot_mult_u=mult_u, pivot_mult_a=mult_a,
                             rows=tuple(rows))
