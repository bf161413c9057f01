"""Factorization of univariate polynomials over F_q, char p aware.

The pipeline is squarefree decomposition (with p-th-root descent when the
derivative vanishes), then splitting by factor degree, then equal-degree
splitting.  Equal-degree splitting trial-divides against all monic
polynomials of the target degree while q^d is small, which is deterministic
with no randomness at all; larger instances use the usual randomized
splitting driven by a seeded generator (default seed 0), so results are
reproducible run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .field import prime_factors
from .poly import Modulus, Poly, monic_polys_of_degree, poly_gcd

# Deterministic trial-division splitting is used while q^d stays below this.
EDF_ENUM_LIMIT = 512


@dataclass(frozen=True)
class FactorList:
    """unit * product of monic irreducible powers, factors canonically sorted."""

    unit: int
    factors: tuple[tuple[Poly, int], ...]

    def expand(self, field=None) -> Poly:
        if field is None:
            if not self.factors:
                raise ValueError("field required to expand a constant factorization")
            field = self.factors[0][0].field
        out = Poly.constant(field, self.unit)
        for p, m in self.factors:
            out = out * p ** m
        return out

    def max_degree(self) -> int:
        return max((p.deg for p, _ in self.factors), default=0)


def pth_root(a: Poly) -> Poly:
    """The unique b with b^p = a; requires every exponent divisible by p."""
    F = a.field
    p = F.p
    cs = a.coeffs
    out = [0] * (len(cs) // p + 1)
    for i, c in enumerate(cs):
        if c and i % p:
            raise ValueError("input is not a p-th power")
        if c:
            out[i // p] = F.pth_root(c)
    return Poly(F, out)


def squarefree_decomposition(a: Poly) -> tuple[int, tuple[tuple[Poly, int], ...]]:
    """(unit, parts) with a = unit * prod g^m, the g monic squarefree and coprime."""
    if a.is_zero():
        raise ZeroDivisionError("cannot decompose the zero polynomial")
    F = a.field
    p = F.p
    unit = a.lc
    out = []
    stack = [(a.monic(), 1)]
    while stack:
        f, mult = stack.pop()
        if f.deg < 1:
            continue
        df = f.derivative()
        if df.is_zero():
            stack.append((pth_root(f), mult * p))
            continue
        c = poly_gcd(f, df)
        w = f // c
        i = 1
        while w.deg >= 1:
            y = poly_gcd(w, c)
            z = w // y
            if z.deg >= 1:
                out.append((z, i * mult))
            w = y
            c = c // y
            i += 1
        if c.deg >= 1:
            # leftover part collects exactly the multiplicities divisible by p
            stack.append((pth_root(c), mult * p))
    out.sort(key=lambda gm: (gm[1], gm[0].sort_key()))
    return unit, tuple(out)


def radical(a: Poly) -> Poly:
    """Product of the distinct monic irreducible factors of a."""
    if a.is_zero():
        raise ZeroDivisionError("radical of zero")
    if a.is_constant():
        raise ValueError("radical of a constant")
    _, parts = squarefree_decomposition(a)
    F = a.field
    out = Poly.one(F)
    for g, _ in parts:
        out = out * g
    return out


def is_irreducible(f: Poly) -> bool:
    """Rabin's test: t^(q^n) = t mod f and no fixed subfield at n/r."""
    if f.deg < 1:
        return False
    f = f.monic()
    n = f.deg
    if n == 1:
        return True
    F = f.field
    t = Poly.gen(F)
    h = t % f
    checkpoints = {n // r for r in prime_factors(n)}
    mod = Modulus(f)
    for k in range(1, n + 1):
        h = h.powmod(F.q, mod)
        if k in checkpoints:
            if poly_gcd(h - t, f).deg > 0:
                return False
    return h == t % f


def distinct_degree_split(a: Poly) -> list[tuple[Poly, int]]:
    """For monic squarefree a: [(product of its degree-d factors, d)]."""
    F = a.field
    t = Poly.gen(F)
    out = []
    f = a
    h = t % f
    mod = None  # f prepared for powmod, built once per f
    d = 0
    while f.deg >= 1:
        d += 1
        if 2 * d > f.deg:
            out.append((f, f.deg))
            break
        if mod is None:
            mod = Modulus(f)
        h = h.powmod(F.q, mod)
        g = poly_gcd(f, h - t)
        if g.deg >= 1:
            out.append((g, d))
            f = f // g
            if f.deg < 1:
                break
            h = h % f
            mod = None
    return out


def _split_once(f: Poly, d: int, rng: random.Random) -> Poly:
    """A proper monic factor of f, where f is a product of >= 2 irreducibles
    of degree d."""
    F = f.field
    q, p = F.q, F.p
    mod = Modulus(f)
    while True:
        a = Poly.from_index(F, rng.randrange(1, q ** f.deg))
        g = poly_gcd(a, f)
        if 0 < g.deg < f.deg:
            return g
        if p == 2:
            # additive trace of a into F_2 splits with probability ~1/2
            acc = a % f
            term = a % f
            for _ in range(F.e * d - 1):
                term = (term * term) % f
                acc = acc + term
            g = poly_gcd(acc, f)
        else:
            b = a.powmod((q ** d - 1) // 2, mod)
            g = poly_gcd(b - Poly.one(F), f)
        if 0 < g.deg < f.deg:
            return g


def equal_degree_factor(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """All monic irreducible factors of f, each of degree d."""
    F = f.field
    if f.deg == d:
        return [f]
    if F.q ** d <= EDF_ENUM_LIMIT:
        out = []
        rem = f
        for cand in monic_polys_of_degree(F, d):
            if rem.deg < d:
                break
            q, r = divmod(rem, cand)
            if r.is_zero():
                out.append(cand)
                rem = q
        if rem.deg == d:
            out.append(rem)
        elif rem.deg >= 1:
            raise AssertionError("trial division missed a factor")
        return out
    g = _split_once(f, d, rng)
    return equal_degree_factor(g, d, rng) + equal_degree_factor(f // g, d, rng)


def factor(a: Poly, seed: int = 0) -> FactorList:
    """Complete factorization unit * prod P_i^(m_i), deterministic for a seed."""
    if a.is_zero():
        raise ZeroDivisionError("cannot factor zero")
    rng = random.Random(seed)
    unit, parts = squarefree_decomposition(a)
    found = []
    for g, mult in parts:
        for block, d in distinct_degree_split(g):
            for p in equal_degree_factor(block, d, rng):
                found.append((p, mult))
    found.sort(key=lambda pm: pm[0].sort_key())
    return FactorList(unit=unit, factors=tuple(found))
