"""Finite fields F_q with q = p^e and exact element arithmetic.

Field elements are plain ints in [0, q).  For a prime field the int is the
residue mod p.  For an extension field the base-p digits of the int are the
coordinates in the power basis 1, x, ..., x^(e-1) of F_p[x]/(modulus), so
integer order on codes agrees with comparing coordinate vectors from the
highest basis index down.  That ordering convention is relied on everywhere
else in the package.

Extension fields are table-backed.  Addition and negation act on coordinates.
Multiplication and inversion come from the cyclic unit group: with g its
least generator, exp[i] = g^i and log inverts exp, so a*b = exp[log a + log b]
and 1/a = exp[-log a], indices mod q-1.  The powers of g, the modulus search
and the irreducibility check all run on the package's one F_p[x] core, `Poly`
and `factor.is_irreducible`; those modules import this one, so they are
imported inside the functions that use them.
"""

from __future__ import annotations


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending."""
    out = [1]
    for r in prime_factors(n):
        e = 1
        while n % r ** (e + 1) == 0:
            e += 1
        out = [d * r ** k for d in out for k in range(e + 1)]
    return sorted(out)


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# for every n below this bound (Sorenson and Webster, Math. Comp. 2017).
PRIME_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Exact primality of n < PRIME_LIMIT; larger n raise ValueError."""
    if n >= PRIME_LIMIT:
        raise ValueError("primality is only decided below %d" % PRIME_LIMIT)
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def default_modulus(p: int, e: int) -> tuple[int, ...]:
    """First monic irreducible of degree e over F_p in canonical order.

    Candidates x^e + c, with the lower coefficient vector c scanned in
    ascending base-p code order, which matches comparing coefficient tuples
    from the highest index down.
    """
    from .factor import is_irreducible
    from .poly import monic_polys_of_degree
    for f in monic_polys_of_degree(FiniteField(p), e):
        if is_irreducible(f):
            return f.coeffs
    raise AssertionError("no irreducible of degree %d over F_%d" % (e, p))


_EXT_TABLE_LIMIT = 256


class FiniteField:
    """The field F_q, q = p^e, with element codes 0..q-1.

    For e > 1 a monic irreducible modulus over F_p of degree e is required;
    when omitted the canonically least one is chosen.  Extension fields are
    table-backed and limited to q <= 256, which covers desk-scale use.
    """

    __slots__ = ("p", "e", "q", "modulus", "_add", "_mul", "_inv", "_neg")

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError("p must be prime, got %r" % (p,))
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        # p >= 2, so e > 8 puts p^e past the table limit: refuse it before
        # computing a power that may not fit in memory
        if e > 1 and (e > 8 or p ** e > _EXT_TABLE_LIMIT):
            raise ValueError(
                "extension fields are supported up to q = %d" % _EXT_TABLE_LIMIT)
        self.p = p
        self.e = e
        self.q = p ** e
        if e == 1:
            if modulus is not None:
                raise ValueError("modulus only applies to extension fields")
            self.modulus = None
            self._add = self._mul = self._inv = self._neg = None
            return
        if modulus is None:
            modulus = default_modulus(p, e)
        else:
            modulus = tuple(int(c) for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            if any(not (0 <= c < p) for c in modulus):
                raise ValueError("modulus coefficients must be reduced mod p")
            from .factor import is_irreducible
            from .poly import Poly
            if not is_irreducible(Poly(FiniteField(p), modulus)):
                raise ValueError("modulus is reducible over F_%d" % p)
        self.modulus = modulus
        self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits) -> int:
        a = 0
        for c in reversed(list(digits)):
            a = a * self.p + c
        return a

    def _build_tables(self):
        from .poly import Poly
        p, q = self.p, self.q
        # Coordinatewise tables, one base-p digit at a time: with w = p^k
        # and the tables known on codes below w, a code a + w*x (a < w) adds
        # and negates digit x on top of them.
        add, neg = [[0]], [0]
        for k in range(self.e):
            w = p ** k
            add = [[v + w * ((x + y) % p) for y in range(p) for v in row]
                   for x in range(p) for row in add]
            neg = [v + w * (-x % p) for x in range(p) for v in neg]
        self._add = tuple(map(tuple, add))
        self._neg = tuple(neg)
        # The unit group is cyclic of order q-1: take its least generator g,
        # tabulate exp[i] = g^i and its inverse log, then a*b and 1/a are
        # look-ups.  The modulus need not be primitive, so x may not be g.
        Fp = FiniteField(p)
        mod = Poly(Fp, self.modulus)
        order = q - 1
        cofactors = [order // r for r in prime_factors(order)]
        one = Poly.one(Fp)
        for a in range(2, q):
            g = Poly(Fp, self._digits(a))
            if all(g.powmod(k, mod) != one for k in cofactors):
                break
        exp = []
        h = one
        for _ in range(order):
            exp.append(self._encode(h.coeffs))
            h = (h * g) % mod
        log = [0] * q
        for i, code in enumerate(exp):
            log[code] = i
        self._mul = ((0,) * q,) + tuple(
            (0,) + tuple(exp[(log[a] + log[b]) % order] for b in range(1, q))
            for a in range(1, q))
        self._inv = (0,) + tuple(exp[-log[a] % order] for a in range(1, q))

    # -- arithmetic -----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return self._add[a][b]

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p) if self.p > 2 else a
        return self._inv[a]

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        r = 1
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

    def pth_root(self, a: int) -> int:
        # a = b^p has the unique root b = a^(p^(e-1)); Frobenius is bijective.
        return self.pow(a, self.q // self.p)

    # -- structure ------------------------------------------------------------

    def coords(self, a: int) -> tuple[int, ...]:
        if not (0 <= a < self.q):
            raise ValueError("element code out of range")
        return tuple(self._digits(a))

    def from_coords(self, coords) -> int:
        coords = list(coords)
        if len(coords) != self.e or any(not (0 <= c < self.p) for c in coords):
            raise ValueError("bad coordinate vector %r" % (coords,))
        return self._encode(coords)

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    # -- identity -------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and self.p == other.p and self.e == other.e
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return "FiniteField(%d)" % self.p
        return "FiniteField(%d, %d, modulus=%r)" % (self.p, self.e, self.modulus)
