"""The rational function field K = F_q(t) and polynomials over it.

RatFunc keeps every value as a reduced fraction with monic denominator, so
equality is structural and hashing works.  Polynomials in an outer variable
X with RatFunc coefficients ("K-polys") are plain tuples of RatFunc, trailing
zeros stripped; the small helper set below covers the arithmetic the package
needs, including exact division and Lagrange interpolation.
"""

from __future__ import annotations

from .errors import ExactDivisionError
from .poly import NEG_INF, Poly, format_poly, poly_gcd


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        field = num.field
        if den is None:
            den = Poly.one(field)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = Poly.one(field)
        else:
            g = poly_gcd(num, den)
            if g.deg > 0:
                num, den = num // g, den // g
            if den.lc != 1:
                inv = field.inv(den.lc)
                num, den = num.scaled(inv), den.scaled(inv)
        self.num = num
        self.den = den

    @classmethod
    def _make(cls, num, den):
        obj = object.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    @classmethod
    def zero(cls, field):
        return cls._make(Poly.zero(field), Poly.one(field))

    @classmethod
    def one(cls, field):
        return cls._make(Poly.one(field), Poly.one(field))

    @classmethod
    def from_poly(cls, p: Poly):
        return cls._make(p, Poly.one(p.field))

    @property
    def field(self):
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.deg == 0

    def to_poly(self) -> Poly:
        if not self.is_poly():
            raise ExactDivisionError("%s is not a polynomial" % self)
        return self.num

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, Poly):
            other = RatFunc.from_poly(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other):
        return RatFunc(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __neg__(self):
        return RatFunc._make(-self.num, self.den)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = RatFunc.one(self.field)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        if self.is_poly():
            return "(%s)" % format_poly(self.num)
        return "(%s)/(%s)" % (format_poly(self.num), format_poly(self.den))


# -- polynomials over K -------------------------------------------------------


def kpoly(coeffs) -> tuple[RatFunc, ...]:
    cs = list(coeffs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def kpoly_from_polys(coeffs) -> tuple[RatFunc, ...]:
    return kpoly([RatFunc.from_poly(c) for c in coeffs])


def kpoly_zero() -> tuple[RatFunc, ...]:
    return ()


def kpoly_deg(a):
    return len(a) - 1 if a else NEG_INF


def kpoly_add(a, b):
    field = (a or b)[0].field if (a or b) else None
    if field is None:
        return ()
    out = list(a) + [RatFunc.zero(field)] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return kpoly(out)


def kpoly_neg(a):
    return tuple(-c for c in a)

def kpoly_sub(a, b):
    return kpoly_add(a, kpoly_neg(b))


def kpoly_scale(a, c: RatFunc):
    if c.is_zero():
        return ()
    return kpoly([x * c for x in a])


def kpoly_mul(a, b):
    if not a or not b:
        return ()
    field = a[0].field
    out = [RatFunc.zero(field) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return kpoly(out)


def kpoly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("K-poly division by zero")
    field = b[0].field
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return (), kpoly(rem)
    inv_lb = b[-1].inverse()
    quot = [RatFunc.zero(field) for _ in range(len(rem) - db)]
    for i in range(len(rem) - db - 1, -1, -1):
        c = rem[i + db]
        if not c.is_zero():
            f = c * inv_lb
            quot[i] = f
            for j, bj in enumerate(b):
                rem[i + j] = rem[i + j] - f * bj
    return kpoly(quot), kpoly(rem)


def kpoly_eval(a, x: RatFunc) -> RatFunc:
    if isinstance(x, Poly):
        x = RatFunc.from_poly(x)
    field = x.field
    out = RatFunc.zero(field)
    for c in reversed(a):
        out = out * x + c
    return out


def kpoly_clear(a, field) -> tuple[tuple[Poly, ...], Poly]:
    """Clear denominators once: ((N_j), d) with d the monic lcm of the
    denominators of a and N_j = a_j * d, so a(x) = N(x)/d for every x.

    Coefficients over field; an empty a gives ((), 1).
    """
    d = Poly.one(field)
    for c in a:
        if c.den.deg > 0:
            d = d // poly_gcd(d, c.den) * c.den
    return tuple(c.num * (d // c.den) for c in a), d


def lagrange_interpolate(points) -> tuple[RatFunc, ...]:
    """Unique K-poly of degree < len(points) through the given (x, y) pairs.

    Points are (Poly, Poly) or (RatFunc, RatFunc); x values must be distinct.
    """
    pts = [(x if isinstance(x, RatFunc) else RatFunc.from_poly(x),
            y if isinstance(y, RatFunc) else RatFunc.from_poly(y))
           for x, y in points]
    if not pts:
        raise ValueError("need at least one point")
    field = pts[0][0].field
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i][0] == pts[j][0]:
                raise ValueError("duplicate interpolation nodes at positions "
                                 "%d and %d" % (i, j))
    acc = kpoly_zero()
    one = RatFunc.one(field)
    for i, (xi, yi) in enumerate(pts):
        if yi.is_zero():
            continue
        basis = kpoly([one])
        denom = one
        for j, (xj, _) in enumerate(pts):
            if j == i:
                continue
            basis = kpoly_mul(basis, kpoly([-xj, one]))
            denom = denom * (xi - xj)
        acc = kpoly_add(acc, kpoly_scale(basis, yi / denom))
    return acc
