"""The rational function field K = F_q(t).

RatFunc keeps every value as a reduced fraction with monic denominator, so
equality is structural and hashing works.  Polynomials over K are not built
from RatFunc: relations holds them as N(X)/d over F_q[t] and makes RatFunc
coefficients only for its reports.
"""

from __future__ import annotations

from .errors import ExactDivisionError
from .poly import Poly, format_poly, poly_gcd


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

