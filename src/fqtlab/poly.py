"""Dense univariate polynomials over a finite field, in the variable t.

A Poly holds one form, its kernel form `_k`: a bit-packed int over GF(2)
(bit i is the coefficient of t^i), the tuple of element codes, little-endian,
otherwise; neither has trailing zeros, so equal polynomials compare and hash
equal.  `coeffs`, the code tuple, is derived from the form on each read.
The zero polynomial has degree NEG_INF, a sentinel that is below every
integer and absorbing under degree arithmetic.

Canonical order: first by degree, then coefficients compared from the
highest index down.  Equivalently, polynomials of a fixed field are ordered
by their index sum(code(c_i) * q^i), which `index`/`from_index` expose and
`sort_key` is; all enumeration in the package walks indices ascending.

Arithmetic runs on kernel forms.  One private layer picks the kernel by
field kind, one routine per job: `_kmul` multiplies, `_kadd` adds, `_krem`
takes a remainder, `_kpow` is the one square-and-multiply loop, `_kindex`
the one index loop, `_klen` the one length, `_newton_inverse` the one
builder of Newton data, and `Poly._make` the one way back to a Poly.
`Poly.__mul__`, `+`, `**`, `scaled`, `_horner`, `Modulus`, `poly_gcd` (over
GF(2) and extension fields), `CRTBasis.lift` and `residues.index_arrays` all
go through it; `Poly.__divmod__` is the only path that returns a quotient.
The results never depend on the kernel chosen.  The whole-table checks of
`relations._vanishing_scan` work below it, on packed forms: `_mul2` and XOR
over GF(2), and over odd p Kronecker ints from `_kron_pack`, with slots of
`_slot_width` bytes sized by the value at t = 1, read by `_kron_slots`.

GF(2) forms multiply and reduce by shifts and XOR at every length.  Other
prime fields run loops on plain ints, reduced mod p once at the end; once
len(a)*len(b) reaches _KRON_MIN_WORK a product is one bigint multiply
(Kronecker substitution).  A division takes its quotient from a Newton
inverse of the reversed divisor, and its remainder from one more product,
once the schoolbook work done against that divisor reaches _NEWTON_WORK:
(quotient length)*deg(divisor), summed over its divisions and counting the
current one.  A single `divmod` counts only its own work; a `Modulus`
counts every reduction it has served and builds its inverse once, when the
sum crosses the bound.  `//` and `%` go through `divmod`.  Extension fields
run schoolbook loops on the field's tables.  Sums XOR the packed ints over
GF(2) and act coefficientwise on the codes otherwise: XOR over
characteristic 2, plain ints mod p over other prime fields, the tables
otherwise; a difference is a sum with the negation.

`Modulus(P)` is the one prepared modulus, after NTL's zz_pXModulus:
`Poly.powmod` runs `_kpow` on one and `CRTBasis` keeps one per modulus.  A
caller raising many residues to powers mod one P (`factor`'s distinct-degree
split, Rabin's test, equal-degree splitting) builds it once and passes it
instead of P, so the work of all its powers counts towards one inverse.

`poly_gcd` runs all of Euclid on kernel forms and builds one Poly at the
end; over odd p it packs each operand once into a Kronecker form with
unreduced slots (`_gcd_p`).

`CRTBasis` lifts residues in Kronecker form: each cofactor M/P_i is packed
into one int once per basis, with a block of 2e-1 slots per coefficient of
t, and a lift sums the products of the short c_i with those ints; over
GF(2) the sum is the lift's kernel form, otherwise it is unpacked once.
`residues._index_array`, one F_p-linear sum on packed columns, reduces many
polynomials mod many moduli at once for both certify's residue map and the
counterexample build.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from functools import lru_cache

from .errors import BudgetExceeded, NotCoprime, PolyParseError
from .field import FiniteField

NEG_INF = float("-inf")

# Size crossovers between the odd-p kernels, measured with timeit on random
# inputs (p = 3, 7 and 10007).  A schoolbook loop costs one step per pair
# of terms, so the switches are on that count: a product of len(a)*len(b)
# terms, a division of (quotient length)*deg(b).
# Kronecker multiply from _KRON_MIN_WORK term pairs on,
_KRON_MIN_WORK = 100
# and Newton division by a divisor once the schoolbook work done against it,
# counting the current division, reaches _NEWTON_WORK: a single `divmod`
# counts its own, a `Modulus` every reduction it has served.  On single
# divisions (lengths 8 to 300 each) Newton took 1.5-5x as long as the
# schoolbook loop below 1,000, ran level near 3,000 and 2-11x as fast from
# 10,000 on.  On plain `radical` passes bounds of 640 to 3,000 ran within
# 1 % of each other and 6,000 ran 2 % slower.
_NEWTON_WORK = 3000


# -- GF(2): one bit per coefficient ------------------------------------------
#
# The one bit format of the package: linalg packs its GF(2) rows with
# `_pack2` too.

# digit characters for codes below 32; `_kindex` reads base 2^e with them
_TO_DIGITS = bytes.maketrans(bytes(range(32)),
                             b"0123456789abcdefghijklmnopqrstuv")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _pack2(bits) -> int:
    """The int whose bit i is bits[i], for a sequence of 0s and 1s."""
    return int(bytes(bits)[::-1].translate(_TO_DIGITS) or b"0", 2)


def _unpack2(n: int) -> bytes:
    """The bits of n >= 0, lowest first, as bytes 0 and 1 without trailing
    zeros."""
    return bin(n)[:1:-1].encode().translate(_FROM_DIGITS) if n else b""


def _mul2(x: int, y: int) -> int:
    if x.bit_count() < y.bit_count():
        x, y = y, x
    r = 0
    while y:
        low = y & -y
        r ^= x << (low.bit_length() - 1)
        y ^= low
    return r


def _divmod2(a: int, b: int) -> tuple[int, int]:
    q = 0
    db = b.bit_length()
    da = a.bit_length()
    while da >= db:
        shift = da - db
        a ^= b << shift
        q |= 1 << shift
        da = a.bit_length()
    return q, a


def _rem2(a: int, b: int) -> int:
    """a mod b for bit-packed a and nonzero b: `_divmod2` without the
    quotient."""
    db = b.bit_length()
    da = a.bit_length()
    while da >= db:
        a ^= b << (da - db)
        da = a.bit_length()
    return a


# -- prime fields: coefficient lists of plain ints ---------------------------
#
# Sums of products are left unreduced and taken mod p once at the end.  The
# Kronecker kernel packs each factor into one int, a slot of s bytes per
# coefficient, multiplies once and reads the slots back: no slot carries,
# because a coefficient of the product is a sum of at most min(len) terms
# below (p-1)^2.  Slots are rounded up to 1, 2, 4 or 8 bytes, so `array`
# moves them at C speed; wider slots (large p) go through bytes.

_SLOT_TYPES = {array(c).itemsize: c for c in "QLIHB"}
_SWAP = sys.byteorder != "little"


def _slot_width(bound: int) -> int:
    """The bytes of a slot that holds every value up to bound >= 0."""
    need = (bound.bit_length() + 7) // 8
    return next((s for s in (1, 2, 4, 8) if need <= s), need)


def _slot_bytes(n: int, p: int) -> int:
    return _slot_width(n * (p - 1) ** 2)


def _kron_pack(cs, s: int) -> int:
    code = _SLOT_TYPES.get(s)
    if code is None:
        return int.from_bytes(b"".join([c.to_bytes(s, "little") for c in cs]),
                              "little")
    slots = array(code, cs)
    if _SWAP:
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _kron_mul(a, b, p: int, count: int) -> list:
    """The first `count` coefficients of a*b over F_p, zero-padded."""
    full = len(a) + len(b) - 1
    s = _slot_bytes(min(len(a), len(b)), p)
    x = _kron_pack(a, s)
    n = min(count, full)
    buf = (x * x if a is b else x * _kron_pack(b, s)).to_bytes(full * s,
                                                              "little")
    return _kron_slots(buf, s, n, p) + [0] * (count - n)


def _kron_slots(buf: bytes, s: int, n: int, p: int) -> list:
    """The first n slots of s bytes each in buf, reduced mod p."""
    code = _SLOT_TYPES.get(s)
    if code is None:
        return [int.from_bytes(buf[i:i + s], "little") % p
                for i in range(0, n * s, s)]
    slots = array(code, buf[:n * s])
    if _SWAP:
        slots.byteswap()
    return [c % p for c in slots]


def _mul_p(a, b, p: int) -> list:
    """a*b over F_p, p odd, for nonempty coefficient sequences, reduced."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return [x * c % p for x in a]
    if len(a) * len(b) >= _KRON_MIN_WORK:
        return _kron_mul(a, b, p, len(a) + len(b) - 1)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(b):
        if x:
            for j, y in enumerate(a, i):
                out[j] += x * y
    return [c % p for c in out]


def _series_inverse(f, m: int, p: int) -> list:
    """g with f*g = 1 mod t^m (f[0] != 0).

    Newton iteration (MCA section 9.1): if f*g = 1 + t^k*h mod t^(2k), then
    g - t^k*(g*h) is the inverse mod t^(2k).
    """
    g = [pow(f[0], -1, p)]
    k = 1
    while k < m:
        k2 = min(2 * k, m)
        h = _kron_mul(f[:k2], g, p, k2)[k:]
        g += [-c % p for c in _kron_mul(g, h, p, k2 - k)]
        k = k2
    return g


def _divmod_p(a, b, p: int, newton=None) -> tuple[list, list]:
    """Quotient and remainder over F_p, p odd, len(a) >= len(b) > 0.

    With `newton`, b's data from `_newton_inverse`, a quotient of at most
    its k terms is one product and the remainder one more (MCA section
    9.1); otherwise the schoolbook loop runs.
    """
    db = len(b) - 1
    m = len(a) - db
    if newton is not None and m <= newton[1]:
        s, k, inv, low = newton
        # quotient term l is term k-1+l of (a div t^db) * rev(1/rev(b))
        quot = _kron_slots((_kron_pack(a[db:], s) * inv >> 8 * s * (k - 1))
                           .to_bytes(m * s, "little"), s, m, p)
        # r = a - q*b needs only its terms below t^db, which come from the
        # low terms of q and b; `low` holds -b mod p, so no slot goes
        # negative
        r = _kron_pack(quot[:db], s) * low + _kron_pack(a[:db], s)
        r &= (1 << 8 * s * db) - 1
        return quot, _kron_slots(r.to_bytes(db * s, "little"), s, db, p)
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    if not db:
        return [c * inv % p for c in a], []
    rem = list(a)
    low = b[:db]
    quot = [0] * m
    for i in range(m - 1, -1, -1):
        c = rem[i + db] % p
        if c:
            f = c * inv % p
            quot[i] = f
            f = p - f
            for j, y in enumerate(low, i):
                rem[j] += f * y
    return quot, [x % p for x in rem[:db]]


def _rem_ext(a, b, F, quot=None) -> list:
    """a mod b over an extension field F, len(a) >= len(b) > 0, with
    trailing zeros left in; the quotient goes into `quot` if one is given.

    A schoolbook loop on F's addition and multiplication tables: each step
    adds f * (-b_j), and -(f * b_j) = f * (-b_j) lets the row of f in the
    multiplication table serve the whole step.
    """
    add, mul = F._add, F._mul
    db = len(b) - 1
    inv = F._inv[b[-1]]
    low = [F._neg[y] for y in b[:db]]
    rem = list(a)
    for i in range(len(a) - db - 1, -1, -1):
        c = rem[i + db]
        if c:
            f = mul[c][inv]
            if quot is not None:
                quot[i] = f
            row = mul[f]
            for j, y in enumerate(low, i):
                rem[j] = add[rem[j]][row[y]]
    return rem[:db]


def _mul_ext(a, b, F) -> list:
    """a*b over an extension field F for nonempty coefficient sequences,
    by a schoolbook loop on F's tables."""
    add, mul = F._add, F._mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            for j, y in enumerate(b, i):
                out[j] = add[out[j]][row[y]]
    return out


# -- the kernel layer --------------------------------------------------------
#
# A kernel form is a bit-packed int over GF(2) and a coefficient sequence
# without trailing zeros otherwise.  A Poly holds nothing else: its `_k` is
# its form, and `Poly._make` wraps a form (as a tuple, so kernels may return
# lists).  Every product, sum and remainder on kernel forms goes through
# _kmul, _kadd and _krem, and every Newton inverse through _newton_inverse.


def _kstrip(cs: list) -> list:
    """A list of codes without its trailing zeros, popped in place."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _kmul(a, b, F):
    """a*b on kernel forms over F; either may be zero."""
    if F.q == 2:
        return _mul2(a, b)
    if not a or not b:
        return []
    # a product of nonzero polynomials over a field has a nonzero top term
    return _mul_ext(a, b, F) if F.e > 1 else _mul_p(a, b, F.p)


def _kadd(a, b, F):
    """a+b on kernel forms over F; either may be zero.  Over characteristic
    2 an extension field's codes are bit vectors of coordinates, so XOR adds
    them too."""
    if F.q == 2:
        return a ^ b
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    if F.p == 2:
        out = [x ^ y for x, y in zip(a, b)]
    elif F.e == 1:
        p = F.p
        out = [(x + y) % p for x, y in zip(a, b)]
    else:
        add = F._add
        out = [add[x][y] for x, y in zip(a, b)]
    out.extend(a[len(b):])
    return _kstrip(out)


def _krem(a, b, F, newton=None):
    """a mod b on kernel forms over F, b nonzero.  `newton` is b's data from
    `_newton_inverse`, or None."""
    if F.q == 2:
        return _rem2(a, b)
    if len(a) < len(b):
        return a
    return _kstrip(_rem_ext(a, b, F) if F.e > 1
                   else _divmod_p(a, b, F.p, newton)[1])


def _newton_inverse(m, k, F):
    """The Newton data for dividing by the kernel form m over odd p, with
    quotients up to k terms long; callers build it once the schoolbook work
    against m reaches _NEWTON_WORK.

    The data is (s, k, rev(1/rev(m) mod t^k), -(m mod t^deg m)), the last
    two packed once in Kronecker form with slots of s bytes, wide enough
    for both products of `_divmod_p`.
    """
    db = len(m) - 1
    p = F.p
    s = _slot_bytes(max(k, db) + 1, p)
    inverse = _series_inverse(m[::-1], k, p)
    return (s, k, _kron_pack(inverse[::-1], s),
            _kron_pack([-c % p for c in m[:db]], s))


def _kpow(x, k: int, F, reduce=lambda a: a):
    """x^k on kernel forms, by square-and-multiply: one product per set bit
    of k and one squaring per bit below the top one, each passed through
    `reduce`."""
    r = 1 if F.q == 2 else (1,)
    while k:
        if k & 1:
            r = reduce(_kmul(r, x, F))
        k >>= 1
        if k:
            x = reduce(_kmul(x, x, F))
    return r


def _klen(x, F) -> int:
    """The number of coefficients of a kernel form, to its top nonzero one."""
    return x.bit_length() if F.q == 2 else len(x)


def _kindex(x, F) -> int:
    """The index of a kernel form: over GF(2) the packed int itself, over
    F_4 to F_32 its codes read as digits in base q (int() reads a base 2^e
    in linear time, with no digit limit)."""
    q = F.q
    if q == 2:
        return x
    if F.p == 2 and q <= 32:
        return int(bytes(x[::-1]).translate(_TO_DIGITS) or b"0", q)
    k = 0
    for c in reversed(x):
        k = k * q + c
    return k


class Modulus:
    """A nonzero modulus P, prepared lazily for many reductions mod P.

    It holds P's kernel form and, over odd p, counts in `_work` the
    schoolbook work of the reductions it serves.  When that reaches
    _NEWTON_WORK it builds P's `_newton_inverse` for quotients of up to
    deg P - 1 terms, what a product of two residues leaves, and stops
    counting; from then on each such reduction is two products (after
    NTL's zz_pXModulus).  `_work` is None over GF(2) and extension fields.
    `Poly.powmod` runs on one: pass a Modulus instead of P to share it among
    many powers mod P.  `CRTBasis` keeps one per modulus.
    """

    __slots__ = ("poly", "_m", "_newton", "_work")

    def __init__(self, modulus: "Poly"):
        if modulus.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = modulus.field
        self.poly = modulus
        self._m = modulus._k
        self._newton = None
        self._work = None if F.q == 2 or F.e > 1 else 0

    def _reduce(self, a):
        """a mod P on kernel forms."""
        m, F = self._m, self.poly.field
        if self._work is not None and len(a) >= len(m):
            db = len(m) - 1
            self._work += (len(a) - db) * db
            if self._work >= _NEWTON_WORK:
                self._newton = _newton_inverse(m, db - 1, F)
                self._work = None
        return _krem(a, m, F, self._newton)

    def _pow(self, x, k: int):
        """x^k mod P on kernel forms; the last reduction makes a unit P
        give 0 at k = 0."""
        reduce = self._reduce
        return reduce(_kpow(reduce(x), k, self.poly.field, reduce))


class Poly:
    """Immutable dense polynomial over a FiniteField, held as its form `_k`."""

    __slots__ = ("field", "_k")

    def __init__(self, field: FiniteField, coeffs=()):
        cs = [int(c) for c in coeffs]
        q = field.q
        for c in cs:
            if not (0 <= c < q):
                raise ValueError("coefficient code %r out of range for q=%d" % (c, q))
        self.field = field
        self._k = _pack2(cs) if q == 2 else tuple(_kstrip(cs))

    @classmethod
    def _make(cls, field, k) -> "Poly":
        """The Poly of a kernel form: trusted, k has no trailing zeros."""
        obj = object.__new__(cls)
        obj.field = field
        obj._k = k if field.q == 2 else tuple(k)
        return obj

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls.from_index(field, 0)

    @classmethod
    def one(cls, field) -> "Poly":
        return cls.from_index(field, 1)

    @classmethod
    def gen(cls, field) -> "Poly":
        """The polynomial t."""
        return cls.from_index(field, field.q)

    @classmethod
    def constant(cls, field, c: int) -> "Poly":
        if not (0 <= c < field.q):
            raise ValueError("constant code out of range")
        return cls.from_index(field, c)

    @classmethod
    def from_index(cls, field, k: int) -> "Poly":
        if k < 0:
            raise ValueError("index must be nonnegative")
        q = field.q
        if q == 2:
            return cls._make(field, k)
        cs = []
        while k:
            cs.append(k % q)
            k //= q
        return cls._make(field, cs)

    def index(self) -> int:
        return _kindex(self._k, self.field)

    # -- basic queries ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The code tuple; over GF(2) unpacked from the form on each read."""
        k = self._k
        return tuple(_unpack2(k)) if self.field.q == 2 else k

    @property
    def deg(self):
        # `_klen` inline: deg is read in the inner loops of every module
        k = self._k
        if not k:
            return NEG_INF
        return (k.bit_length() if self.field.q == 2 else len(k)) - 1

    def is_zero(self) -> bool:
        return not self._k

    def __bool__(self):
        return bool(self._k)

    @property
    def lc(self) -> int:
        k = self._k
        if not k:
            raise ValueError("zero polynomial has no leading coefficient")
        return 1 if self.field.q == 2 else k[-1]

    def is_monic(self) -> bool:
        return bool(self._k) and self.lc == 1

    def is_constant(self) -> bool:
        return _klen(self._k, self.field) <= 1

    def coefficient(self, i: int) -> int:
        cs = self.coeffs
        return cs[i] if 0 <= i < len(cs) else 0

    # -- ordering, hashing -------------------------------------------------------

    def sort_key(self):
        return self.index()

    # `is` first: polynomials almost always share one field object, and
    # FiniteField.__eq__ compares three attributes

    def _check_same_field(self, other):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed-field polynomial operation")

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return ((self.field is other.field or self.field == other.field)
                and self._k == other._k)

    def __hash__(self):
        return hash((self.field, self._k))

    def __lt__(self, other):
        self._check_same_field(other)
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        self._check_same_field(other)
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other):
        return not self.__le__(other)

    def __ge__(self, other):
        return not self.__lt__(other)

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other):
        self._check_same_field(other)
        if not other._k:
            return self
        if not self._k:
            return other
        F = self.field
        return Poly._make(F, _kadd(self._k, other._k, F))

    def __neg__(self):
        F = self.field
        if F.p == 2:
            return self
        if F.e == 1:
            p = F.p
            return Poly._make(F, tuple(p - c if c else 0 for c in self._k))
        neg = F._neg
        return Poly._make(F, tuple(neg[c] for c in self._k))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        self._check_same_field(other)
        F = self.field
        return Poly._make(F, _kmul(self._k, other._k, F))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        F = self.field
        return Poly._make(F, _kpow(self._k, k, F))

    def __divmod__(self, other):
        self._check_same_field(other)
        F = self.field
        a, b = self._k, other._k
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if F.q == 2:
            q, r = _divmod2(a, b)
            return Poly._make(F, q), Poly._make(F, r)
        db = len(b) - 1
        k = len(a) - db
        if k <= 0:
            return Poly.zero(F), self
        if F.e > 1:
            q = [0] * k
            r = _rem_ext(a, b, F, q)
        else:
            q, r = _divmod_p(a, b, F.p, _newton_inverse(b, k, F)
                             if k * db >= _NEWTON_WORK else None)
        return Poly._make(F, q), Poly._make(F, _kstrip(r))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def powmod(self, k: int, modulus) -> "Poly":
        """self^k mod modulus, a nonzero Poly or a `Modulus` built from one."""
        if k < 0:
            raise ValueError("negative exponent")
        if not isinstance(modulus, Modulus):
            modulus = Modulus(modulus)
        self._check_same_field(modulus.poly)
        return Poly._make(self.field, modulus._pow(self._k, k))

    def shifted(self, k: int) -> "Poly":
        """self * t^k."""
        if k < 0:
            raise ValueError("negative shift")
        x = self._k
        if not x:
            return self
        return Poly._make(self.field,
                          x << k if self.field.q == 2 else (0,) * k + x)

    # -- calculus, evaluation ---------------------------------------------------

    def derivative(self) -> "Poly":
        F = self.field
        cs = self.coeffs
        return Poly(F, [F.mul(cs[i], i % F.p) for i in range(1, len(cs))])

    def evaluate(self, c: int) -> int:
        F = self.field
        r = 0
        for a in reversed(self.coeffs):
            r = F.add(F.mul(r, c), a)
        return r

    def monic(self) -> "Poly":
        if self.is_zero() or self.lc == 1:
            return self
        return self.scaled(self.field.inv(self.lc))

    def scaled(self, c: int) -> "Poly":
        F = self.field
        # _kmul by (0,) would leave the zeros in
        if c == 0:
            return Poly.zero(F)
        if c == 1:
            return self
        return Poly._make(F, _kmul(self._k, (c,), F))

    def __repr__(self):
        return "Poly(%s)" % format_poly(self)

    def __str__(self):
        return format_poly(self)


def _horner(cs, z: Poly) -> Poly:
    """sum cs[j] * z^j in F_q[t], on kernel forms; zero for an empty cs."""
    F = z.field
    x = z._k
    acc = 0 if F.q == 2 else []
    for c in reversed(cs):
        acc = _kadd(_kmul(acc, x, F), c._k, F)
    return Poly._make(F, acc)


# -- enumeration ------------------------------------------------------------------


def polys_up_to(field, d: int):
    """All polynomials of degree <= d in canonical order (includes 0)."""
    for k in range(field.q ** (d + 1)):
        yield Poly.from_index(field, k)


def monic_polys_of_degree(field, d: int):
    """All monic polynomials of degree exactly d, in canonical order."""
    if d < 0:
        return
    base = field.q ** d
    for k in range(base):
        yield Poly.from_index(field, base + k)


# -- gcd machinery ------------------------------------------------------------------


# Over odd p each gcd operand is packed once into a Kronecker form with its
# coefficients in reverse, so the leading coefficient sits in slot 0 and a
# division step is: read slot 0 mod p, shift it out, and add f times the
# divisor without its leading slot, f = -lead/lc(divisor).  Slots are left
# unreduced; each form carries a bound on its slots and is reduced mod p
# (unpack, % p, repack) only when the next step could carry out of a slot.
# A slot holds _GCD_HEADROOM * (p-1)^2, rounded up as in _slot_bytes, so its
# width follows p.  A step adds at most (p-1) times the divisor's bound, so
# bounds grow about 2(p-1)-fold per remainder phase: at p = 7 a form goes
# about 8 phases between reductions, more at smaller p.  Timed on the 6,043
# gcd inputs of one seed-1 `radical` pass, headroom 2^16 and 2^32 ran alike
# and 2^8 about 25 % slower.  Above p of about 2^24 no `array` type holds a
# slot, the reductions go bytewise, and with that headroom one came in
# every phase: degree-300 gcds ran 2-4x slower than the Poly-level Euclid
# at p = 2^24+43, 2^31-1, 2^64+13 and 2^80+.  There a slot is widened to
# (2p)^4 * (p-1)^2, about 4 phases; of 1 to 24 phases, 4 timed best, level
# with the Poly-level Euclid.  There is no size crossover: the packed loops
# beat the Poly-level Euclid in every length bucket timed, from under 10 to
# 700.
_GCD_HEADROOM = 1 << 16


def _kron_reduce(x: int, s: int, n: int, p: int) -> int:
    """The Kronecker form of n slots of s bytes with each slot taken mod p."""
    return _kron_pack(_kron_slots(x.to_bytes(n * s, "little"), s, n, p), s)


def _gcd_p(a, b, p: int) -> list:
    """The monic gcd over F_p, p odd, of nonempty reduced coefficient
    sequences without trailing zeros."""
    s = _slot_bytes(_GCD_HEADROOM, p)
    if s > 8:
        s = _slot_bytes((2 * p) ** 4, p)
    w = 8 * s
    full = (1 << w) - 1  # the largest slot value, and the mask of slot 0
    if len(a) < len(b):
        a, b = b, a
    x, nx, mx = _kron_pack(a[::-1], s), len(a), p - 1
    y, ny, my = _kron_pack(b[::-1], s), len(b), p - 1
    lc = b[-1]
    while True:
        # x mod y: nx >= ny, slots of x at most mx, of y at most my
        inv = pow(lc, -1, p)
        low = y >> w
        step = (p - 1) * my
        while nx >= ny:
            if mx + step > full:
                x, mx = _kron_reduce(x, s, nx, p), p - 1
                if mx + step > full:
                    y, my = _kron_reduce(y, s, ny, p), p - 1
                    low = y >> w
                    step = (p - 1) * my
            c = (x & full) % p
            x >>= w
            nx -= 1
            if c:
                x += (p - c) * inv % p * low
                mx += step
        # the remainder's leading coefficient, past slots that are 0 mod p
        while nx:
            c = (x & full) % p
            if c:
                break
            x >>= w
            nx -= 1
        if not nx:
            break
        x, nx, mx, y, ny, my, lc = y, ny, my, x, nx, mx, c
    # inv is still 1/lc(y) from y's last phase as divisor
    return [c * inv % p
            for c in _kron_slots(y.to_bytes(ny * s, "little"), s, ny, p)[::-1]]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a and b; zero if both are zero."""
    a._check_same_field(b)
    F = a.field
    x, y = a._k, b._k
    if F.e == 1 and F.p > 2 and x and y:
        return Poly._make(F, _gcd_p(x, y, F.p))
    while y:
        x, y = y, _krem(x, y, F)
    return Poly._make(F, x).monic()


def poly_xgcd(a: Poly, b: Poly):
    """(g, u, v) with g = u*a + v*b and g monic (or zero)."""
    F = a.field
    r0, r1 = a, b
    u0, u1 = Poly.one(F), Poly.zero(F)
    v0, v1 = Poly.zero(F), Poly.one(F)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    inv = F.inv(r0.lc)
    return r0.scaled(inv), u0.scaled(inv), v0.scaled(inv)


# -- CRT lifts in Kronecker form ---------------------------------------------
#
# A lift sums products c_i*C_i of a short c_i and a long cofactor C_i, so
# each C_i is packed into one int once and the sum is kept packed (Kronecker
# substitution with segments, MCA section 8.4).  Coefficient j of t fills
# block j, 2e-1 slots wide, and its k-th coordinate over F_p (base-p digit
# of its code) fills slot k.  A product of two coefficients has degree
# <= 2e-2 in the field generator, so it stays inside its block.  Over
# characteristic 2 a slot is a bit, products are carry-less (_mul2) and sums
# XOR; over odd p a slot is s bytes, wide enough that no sum carries, and
# each slot is reduced mod p once, when unpacking.  A block read as a
# base-p number then maps to the code of its element by one table of
# p^(2e-1) <= 2^15 entries; a prime field's block is its code.

@lru_cache(maxsize=None)
def _block_tables(F) -> tuple:
    """(spread, codes) for an extension field F: spread[c] is the block of
    code c, and codes[k] the code of the block whose slots read k in base p.
    """
    p, e = F.p, F.e
    spread = tuple(F.coords(c) + (0,) * (e - 1) for c in range(F.q))
    codes = [0]
    for k in range(2 * e - 1):
        xk = F.pow(p, k)  # p is the code of the generator x
        codes = [F._add[c][F._mul[v][xk]] for v in range(p) for c in codes]
    return spread, tuple(codes)


def _blocks_pack(cs, F, s: int) -> int:
    """Kronecker form of a polynomial in kernel form, s bytes per odd-p
    slot (over GF(2) the kernel form is the Kronecker form)."""
    if F.q == 2:
        return cs
    if F.e > 1:
        spread = _block_tables(F)[0]
        cs = [d for c in cs for d in spread[c]]
    return _kron_pack(cs, s) if F.p > 2 else _pack2(cs)


def _blocks_unpack(x: int, F, s: int, n: int) -> list:
    """The codes of the first n blocks of a Kronecker form."""
    w = 2 * F.e - 1
    if F.p > 2:
        slots = _kron_slots(x.to_bytes(n * w * s, "little"), s, n * w, F.p)
    else:
        slots = _unpack2(x).ljust(n * w, b"\0")
    if w == 1:
        return list(slots)
    keys = slots[::w]
    pk = 1
    for k in range(1, w):
        pk *= F.p
        keys = [a + pk * b for a, b in zip(keys, slots[k::w])]
    codes = _block_tables(F)[1]
    return [codes[k] for k in keys]


def _nonzero_moduli(moduli) -> list:
    """The moduli as a list; raise unless there is one and none is zero."""
    moduli = list(moduli)
    if not moduli:
        raise ValueError("need at least one modulus")
    if any(m.is_zero() for m in moduli):
        raise ZeroDivisionError("zero modulus")
    return moduli


class CRTBasis:
    """Chinese-remainder data for one list of pairwise coprime moduli P_i.

    Built once, lifted many times: the constructor stores, for each P_i,
    its `Modulus`, u_i = C_i^(-1) mod P_i and the cofactor C_i = M/P_i
    (M = prod P_i), packed once into the Kronecker form above.  The xgcd
    that gives u_i checks coprimality too: gcd(C_i mod P_i, P_i) is 1 iff
    P_i is coprime to every other modulus.  `lift` takes each short
    c_i = r_i*u_i mod P_i on kernel forms (`_kmul`, the Modulus's
    `_reduce`) and adds c_i*C_i into one packed int.  Over GF(2) that int
    is the lift's kernel form; otherwise it is unpacked once.  No Poly is
    built per modulus and no field method is called per coefficient.
    Each term memoises its packed c_i by r_i's kernel form, for reduced r_i
    only (deg r_i < deg P_i), so a term holds at most q^deg P_i of them,
    and a lift whose residues recur costs one look-up, one product and one
    sum per term; the field check runs before the look-up.  An odd-p slot
    of the sum adds at most deg M * e products of two coordinates (c_i has
    deg P_i terms, and a slot pairs up at most e coordinates), so slots
    sized for that bound never carry.
    """

    __slots__ = ("modulus", "_terms", "_slot")

    def __init__(self, moduli):
        moduli = _nonzero_moduli(moduli)
        F = moduli[0].field
        total = Poly.one(F)
        for m in moduli:
            total = total * m
        s = 1 if F.p == 2 else _slot_bytes(total.deg * F.e, F.p)
        terms = []
        for i, m in enumerate(moduli):
            cof = total // m
            # a unit modulus gets u = 0: every residue is congruent mod it
            g, u, _ = poly_xgcd(cof % m, m)
            if g.deg > 0:
                # P_i shares a factor with some other P_j; i is the least
                # index in any such pair, so the partner is j > i
                j = next(j for j in range(i + 1, len(moduli))
                         if poly_gcd(m, moduli[j]).deg > 0)
                raise NotCoprime(
                    "moduli %d and %d share a nonconstant factor" % (i, j),
                    (i, j))
            terms.append((Modulus(m), u._k, _blocks_pack(cof._k, F, s), {}))
        self.modulus = total
        self._terms = tuple(terms)
        self._slot = s

    def __len__(self):
        return len(self._terms)

    def lift(self, residues) -> Poly:
        """Unique R with R = residues[i] mod P_i and deg R < deg M."""
        residues = list(residues)
        if len(residues) != len(self._terms):
            raise ValueError("residue/modulus count mismatch")
        F, s = self.modulus.field, self._slot
        # each distinct field object is compared with F once per lift, not
        # once per term: seen is the last one found equal
        seen = F
        acc = 0
        # each summand has degree < deg P_i + deg C_i = deg M: no final mod M
        for r, (m, u, cof, memo) in zip(residues, self._terms):
            if r.field is not seen:
                if r.field != F:
                    raise ValueError("mixed-field polynomial operation")
                seen = r.field
            x = r._k
            c = memo.get(x)
            if c is None:
                c = _blocks_pack(m._reduce(_kmul(x, u, F)), F, s)
                if r.deg < m.poly.deg:
                    memo[x] = c
            if c:
                acc = acc ^ _mul2(c, cof) if F.p == 2 else acc + c * cof
        if F.q == 2:  # the packed sum is the kernel form
            return Poly._make(F, acc)
        return Poly._make(F, _kstrip(_blocks_unpack(acc, F, s,
                                                    self.modulus.deg)))


def crt(residues, moduli) -> Poly:
    """Unique R with R = residues[i] mod moduli[i] and deg R < deg(prod).

    Moduli must be nonzero and pairwise coprime; a shared factor raises
    NotCoprime naming the offending pair of indices.  `moduli` may be a
    prebuilt CRTBasis, so many lifts over one moduli list share its set-up.
    """
    if not isinstance(moduli, CRTBasis):
        moduli = CRTBasis(moduli)
    return moduli.lift(residues)


# -- text formats ----------------------------------------------------------------
#
# Human form: "t^3+2*t+1"; over extension fields coefficients print as
# bracketed coordinate vectors, e.g. "[1,1]*t^2+[0,1]".  Compact form is a
# JSON array of little-endian coefficients, "[1,2,0,1]"; over extension
# fields each entry is itself a coordinate vector.  Both round-trip exactly.


def format_poly_compact(a: Poly) -> str:
    F = a.field
    if F.e == 1:
        return json.dumps(a.coeffs, separators=(",", ":"))
    return "[%s]" % ",".join(map(_coord_strings(F).__getitem__, a.coeffs))


@lru_cache(maxsize=None)
def _coord_strings(F) -> tuple:
    """The compact text of every element of an extension field F, by code."""
    return tuple(json.dumps(list(F.coords(c)), separators=(",", ":"))
                 for c in range(F.q))


def _format_coeff(F, c: int) -> str:
    return str(c) if F.e == 1 else _coord_strings(F)[c]


def format_poly(a: Poly) -> str:
    F = a.field
    if a.is_zero():
        return "0"
    cs = a.coeffs
    parts = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if not c:
            continue
        if i == 0:
            parts.append(_format_coeff(F, c))
        else:
            tpow = "t" if i == 1 else "t^%d" % i
            if c == 1:
                parts.append(tpow)
            else:
                parts.append("%s*%s" % (_format_coeff(F, c), tpow))
    return "+".join(parts)


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>\[[0-9,\s]*\]|\d+)\s*\*?\s*)?"
    r"(?:t(?:\^(?P<pow>\d+))?)?$")


def _coeff_code(field, text):
    if text.startswith("["):
        vec = json.loads(text)
        if not (isinstance(vec, list) and len(vec) == field.e
                and all(isinstance(v, int) and 0 <= v < field.p for v in vec)):
            raise PolyParseError("bad coefficient vector %r" % text)
        return field.from_coords(vec)
    c = int(text)
    if not 0 <= c < field.p:
        raise PolyParseError("coefficient %r out of range" % text)
    return c


def parse_poly(field, text: str, max_degree: int | None = None) -> Poly:
    """Parse either text format; compact form is detected as valid JSON.

    With max_degree set, a human-form exponent above it raises
    BudgetExceeded before the coefficient list is allocated.
    """
    text = text.strip()
    if not text:
        raise PolyParseError("empty polynomial literal")
    try:
        entries = json.loads(text)
    except ValueError:
        entries = None
    if isinstance(entries, list):
        if field.e > 1 and entries and all(type(v) is int for v in entries):
            # bare bracketed constant in human notation, e.g. "[1,1]" over F4
            return _parse_human(field, text, max_degree)
        cs = []
        for entry in entries:
            if field.e == 1:
                if not (type(entry) is int and 0 <= entry < field.p):
                    raise PolyParseError("expected coefficient in 0..%d, got %r"
                                         % (field.p - 1, entry))
                cs.append(entry)
            else:
                if not (isinstance(entry, list) and len(entry) == field.e
                        and all(type(v) is int and 0 <= v < field.p for v in entry)):
                    raise PolyParseError("expected %d-vector coefficient, got %r"
                                         % (field.e, entry))
                cs.append(field.from_coords(entry))
        return Poly(field, cs)
    return _parse_human(field, text, max_degree)


def _parse_human(field, text: str, max_degree: int | None) -> Poly:
    if text == "0":
        return Poly.zero(field)
    # split into signed terms, keeping bracketed vectors intact
    terms = []
    sign = 1
    depth = 0
    cur = ""
    for idx, ch in enumerate(text.replace(" ", "")):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch in "+-" and depth == 0:
            if cur:
                terms.append((sign, cur))
                sign = -1 if ch == "-" else 1
                cur = ""
            elif idx == 0:
                sign = -1 if ch == "-" else 1
            else:
                raise PolyParseError("cannot parse %r" % text)
        else:
            cur += ch
    if depth != 0 or not cur:
        raise PolyParseError("cannot parse %r" % text)
    terms.append((sign, cur))
    F = field
    out = {}
    for sgn, term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group("coeff") is None and "t" not in term):
            raise PolyParseError("cannot parse term %r" % term)
        coeff_txt = m.group("coeff")
        has_t = "t" in term
        power = int(m.group("pow")) if m.group("pow") else (1 if has_t else 0)
        if max_degree is not None and power > max_degree:
            raise BudgetExceeded("term %r has degree %d > budget %d"
                                 % (term, power, max_degree))
        try:
            code = _coeff_code(F, coeff_txt) if coeff_txt is not None else 1
        except (ValueError, PolyParseError) as exc:
            raise PolyParseError("cannot parse term %r" % term) from exc
        if sgn < 0:
            code = F.neg(code)
        out[power] = F.add(out.get(power, 0), code)
    cs = [0] * (max(out) + 1)
    for i, c in out.items():
        cs[i] = c
    return Poly(field, cs)
