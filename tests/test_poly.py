import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqtlab import poly as poly_module
from fqtlab.errors import BudgetExceeded, PolyParseError
from fqtlab.field import FiniteField
from fqtlab.poly import (NEG_INF, Modulus, Poly, _horner, crt, format_poly,
                         format_poly_compact,
                         monic_polys_of_degree, parse_poly, poly_gcd,
                         poly_xgcd, polys_up_to)

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)

t = Poly.gen(F2)
u = Poly.gen(F3)
one = Poly.one(F2)


def P2(*coeffs):
    return Poly(F2, list(coeffs))


def P3(*coeffs):
    return Poly(F3, list(coeffs))


# the canonical order is the base-q integer order on coefficient codes
def test_canonical_order_first_sixteen():
    got = [format_poly(Poly.from_index(F2, k)) for k in range(16)]
    assert got == [
        "0", "1", "t", "t+1",
        "t^2", "t^2+1", "t^2+t", "t^2+t+1",
        "t^3", "t^3+1", "t^3+t", "t^3+t+1",
        "t^3+t^2", "t^3+t^2+1", "t^3+t^2+t", "t^3+t^2+t+1",
    ]


def test_index_roundtrip():
    for k in range(200):
        assert Poly.from_index(F3, k).index() == k


@pytest.mark.parametrize("e", [2, 3, 4, 5, 6])
def test_char2_index_matches_the_digit_loop(e):
    # F_4 to F_32 read their index as one base-q string; F_64 runs the loop
    F = FiniteField(2, e)
    rng = random.Random(e)
    for n in (0, 1, 2, 9, 300):
        a = Poly(F, [rng.randrange(F.q) for _ in range(n)])
        k = 0
        for c in reversed(a.coeffs):
            k = k * F.q + c
        assert a.index() == k
        assert Poly.from_index(F, k) == a


def test_degree_and_zero():
    assert Poly.zero(F2).deg is NEG_INF
    assert one.deg == 0
    assert t.deg == 1
    assert P2(1, 0, 1).deg == 2
    assert Poly(F2, [1, 1, 0, 0]).deg == 1  # trailing zeros trimmed


def test_basic_arithmetic_f2():
    assert (t + one) * (t + one) == P2(1, 0, 1)
    assert (t + one) * P2(1, 1, 1) == P2(1, 0, 0, 1)
    assert t * t + t == P2(0, 1, 1)
    assert -(t + one) == t + one


def test_basic_arithmetic_f3():
    assert (u + P3(2)) * (u + P3(1)) == P3(2, 0, 1)
    assert P3(1, 2) * P3(1, 2) == P3(1, 4 % 3, 4 % 3)
    assert -(u) == P3(0, 2)


def test_divmod_frozen():
    q, r = divmod(P2(0, 1, 0, 0, 0, 1), P2(1, 0, 1))  # t^5+t by t^2+1
    assert q == P2(0, 1, 0, 1) and r.is_zero()
    q, r = divmod(P2(1, 1, 0, 1), t)  # t^3+t+1 by t
    assert q == P2(1, 0, 1) and r == one
    q, r = divmod(P3(1, 1, 1), P3(2, 1))
    assert q * P3(2, 1) + r == P3(1, 1, 1) and r.deg < 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(t, Poly.zero(F2))


@st.composite
def gf_poly(draw, field, max_deg=12):
    n = draw(st.integers(min_value=0, max_value=max_deg + 1))
    coeffs = draw(st.lists(st.integers(0, field.q - 1),
                           min_size=n, max_size=n))
    return Poly(field, coeffs)


@settings(max_examples=60, deadline=None)
@given(a=gf_poly(F3), b=gf_poly(F3), c=gf_poly(F3))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(a=gf_poly(F3), b=gf_poly(F3))
def test_divmod_invariant(a, b):
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.deg < b.deg


def schoolbook_mul(a, b):
    """a*b by the textbook double loop on the field's own methods."""
    F = a.field
    out = [0] * max(0, len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return Poly(F, out)


def test_packed_matches_schoolbook():
    # GF(2) products and divisions run bit-packed at every length, 1 to 89
    rng = random.Random(7)
    for _ in range(40):
        a = Poly(F2, [rng.randrange(2) for _ in range(rng.randrange(1, 90))])
        b = Poly(F2, [rng.randrange(2) for _ in range(rng.randrange(1, 90))])
        assert a * b == schoolbook_mul(a, b)
        if not b.is_zero():
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.deg < b.deg


def test_pow_and_powmod():
    assert t ** 5 == P2(0, 0, 0, 0, 0, 1)
    assert (t + one) ** 2 == P2(1, 0, 1)
    m = P2(1, 1, 1)
    for k in range(10):
        assert t.powmod(k, m) == (t ** k) % m
    assert t ** 0 == one


@pytest.mark.parametrize("k, products", [(1, 1), (3, 3), (8, 4), (13, 6)])
@pytest.mark.parametrize("mod_len", [3, 40])  # 40: Newton division
def test_powmod_and_pow_skip_the_last_squaring(monkeypatch, k, products,
                                               mod_len):
    # square-and-multiply: one product per set bit of k, one squaring per
    # bit below the top one, and no squaring after the top bit is used;
    # powmod and ** run the one loop on kernel forms
    modulus = Poly(F3, [1] * mod_len)
    base = Poly(F3, [2, 1, 0, 1])
    expected = base.powmod(k, modulus), base ** k
    calls = []
    kmul = poly_module._kmul

    def counting_kmul(a, b, F):
        calls.append(1)
        return kmul(a, b, F)

    monkeypatch.setattr(poly_module, "_kmul", counting_kmul)
    assert base.powmod(k, modulus) == expected[0]
    assert len(calls) == products
    calls.clear()
    assert base ** k == expected[1]
    assert len(calls) == products


def random_poly(field, rng, deg):
    if deg < 0:
        return Poly.zero(field)
    cs = [rng.randrange(field.q) for _ in range(deg)]
    return Poly(field, cs + [rng.randrange(1, field.q)])


EXT_FIELDS = [F4, FiniteField(2, 3), FiniteField(3, 2)]


@pytest.mark.parametrize("field", EXT_FIELDS, ids=lambda F: "F%d" % F.q)
def test_extension_powmod_matches_pow_then_mod(field):
    rng = random.Random(field.q)
    # a unit modulus first: every residue mod it is zero, 1 included
    moduli = [Poly.constant(field, rng.randrange(1, field.q))]
    moduli += [random_poly(field, rng, d) for d in (1, 2, 3, 5, 8)]
    for m in moduli:
        for d in (-1, 0, 2, m.deg, 2 * m.deg + 3):
            a = random_poly(field, rng, d)
            for k in (0, 1, 2, 3, 7, 16, 29):
                assert a.powmod(k, m) == (a ** k) % m
    with pytest.raises(ZeroDivisionError):
        Poly.gen(field).powmod(3, Poly.zero(field))


@pytest.mark.parametrize("field", [F2, F4, FiniteField(3, 2)],
                         ids=lambda F: "F%d" % F.q)
def test_remainder_by_a_modulus_matches_remainder_by_its_poly(field):
    # a.powmod(1, mod) is one reduction of a on the Modulus's prepared
    # form; three rounds of dividends per modulus, quotients from none to
    # 60 terms.  Over GF(2) and extension fields a Modulus counts no work
    # and never builds a Newton inverse.
    rng = random.Random(field.q)
    for d in (0, 1, 3, 8):
        m = random_poly(field, rng, d)
        for _ in range(3):
            mod = Modulus(m)
            for n in (-1, 0, d - 1, d, 2 * d + 3, d + 60):
                a = random_poly(field, rng, n)
                assert a.powmod(1, mod) == a % m
            assert mod._work is None and mod._newton is None
    with pytest.raises(ZeroDivisionError):
        Modulus(Poly.zero(field))


def test_remainder_by_a_modulus_of_another_field_is_refused():
    with pytest.raises(ValueError, match="mixed-field"):
        Poly.gen(F3).powmod(1, Modulus(Poly.gen(FiniteField(3, 2))))
    with pytest.raises(ValueError, match="mixed-field"):
        Poly.gen(F2).powmod(1, Modulus(Poly.gen(F4)))


@pytest.mark.parametrize("field", [F2, F3, F4], ids=lambda F: "F%d" % F.q)
def test_powmod_builds_only_its_result(monkeypatch, field):
    # every product and remainder runs on kernel forms: no Poly operation,
    # and one Poly built, the result
    rng = random.Random(5)
    modulus = random_poly(field, rng, 30)
    base = random_poly(field, rng, 45)
    expected = (base ** 37) % modulus
    calls = []

    def counting(method):
        def wrapper(*args):
            calls.append(method)
            return original[method](*args)
        return wrapper

    original = {"__mul__": Poly.__mul__, "__divmod__": Poly.__divmod__,
                "_make": Poly._make}
    for method in ("__mul__", "__divmod__"):
        monkeypatch.setattr(Poly, method, counting(method))
    monkeypatch.setattr(Poly, "_make", staticmethod(counting("_make")))
    assert base.powmod(37, modulus) == expected
    assert calls == ["_make"]


def test_derivative():
    assert P2(1, 0, 1, 1).derivative() == P2(0, 0, 1)  # (t^3+t^2+1)' = t^2
    assert (t ** 2).derivative().is_zero()
    assert P3(0, 0, 0, 1).derivative().is_zero()  # (t^3)' = 0 over F_3
    assert P3(0, 0, 1).derivative() == P3(0, 2)


def test_evaluate():
    f = P3(1, 2, 1)  # t^2 + 2t + 1
    for c in range(3):
        assert f.evaluate(c) == (c * c + 2 * c + 1) % 3


def test_monic_scaled_shifted():
    f = P3(1, 0, 2)  # 2t^2 + 1
    assert f.monic() == P3(2, 0, 1)
    assert f.scaled(2) == P3(2, 0, 1)
    assert t.shifted(3) == t ** 4
    assert P2(1, 1).shifted(0) == P2(1, 1)


def test_sort_key_matches_index_order():
    polys = list(polys_up_to(F3, 3))
    keys = [p.sort_key() for p in polys]
    assert keys == sorted(keys)
    assert [p.index() for p in polys] == list(range(len(polys)))


def test_enumerators():
    assert len(list(polys_up_to(F2, 3))) == 16
    monics = list(monic_polys_of_degree(F3, 2))
    assert len(monics) == 9
    assert all(m.is_monic() and m.deg == 2 for m in monics)


def test_gcd_xgcd():
    a = t * (t + one)
    b = (t + one) * P2(1, 1, 1)
    g = poly_gcd(a, b)
    assert g == t + one
    g2, x, y = poly_xgcd(a, b)
    assert g2 == g
    assert x * a + y * b == g
    assert poly_gcd(Poly.zero(F2), b) == b.monic()


def test_format_human():
    assert format_poly(Poly.zero(F2)) == "0"
    assert format_poly(one) == "1"
    assert format_poly(P2(1, 1, 1)) == "t^2+t+1"
    assert format_poly(P3(2, 2)) == "2*t+2"
    a = Poly(F4, [3, 0, 2])
    assert format_poly(a) == "[0,1]*t^2+[1,1]"


def test_parse_human_and_compact():
    for text, want in [
        ("t^2+t+1", P2(1, 1, 1)),
        ("t", t),
        ("0", Poly.zero(F2)),
        ("1+t", P2(1, 1)),
        ("[1,1,1]", P2(1, 1, 1)),
    ]:
        assert parse_poly(F2, text) == want
    assert parse_poly(F3, "2*t+2") == P3(2, 2)
    assert parse_poly(F3, "2t^2") == P3(0, 0, 2)
    assert parse_poly(F4, "[0,1]*t^2+[1,1]") == Poly(F4, [3, 0, 2])


def test_parse_format_roundtrip():
    for field in (F2, F3, F4):
        for k in range(100):
            a = Poly.from_index(field, k)
            assert parse_poly(field, format_poly(a)) == a
            assert parse_poly(field, format_poly_compact(a)) == a


def test_parse_rejects_garbage():
    for bad in ["t^", "x+1", "t^-1", "2", "[1,2]", "t^2++1", "",
                "[true,false,true]"]:
        with pytest.raises(PolyParseError):
            parse_poly(F2, bad)
    # JSON booleans are not coefficients, over F_4 either
    with pytest.raises(PolyParseError):
        parse_poly(F4, "[[true,false]]")


def test_parse_caps_exponent_before_allocating():
    assert parse_poly(F2, "t^16+1", max_degree=16) == one + t ** 16
    # 10^20 does not even fit a list length: without the cap this fails
    # with OverflowError instead of allocating
    with pytest.raises(BudgetExceeded):
        parse_poly(F2, "t^%d+1" % 10 ** 20, max_degree=1 << 14)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            parse_poly(F3, "2*t^10000000", max_degree=1 << 14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the 10^7-entry coefficient list is never built


def test_coefficient_validation():
    with pytest.raises(ValueError):
        Poly(F2, [0, 2])
    with pytest.raises(ValueError):
        Poly(F3, [-1])


ROUTE_FIELDS = [F2, F3, FiniteField(7), F4, FiniteField(3, 2)]


def _codes_mul(F, a, b):
    """a*b on code lists, by the field's own operations."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def _assert_one_poly(polys):
    """Every Poly in polys is the same one, and its coeffs are canonical."""
    first = polys[0]
    for x in polys:
        assert x == first and hash(x) == hash(first)
        assert x.index() == first.index()
        cs = x.coeffs
        assert type(cs) is tuple and all(type(c) is int for c in cs)
        assert not cs or cs[-1] != 0


@pytest.mark.parametrize("F", ROUTE_FIELDS, ids=lambda F: "F%d" % F.q)
def test_one_poly_by_every_route(F):
    # the same polynomials, from codes and from kernel results, are one
    # Poly: equal, hashing equal, with one index and canonical coeffs
    rng = random.Random(F.q)
    q, x = F.q, Poly.gen(F)
    built = []
    for n in (0, 1, 2, 5, 13, 40, 70):
        cs = [rng.randrange(q) for _ in range(n)]
        if cs:
            cs[-1] = rng.randrange(1, q)
        a = Poly(F, cs + [0, 0])
        routes = [a, Poly(F, cs), Poly.from_index(F, sum(
            c * q ** i for i, c in enumerate(cs))),
            parse_poly(F, format_poly(a)),
            parse_poly(F, format_poly_compact(a)),
            _horner([Poly.constant(F, c) for c in cs], x)]
        m = len(cs) + 1
        # a below deg m1 + deg m2 is its own CRT lift
        m1, m2 = x ** m, (x + Poly.one(F)) ** m
        routes.append(crt([a % m1, a % m2], [m1, m2]))
        # a below deg m is its own first power mod m
        routes.append(a.powmod(1, m1))
        bs = [rng.randrange(q) for _ in range(rng.randrange(1, 60))] + [1]
        b = Poly(F, bs)
        r = Poly(F, [rng.randrange(q) for _ in range(len(bs) - 1)])
        quot, rem = divmod(a * b + r, b)
        routes.append(quot)
        _assert_one_poly(routes)
        _assert_one_poly([rem, r])
        _assert_one_poly([a * b, Poly(F, _codes_mul(F, cs, bs))])
        plus = [F.add(c, d) for c, d in zip(cs + [0] * len(bs),
                                            bs + [0] * len(cs))]
        _assert_one_poly([a + b, b + a, Poly(F, plus)])
        built += routes + [b, r, rem, a * b, a + b]
    # canonical order is by length, then codes from the top down
    built += [Poly(F, [rng.randrange(q) for _ in range(rng.randrange(4))])
              for _ in range(100)]
    by_codes = sorted(built, key=lambda a: (len(a.coeffs), a.coeffs[::-1]))
    assert sorted(built, key=Poly.sort_key) == by_codes
    assert sorted(built) == by_codes
