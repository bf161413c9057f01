"""run_pipeline, fit_polynomial and recover_polymap against the RatFunc path.

The library holds a map in K[X] as N(X)/d over F_q[t]: it interpolates and
divides there, and checks a table entry (A, f(A)) by N(A) = d*f(A).  The
references below are the same steps written plainly on RatFunc K-polys
(`helpers`): Lagrange interpolation and long division in K[X], and
evaluation by `kpoly_eval`, which normalises in K after every step.
Verdicts, step texts and every FitReport field must be equal to theirs.
"""

import random
import re
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from fqtlab import (ExactDivisionError, FiniteField, FitReport, FuncTable,
                    LinearAnsatz, LinearCaps, Poly, RatFunc, TriDegreeBounds,
                    fit_polynomial, recover_polymap, run_pipeline)
from fqtlab import ratfunc, relations
from helpers import (kpoly, kpoly_clear, kpoly_divmod, kpoly_eval,
                     kpoly_from_polys, kpoly_mul, lagrange_interpolate)


def reference_reproduces(recovered, table):
    return all(kpoly_eval(recovered, RatFunc.from_poly(a))
               == RatFunc.from_poly(v) for a, v in table.items())


def reference_step(recovered, table):
    ok = reference_reproduces(recovered, table)
    return ("reproduce_table", ok,
            "matches all %d entries" % (table.field.q ** (table.D + 1))
            if ok else "some entry disagrees")


def reference_fit(points, B, max_mismatches=10):
    if max_mismatches < 0:
        raise ValueError("max_mismatches must be >= 0")
    points = list(points)
    coeffs = lagrange_interpolate(points[:B + 1])
    mism = []
    in_ring = True
    for x, y in points:
        val = kpoly_eval(coeffs, RatFunc.from_poly(x))
        if not val.is_poly():
            in_ring = False
        if val != RatFunc.from_poly(y):
            mism.append(x)
    return FitReport(coeffs=coeffs, degree_cap=B, holdout_ok=not mism,
                     mismatches=tuple(mism[:max_mismatches]),
                     values_in_ring=in_ring)


def polymap_table(field, D, rng, k=3):
    """A -> sum c_j A^j, monic of X-degree k, with degree-1 coefficients."""
    cs = [Poly(field, [rng.randrange(field.q), 1]) for _ in range(k)]
    return FuncTable.from_polymap(field, D, cs + [Poly.one(field)])


def tampered(table, rng):
    """The table with one entry above degree 0 moved off its value."""
    F = table.field
    a = Poly.from_index(F, rng.randrange(F.q, F.q ** (table.D + 1)))
    return table.with_value(a, table.lookup(a) + Poly.one(F))


def quotient_table(field, D):
    """A -> (A^q - A)/t: every A^q - A vanishes at t = 0, so the map keeps
    F_q[t] although its K-poly has denominator t."""
    t = Poly.gen(field)
    return FuncTable.from_function(field, D, lambda a: (a ** field.q - a) // t)


def quotient_kpoly(field):
    q, t = field.q, Poly.gen(field)
    coeffs = [RatFunc.zero(field)] * (q + 1)
    coeffs[1] = RatFunc(-Poly.one(field), t)
    coeffs[q] = RatFunc(Poly.one(field), t)
    return kpoly(coeffs)


FIELDS = [((2, 1), 5), ((3, 1), 4), ((2, 2), 3)]
IDS = ["q%dD%d" % (p ** e, D) for (p, e), D in FIELDS]


@pytest.mark.parametrize("pe, D", FIELDS, ids=IDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_pipeline_matches_reference_on_seeded_tables(pe, D, seed):
    field = FiniteField(*pe)
    rng = random.Random(seed)
    table = polymap_table(field, D, rng)
    rep = run_pipeline(table, TriDegreeBounds(1, 3, 1), Poly.gen(field), 3)
    assert rep.ok and rep.recovered is not None
    assert rep.steps[-1] == reference_step(rep.recovered, table)
    assert rep.reproduces_table == reference_reproduces(rep.recovered, table)
    nums, d = relations._pseudo_quotient(rep.ansatz)
    assert (nums, d) == kpoly_clear(rep.recovered, field)
    bad = tampered(table, rng)
    assert not relations._reproduces(nums, d, bad)
    assert not reference_reproduces(rep.recovered, bad)
    bad_rep = run_pipeline(bad, TriDegreeBounds(1, 3, 1), Poly.gen(field), 3)
    assert not bad_rep.ok
    if bad_rep.recovered is not None:
        assert bad_rep.steps[-1] == reference_step(bad_rep.recovered, bad)


@pytest.mark.parametrize("pe, D", FIELDS, ids=IDS)
def test_fit_matches_reference_on_seeded_tables(pe, D):
    field = FiniteField(*pe)
    rng = random.Random(3)
    table = polymap_table(field, D, rng)
    bad = tampered(table, rng)
    for tab in (table, bad):
        points = list(tab.items())
        for B in range(5):
            # the holdout fails on any mismatch; a cap only truncates the list
            for cap in (0, 1, 3, 10):
                assert (fit_polynomial(points, B, cap)
                        == reference_fit(points, B, cap))
    assert fit_polynomial(table.items(), 3).holdout_ok
    assert not fit_polynomial(bad.items(), 3, 0).holdout_ok
    for fit in (fit_polynomial, reference_fit):
        with pytest.raises(ValueError, match="max_mismatches must be >= 0"):
            fit(bad.items(), 3, -1)


@pytest.mark.parametrize("pe", [(2, 1), (3, 1), (2, 2)])
def test_checks_with_a_denominator(pe):
    field = FiniteField(*pe)
    D = 3 if field.q < 4 else 2
    table = quotient_table(field, D)
    recovered = quotient_kpoly(field)
    nums, d = kpoly_clear(recovered, field)
    assert d == Poly.gen(field)
    assert relations._reproduces(nums, d, table)
    assert reference_reproduces(recovered, table)
    bad = tampered(table, random.Random(4))
    assert not relations._reproduces(nums, d, bad)
    assert not reference_reproduces(recovered, bad)
    points = list(table.items())
    rep = fit_polynomial(points, field.q)
    assert rep == reference_fit(points, field.q)
    assert rep.coeffs == recovered
    assert relations._interpolate(points[:field.q + 1]) == (nums, d)
    assert rep.holdout_ok and rep.values_in_ring
    assert fit_polynomial(bad.items(), field.q) == reference_fit(
        bad.items(), field.q)


def test_fit_leaving_the_ring():
    # the line through (0, 1) and (t, 0) is 1 - X/t: its value at 1 is not
    # a polynomial
    for field in (FiniteField(2), FiniteField(3), FiniteField(2, 2)):
        t, one, zero = Poly.gen(field), Poly.one(field), Poly.zero(field)
        points = [(zero, one), (t, zero), (one, zero), (t + one, one)]
        rep = fit_polynomial(points, 1)
        assert rep == reference_fit(points, 1)
        assert not rep.values_in_ring
        assert not rep.holdout_ok


def test_fit_all_zero():
    field = FiniteField(3)
    zero = FuncTable.from_function(field, 2, lambda a: Poly.zero(field))
    points = list(zero.items())
    rep = fit_polynomial(points, 2)
    assert rep == reference_fit(points, 2)
    assert rep.coeffs == () and rep.holdout_ok and rep.values_in_ring


def test_empty_recovered_map_is_zero():
    field = FiniteField(2)
    zero = FuncTable.from_function(field, 3, lambda a: Poly.zero(field))
    one = Poly.one(field)
    assert kpoly_clear((), field) == ((), one)
    assert relations._reproduces((), one, zero)
    assert reference_reproduces((), zero)
    bad = tampered(zero, random.Random(5))
    assert not relations._reproduces((), one, bad)
    assert not reference_reproduces((), bad)


def test_gcd_counts_are_pinned(monkeypatch):
    # On this (q=3, D=4) table the recovered map is X^3 + t X^2 + (t+2) X + t.
    # The pipeline's 8 = 4 + 4: P is the constant 2, so the pseudo-division
    # makes none and hands (S, 2) to _lowest_terms, which folds
    # gcd(2, S_0, ..., S_3) in 4 gcds; then one RatFunc(N_j, 1) per
    # coefficient.  The table checks make none.  fit's 11 = 3 + 4 + 4: the
    # lcm w of the 3 weights w_i with y_i != 0 (the second of the 4 nodes has
    # y = 0), folded from 1; gcd(w, N_0, ..., N_3); and one RatFunc(N_j, 1)
    # per coefficient.  The RatFunc path made 9 and 88, and evaluating by
    # RatFunc per entry made 1,700 and 1,779.
    calls = []

    def counting(gcd, where):
        def counting_gcd(a, b):
            calls.append(where)
            return gcd(a, b)
        return counting_gcd

    for mod in (ratfunc, relations):
        monkeypatch.setattr(mod, "poly_gcd", counting(mod.poly_gcd, mod))
    field = FiniteField(3)
    table = polymap_table(field, 4, random.Random(1))
    rep = run_pipeline(table, TriDegreeBounds(1, 3, 1), Poly.gen(field), 3)
    assert rep.ok
    assert calls == [relations] * 4 + [ratfunc] * 4
    del calls[:]
    fit = fit_polynomial(table.items(), 3)
    assert fit.holdout_ok and fit.values_in_ring
    assert calls == [relations] * 7 + [ratfunc] * 4


def test_fit_builds_one_ratfunc_per_coefficient(monkeypatch):
    # RatFunc appears only at the report boundary: interpolation and the
    # table checks run on (N, d), and each coefficient is built once
    built = []
    init, make = RatFunc.__init__, RatFunc._make.__func__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    def counting_make(cls, *args):
        built.append(1)
        return make(cls, *args)

    monkeypatch.setattr(RatFunc, "__init__", counting_init)
    monkeypatch.setattr(RatFunc, "_make", classmethod(counting_make))
    for pe, D in FIELDS:
        field = FiniteField(*pe)
        for tab in (polymap_table(field, D, random.Random(6)),
                    quotient_table(field, min(D, 3))):
            for B in range(4):
                del built[:]
                rep = fit_polynomial(tab.items(), B)
                assert len(built) == len(rep.coeffs)


# -- properties: the F_q[t] forms against the RatFunc path ------------------------

SMALL_FIELDS = [FiniteField(2), FiniteField(3), FiniteField(2, 2)]


def outcome(fn, *args):
    """fn's result, or the text of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def fit_cases(draw):
    """Up to 6 points with t-degree <= 2 inputs, repeats allowed, and values
    that are often zero; B leaves the rest as holdout."""
    field = draw(st.sampled_from(SMALL_FIELDS))
    q = field.q
    n = draw(st.integers(1, 6))
    xs = draw(st.lists(st.integers(0, q ** 3 - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.one_of(st.just(0), st.integers(0, q ** 4 - 1)),
                       min_size=n, max_size=n))
    points = [(Poly.from_index(field, x), Poly.from_index(field, y))
              for x, y in zip(xs, ys)]
    return points, draw(st.integers(0, n - 1))


@given(fit_cases())
@settings(max_examples=150, deadline=None)
def test_fit_matches_reference_property(case):
    points, B = case
    assert outcome(fit_polynomial, points, B) == outcome(reference_fit,
                                                          points, B)
    nodes = points[:B + 1]
    try:
        ref = lagrange_interpolate(nodes)
    except ValueError as exc:  # repeated nodes: the same error text
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            relations._interpolate(nodes)
    else:
        field = nodes[0][0].field
        assert relations._interpolate(nodes) == kpoly_clear(ref, field)


@st.composite
def division_cases(draw):
    """P = g * P0 with P0 of X-degree 0-2 and leading coefficient not 1, and
    -Q either P0 * S exactly (S = 0 gives Q = 0), so that -Q/P = S/g has
    the content g as a denominator, or P0 * S plus a random remainder."""
    field = draw(st.sampled_from(SMALL_FIELDS))
    q = field.q

    def coeffs(lo, n):
        return [Poly.from_index(field, k) for k in
                draw(st.lists(st.integers(lo, q ** 3 - 1), min_size=n,
                              max_size=n))]

    p0 = coeffs(0, draw(st.integers(0, 2))) + coeffs(2, 1)
    g = coeffs(1, 1)[0]
    s = coeffs(0, draw(st.integers(0, 3)))
    neg_q = [c.to_poly() for c in kpoly_mul(kpoly_from_polys(p0),
                                            kpoly_from_polys(s))]
    if draw(st.booleans()):
        neg_q = [a + b for a, b in zip_longest(neg_q, coeffs(0, len(p0) - 1),
                                               fillvalue=Poly.zero(field))]
    while neg_q and neg_q[-1].is_zero():
        neg_q.pop()
    caps = LinearCaps(len(p0) - 1, 5, max(len(neg_q) - 1, 0), 8)
    return LinearAnsatz(tuple(g * c for c in p0), tuple(-c for c in neg_q),
                        caps)


@given(division_cases())
@settings(max_examples=150, deadline=None)
def test_recover_matches_reference_division_property(ansatz):
    quot, rem = kpoly_divmod(kpoly_from_polys(-c for c in ansatz.q_coeffs),
                             kpoly_from_polys(ansatz.p_coeffs))
    if rem:
        with pytest.raises(ExactDivisionError, match=re.escape(
                "-Q is not divisible by P in K[X]")):
            recover_polymap(ansatz)
    else:
        assert recover_polymap(ansatz) == quot
        field = ansatz.p_coeffs[-1].field
        assert relations._pseudo_quotient(ansatz) == kpoly_clear(quot, field)


def test_recover_from_zero_p():
    field = FiniteField(3)
    caps = LinearCaps(1, 0, 1, 0)
    for p in ((), (Poly.zero(field),)):
        ansatz = LinearAnsatz(p, (Poly.one(field),), caps)
        with pytest.raises(ValueError, match="cannot recover a map from P = 0"):
            recover_polymap(ansatz)
