"""Table checks of run_pipeline and fit_polynomial against RatFunc evaluation.

The library clears denominators once, writing a K-poly as N(X)/d, and checks
a table entry (A, f(A)) by N(A) = d*f(A) in F_q[t].  The references below are
the checks written plainly: evaluate the K-poly at A by `kpoly_eval`, which
normalises in K after every step, and compare RatFunc values.  Verdicts,
step texts and every FitReport field must be equal to theirs.
"""

import random

import pytest

from fqtlab import (FiniteField, FitReport, FuncTable, Poly, RatFunc,
                    TriDegreeBounds, fit_polynomial, run_pipeline)
from fqtlab import ratfunc, relations
from fqtlab.ratfunc import kpoly, kpoly_clear, kpoly_eval, lagrange_interpolate


def reference_reproduces(recovered, table):
    return all(kpoly_eval(recovered, RatFunc.from_poly(a))
               == RatFunc.from_poly(v) for a, v in table.items())


def reference_step(recovered, table):
    ok = reference_reproduces(recovered, table)
    return ("reproduce_table", ok,
            "matches all %d entries" % (table.field.q ** (table.D + 1))
            if ok else "some entry disagrees")


def reference_fit(points, B, max_mismatches=10):
    points = list(points)
    coeffs = lagrange_interpolate(points[:B + 1])
    mism = []
    in_ring = True
    for x, y in points:
        val = kpoly_eval(coeffs, RatFunc.from_poly(x))
        if not val.is_poly():
            in_ring = False
        if val != RatFunc.from_poly(y) and len(mism) < max_mismatches:
            mism.append(x)
    return FitReport(coeffs=coeffs, degree_cap=B, holdout_ok=not mism,
                     mismatches=tuple(mism), values_in_ring=in_ring)


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
    bad = tampered(table, rng)
    assert not relations._reproduces(rep.recovered, bad)
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
            assert fit_polynomial(points, B) == reference_fit(points, B)
    assert fit_polynomial(table.items(), 3).holdout_ok
    assert not fit_polynomial(bad.items(), 3).holdout_ok


@pytest.mark.parametrize("pe", [(2, 1), (3, 1), (2, 2)])
def test_checks_with_a_denominator(pe):
    field = FiniteField(*pe)
    D = 3 if field.q < 4 else 2
    table = quotient_table(field, D)
    recovered = quotient_kpoly(field)
    nums, d = kpoly_clear(recovered, field)
    assert d == Poly.gen(field)
    assert relations._reproduces(recovered, table)
    assert reference_reproduces(recovered, table)
    bad = tampered(table, random.Random(4))
    assert not relations._reproduces(recovered, bad)
    assert not reference_reproduces(recovered, bad)
    points = list(table.items())
    rep = fit_polynomial(points, field.q)
    assert rep == reference_fit(points, field.q)
    assert rep.coeffs == recovered
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
    assert kpoly_clear((), field) == ((), Poly.one(field))
    assert relations._reproduces((), zero)
    assert reference_reproduces((), zero)
    bad = tampered(zero, random.Random(5))
    assert not relations._reproduces((), bad)
    assert not reference_reproduces((), bad)


def test_gcd_counts_are_pinned(monkeypatch):
    # On this (q=3, D=4) table the pipeline's 9 gcds all come from the exact
    # division in recover_polymap, and fit's 88 from lagrange_interpolate:
    # the recovered map has denominator 1, so the table checks make none.
    # Evaluating by RatFunc per entry made 1,700 and 1,779.
    calls = []
    gcd = ratfunc.poly_gcd

    def counting_gcd(a, b):
        calls.append(1)
        return gcd(a, b)

    monkeypatch.setattr(ratfunc, "poly_gcd", counting_gcd)
    field = FiniteField(3)
    table = polymap_table(field, 4, random.Random(1))
    rep = run_pipeline(table, TriDegreeBounds(1, 3, 1), Poly.gen(field), 3)
    assert rep.ok
    assert len(calls) == 9
    del calls[:]
    fit = fit_polynomial(table.items(), 3)
    assert fit.holdout_ok and fit.values_in_ring
    assert len(calls) == 88
