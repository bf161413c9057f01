"""Relation solving, degree bounds, linear ansatz recovery, vanishing audit."""

import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from fqtlab import (BudgetExceeded, DeltaSpec, ExactDivisionError, FiniteField,
                    FuncTable, LinearAnsatz, LinearCaps, Poly, RatFunc,
                    RelationQ, TableDomainError, TriDegreeBounds,
                    build_counterexample,
                    check_degree_bound, check_vanishing_lemma, delta,
                    degree_bound_from_relation, find_linear_relation,
                    find_relation, fit_polynomial, linear_growth_fit, radical,
                    recover_polymap, run_pipeline, schedule_check,
                    unknown_count_check)
from fqtlab import poly as poly_module, relations
from fqtlab.linalg import kernel_vector
from helpers import forced_table, relation_rows

F2 = FiniteField(2)
F3 = FiniteField(3)
t = Poly(F2, [0, 1])
one = Poly.one(F2)
zero = Poly.zero(F2)


def P2(*cs):
    return Poly(F2, list(cs))


def cube_map(a):
    return a ** 3 + Poly(a.field, [0, 1]) * a


# -- bounds bookkeeping -------------------------------------------------------


def test_bounds_layout():
    b = TriDegreeBounds(1, 2, 1)
    assert b.unknowns == 2 * 3 * 2
    cols = [b.column(i, j, k) for i, j, k in b.triples()]
    assert cols == list(range(b.unknowns))
    with pytest.raises(ValueError):
        TriDegreeBounds(-1, 0, 0)


def test_counting_schedule_frozen():
    b = TriDegreeBounds.counting_schedule(2, 4)
    assert (b.i_max, b.j_max, b.k_max) == (5, 1, 72)
    with pytest.raises(ValueError):
        TriDegreeBounds.counting_schedule(2, 1)


def test_unknown_count_frozen():
    rep = unknown_count_check(2, 4)
    assert rep.unknowns == 876
    assert rep.equations == 512
    assert rep.exceeds is True and not rep.degenerate
    rep = unknown_count_check(3, 3)
    assert (rep.unknowns, rep.equations) == (3280, 2187)
    assert rep.exceeds is True
    # q = 2 with tiny M collapses the X-range
    for M in (2, 3):
        rep = unknown_count_check(2, M)
        assert rep.degenerate and rep.exceeds is None
    with pytest.raises(ValueError):
        unknown_count_check(2, 1)


# -- algebraic relation search ------------------------------------------------


def test_relation_square_map_frozen():
    tab = FuncTable.from_function(F2, 3, lambda a: a * a)
    rel = find_relation(tab, TriDegreeBounds(0, 2, 1))
    assert rel is not None
    # Q(X, Y) = X^2 + Y
    assert rel.coeffs == (0, 1, 0, 0, 1, 0)
    assert rel.coefficient(0, 2, 0) == 1
    assert rel.coefficient(0, 0, 1) == 1
    for a, v in tab.items():
        assert rel.evaluate(F2, a, v).is_zero()


def test_relation_zero_map():
    tab = FuncTable.from_function(F2, 2, lambda a: zero)
    rel = find_relation(tab, TriDegreeBounds(0, 1, 1))
    assert rel is not None
    assert rel.coeffs == (0, 1, 0, 0)  # Q = Y


def test_relation_none_when_box_too_small():
    tab = FuncTable.from_function(F2, 3, lambda a: a * a)
    assert find_relation(tab, TriDegreeBounds(0, 1, 1)) is None


def test_relation_cube_map():
    tab = FuncTable.from_function(F2, 3, cube_map)
    rel = find_relation(tab, TriDegreeBounds(1, 3, 1))
    assert rel is not None
    for a, v in tab.items():
        assert rel.evaluate(F2, a, v).is_zero()
    cert = degree_bound_from_relation(rel, F2)
    assert (cert.c3, cert.c4) == (3, 1)
    assert check_degree_bound(tab, cert).ok


def test_relation_budget():
    tab = FuncTable.from_function(F2, 3, lambda a: a * a)
    with pytest.raises(BudgetExceeded):
        find_relation(tab, TriDegreeBounds(2, 4, 2), budget=100)


def test_relation_odd_characteristic():
    tab = FuncTable.from_function(F3, 2, lambda a: a * a)
    rel = find_relation(tab, TriDegreeBounds(0, 2, 1))
    assert rel is not None
    for a, v in tab.items():
        assert rel.evaluate(F3, a, v).is_zero()


# -- system assembly against the per-triple loop ----------------------------------


def _powers(x, n):
    out = [Poly.one(x.field)]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def reference_residual(ansatz, x, y):
    """P(x)*y + Q(x) as a sum of c_j * x^j terms, one power list for both."""
    acc = Poly.zero(x.field)
    xp = _powers(x, max(len(ansatz.p_coeffs), len(ansatz.q_coeffs)) - 1)
    for j, c in enumerate(ansatz.p_coeffs):
        acc = acc + c * xp[j] * y
    for j, c in enumerate(ansatz.q_coeffs):
        acc = acc + c * xp[j]
    return acc


def test_residual_matches_power_sum():
    rng = random.Random(12)
    for field in (F2, F3, FiniteField(2, 2)):
        def rand_poly():
            return Poly(field, [rng.randrange(field.q)
                                for _ in range(rng.randrange(5))])
        for _ in range(60):
            caps = LinearCaps(0, 0, 0, 0)  # not read by residual
            ansatz = LinearAnsatz(
                tuple(rand_poly() for _ in range(rng.randrange(4))),
                tuple(rand_poly() for _ in range(rng.randrange(4))), caps)
            x, y = rand_poly(), rand_poly()
            assert ansatz.residual(x, y) == reference_residual(ansatz, x, y)


def reference_relation_rows(table, bounds):
    """One row per (entry, t-power), one coefficient lookup per unknown."""
    rows = []
    for a, v in table.items():
        xp, yp = _powers(a, bounds.j_max), _powers(v, bounds.k_max)
        base = [[xp[j] * yp[k] for k in range(bounds.k_max + 1)]
                for j in range(bounds.j_max + 1)]
        height = max(base[j][k].deg + bounds.i_max + 1
                     for j in range(bounds.j_max + 1)
                     for k in range(bounds.k_max + 1)
                     if not base[j][k].is_zero())
        for r in range(height):
            row = [0] * bounds.unknowns
            for i, j, k in bounds.triples():
                if r >= i:
                    row[bounds.column(i, j, k)] = base[j][k].coefficient(r - i)
            rows.append(tuple(row))
    return rows


def reference_linear_rows(samples, caps):
    pw, qw = caps.p_coeff_deg + 1, caps.q_coeff_deg + 1
    ncols = (caps.p_deg_x + 1) * pw + (caps.q_deg_x + 1) * qw
    rows = []
    for x, y in samples:
        xp = _powers(x, max(caps.p_deg_x, caps.q_deg_x))
        cols = ([(xp[j] * y, i) for j in range(caps.p_deg_x + 1)
                 for i in range(pw)]
                + [(xp[j], i) for j in range(caps.q_deg_x + 1)
                   for i in range(qw)])
        height = max((b.deg + i + 1 for b, i in cols if not b.is_zero()),
                     default=0)
        for r in range(height):
            rows.append(tuple(b.coefficient(r - i) if r >= i else 0
                              for b, i in cols))
    assert all(len(row) == ncols for row in rows)
    return rows


@pytest.mark.parametrize("field", [F2, F3, FiniteField(2, 2)],
                         ids=["F2", "F3", "F4"])
def test_system_rows_match_reference(field):
    rng = random.Random(field.q)
    D = {2: 4, 3: 3, 4: 2}[field.q]
    for k in (1, 2, 3):
        coeffs = [Poly(field, [rng.randrange(field.q) for _ in range(2)])
                  for _ in range(k)] + [Poly.one(field)]
        table = FuncTable.from_polymap(field, D, coeffs)
        a = Poly.from_index(field, rng.randrange(1, field.q ** (D + 1)))
        table = table.with_value(a, Poly.zero(field))  # a zero entry
        for bounds in (TriDegreeBounds(1, k, 1), TriDegreeBounds(0, 2, 2),
                       TriDegreeBounds(2, 1, 0)):
            assert (relation_rows(table, bounds)
                    == reference_relation_rows(table, bounds))
        u = Poly.gen(field)
        samples = [(u ** n, table.lookup(u ** n)) for n in range(D + 1)]
        samples.append((Poly.one(field) + u, Poly.zero(field)))  # P-part 0
        for caps in (LinearCaps(0, 0, k, 1), LinearCaps(1, 2, 2, 0)):
            assert (relations._linear_rows(samples, caps, 10 ** 9)
                    == reference_linear_rows(samples, caps))


def test_system_rows_of_an_all_zero_base():
    zero_cols = [(Poly.zero(F3), i) for i in range(3)]
    assert relations._system_rows([zero_cols], 0, "empty") == []
    samples = [(Poly.zero(F3), Poly.zero(F3))]  # P's columns all zero
    caps = LinearCaps(1, 1, 0, 0)
    rows = relations._linear_rows(samples, caps, 10 ** 9)
    assert rows == reference_linear_rows(samples, caps) == [(0, 0, 0, 0, 1)]


def test_relation_system_shape_frozen():
    # the cube map over F2, D = 3, in the box (1, 3, 1): 16 unknowns, and
    # deg(A^3 f(A)) + 2 rows per input: 2 + 3 at A = 0, 1, then 8, 14, 20
    # for each of the 2, 4, 8 inputs of degree 1, 2, 3
    tab = FuncTable.from_function(F2, 3, cube_map)
    bounds = TriDegreeBounds(1, 3, 1)
    rows = relation_rows(tab, bounds)
    assert (len(rows), {len(r) for r in rows}) == (237, {16})
    assert relations._relation_row_count(tab.items(), bounds) == 237


def test_relation_budget_edge():
    # the full system of test_relation_system_shape_frozen, 237 rows of 16
    # unknowns, is counted and judged whole although it is never built
    tab = FuncTable.from_function(F2, 3, cube_map)
    bounds = TriDegreeBounds(1, 3, 1)
    assert find_relation(tab, bounds, budget=3792) is not None
    with pytest.raises(BudgetExceeded,
                       match="^relation system exceeds 3791 matrix entries$"):
        find_relation(tab, bounds, budget=3791)


def test_relation_refused_before_any_product(monkeypatch):
    products = []
    mul, kmul = Poly.__mul__, poly_module._kmul

    def spy_mul(self, other):
        products.append("Poly.__mul__")
        return mul(self, other)

    def spy_kmul(a, b, F):
        products.append("_kmul")
        return kmul(a, b, F)

    monkeypatch.setattr(Poly, "__mul__", spy_mul)
    monkeypatch.setattr(poly_module, "_kmul", spy_kmul)
    tab = FuncTable.from_function(F2, 3, cube_map)
    products.clear()
    with pytest.raises(BudgetExceeded):
        find_relation(tab, TriDegreeBounds(1, 3, 1), budget=3791)
    with pytest.raises(BudgetExceeded):
        find_relation(tab, TriDegreeBounds(10 ** 6, 10 ** 6, 10 ** 6))
    assert products == []
    assert find_relation(tab, TriDegreeBounds(1, 3, 1)) is not None
    assert products  # the spies do see the solve


def test_witness_solve_counts_frozen(monkeypatch):
    calls = []  # the row count of each solve

    def spy(field, rows, ncols):
        calls.append(len(rows))
        return kernel_vector(field, rows, ncols)

    monkeypatch.setattr(relations, "kernel_vector", spy)
    bounds = TriDegreeBounds(1, 3, 1)  # column (i, j, k) is 8i + 2j + k
    # the cube map over F2, D = 3.  Candidate 1 is Q = 1 and fails at A = 0,
    # whose 2 rows force c_000 = c_100 = 0; candidate 2, Q = Y, fails at
    # A = 1 (f(1) = 1 + t, 3 rows); candidate 3, Q = (1 + X)Y, fails at
    # A = t (8 rows); candidate 4, Q = Y + X^3 + tX, vanishes everywhere
    cube = FuncTable.from_function(F2, 3, cube_map)
    rel = find_relation(cube, bounds)
    assert rel.coeffs == tuple(int(c in (1, 6, 10)) for c in range(16))
    assert calls == [0, 2, 5, 13] and len(calls) <= bounds.unknowns + 1
    # the same table with its last entry, A = t^3+t^2+t+1, moved off its
    # value: candidates 1 to 4 fail where they failed before, and the
    # last entry is the first witness of candidate 4; its 20 rows leave a
    # trivial kernel, so the fifth solve returns None
    last = Poly.from_index(F2, 15)
    tampered = cube.with_value(last, cube.lookup(last) + one)
    calls.clear()
    assert find_relation(tampered, bounds) is None
    assert calls == [0, 2, 5, 13, 33] and len(calls) <= bounds.unknowns + 1
    # A -> X^3 + (t+2)X^2 + tX + (t+1) over F3, D = 4.  Q = 1 fails at
    # A = 0 (f(0) = t + 1, 3 rows); Q = X fails at A = 1 (f(1) = 1, 2 rows);
    # Q = X(Y - 1) fails at A = 2 (f(2) = t + 2, 3 rows); Q = X(X + 1)(Y - 1)
    # fails at A = t (f(t) = 2t^3 + t + 1, 8 rows); candidate 5 is
    # f(X) - Y, which vanishes everywhere
    u, c1 = Poly.gen(F3), Poly.one(F3)
    polymap = FuncTable.from_polymap(F3, 4, [u + c1, u, u + c1 + c1, c1])
    calls.clear()
    rel = find_relation(polymap, bounds)
    assert rel.coeffs == (1, 2, 0, 0, 2, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0)
    assert calls == [0, 3, 5, 8, 16] and len(calls) <= bounds.unknowns + 1


_REFERENCE_FIELDS = [(FiniteField(2), 4), (FiniteField(3), 3),
                     (FiniteField(5), 1), (FiniteField(2, 2), 2),
                     (FiniteField(3, 2), 1)]


@st.composite
def relation_cases(draw):
    """A table and a small box: polymap tables, polymap tables tampered at
    one entry (often the last in canonical order), random tables and
    zero-valued tables, over F2, F3, F5, F4 and F9."""
    field, top = draw(st.sampled_from(_REFERENCE_FIELDS))
    D = draw(st.integers(1, top))
    q, n = field.q, field.q ** (D + 1)

    def poly(max_deg):
        return Poly(field, draw(st.lists(st.integers(0, q - 1),
                                         max_size=max_deg + 1)))

    kind = draw(st.sampled_from(["polymap", "tampered", "random", "zero"]))
    if kind == "random":
        table = FuncTable(field, D, {Poly.from_index(field, x): poly(3)
                                     for x in range(n)})
    elif kind == "zero":
        table = FuncTable.from_function(field, D,
                                        lambda a: Poly.zero(field))
    else:
        k = draw(st.integers(1, 3))
        table = FuncTable.from_polymap(
            field, D, [poly(1) for _ in range(k)] + [Poly.one(field)])
        if kind == "tampered":
            x = draw(st.one_of(st.just(n - 1), st.integers(0, n - 1)))
            a = Poly.from_index(field, x)
            table = table.with_value(a, table.lookup(a) + poly(2)
                                     + Poly.one(field))
    if kind in ("polymap", "tampered") and draw(st.booleans()):
        # a box that holds f(X) - Y
        bounds = TriDegreeBounds(1, k + draw(st.integers(0, 1)),
                                 draw(st.integers(1, 2)))
    else:
        bounds = TriDegreeBounds(draw(st.integers(0, 1)),
                                 draw(st.integers(0, 3)),
                                 draw(st.integers(0, 2)))
    return table, bounds


@settings(max_examples=150, deadline=None)
@given(relation_cases())
def test_relation_matches_full_system_property(case):
    table, bounds = case
    vec = kernel_vector(table.field, reference_relation_rows(table, bounds),
                        bounds.unknowns)
    event("relation found" if vec else "no relation")
    rel = find_relation(table, bounds)
    assert (rel.coeffs if rel else None) == vec


# -- degree bound certificates --------------------------------------------------


def test_degree_bound_requires_y():
    rel = RelationQ(bounds=TriDegreeBounds(0, 1, 0), coeffs=(0, 1))
    with pytest.raises(ValueError):
        degree_bound_from_relation(rel, F2)


def test_degree_bound_violations():
    tab = FuncTable.from_function(F2, 3, lambda a: a * a)
    from fqtlab import DegreeBoundCert
    rep = check_degree_bound(tab, DegreeBoundCert(c3=0, c4=0, y_degree=1))
    assert not rep.ok
    # zero input is skipped, the constant 1 satisfies deg <= 0, rest violate
    assert len(rep.violations) == 2 ** 4 - 2


# -- linear ansatz --------------------------------------------------------------


def analytic_samples(n_hi):
    out = []
    for n in range(n_hi + 1):
        x = t ** n
        out.append((x, cube_map(x)))
    return out


def test_linear_relation_and_recover_frozen():
    ans = find_linear_relation(analytic_samples(6), LinearCaps(0, 0, 3, 1))
    assert ans is not None
    assert len(ans.p_coeffs) == 1 and ans.p_coeffs[0] == one
    rec = recover_polymap(ans)
    assert rec == (RatFunc.zero(F2), RatFunc.from_poly(t),
                   RatFunc.zero(F2), RatFunc.one(F2))


def test_linear_relation_requires_distinct_inputs():
    with pytest.raises(ValueError):
        find_linear_relation([(t, one), (t, t)], LinearCaps(0, 0, 1, 1))
    with pytest.raises(ValueError):
        find_linear_relation([], LinearCaps(0, 0, 1, 1))


def test_linear_relation_caps_too_small():
    samples = [(one, zero), (t, P2(0, 1, 1))]
    assert find_linear_relation(samples, LinearCaps(0, 0, 0, 0)) is None


def test_linear_relation_budget():
    with pytest.raises(BudgetExceeded):
        find_linear_relation(analytic_samples(6), LinearCaps(0, 0, 3, 1), budget=10)


def test_recover_errors():
    with pytest.raises(ValueError):
        recover_polymap(LinearAnsatz(p_coeffs=(), q_coeffs=(one,),
                                     caps=LinearCaps(0, 0, 0, 0)))
    # P = X does not divide Q = 1
    bad = LinearAnsatz(p_coeffs=(zero, one), q_coeffs=(one,),
                       caps=LinearCaps(1, 0, 0, 0))
    with pytest.raises(ExactDivisionError):
        recover_polymap(bad)


def test_recover_roundtrip_random_maps():
    rng = random.Random(99)
    caps = LinearCaps(0, 0, 3, 2)
    for _ in range(10):
        coeffs = [Poly.from_index(F2, rng.randrange(8)) for _ in range(4)]
        if all(c.is_zero() for c in coeffs):
            coeffs[1] = one

        def f(a, cs=coeffs):
            acc = zero
            for c in reversed(cs):
                acc = acc * a + c
            return acc

        samples = [(t ** n, f(t ** n)) for n in range(9)]
        ans = find_linear_relation(samples, caps)
        assert ans is not None
        rec = recover_polymap(ans)
        want = list(coeffs)
        while want and want[-1].is_zero():
            want.pop()
        assert list(rec) == [RatFunc.from_poly(c) for c in want]


# -- direct interpolation -------------------------------------------------------


def test_fit_polynomial_exact_map():
    pts = analytic_samples(6)
    rep = fit_polynomial(pts, 3)
    assert rep.holdout_ok
    assert rep.values_in_ring
    assert rep.mismatches == ()


def test_fit_polynomial_mispredicts_fast_growth():
    tab, _ = build_counterexample(F2, 4)
    pts = [(t ** n, tab.lookup(t ** n)) for n in range(5)]
    for B in range(4):
        rep = fit_polynomial(pts, B)
        assert not rep.holdout_ok
        assert rep.mismatches != ()


def test_fit_polynomial_needs_enough_points():
    with pytest.raises(ValueError):
        fit_polynomial(analytic_samples(2), 5)


def test_fit_polynomial_budget_checked_before_interpolating(monkeypatch):
    def no_interpolation(points):
        raise AssertionError("interpolation started")

    monkeypatch.setattr(relations, "_interpolate", no_interpolation)
    tab, _ = build_counterexample(F2, 3)
    # 16 nodes of degree <= 3: the budget rule still counts eliminating the
    # 16-square Vandermonde system over K, 16^3 updates of entries of
    # t-degree <= 45, 188,416 in all, and refuses before interpolating
    with pytest.raises(BudgetExceeded):
        fit_polynomial(tab.items(), 15, budget=188415)
    with pytest.raises(AssertionError):
        fit_polynomial(tab.items(), 15, budget=188416)
    with pytest.raises(ValueError):
        fit_polynomial(tab.items(), -1)


def test_power_samples_checked_before_building(monkeypatch):
    tab = FuncTable.from_function(F3, 3, cube_map)
    u = Poly(F3, [0, 1])
    assert relations.power_samples(tab, u, 3) == [
        (u ** n, tab.lookup(u ** n)) for n in range(4)]
    # a constant u has at most q distinct powers
    two = Poly.constant(F3, 2)
    assert len(relations.power_samples(tab, two, 1)) == 2
    lookups = []
    lookup = FuncTable.lookup

    def one_lookup(self, a):
        lookups.append(a)
        if len(lookups) > 1:
            raise AssertionError("samples were built")
        return lookup(self, a)

    monkeypatch.setattr(FuncTable, "lookup", one_lookup)
    for c in (two, Poly.one(F3), Poly.zero(F3)):
        with pytest.raises(ValueError, match="pairwise distinct"):
            relations.power_samples(tab, c, 10 ** 12)
    assert lookups == []
    # deg u * N > D: only the first power past degree D is looked up
    with pytest.raises(TableDomainError, match="outside table domain"):
        relations.power_samples(tab, u * u, 10 ** 12)
    assert lookups == [u ** 4]


# -- vanishing audit --------------------------------------------------------------


def test_vanishing_on_forced_tables():
    rng = random.Random(4)
    for q, D, c1 in ((2, 3, 1), (2, 4, 2), (3, 2, 1)):
        field = FiniteField(q)
        tab = forced_table(field, D, c1, rng)
        rep = check_vanishing_lemma(tab, c1)
        assert rep.hypotheses_ok
        assert rep.all_zero
        assert rep.ok
        assert rep.counterexample is None


def test_vanishing_flags_injected_nonzero():
    tab = FuncTable.from_function(F2, 2, lambda a: zero).with_value(t, one)
    rep = check_vanishing_lemma(tab, 0)
    assert not rep.ok
    assert not rep.congruence_ok  # f(t) = 1 but f(0) = 0 mod t
    assert rep.counterexample == t
    assert rep.counterexample_value == one
    assert rep.divisibility_witness == P2(0, 1, 1)  # t(t+1)
    assert rep.witness_divides is False


def test_vanishing_on_fast_growth_table():
    tab, _ = build_counterexample(F2, 3)
    rep = check_vanishing_lemma(tab, 0)
    assert rep.congruence_ok
    assert not rep.degree_cap_ok  # growth punches through q^n - 1
    assert not rep.hypotheses_ok
    assert not rep.all_zero
    assert rep.counterexample == t
    # the value is built as lift + product of irreducibles, so it divides
    assert rep.witness_divides is True


def test_vanishing_zero_floor():
    tab = FuncTable.from_function(F2, 2, lambda a: zero).with_value(one, one)
    rep = check_vanishing_lemma(tab, 1)
    assert not rep.zero_floor_ok
    assert one in rep.zero_floor_witnesses
    with pytest.raises(ValueError):
        check_vanishing_lemma(tab, 5)


# -- pigeonhole schedule ----------------------------------------------------------


def test_schedule_frozen():
    rep = schedule_check(100, Fraction(1), 2, 3, 1)
    assert rep.N == 49
    assert rep.D2 == 4900
    assert rep.tuple_exponent == 122500 + 245000 + 50
    assert rep.choice_exponent == Fraction(100 * 4900 + 97 * 4899, 2)
    assert rep.counting_ok


def test_schedule_errors():
    with pytest.raises(ValueError):
        schedule_check(0, Fraction(1), 2, 0, 0)
    with pytest.raises(ValueError):
        schedule_check(10, Fraction(2), 2, 0, 0)
    with pytest.raises(ValueError):
        schedule_check(1, Fraction(1), 2, 0, 0)  # (2-eps)*D1/delta = 0.5


def test_linear_growth_fit():
    assert linear_growth_fit(analytic_samples(3)) == (3, 1)
    assert linear_growth_fit([(one, zero), (t, zero)]) == (0, 0)


# -- end-to-end -----------------------------------------------------------------


def test_pipeline_cube_map_ok():
    tab = FuncTable.from_function(F2, 3, cube_map)
    rep = run_pipeline(tab, TriDegreeBounds(1, 3, 1), t, 3)
    assert rep.ok
    assert rep.reproduces_table
    names = [s[0] for s in rep.steps]
    assert names == ["find_relation", "degree_bound", "linear_relation",
                     "recover", "reproduce_table"]
    assert all(ok for _, ok, _ in rep.steps)
    assert rep.recovered == (RatFunc.zero(F2), RatFunc.from_poly(t),
                             RatFunc.zero(F2), RatFunc.one(F2))


def test_pipeline_fast_growth_fails():
    tab, _ = build_counterexample(F2, 3)
    rep = run_pipeline(tab, TriDegreeBounds(1, 3, 1), t, 3)
    assert not rep.ok
    assert not rep.reproduces_table


def test_pipeline_domain_guard():
    tab = FuncTable.from_function(F2, 3, cube_map)
    rep = run_pipeline(tab, TriDegreeBounds(1, 3, 1), t, 9)
    assert not rep.ok
    assert ("linear_relation", False,
            "powers of u up to N leave the table domain") in rep.steps


# -- congruence transfer to later powers ----------------------------------------


def test_residual_divisible_by_radical_of_difference_product():
    # any pair (P, Q) vanishing on u^0..u^2 has its residual at u^n divisible
    # by rad((u^n-1)...(u^(n-2)-1)): the table respects congruences, and
    # u^n = u^i mod every irreducible factor of u^(n-i)-1
    tab, _ = build_counterexample(F2, 4)
    samples = [(t ** n, tab.lookup(t ** n)) for n in range(3)]
    ans = find_linear_relation(samples, LinearCaps(2, 4, 2, 4))
    assert ans is not None  # 30 unknowns against at most 27 equations
    for n in (3, 4):
        resid = ans.residual(t ** n, tab.lookup(t ** n))
        assert not resid.is_zero()
        rad = radical(delta(DeltaSpec(u=t, m=2, n=n)))
        assert rad.deg == 3
        assert (resid % rad).is_zero()
