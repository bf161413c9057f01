"""The CRT-built table with forced value growth, and its certifier."""

import dataclasses
import random

import pytest

from fqtlab import (BudgetExceeded, FiniteField, Poly, build_counterexample,
                    certify_counterexample, degree_sum, verify_p3)
from fqtlab.counterexample import _map_rows, _step_table, _value_residues
from fqtlab.functable import index_code
from fqtlab.irreducibles import enumerate_monic_irreducibles
from fqtlab.residues import _column_map

F2 = FiniteField(2)
F3 = FiniteField(3)
t = Poly(F2, [0, 1])
one = Poly.one(F2)


def P2(*cs):
    return Poly(F2, list(cs))


def test_build_frozen_small_values():
    tab, trace = build_counterexample(F2, 2)
    # constants map to zero
    assert tab.lookup(Poly.zero(F2)).is_zero()
    assert tab.lookup(one).is_zero()
    # degree-1 inputs reduce to constants mod every P, so the CRT lift is 0
    # and both values equal the modulus t(t+1) = t^2+t
    assert tab.lookup(t) == P2(0, 1, 1)
    assert tab.lookup(P2(1, 1)) == P2(0, 1, 1)
    # degree-2 inputs: t^2 = t mod both linears, lift t^2+t... recorded values
    assert tab.lookup(P2(0, 0, 1)) == P2(0, 0, 1, 0, 1)
    assert tab.lookup(P2(0, 1, 1)) == P2(0, 1, 0, 0, 1)
    # every degree-n value has degree exactly dsum(n)
    for a, v in tab.items():
        if a.deg is not None and not a.is_constant():
            assert v.deg == degree_sum(2, a.deg)


def test_build_respects_congruences_and_window():
    tab, trace = build_counterexample(F2, 3)
    rep = certify_counterexample(tab, trace)
    assert rep.ok
    assert rep.congruence_ok and rep.window_ok and rep.trace_ok
    assert rep.congruence_violations == ()
    assert rep.window_failures == ()
    assert rep.trace_failures == ()


def test_build_is_deterministic():
    a1, t1 = build_counterexample(F2, 3)
    a2, t2 = build_counterexample(F2, 3)
    assert a1 == a2
    assert t1 == t2


def test_certify_flags_tampered_value():
    tab, trace = build_counterexample(F2, 3)
    bad = tab.with_value(t, Poly.zero(F2))
    rep = certify_counterexample(bad, trace)
    assert not rep.ok
    # zeroing g(t) keeps all congruences intact (0 = 0 mod everything small)
    # but breaks the growth window and the trace replay
    assert not rep.window_ok
    assert t in rep.window_failures
    assert not rep.trace_ok


def test_certify_flags_congruence_corruption():
    tab, trace = build_counterexample(F2, 3)
    bad = tab.with_value(t, tab.lookup(t) + one)
    rep = certify_counterexample(bad, trace)
    assert not rep.ok
    assert not rep.congruence_ok
    assert not verify_p3(bad).ok


def test_certify_flags_tampered_trace():
    tab, trace = build_counterexample(F2, 2)
    rows = list(trace.rows)
    r = rows[0]
    rows[0] = type(r)(b=r.b, residue_pairs=r.residue_pairs,
                      crt_value=r.crt_value, modulus=r.modulus,
                      value=r.value + r.modulus)
    bad_trace = type(trace)(D=trace.D, rows=tuple(rows))
    rep = certify_counterexample(tab, bad_trace)
    assert not rep.trace_ok
    assert any("trace" in msg or "lift" in msg for msg in rep.trace_failures)


def test_certify_flags_wrong_length_trace():
    tab, trace = build_counterexample(F2, 2)
    short = type(trace)(D=trace.D, rows=trace.rows[:-1])
    rep = certify_counterexample(tab, short)
    assert not rep.trace_ok


def test_certify_replays_rows_from_an_equal_field_flags_another():
    # the field check tests identity first; trace inputs over an equal field
    # object that is not the table's own still replay, over F_3 they do not
    tab, trace = build_counterexample(F2, 2)

    def certify_inputs_over(field):
        rows = tuple(dataclasses.replace(r, b=Poly(field, r.b.coeffs))
                     for r in trace.rows)
        return certify_counterexample(tab, type(trace)(D=trace.D, rows=rows))

    assert certify_inputs_over(FiniteField(2)).ok
    rep = certify_inputs_over(F3)
    assert not rep.trace_ok
    for row in trace.rows:
        assert ("row %s: input outside the table" % Poly(F3, row.b.coeffs)
                in rep.trace_failures)


def test_build_budget():
    with pytest.raises(BudgetExceeded):
        build_counterexample(F2, 20)
    with pytest.raises(ValueError):
        build_counterexample(F2, 0)


def test_build_odd_characteristic():
    tab, trace = build_counterexample(F3, 2)
    rep = certify_counterexample(tab, trace)
    assert rep.ok
    g = Poly(F3, [0, 1])
    # dsum over F3: n=1 -> 3, n=2 -> 9
    assert tab.lookup(g).deg == 3
    assert tab.lookup(g * g).deg == 9


def test_trace_rows_cover_nonconstant_inputs():
    tab, trace = build_counterexample(F2, 3)
    assert len(trace.rows) == 2 ** 4 - 2
    assert [row.b for row in trace.rows] == [a for a in tab.domain() if not a.is_constant()]


def test_certify_division_count(monkeypatch):
    # certify reads every residue from one residue map, built without Poly
    # division; only a row value the table does not hold is reduced
    # directly, once per modulus of its row
    tab, trace = build_counterexample(F2, 5)
    last = trace.rows[-1]
    changed = type(last)(b=last.b, residue_pairs=last.residue_pairs,
                         crt_value=last.crt_value, modulus=last.modulus,
                         value=last.value + last.modulus)
    bad_trace = type(trace)(D=trace.D, rows=trace.rows[:-1] + (changed,))
    calls = []
    divmod_ = Poly.__divmod__

    def counting_divmod(a, b):
        calls.append(1)
        return divmod_(a, b)

    monkeypatch.setattr(Poly, "__divmod__", counting_divmod)
    assert certify_counterexample(tab, trace).ok
    assert len(calls) == 0
    assert not certify_counterexample(tab, bad_trace).trace_ok
    assert len(calls) == len(last.residue_pairs) == 14


# (field, D): every monic irreducible P of degree <= D; F_9 twice, the
# second with t^2 + t + 2 in place of the default t^2 + 1
STEP_FIELDS = [(F2, 5), (F3, 3), (FiniteField(5), 3), (FiniteField(2, 2), 3),
               (FiniteField(2, 3), 3), (FiniteField(3, 2), 3),
               (FiniteField(3, 2, (2, 1, 1)), 3)]


@pytest.mark.parametrize("field, D", STEP_FIELDS,
                         ids=["F2", "F3", "F5", "F4", "F8", "F9", "F9b"])
def test_step_table_matches_division(field, D):
    # S_P[j] is the index of A_j mod P for every j < q^(d+1).  The 168 and
    # 240 cubics over F_8 and F_9 have 4,096 and 6,561 entries each: there
    # a seeded sample of j, with the first and last entry of each block of
    # q^d, stands in for all of them
    q = field.q
    rng = random.Random(q)
    for d in range(1, D + 1):
        top = q ** (d + 1)
        js = range(top)
        if top > 4000:
            js = sorted(set(rng.sample(js, 300)) | {
                h * q ** d + l for h in range(q) for l in (0, q ** d - 1)})
        for p in enumerate_monic_irreducibles(field, d):
            steps = _step_table(p)
            assert len(steps) == top
            assert [steps[j] for j in js] == [
                (Poly.from_index(field, j) % p).index() for j in js]


# F_16 is the one field here with four coordinates a coefficient; F_9
# twice, as above
VALUE_FIELDS = [(F2, 6), (F3, 3), (FiniteField(2, 2), 3), (FiniteField(5), 2),
                (FiniteField(2, 3), 2), (FiniteField(3, 2), 2),
                (FiniteField(2, 4), 2), (FiniteField(3, 2, (2, 1, 1)), 2)]
VALUE_IDS = ["F2", "F3", "F4", "F5", "F8", "F9", "F16", "F9b"]


def sample_values(field):
    """The zero value, 1, t, and seeded values of lengths 3 to 301."""
    rng = random.Random(field.q)
    q = field.q
    values = [Poly.zero(field), Poly.one(field), Poly.gen(field)]
    for n in (3, 7, 8, 9, 16, 17, 64, 200, 301):
        values.append(Poly(field, [rng.randrange(q) for _ in range(n - 1)]
                           + [rng.randrange(1, q)]))
    return values


@pytest.mark.parametrize("field, D", VALUE_FIELDS, ids=VALUE_IDS)
def test_map_rows_match_column_map(field, D):
    # the build's map rows, walked through P's step table, equal the rows
    # certify computes by shift-and-reduce, on the columns the sample
    # values need (over F_2 certify's rows are bytes)
    L = max(len(v.coeffs) for v in sample_values(field))
    for d in range(1, D + 1):
        for p in enumerate_monic_irreducibles(field, d):
            assert _map_rows(_step_table(p), field, d, L) == [
                list(row) for row in _column_map(p._k, L, field)]


@pytest.mark.parametrize("field, D", VALUE_FIELDS, ids=VALUE_IDS)
def test_batch_residues_match_division(field, D):
    # one batch per degree reduces every value mod every modulus of that
    # degree: each residue index equals that of v % P
    values = sample_values(field)
    code = index_code(field.q ** D)
    for d in range(1, D + 1):
        moduli = enumerate_monic_irreducibles(field, d)
        batch = _value_residues(field, [_step_table(p) for p in moduli], d,
                                values, code)
        assert [list(a) for a in batch] == [
            [(v % p).index() for v in values] for p in moduli]
