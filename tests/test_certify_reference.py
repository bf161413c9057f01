"""verify_p3 and certify_counterexample against per-pair division.

The references below reduce every (input, modulus) pair directly, with one
division each: `reference_verify_p3` scans residue classes modulus by
modulus, and `reference_certify` replays the trace with a subtraction and a
division per residue pair.  The library reads both from one residue map;
its reports must be equal to these in every field, violation order,
count and truncation included, on clean and on corrupted input.
"""

import random

import pytest

from fqtlab import (FiniteField, Poly, TableDomainError, build_counterexample,
                    certify_counterexample, check_vanishing_lemma,
                    enumerate_monic_irreducibles, irreducible_product,
                    verify_p3)
from fqtlab.counterexample import CertifyReport, ConstructionTrace, TraceRow
from fqtlab.functable import FuncTable, P3Report, P3Violation
from fqtlab.poly import polys_up_to


def reference_scan_modulus(table, p):
    seen = {}  # residue-class index -> (base input, reduced base value)
    out = []
    for a, v in table.items():
        key = (a % p).index()
        rv = v % p
        hit = seen.get(key)
        if hit is None:
            seen[key] = (a, rv)
        elif rv != hit[1]:
            out.append(P3Violation(modulus=p, a=a, base=hit[0]))
    return out


def reference_verify_p3(table, max_violations=100):
    mods = []
    for d in range(1, table.D + 1):
        mods.extend(enumerate_monic_irreducibles(table.field, d))
    violations = [v for p in mods for v in reference_scan_modulus(table, p)]
    violations.sort(key=lambda v: (v.modulus.sort_key(), v.a.sort_key(),
                                   v.base.sort_key()))
    count = len(violations)
    return P3Report(ok=count == 0,
                    violations=tuple(violations[:max_violations]),
                    violation_count=count,
                    irreducibles_checked=len(mods),
                    truncated=count > max_violations)


def reference_certify(table, trace):
    field, q = table.field, table.field.q
    p3 = reference_verify_p3(table)
    window_failures = []
    for a, v in table.items():
        n = a.deg
        if isinstance(n, int) and n >= 1:
            if not (q ** n <= v.deg < 2 * q ** n):
                window_failures.append(a)
    trace_failures = []
    expected_rows = q ** (table.D + 1) - q
    if trace.D != table.D:
        trace_failures.append("trace D=%d does not match table D=%d"
                              % (trace.D, table.D))
    if len(trace.rows) != expected_rows:
        trace_failures.append("trace has %d rows, expected %d"
                              % (len(trace.rows), expected_rows))
    irreds = []
    level = 0
    seen = iter(polys_up_to(field, table.D))
    for _ in range(q):
        next(seen)
    for row in trace.rows:
        b = row.b
        expected_b = next(seen, None)
        if expected_b != b:
            trace_failures.append("row for %s out of construction order" % b)
        try:
            table.lookup(b)
        except TableDomainError:
            trace_failures.append("row %s: input outside the table" % b)
            continue
        n = b.deg
        while level < n:
            level += 1
            irreds.extend(enumerate_monic_irreducibles(field, level))
        if row.modulus != irreducible_product(field, n):
            trace_failures.append("row %s: modulus mismatch" % b)
            continue
        if [p for p, _ in row.residue_pairs] != irreds:
            trace_failures.append("row %s: irreducible list mismatch" % b)
            continue
        bad = False
        for p, rp in row.residue_pairs:
            if rp != b % p:
                trace_failures.append("row %s: residue of input mod %s wrong"
                                      % (b, p))
                bad = True
                break
            if (row.value - table.lookup(rp)) % p:
                trace_failures.append("row %s: value not congruent to value "
                                      "at %s mod %s" % (b, rp, p))
                bad = True
                break
        if bad:
            continue
        if not row.crt_value.deg < row.modulus.deg:
            trace_failures.append("row %s: CRT lift too large" % b)
        if row.crt_value + row.modulus != row.value:
            trace_failures.append("row %s: value is not lift + modulus" % b)
        if table.lookup(b) != row.value:
            trace_failures.append("row %s: table disagrees with trace" % b)
    ok = p3.ok and not window_failures and not trace_failures
    return CertifyReport(ok=ok, congruence_ok=p3.ok,
                         congruence_violations=p3.violations,
                         window_ok=not window_failures,
                         window_failures=tuple(window_failures),
                         trace_ok=not trace_failures,
                         trace_failures=tuple(trace_failures))


SIZES = [(FiniteField(2), 4), (FiniteField(3), 3), (FiniteField(2, 2), 2)]
IDS = ["q2D4", "q3D3", "q4D2"]


@pytest.fixture(scope="module", params=SIZES, ids=IDS)
def built(request):
    field, D = request.param
    return build_counterexample(field, D)


def with_row(trace, i, **changes):
    rows = list(trace.rows)
    fields = dict(b=rows[i].b, residue_pairs=rows[i].residue_pairs,
                  crt_value=rows[i].crt_value, modulus=rows[i].modulus,
                  value=rows[i].value)
    fields.update(changes)
    rows[i] = TraceRow(**fields)
    return ConstructionTrace(D=trace.D, rows=tuple(rows))


def with_pair(row, j, rp):
    pairs = list(row.residue_pairs)
    pairs[j] = (pairs[j][0], rp)
    return tuple(pairs)


def corruptions(table, trace):
    """(name, table, trace) cases, each breaking one thing."""
    F = table.field
    one, t = Poly.one(F), Poly.gen(F)
    rows = trace.rows
    last = len(rows) - 1
    mid = rows[len(rows) // 2]
    yield "clean", table, trace
    yield "value zeroed", table.with_value(mid.b, Poly.zero(F)), trace
    yield "value plus one", table.with_value(mid.b, mid.value + one), trace
    # rows of higher degree have this input as a residue
    yield "low value plus one", table.with_value(
        rows[0].b, rows[0].value + one), trace
    yield "value plus modulus", table.with_value(
        mid.b, mid.value + mid.modulus), trace
    # a row value the table does not hold: the fallback path
    yield "row value plus modulus", table, with_row(
        trace, last, value=rows[last].value + rows[last].modulus)
    yield "row value plus one", table, with_row(
        trace, last, value=rows[last].value + one)
    yield "row value times t", table, with_row(
        trace, 0, value=rows[0].value * t)
    yield "crt value plus one", table, with_row(
        trace, last, crt_value=rows[last].crt_value + one)
    yield "crt value too large", table, with_row(
        trace, last, crt_value=rows[last].value)
    yield "residue plus one", table, with_row(
        trace, last, residue_pairs=with_pair(
            rows[last], -1, rows[last].residue_pairs[-1][1] + one))
    yield "residue of another field", table, with_row(
        trace, last, residue_pairs=with_pair(
            rows[last], 0, Poly.from_index(FiniteField(7), 1)))
    yield "residue outside the domain", table, with_row(
        trace, last, residue_pairs=with_pair(
            rows[last], 0, t ** (table.D + 1)))
    # a row input the table does not hold, of a degree it does hold
    yield "input of another field", table, with_row(
        trace, last, b=Poly.from_index(FiniteField(7), rows[last].b.index()))
    yield "modulus times t", table, with_row(
        trace, 0, modulus=rows[0].modulus * t)
    yield "moduli dropped", table, with_row(
        trace, last, residue_pairs=rows[last].residue_pairs[:-1])
    yield "short trace", table, ConstructionTrace(D=trace.D, rows=rows[:-1])
    yield "first row dropped", table, ConstructionTrace(D=trace.D,
                                                        rows=rows[1:])
    yield "rows swapped", table, ConstructionTrace(
        D=trace.D, rows=(rows[1], rows[0]) + rows[2:])
    yield "wrong D", table, ConstructionTrace(D=trace.D + 1, rows=rows)
    yield "both tampered", table.with_value(mid.b, mid.value + one), with_row(
        trace, last, value=rows[last].value + one)


def test_certify_report_matches_reference(built):
    table, trace = built
    names = []
    for name, tab, tr in corruptions(table, trace):
        got = certify_counterexample(tab, tr)
        assert got == reference_certify(tab, tr), name
        assert got.ok == (name == "clean"), name
        names.append(name)
    assert len(names) == len(set(names))


def test_certify_matches_reference_on_rows_past_the_table():
    # a row whose input is past the table's D, clean or not, fails once as
    # outside the table, after failing the construction order
    table, trace = build_counterexample(FiniteField(2), 2)
    _, deeper = build_counterexample(FiniteField(2), 3)
    extra = deeper.rows[len(trace.rows)]
    one = Poly.one(table.field)
    for changes in (
            {}, {"value": extra.value + one},
            {"residue_pairs": with_pair(extra, 0, extra.residue_pairs[0][1]
                                        + one)}):
        longer = with_row(ConstructionTrace(D=trace.D,
                                            rows=trace.rows + (extra,)),
                          len(trace.rows), **changes)
        got = certify_counterexample(table, longer)
        assert got == reference_certify(table, longer)
        assert got.trace_failures[-2:] == (
            "row for %s out of construction order" % extra.b,
            "row %s: input outside the table" % extra.b)
    # the (2, 3) table against the (2, 4) trace: each of its 16 rows of
    # degree 4 fails so, and nothing raises
    table, _ = build_counterexample(FiniteField(2), 3)
    _, deeper = build_counterexample(FiniteField(2), 4)
    got = certify_counterexample(table, deeper)
    assert got == reference_certify(table, deeper)
    assert got.congruence_ok and got.window_ok and not got.ok
    assert got.trace_failures[2:] == tuple(
        f for row in deeper.rows[len(deeper.rows) - 16:]
        for f in ("row for %s out of construction order" % row.b,
                  "row %s: input outside the table" % row.b))


def tampered_tables(table, rng):
    F = table.field
    inputs = list(table.domain())
    yield table
    yield table.with_value(inputs[-1], table.lookup(inputs[-1]) + Poly.one(F))
    for _ in range(3):
        vals = {a: table.lookup(a) for a in inputs}
        for a in rng.sample(inputs, 5):
            vals[a] = Poly(F, [rng.randrange(F.q) for _ in range(6)])
        yield FuncTable(F, table.D, vals)
    yield FuncTable.from_function(F, table.D, lambda a: a * a + Poly.gen(F))


def test_verify_p3_report_matches_reference(built):
    table, _ = built
    rng = random.Random(table.field.q)
    for tab in tampered_tables(table, rng):
        for cap in (0, 1, 3, 100):
            got = verify_p3(tab, max_violations=cap)
            assert got == reference_verify_p3(tab, max_violations=cap)
            assert got.truncated == (got.violation_count > cap)
    # a cap of 0 counts every violation and lists none; a negative one, which
    # would drop the last, is refused
    with pytest.raises(ValueError, match="max_violations must be >= 0"):
        verify_p3(tab, max_violations=-1)


@pytest.mark.parametrize("field", [FiniteField(2), FiniteField(3),
                                   FiniteField(2, 2)], ids=["F2", "F3", "F4"])
def test_degree_zero_table_has_no_modulus_to_check(field):
    # no irreducible has degree <= 0: the map is empty and every check passes
    t = Poly.gen(field)
    empty = ConstructionTrace(D=0, rows=())
    for table in (FuncTable.from_function(field, 0, lambda a: a * t + t),
                  FuncTable.from_function(field, 0, lambda a: Poly.zero(field))):
        got = verify_p3(table)
        assert got == reference_verify_p3(table)
        assert got.ok and got.irreducibles_checked == 0
        assert check_vanishing_lemma(table, 0).congruence_ok
        assert certify_counterexample(table, empty) == reference_certify(
            table, empty)
