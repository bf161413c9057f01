"""The packed whole-table check `relations._vanishing_scan` against direct
evaluation.

The oracle is `relations._evaluate_slices`, a Poly-level nested Horner on
one entry at a time: the scan must yield every entry where it is nonzero,
in order, and its first (`next(scan(slices), None)`) is the witness, for
every call of one prepared scan.  `_reproduces`, which scans with the
slices [N, -d], must agree with `reference_reproduces`, the RatFunc
evaluation in K.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fqtlab import (FiniteField, FuncTable, Poly, TriDegreeBounds,
                    fit_polynomial, run_pipeline)
from fqtlab import poly as poly_module, relations
from test_relations_reference import reference_reproduces

# prime fields and the largest D drawn for each
_FIELDS = {p: (FiniteField(p), top) for p, top in ((2, 4), (3, 3), (5, 2),
                                                    (7, 1))}


def failing(entries, slices):
    return [(a, v) for a, v in entries
            if relations._evaluate_slices(slices, a, v)]


def oracle(entries, slices):
    return next(iter(failing(entries, slices)), None)


def widths(monkeypatch):
    """The slot widths of every `_kron_pack` call the scan makes."""
    seen = []

    def spy(cs, s):
        seen.append(s)
        return poly_module._kron_pack(cs, s)

    monkeypatch.setattr(relations, "_kron_pack", spy)
    return seen


@st.composite
def scan_cases(draw):
    """A table over F2, F3, F5 or F7 (polymap, tampered at its last entry,
    random or zero), one to three sets of Y-slices with zero slices and zero
    coefficients, and a map (N, d) to reproduce it with."""
    field, top = _FIELDS[draw(st.sampled_from(sorted(_FIELDS)))]
    q = field.q
    D = draw(st.integers(0, top))
    n = q ** (D + 1)
    zero, one = Poly.zero(field), Poly.one(field)

    def poly(max_deg):
        return Poly(field, draw(st.lists(st.integers(0, q - 1),
                                         max_size=max_deg + 1)))

    def coeff():
        return zero if draw(st.booleans()) else poly(2)

    kind = draw(st.sampled_from(["polymap", "tampered", "random", "zero"]))
    coeffs = []
    if kind == "random":
        table = FuncTable(field, D, {Poly.from_index(field, x): poly(4)
                                     for x in range(n)})
    elif kind == "zero":
        table = FuncTable.from_function(field, D, lambda a: zero)
    else:
        coeffs = [poly(1) for _ in range(draw(st.integers(0, 3)))] + [one]
        table = FuncTable.from_polymap(field, D, coeffs)
        if kind == "tampered":
            last = Poly.from_index(field, n - 1)
            table = table.with_value(last, table.lookup(last) + poly(2) + one)
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        slices = []
        for _ in range(draw(st.integers(1, 3))):
            j = draw(st.integers(1, 4))
            slices.append([zero] * j if draw(st.booleans())
                          else [coeff() for _ in range(j)])
        calls.append(slices)
    d = poly(2).shifted(1) + one  # nonzero
    if coeffs and draw(st.booleans()):
        nums = [c * d for c in coeffs]  # the table's own map, as N/d
    else:
        nums = [coeff() for _ in range(draw(st.integers(0, 4)))]
    return table, calls, nums, d


@settings(max_examples=200, deadline=None)
@given(scan_cases())
def test_scan_matches_direct_evaluation(case):
    table, calls, nums, d = case
    entries = list(table.items())
    scan = relations._vanishing_scan(entries, table.field)
    for slices in calls:  # one prepared scan serves every call
        assert next(scan(slices), None) == oracle(entries, slices)
        assert list(scan(slices)) == failing(entries, slices)
    assert (relations._reproduces(nums, d, table)
            == reference_reproduces(relations._coefficients(nums, d), table))


@pytest.mark.parametrize("p, wide", [(10007, 8), (2 ** 31 - 1, 9)])
def test_scan_with_wide_slots(monkeypatch, p, wide):
    # Y - g(X) vanishes on (A, g(A)); no FuncTable over these fields is
    # small enough to build, so the entries are listed by hand, with
    # codes drawn up to p - 1 so that the bound at t = 1 needs wide slots
    field = FiniteField(p)
    rng = random.Random(p)

    def poly(deg):
        return Poly(field, [rng.randrange(p) for _ in range(deg + 1)])

    g = [poly(2) for _ in range(4)]
    rel = [[-c for c in g], [Poly.one(field)]]
    entries = [(a, poly_module._horner(g, a))
               for a in (poly(3) for _ in range(6))]
    bad = entries[:5] + [(entries[5][0], entries[5][1] + Poly.one(field))]
    square = [[poly(1)], [poly(1), poly(1)], [poly(2)]]
    seen = widths(monkeypatch)
    for ents in (entries, bad):
        scan = relations._vanishing_scan(ents, field)
        for slices in (rel, square, rel):
            assert next(scan(slices), None) == oracle(ents, slices)
    assert next(relations._vanishing_scan(entries, field)(rel), None) is None
    assert next(relations._vanishing_scan(bad, field)(rel), None) == bad[5]
    assert min(seen) >= wide


@pytest.mark.parametrize("p, c0, c1, low, high, width", [
    # 15 + 15*16 = 255 = 15*17 and 255 + 255*256 = 65535 = 255*257: the
    # vanishing entry's one coefficient is the bound 2^(8s) - 1, and a
    # slot one byte short reads it as nonzero mod p
    (17, 15, 15, 16, 1, 1),
    (257, 255, 255, 256, 1, 2),
    # 16 + 15*16 = 256 and 256 + 255*256 = 65536, at the witness: the bound
    # 2^(8s) needs the next width
    (17, 16, 15, 8, 16, 2),
    (257, 256, 255, 128, 256, 4),
])
def test_slots_at_the_bound_edges(monkeypatch, p, c0, c1, low, high, width):
    # Q = c0 + c1*Y on the constant values low (vanishing) and high: the
    # bound at t = 1 is c0 + c1*max(low, high)
    field = FiniteField(p)
    const = lambda c: Poly.constant(field, c)  # noqa: E731
    slices = [[const(c0)], [const(c1)]]
    vanishing, witness = (const(0), const(low)), (const(1), const(high))
    assert not relations._evaluate_slices(slices, *vanishing)
    assert relations._evaluate_slices(slices, *witness)
    seen = widths(monkeypatch)
    assert next(relations._vanishing_scan([vanishing, witness], field)(
        slices), None) == witness
    assert set(seen) == {width}
    assert next(relations._vanishing_scan([vanishing], field)(slices),
                None) is None


@pytest.mark.parametrize("p", [2, 3])
def test_scans_make_no_poly_products(monkeypatch, p):
    # count Poly products and kernel products made while the scans that
    # find_relation, _reproduces and fit_polynomial's holdout run are being
    # iterated, and everywhere else
    field = FiniteField(p)
    t, one = Poly.gen(field), Poly.one(field)
    table = FuncTable.from_polymap(field, 4, [t + one, t, t + one, one])
    last = Poly.from_index(field, p ** 5 - 1)
    bad = table.with_value(last, table.lookup(last) + one)
    counts = {"inside": 0, "outside": 0}
    state = {"scans": 0, "in_scan": False}

    def counting(f):
        def spy(*args):
            counts["inside" if state["in_scan"] else "outside"] += 1
            return f(*args)
        return spy

    def scanning(f):
        def spy(*args):
            state["scans"] += 1
            fails = iter(f(*args))
            while True:
                state["in_scan"] = True
                try:
                    e = next(fails, None)
                finally:
                    state["in_scan"] = False
                if e is None:
                    return
                yield e
        return spy

    prepare = relations._vanishing_scan
    monkeypatch.setattr(Poly, "__mul__", counting(Poly.__mul__))
    monkeypatch.setattr(poly_module, "_kmul", counting(poly_module._kmul))
    monkeypatch.setattr(relations, "_vanishing_scan",
                        lambda *args: scanning(prepare(*args)))
    rep = run_pipeline(table, TriDegreeBounds(1, 3, 1), t, 3)
    assert rep.ok and rep.reproduces_table
    # one scan per candidate (five here) and one for the recovered map
    scans = state["scans"]
    assert scans >= 6
    fit = fit_polynomial(bad.items(), 3)
    assert not fit.holdout_ok and fit.mismatches == (last,)
    assert state["scans"] == scans + 1  # the holdout is one scan
    assert counts["inside"] == 0
    assert counts["outside"] > 0  # the spies see the solves
