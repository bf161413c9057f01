"""Function tables: storage, congruence verification, growth profiles."""

import random
import tracemalloc
from fractions import Fraction

import pytest

import fqtlab.functable
from fqtlab import (BudgetExceeded, FiniteField, FuncTable, NEG_INF, Poly,
                    TableDomainError, growth_profile, verify_p3)
from fqtlab.functable import ResidueMap, _p3_scan_modulus
from fqtlab.poly import polys_up_to

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
t = Poly(F2, [0, 1])


def square_table(field, D):
    return FuncTable.from_function(field, D, lambda a: a * a)


def test_lookup_and_domain():
    tab = square_table(F2, 3)
    assert len(list(tab.domain())) == 2 ** 4  # all polys of degree <= 3
    assert tab.lookup(t) == t * t
    assert tab.lookup(Poly.zero(F2)).is_zero()
    with pytest.raises(TableDomainError):
        tab.lookup(Poly(F2, [0, 0, 0, 0, 1]))


def test_entries_from_an_equal_field_are_kept_from_another_refused():
    # the field check tests identity first; an equal field object that is
    # not the table's own still passes, and a different field does not
    values = {a: a * a for a in polys_up_to(F2, 2)}
    twin = FiniteField(2)
    recast = {Poly(twin, a.coeffs): Poly(twin, v.coeffs)
              for a, v in values.items()}
    assert FuncTable(F2, 2, recast) == FuncTable(F2, 2, values)
    for key, value in ((Poly(F3, t.coeffs), t * t), (t, Poly(F3, [0, 0, 1]))):
        mixed = {a: v for a, v in values.items() if a != t}
        mixed[key] = value
        with pytest.raises(ValueError, match="different field"):
            FuncTable(F2, 2, mixed)


@pytest.mark.parametrize("field, D", [(F2, 3), (F3, 2), (F4, 2)],
                         ids=["F2", "F3", "F4"])
def test_items_walk_the_domain_in_canonical_order(field, D):
    # items() and domain() walk the stored entries, placed by index, so a
    # table built from a dict in any order walks its inputs canonically
    canonical = [(a, a * a) for a in polys_up_to(field, D)]
    shuffled = list(canonical)
    random.Random(field.q).shuffle(shuffled)
    tab = FuncTable(field, D, dict(shuffled))
    assert list(tab.items()) == canonical
    assert list(tab.domain()) == [a for a, _ in canonical]


def test_from_polymap():
    # f(A) = A^3 + t*A as a coefficient tuple over K[t]
    tab = FuncTable.from_polymap(F2, 2, (Poly.zero(F2), t, Poly.zero(F2), Poly.one(F2)))
    a = Poly(F2, [1, 1])
    assert tab.lookup(a) == a ** 3 + t * a


def test_with_value_and_restrict():
    tab = square_table(F2, 3)
    tweaked = tab.with_value(t, Poly.one(F2))
    assert tweaked.lookup(t) == Poly.one(F2)
    assert tab.lookup(t) == t * t  # original untouched
    small = tab.restrict(2)
    assert small.D == 2
    assert small.lookup(t) == t * t
    with pytest.raises(TableDomainError):
        small.lookup(Poly(F2, [0, 0, 0, 1]))
    with pytest.raises(ValueError):
        tab.restrict(5)


def test_json_roundtrip_bit_exact():
    for field, D in ((F2, 3), (F3, 2), (F4, 2)):
        tab = square_table(field, D)
        text = tab.to_json()
        again = FuncTable.from_json(text)
        assert again == tab
        assert again.to_json() == text  # byte-stable on the round trip


def test_save_load(tmp_path):
    tab = square_table(F3, 2)
    path = tmp_path / "sq.json"
    tab.save(path)
    assert FuncTable.load(path) == tab


def test_verify_p3_square_map():
    # A |-> A^2 is a polynomial map, so it respects every congruence
    rep = verify_p3(square_table(F2, 3))
    assert rep.ok
    assert rep.violation_count == 0
    assert rep.irreducibles_checked == 5  # degrees 1..3 over F2: 2+1+2
    assert not rep.truncated


def test_verify_p3_detects_corruption():
    tab = square_table(F2, 3).with_value(t, t + Poly.one(F2))
    rep = verify_p3(tab)
    assert not rep.ok
    assert rep.violation_count > 0
    v = rep.violations[0]
    assert v.modulus == t
    # the corrupted entry disagrees with the least member of its class mod t
    assert t in {v.a, v.base} or (v.a % t) == (t % t)


def dict_scan(keys, vals):
    """The class scan by a dict of the least index in each class, built
    from the top down so that the least index lands last."""
    base = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return [(k, base[key]) for k, (key, v) in enumerate(zip(keys, vals))
            if v != vals[base[key]]]


@pytest.mark.parametrize("field, D", [(F2, 4), (F3, 3), (F4, 2),
                                      (FiniteField(5), 2)],
                         ids=["F2", "F3", "F4", "F5"])
def test_p3_scan_matches_the_dict_scan(field, D):
    # the residue is the least member of its class, so the scan needs no
    # dict: on a clean table and on one with a few values changed
    rng = random.Random(field.q)
    clean = square_table(field, D)
    corrupted = clean
    for k in rng.sample(range(field.q ** (D + 1)), 5):
        corrupted = corrupted.with_value(
            Poly.from_index(field, k),
            Poly.from_index(field, rng.randrange(field.q ** (D + 2))))
    counts = []
    for table in (clean, corrupted):
        residues = ResidueMap(table)
        count = 0
        for keys, vals in zip(residues.inputs, residues.values):
            got = _p3_scan_modulus(keys, vals)
            assert got == dict_scan(keys, vals)
            count += len(got)
        counts.append(count)
    assert counts[0] == 0 < counts[1]


class _SmallPowersOnly(int):
    """A field size that refuses to be raised to a large power."""

    def __pow__(self, e):
        assert e < 64, "computed q^%d" % e
        return int(self) ** e


def test_from_function_refuses_a_huge_domain_without_computing_q_power():
    field = FiniteField(2)
    field.q = _SmallPowersOnly(2)
    with pytest.raises(BudgetExceeded, match="degree <= 1000000000000 "):
        FuncTable.from_function(field, 10 ** 12, lambda a: a)


def test_table_rejects_inconsistent_D_without_computing_q_power(monkeypatch):
    field = FiniteField(2)
    field.q = _SmallPowersOnly(2)
    monkeypatch.setattr(fqtlab.functable, "FiniteField",
                        lambda *args: field)
    obj = square_table(F2, 2).to_obj()
    for D in (10 ** 100, 3, 1):
        with pytest.raises(ValueError, match="full domain"):
            FuncTable.from_obj(dict(obj, D=D))
    with pytest.raises(ValueError, match="full domain"):
        FuncTable(field, 10 ** 100, {Poly.zero(F2): Poly.zero(F2)})
    for D in (-1, "2", 2.0):
        with pytest.raises(ValueError):
            FuncTable.from_obj(dict(obj, D=D))
    assert FuncTable.from_obj(obj) == square_table(F2, 2)


def test_table_file_caps_human_literal_degrees():
    obj = FuncTable.from_function(F2, 0, lambda a: Poly.zero(F2)).to_obj()
    huge_value = dict(obj, values=[["0", "t^5000000"], ["1", "0"]])
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            FuncTable.from_obj(huge_value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the 5*10^6-entry coefficient list is never built
    with pytest.raises(BudgetExceeded):
        FuncTable.from_obj(dict(obj, values=[["t^5", "0"], ["1", "0"]]))
    # human form within the caps still loads
    tab = FuncTable.from_obj(dict(obj, values=[["0", "t^5+1"], ["1", "t"]]))
    assert tab.lookup(Poly.one(F2)) == t


def test_growth_square_table():
    prof = growth_profile(square_table(F2, 4))
    assert prof.D == 4
    assert prof.epsilon == Fraction(1, 2)
    for row in prof.rows:
        if row.n == 0:
            assert row.max_deg == 0
            assert row.qn_over_27qn is None
        else:
            assert row.max_deg == 2 * row.n
            assert row.qn_minus_one == 2 ** row.n - 1
            # flags match the stated comparisons against the caps
            assert row.exceeds_qn_over_27qn == (row.max_deg >= row.qn_over_27qn)
            assert row.exceeds_one_minus_eps_dsum == (row.max_deg > row.one_minus_eps_dsum)
            assert row.exceeds_qn_minus_one == (row.max_deg > row.qn_minus_one)


def test_growth_identity_map():
    tab = FuncTable(F2, 1, {a: a for a in [Poly.zero(F2), Poly.one(F2), t, t + Poly.one(F2)]})
    prof = growth_profile(tab)
    assert prof.rows[0].max_deg == 0
    assert prof.rows[1].max_deg == 1


def test_growth_neg_inf_for_all_zero():
    tab = FuncTable.from_function(F2, 2, lambda a: Poly.zero(F2))
    prof = growth_profile(tab)
    assert all(r.max_deg == NEG_INF for r in prof.rows)
    assert not any(r.exceeds_qn_minus_one for r in prof.rows)
