"""ResidueMap against the per-entry reference, entry for entry.

The library reduces inputs and values by one path: each entry is taken
once mod the product of all the moduli, when some entry reaches its degree,
and the remainders are mapped as linear maps on packed residue columns.  The reference in helpers divides each input and value by each
modulus on its own.  Both must give the same index for every entry and
modulus: over prime fields with one-byte and wider slots, over extension
fields of characteristic 2 and 3 (F_9 under both moduli), with one- and
two-byte index arrays, on counterexample tables and on tables whose values
are zero, short, or longer than the product.  galoistools' gf_rem checks a
sample of moduli directly.
"""

import random

import pytest

import fqtlab.residues as residues
from fqtlab import (FiniteField, Poly, build_counterexample,
                    enumerate_monic_irreducibles)
from fqtlab.functable import FuncTable, ResidueMap
from fqtlab.poly import polys_up_to

from helpers import reference_residue_map

galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ

# (field, D): F_17 needs slots of two bytes or more everywhere; F_9 twice,
# the second with t^2 + t + 2 in place of the default t^2 + 1.  Over odd p
# the product of the moduli is long enough to break the one-byte slot rule,
# e*L*(p-1)^2 < 256
FIELDS = [(FiniteField(2), 5), (FiniteField(3), 4), (FiniteField(5), 2),
          (FiniteField(7), 2), (FiniteField(17), 1), (FiniteField(2, 2), 2),
          (FiniteField(2, 3), 2), (FiniteField(3, 2), 2),
          (FiniteField(3, 2, (2, 1, 1)), 2)]
IDS = ["F2", "F3", "F5", "F7", "F17", "F4", "F8", "F9", "F9b"]


def random_poly(field, rng, deg):
    if deg < 0:
        return Poly.zero(field)
    return Poly(field, [rng.randrange(field.q) for _ in range(deg)]
                + [rng.randrange(1, field.q)])


def moduli_up_to(field, D):
    return [p for d in range(1, D + 1)
            for p in enumerate_monic_irreducibles(field, d)]


def mixed_table(field, D, rng):
    """Values of mixed degree: zero, below the smallest modulus, below the
    product M of all moduli, and at and past deg M, so that the division
    by M leaves quotients of one and of many terms."""
    top = sum(p.deg for p in moduli_up_to(field, D))
    degrees = [-1, 0, 1, D, top // 3, top - 1, top, 2 * top + 5]
    return FuncTable.from_function(
        field, D, lambda a: random_poly(field, rng, rng.choice(degrees)))


def assert_matches_reference(table, reference=None):
    got = ResidueMap(table)
    mods, inputs, values = reference or reference_residue_map(table)
    assert got.moduli == mods
    assert [list(col) for col in got.inputs] == inputs
    assert [list(col) for col in got.values] == values


def test_index_arrays_take_an_equal_field_refuse_another():
    # the field check tests identity first; an equal field object that is
    # not the moduli's own still passes, and a different field does not
    F2, F3 = FiniteField(2), FiniteField(3)
    moduli = moduli_up_to(F2, 3)
    xs = list(polys_up_to(F2, 4))
    twin = [Poly(FiniteField(2), x.coeffs) for x in xs]
    assert ([list(col) for col in residues.index_arrays(moduli, twin, "B")]
            == [list(col) for col in residues.index_arrays(moduli, xs, "B")])
    stray = Poly(F3, [0, 1])
    with pytest.raises(ValueError, match="mixed-field"):
        residues.index_arrays(moduli, xs + [stray], "B")
    with pytest.raises(ValueError, match="mixed-field"):
        residues.index_arrays(moduli + [stray], xs, "B")


@pytest.mark.parametrize("field, D", FIELDS, ids=IDS)
def test_counterexample_map_matches_reference(field, D):
    table, _ = build_counterexample(field, D)
    assert_matches_reference(table)


@pytest.mark.parametrize("field, D", FIELDS, ids=IDS)
def test_mixed_degree_map_matches_reference(field, D, monkeypatch):
    rng = random.Random(field.q * 31 + D)
    table = mixed_table(field, D, rng)
    slots = set()
    index_array = residues._index_array

    def spy(rows, cols, F, s, n, code):
        # the slot rule on every map: a slot sums at most e*L = len(cols)
        # products below (p-1)^2, so the worst case must fit in s bytes
        if F.p > 2:
            assert len(cols) * (F.p - 1) ** 2 < 1 << 8 * s
        slots.add(s)
        return index_array(rows, cols, F, s, n, code)

    monkeypatch.setattr(residues, "_index_array", spy)
    assert_matches_reference(table)
    # the slot rule by entry degree: the inputs, of degree <= D, take one
    # byte while e*(D+1)*(p-1)^2 < 256, and the values, which fill all
    # deg M columns, wider slots; over characteristic 2 a slot is one bit
    if field.p > 2:
        assert (1 in slots) == (field.p < 17)
        assert any(s > 1 for s in slots)


def test_two_byte_indices_match_reference():
    # q^D = 512 > 256: every index array holds two bytes per entry
    F = FiniteField(2)
    rng = random.Random(9)
    table = mixed_table(F, 9, rng)
    got = ResidueMap(table)
    assert {col.typecode for col in got.inputs + got.values} == {"H"}
    assert_matches_reference(table)


def test_map_forms_no_product_below_its_degree(monkeypatch):
    # over F_2 at D = 3 the product M of the 5 moduli has degree 10: a
    # square table (values of degree <= 6) and a zero table never form M
    # nor divide by it, and a table of t^10 * A, whose values reach deg M,
    # forms it by 4 products and divides all 16 values by it
    F = FiniteField(2)
    t = Poly.gen(F)
    tables = [FuncTable.from_function(F, 3, fn) for fn in
              (lambda a: a * a, lambda a: Poly.zero(F),
               lambda a: t ** 10 * a)]
    references = [reference_residue_map(table) for table in tables]
    mul, krem = Poly.__mul__, residues._krem
    calls = []

    def counting_mul(a, b):
        calls.append("mul")
        return mul(a, b)

    def counting_krem(a, b, F, newton=None):
        if b.bit_length() > 4:  # a divisor past degree D = 3 is M
            calls.append("mod M")
        return krem(a, b, F, newton)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    monkeypatch.setattr(residues, "_krem", counting_krem)
    expected = [[], [], ["mul"] * 4 + ["mod M"] * 16]
    for table, reference, want in zip(tables, references, expected):
        del calls[:]
        assert_matches_reference(table, reference)
        assert calls == want


def gf_index(x, m, p):
    return sum(c * p ** i for i, c in enumerate(reversed(
        galoistools.gf_rem([int(c) for c in reversed(x.coeffs)],
                           [int(c) for c in reversed(m.coeffs)], p, ZZ))))


@pytest.mark.parametrize("field, D", [(f, D) for f, D in FIELDS if f.e == 1],
                         ids=[i for i, (f, _) in zip(IDS, FIELDS) if f.e == 1])
def test_sampled_leaves_match_gf_rem(field, D):
    rng = random.Random(field.q + 7)
    table = mixed_table(field, D, rng)
    got = ResidueMap(table)
    entries = list(table.items())
    for i in rng.sample(range(len(got.moduli)), min(6, len(got.moduli))):
        m = got.moduli[i]
        for k in rng.sample(range(len(entries)), min(40, len(entries))):
            a, v = entries[k]
            assert got.inputs[i][k] == gf_index(a, m, field.p)
            assert got.values[i][k] == gf_index(v, m, field.p)
