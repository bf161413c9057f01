"""build_counterexample against the per-pair Poly-form construction.

`reference_build` is the construction written plainly: per degree level one
Poly-form CRT basis (`test_crt.reference_basis`), and per row one division
`values[rp] % P` for every modulus P, each lift summed as Poly.  The
library takes input residues from step tables, reduces the values it
needs mod each level's new moduli in one batch, by linear maps whose rows
come from the same tables, and lifts in packed form with memoised terms;
its table and every trace row must be equal to these.
"""

import sys
from collections import Counter

import pytest

from fqtlab import (CRTBasis, FiniteField, Poly, build_counterexample,
                    certify_counterexample)
from fqtlab import counterexample, irreducibles
from fqtlab import poly as poly_module
from fqtlab.counterexample import ConstructionTrace, TraceRow, _step_table
from fqtlab.functable import FuncTable
from fqtlab.irreducibles import (count_irreducibles,
                                 enumerate_monic_irreducibles,
                                 irreducible_product)
from fqtlab.poly import Modulus, polys_up_to

from helpers import direct_indices
from test_crt import reference_basis


def reference_build(field, D):
    zero = Poly.zero(field)
    values = {a: zero for a in polys_up_to(field, 0)}
    rows = []
    irreds = []
    for n in range(1, D + 1):
        irreds.extend(enumerate_monic_irreducibles(field, n))
        modulus, lift = reference_basis(irreds)
        base = field.q ** n
        for k in range(base, base * field.q):
            b = Poly.from_index(field, k)
            pairs = tuple((p, b % p) for p in irreds)
            r = lift([values[rp] % p for p, rp in pairs])
            value = r + modulus
            values[b] = value
            rows.append(TraceRow(b=b, residue_pairs=pairs, crt_value=r,
                                 modulus=modulus, value=value))
    return FuncTable(field, D, values), ConstructionTrace(D=D, rows=tuple(rows))


SIZES = [((2, 1), 5), ((3, 1), 3), ((2, 2), 3), ((5, 1), 2), ((2, 3), 2),
         ((3, 2), 2)]


@pytest.mark.parametrize("pe, D", SIZES,
                         ids=["q%dD%d" % (p ** e, D) for (p, e), D in SIZES])
def test_build_matches_per_pair_reference(pe, D):
    field = FiniteField(*pe)
    table, trace = build_counterexample(field, D)
    ref_table, ref_trace = reference_build(field, D)
    assert table.to_json() == ref_table.to_json()
    assert trace.D == ref_trace.D
    assert len(trace.rows) == len(ref_trace.rows) == field.q ** (D + 1) - field.q
    for row, ref in zip(trace.rows, ref_trace.rows):
        assert row == ref


def test_build_division_count(monkeypatch):
    # With the irreducible caches empty, the (q=2, D=5) build divides 24
    # times to enumerate its irreducibles.  The sieve marks products of
    # kernel forms and divides nothing, and Rabin's test confirms only its
    # survivors, the 1 + 2 + 3 + 6 = 12 irreducibles of degree 2 to 5 (one
    # of degree 1 returns before any division): it takes t mod f once at
    # the start and once at the end, 2 * 12 = 24; powmod reduces on kernel
    # forms and makes no Poly division.  (Rabin's test on all 60 monic
    # candidates of degree 2 to 5 divided 60 + 14 = 74 times: the 14 that
    # passed its gcd checks were the 12 irreducibles and the two degree-5
    # products of a quadratic and a cubic.)  The build divides 158 times
    # for its five CRT bases: one M // P and one C % P per modulus,
    # 2 * (2 + 3 + 5 + 8 + 14) = 64, and 94 in the xgcds for the inverses.
    # That is 24 + (64 + 94) = 182 Poly divisions (it was 232 with the
    # Rabin filter).  poly_gcd runs on packed ints and makes no Poly
    # division.  Its 62 rows hold 632 (row, modulus)
    # pairs, 264 of them distinct: each b mod P is a step-table look-up, no
    # division (it was 632 divisions), and each level's batch reduces every
    # value it needs mod the new moduli by linear maps, no division, so no
    # value is reduced by a `Modulus`.  The lifts make no Poly division, and
    # each level's basis reduces r*u mod P once per distinct (modulus,
    # residue) pair, on kernel forms: 154 memo misses of the 632 pairs.  A
    # modulus of degree d sees the same value residues at every level n >= d
    # (they are values at inputs of degree < d), 2, 2, 8, 24 and 64 summed
    # over the moduli of degree d = 1..5, so the five levels miss
    # 5*2 + 4*2 + 3*8 + 2*24 + 1*64 = 2 + 4 + 12 + 36 + 100 = 154 times.
    # Per-pair residues and Poly-form lifts made 3,255 Poly divisions,
    # Poly-level Euclid 2,255, and powmod reducing through Poly division
    # 1,604.
    for cached in (enumerate_monic_irreducibles, irreducible_product,
                   count_irreducibles):
        cached.cache_clear()
    calls, reductions, misses = [], [], Counter()
    lifting = []  # the level of the lift in progress, if any
    divmod_, mod_ = Poly.__divmod__, Poly.__mod__
    lift_, krem_ = CRTBasis.lift, poly_module._krem

    def counting_divmod(a, b):
        calls.append(1)
        return divmod_(a, b)

    def counting_mod(a, b):
        if isinstance(b, Modulus):
            reductions.append(1)
        return mod_(a, b)

    def tracking_lift(basis, residues):
        lifting.append(basis.modulus.deg)
        try:
            return lift_(basis, residues)
        finally:
            lifting.pop()

    def counting_krem(*args):
        if lifting:
            misses[lifting[-1]] += 1
        return krem_(*args)

    monkeypatch.setattr(Poly, "__divmod__", counting_divmod)
    monkeypatch.setattr(Poly, "__mod__", counting_mod)
    monkeypatch.setattr(CRTBasis, "lift", tracking_lift)
    monkeypatch.setattr(poly_module, "_krem", counting_krem)
    table, trace = build_counterexample(FiniteField(2), 5)
    pairs = [(p, rp) for row in trace.rows for p, rp in row.residue_pairs]
    assert len(trace.rows) == 62 and len(pairs) == 632
    assert len({(p.coeffs, rp.coeffs) for p, rp in pairs}) == 264
    assert len(calls) == 24 + (64 + 94) == 182
    assert len(reductions) == 0
    # keyed by deg M, the degree sum of the level: 2, 4, 10, 22, 52
    assert misses == {2: 2, 4: 4, 10: 12, 22: 36, 52: 100}
    triples = {(row.b.deg, p.coeffs, (table.lookup(rp) % p).coeffs)
               for row in trace.rows for p, rp in row.residue_pairs}
    assert sum(misses.values()) == len(triples) == 154


def test_build_and_certify_test_each_modulus_once(monkeypatch):
    # with the irreducible caches empty, the (q=2, D=5) build and its
    # certification call Rabin's test once per modulus, on the sieve's
    # survivors: N_1 + ... + N_5 = 2 + 1 + 2 + 3 + 6 = 14 calls, where the
    # Rabin filter made one per monic candidate, 2 + 4 + ... + 32 = 62
    for cached in (enumerate_monic_irreducibles, irreducible_product,
                   count_irreducibles):
        cached.cache_clear()
    tested = []
    rabin = irreducibles.is_irreducible

    def counting_rabin(f):
        tested.append(f)
        return rabin(f)

    monkeypatch.setattr(irreducibles, "is_irreducible", counting_rabin)
    F = FiniteField(2)
    table, trace = build_counterexample(F, 5)
    assert certify_counterexample(table, trace).ok
    moduli = [p for d in range(1, 6)
              for p in enumerate_monic_irreducibles(F, d)]
    assert len(tested) == sum(count_irreducibles(2, d)
                              for d in range(1, 6)) == 14
    assert sorted(tested) == sorted(moduli)


@pytest.mark.parametrize("q, D", [(2, 5), (3, 3), (4, 3)])
def test_build_memos_match_direct_indices(monkeypatch, q, D):
    # the build makes one batch per level n, over the moduli of degree n
    # and the values at every input of degree < n, in index order; each
    # batch residue, which the build keeps in the memo of its (modulus,
    # residue) pair, equals that of one Poly division
    field = FiniteField(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q])
    batches = []
    value_residues = counterexample._value_residues

    def recording(field, steps, d, values, code):
        arrays = value_residues(field, steps, d, values, code)
        # a copy: the build's list of values grows after each level
        batches.append((steps, d, list(values), arrays))
        return arrays

    monkeypatch.setattr(counterexample, "_value_residues", recording)
    table, _ = build_counterexample(field, D)
    assert len(batches) == D
    for n, (steps, d, values, arrays) in enumerate(batches, 1):
        moduli = enumerate_monic_irreducibles(field, n)
        assert d == n
        assert list(steps) == [_step_table(p) for p in moduli]
        assert values == [table.lookup(Poly.from_index(field, r))
                          for r in range(q ** n)]
        assert [list(a) for a in arrays] == [
            list(col) for col in zip(*(direct_indices(moduli, v)
                                       for v in values))]


def test_trace_values_hold_packed_forms():
    # over GF(2) a Poly holds only its packed int: the (2, 8) trace's 1,018
    # values and lifts take 0.11 MB (sys.getsizeof), where a tuple of
    # coefficients beside each took 2.3 MB
    _, trace = build_counterexample(FiniteField(2), 8)
    polys = {id(p): p for row in trace.rows
             for p in (row.value, row.crt_value)}
    assert all(type(p._k) is int for p in polys.values())
    held = sum(sys.getsizeof(p) + sys.getsizeof(p._k)
               for p in polys.values())
    assert held < 0.25 * 2 ** 20


def test_trace_shares_one_pair_per_residue():
    # one (P, rp) pair object per modulus P and residue index r < 2^deg P,
    # 10,824 in all, shared by every row whose input has that residue (a
    # pair per row and modulus made 25,528); each b and each rp is the
    # table's own key of its index
    table, trace = build_counterexample(FiniteField(2), 8)
    keys = list(table.domain())
    pairs = {id(pr): pr for row in trace.rows for pr in row.residue_pairs}
    assert len(pairs) == 10824
    assert all(keys[row.b.index()] is row.b for row in trace.rows)
    assert all(keys[rp.index()] is rp for _, rp in pairs.values())
