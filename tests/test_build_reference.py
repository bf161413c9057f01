"""build_counterexample against the per-pair Poly-form construction.

`reference_build` is the construction written plainly: per degree level one
Poly-form CRT basis (`test_crt.reference_basis`), and per row one division
`values[rp] % P` for every modulus P, each lift summed as Poly.  The
library takes input residues from step tables, lifts in packed form and
reduces each (modulus, residue) pair once; its table and every trace row
must be equal to these.
"""

import pytest

from fqtlab import FiniteField, Poly, build_counterexample
from fqtlab.counterexample import ConstructionTrace, TraceRow
from fqtlab.functable import FuncTable
from fqtlab.irreducibles import (count_irreducibles,
                                 enumerate_monic_irreducibles,
                                 irreducible_product)
from fqtlab.poly import Modulus, polys_up_to

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
    # With the irreducible caches empty, the (q=2, D=5) build divides 74
    # times to enumerate its irreducibles: Rabin's test takes t mod f once
    # for each of the 60 monic f of degree 2 to 5 and once more at the end
    # for the 14 that pass its gcd checks (the 12 irreducibles and the two
    # degree-5 products of a quadratic and a cubic); powmod reduces on
    # kernel forms and makes no Poly division.  The build divides 158 times
    # for its five CRT bases: one M // P and one C % P per modulus,
    # 2 * (2 + 3 + 5 + 8 + 14) = 64, and 94 in the xgcds for the inverses.
    # That is 74 + (64 + 94) = 232 Poly divisions.  poly_gcd runs on packed
    # ints and makes no Poly division.  Its 62 rows hold 632 (row, modulus)
    # pairs: each b mod P is a step-table look-up, no division (it was 632
    # divisions), and values[rp] mod P is reduced remainder-only by the
    # modulus's `Modulus`, once per distinct (modulus, rp) pair: 264 of
    # them, which build no quotient and are not Poly divisions (they were,
    # for 1,128 in all).  The lifts make no Poly division; per-pair residues
    # and Poly-form lifts made 3,255, Poly-level Euclid 2,255, and powmod
    # reducing through Poly division 1,604.
    for cached in (enumerate_monic_irreducibles, irreducible_product,
                   count_irreducibles):
        cached.cache_clear()
    calls, reductions = [], []
    divmod_, mod_ = Poly.__divmod__, Poly.__mod__

    def counting_divmod(a, b):
        calls.append(1)
        return divmod_(a, b)

    def counting_mod(a, b):
        if isinstance(b, Modulus):
            reductions.append(1)
        return mod_(a, b)

    monkeypatch.setattr(Poly, "__divmod__", counting_divmod)
    monkeypatch.setattr(Poly, "__mod__", counting_mod)
    table, trace = build_counterexample(FiniteField(2), 5)
    pairs = [(p, rp) for row in trace.rows for p, rp in row.residue_pairs]
    assert len(trace.rows) == 62 and len(pairs) == 632
    assert len({(p.coeffs, rp.coeffs) for p, rp in pairs}) == 264
    assert len(calls) == 74 + (64 + 94) == 232
    assert len(reductions) == 264
