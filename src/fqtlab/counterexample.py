"""A congruence-preserving table with forced fast degree growth.

The construction walks inputs in canonical order.  Constants map to zero.
For an input B of degree n, every monic irreducible P of degree <= n already
constrains the value mod P: it must agree with the value at B mod P, which
was assigned earlier.  The CRT lift R of those residues has degree below
dsum(n) = deg(prod P), and the value is then set to R + prod P, pinning
deg g(B) = dsum(n), inside [q^n, 2*q^n).  All inputs of degree n share the
same moduli, so one CRT basis is built per degree level and every row of
that level is lifted through it, in packed form (see `poly.CRTBasis`).

The build reduces nothing by division: every residue comes from one step
table per modulus (`_step_table`, after table-driven CRC reduction).
A_k = t*A_(k//q) + (k mod q), so each input's residue index is one look-up
from its parent's, a level at a time.  The residue g(rp) mod P depends only
on P and rp = B mod P, and rp ranges over the inputs of degree < deg P,
whose values are all known when P's level starts.  So each level reduces
all of them mod all its new moduli in one batch (`_value_residues`), by
the F_p-linear sum of `residues` on packed columns of their coordinates,
with each modulus's map rows walked through its own step table
(`_map_rows`), and keeps the residues for every later row.
The lift memoises its terms per level (see `poly.CRTBasis`).  The build
makes one Poly per input, in index order; that list holds the residues,
keys the table, and gives each modulus P one (P, rp) pair per residue rp,
which every trace row with that residue shares.  Certification reads its
residues from the table's ResidueMap instead, which reduces the inputs and
the values by one path (`residues.index_arrays`): a value is taken mod the
product of all the moduli only when one reaches its degree, and every
entry is then reduced by the same linear sum, with map rows by a
recurrence on the top coordinate of t^i mod P (`residues._column_map`).
So the two share only the column packing and that sum, which the tests
check against one Poly division per residue.

Every step is recorded in a trace so the whole table can be re-derived and
audited entry by entry.  Certification builds the table's ResidueMap once:
the congruence check and the trace replay's residue and congruence checks
both read it, so no residue is computed twice.  A trace row whose input is
outside the table fails the replay; only a row value the table does not
hold is reduced directly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice

from .errors import DEFAULT_DEGREE_BUDGET, BudgetExceeded, power_exceeds
from .functable import FuncTable, ResidueMap, index_code, verify_p3
from .irreducibles import enumerate_monic_irreducibles, irreducible_product
from .poly import CRTBasis, Poly, crt, polys_up_to


@dataclass(frozen=True)
class TraceRow:
    """One constructed entry: value = crt_value + modulus."""
    b: Poly
    residue_pairs: tuple[tuple[Poly, Poly], ...]  # (P, B mod P)
    crt_value: Poly
    modulus: Poly
    value: Poly


@dataclass(frozen=True)
class ConstructionTrace:
    D: int
    rows: tuple[TraceRow, ...]


@dataclass(frozen=True)
class CertifyReport:
    ok: bool
    congruence_ok: bool
    congruence_violations: tuple
    window_ok: bool
    window_failures: tuple[Poly, ...]
    trace_ok: bool
    trace_failures: tuple[str, ...]


def _step_table(p: Poly) -> array:
    """S_P for a monic P of degree d: S_P[j] is the index of A_j mod P for
    every j < q^(d+1), in an array of the narrowest type.

    The first q^d entries are the identity.  For the top coefficient h of
    A_j, j = h*q^d + l, and A_j mod P = A_l + h*x with x = t^d mod P =
    -(P - t^d), so each block of q^d entries is built a digit at a time,
    from the top: digit i of an entry is add(digit i of l, h*x_i).  Over
    GF(2) the second block is j XOR P.
    """
    F = p.field
    q, d = F.q, p.deg
    x = [F.neg(c) for c in p.coeffs[:d]]
    table = array(index_code(q ** d))
    for h in range(q):
        block = [0]
        for xi in reversed(x):
            row = [F.add(c, F.mul(h, xi)) for c in range(q)]
            block = [v * q + r for v in block for r in row]
        table.extend(block)
    return table


def _map_rows(step: array, field, d: int, L: int) -> list:
    """The rows of the F_p-linear map taking a polynomial of degree < L to
    the index of its residue mod P, from the step table S_P of a P of
    degree d.  Column e*i+b holds the index of x^b * t^i mod P: t*A_j =
    A_(j*q), so it is walked j <- S_P[j*q] from the index p^b of x^b, one
    look-up a column.  Row o is base-p digit o of those indices."""
    p, q = field.p, field.q
    flat, js = [], [p ** b for b in range(field.e)]
    for _ in range(L):
        flat += js
        js = [step[j * q] for j in js]
    return [[j // po % p for j in flat]
            for po in (p ** o for o in range(field.e * d))]


def _value_residues(field, steps, d: int, values, code: str) -> list:
    """For each step table S_P of a modulus P of degree d, the array of
    type code of (v mod P).index() for every v of values: their columns
    are packed once, and summed by each P's `_map_rows`."""
    from .residues import _index_array, _value_columns
    cols, s = _value_columns([v._k for v in values], field)
    L = len(cols) // field.e
    return [_index_array(_map_rows(step, field, d, L), cols, field, s,
                         len(values), code) for step in steps]


def build_counterexample(field, D: int,
                         budget: int = DEFAULT_DEGREE_BUDGET
                         ) -> tuple[FuncTable, ConstructionTrace]:
    if D < 1:
        raise ValueError("D must be >= 1")
    if power_exceeds(field.q, D, budget):
        raise BudgetExceeded(
            "construction at D=%d materializes degree ~2*q^D > budget %d"
            % (D, budget))
    q = field.q
    zero = Poly.zero(field)
    # the inputs so far, in index order: the constants, then each row's b;
    # they are the residues mod every modulus, by index, and the table's keys
    inputs = list(polys_up_to(field, 0))
    values = [zero] * q  # constants map to zero
    code = index_code(q ** D)
    rows = []
    irreds: list[Poly] = []
    # per modulus P: its step table, the residue indices of the previous
    # level's inputs, memo[r] = g(A_r) mod P and pairs[r] = (P, A_r) for
    # every r < q^deg P, shared by every row whose input has residue index r
    steps, cols, memos, pairs = [], [], [], []
    for n in range(1, D + 1):
        new = enumerate_monic_irreducibles(field, n)
        base = q ** n
        irreds.extend(new)
        new_steps = [_step_table(p) for p in new]
        steps.extend(new_steps)
        # the q^n inputs of degree < n, the residues mod P of degree n, and
        # their values are all known
        memos.extend(list(map(inputs.__getitem__, a)) for a in
                     _value_residues(field, new_steps, n, values, code))
        pairs.extend([(p, rp) for rp in inputs] for p in new)
        # the inputs of degree n - 1 are their own residues mod P of degree n
        cols.extend(range(base // q, base) for _ in new)
        # A_k = t*A_(k//q) + (k mod q): one table step per input and modulus
        cols = [array(code, [s[r * q + c] for r in col for c in range(q)])
                for s, col in zip(steps, cols)]
        basis = CRTBasis(irreds)
        modulus = basis.modulus
        for k, krs in enumerate(zip(*cols), base):
            b = Poly.from_index(field, k)
            r = crt(list(map(list.__getitem__, memos, krs)), basis)
            value = r + modulus
            inputs.append(b)
            values.append(value)
            rows.append(TraceRow(
                b=b, residue_pairs=tuple(map(list.__getitem__, pairs, krs)),
                crt_value=r, modulus=modulus, value=value))
    table = FuncTable(field, D, dict(zip(inputs, values)))
    return table, ConstructionTrace(D=D, rows=tuple(rows))


def certify_counterexample(table: FuncTable,
                           trace: ConstructionTrace) -> CertifyReport:
    """Re-derive and audit a constructed table.

    Three independent gates: the congruence check over all monic irreducibles
    of degree <= D, the degree window q^n <= deg g(B) < 2*q^n for every B of
    degree n >= 1, and row-by-row trace consistency (recomputed moduli and
    residue pairs, CRT degree bound, value assembly, and the value's
    congruences against earlier entries).
    """
    field, q = table.field, table.field.q
    residues = ResidueMap(table)
    p3 = verify_p3(table, residues=residues)

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
    # the domain in index order; its first q^D entries are the residues
    # mod every modulus of degree <= D, by index
    domain = list(table.domain())
    irreds: list[Poly] = []
    level = 0
    seen = islice(domain, q, None)  # degree-<=0 inputs carry no rows
    for row in trace.rows:
        b = row.b
        expected_b = next(seen, None)
        if expected_b != b:
            trace_failures.append("row for %s out of construction order" % b)
        if b.field != field or b.deg > table.D:
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
        # the row's moduli are the first ones of the map, so the residues of
        # b, of b's value and of rp all come from it; the build shares the
        # domain's Poly objects, so a residue is tested by identity first
        kb = b.index()
        mapped_value = table.lookup(b) == row.value
        for i, (p, rp) in enumerate(row.residue_pairs):
            kr = residues.inputs[i][kb]
            if rp is not domain[kr] and rp != domain[kr]:
                trace_failures.append("row %s: residue of input mod %s wrong"
                                      % (b, p))
                break
            vals = residues.values[i]
            if vals[kr] != (vals[kb] if mapped_value
                            else (row.value % p).index()):
                trace_failures.append("row %s: value not congruent to value "
                                      "at %s mod %s" % (b, rp, p))
                break
        else:
            if not row.crt_value.deg < row.modulus.deg:
                trace_failures.append("row %s: CRT lift too large" % b)
            if row.crt_value + row.modulus != row.value:
                trace_failures.append("row %s: value is not lift + modulus"
                                      % b)
            if not mapped_value:
                trace_failures.append("row %s: table disagrees with trace" % b)

    ok = p3.ok and not window_failures and not trace_failures
    return CertifyReport(ok=ok,
                         congruence_ok=p3.ok,
                         congruence_violations=p3.violations,
                         window_ok=not window_failures,
                         window_failures=tuple(window_failures),
                         trace_ok=not trace_failures,
                         trace_failures=tuple(trace_failures))
