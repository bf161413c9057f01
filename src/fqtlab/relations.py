"""Algebraic relations certifying that a tabulated map is (or is not) given
by a polynomial.

Three solvers feed one another here.  find_relation looks for a nonzero
Q(X, Y) = sum c_ijk t^i X^j Y^k vanishing at every (A, f(A)) in a table;
its Y-slices yield a linear degree bound deg f(A) <= C3*deg A + C4.
find_linear_relation looks for A[X]-coefficient pairs (P, Q), not both zero,
with P(x)*y + Q(x) = 0 at sample points (x, y); recover_polymap divides -Q/P
exactly in K[X] to expose the underlying polynomial map.  fit_polynomial
interpolates and cross-validates directly.  A map in K[X], K = F_q(t), is
held as (N, d): N(X)/d with N in F_q[t][X] and d in F_q[t] monic, so both
solvers and every table check run in F_q[t]; RatFunc coefficients are built
once, for the reports.  check_vanishing_lemma audits the
three hypotheses that force such a table to be identically zero, and
schedule_check evaluates the pigeonhole counting that makes the linear
ansatz exist at scale.

All solving reduces to kernel vectors of F_q-linear systems; every returned
object is re-verified by direct evaluation, never trusted from the solver.
find_relation builds its system only from witness entries: it solves on the
rows it has, evaluates the candidate on the whole table, and adds the rows
of the first entry the candidate fails.  Its budget is judged on the full
system, counted from degrees before any product.  The three whole-table
checks, a candidate's, the recovered map's and fit's holdout, run on
packed forms (`_vanishing_scan`): Kronecker ints over odd p, with slots
sized by the value at t = 1, and bit-packed forms over GF(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import islice

from .errors import (DEFAULT_MATRIX_BUDGET, BudgetExceeded,
                     ExactDivisionError)
from .functable import FuncTable, verify_p3
from .irreducibles import irreducible_product
from .linalg import kernel_vector
from .poly import (NEG_INF, Poly, _horner, _kron_pack, _kron_slots, _mul2,
                   _slot_width, poly_gcd)
from .ratfunc import RatFunc


@dataclass(frozen=True)
class TriDegreeBounds:
    """Exponent box for Q(X, Y): 0 <= i <= i_max (t), j <= j_max (X),
    k <= k_max (Y)."""
    i_max: int
    j_max: int
    k_max: int

    def __post_init__(self):
        if min(self.i_max, self.j_max, self.k_max) < 0:
            raise ValueError("degree bounds must be >= 0")

    @property
    def unknowns(self) -> int:
        return (self.i_max + 1) * (self.j_max + 1) * (self.k_max + 1)

    def column(self, i: int, j: int, k: int) -> int:
        return ((i * (self.j_max + 1)) + j) * (self.k_max + 1) + k

    def triples(self):
        for i in range(self.i_max + 1):
            for j in range(self.j_max + 1):
                for k in range(self.k_max + 1):
                    yield i, j, k

    @classmethod
    def counting_schedule(cls, q: int, M: int) -> "TriDegreeBounds":
        """The box q^M/3 by q^M/(3M) by 9qM used by the counting argument."""
        if M < 2:
            raise ValueError("M must be >= 2")
        return cls(i_max=q ** M // 3, j_max=q ** M // (3 * M), k_max=9 * q * M)


@dataclass(frozen=True)
class RelationQ:
    """Nonzero Q with Q(A, f(A)) = 0 on a table; coefficient codes are laid
    out per TriDegreeBounds.column order."""
    bounds: TriDegreeBounds
    coeffs: tuple[int, ...]

    def coefficient(self, i: int, j: int, k: int) -> int:
        return self.coeffs[self.bounds.column(i, j, k)]

    def evaluate(self, field, x: Poly, y: Poly) -> Poly:
        """Direct evaluation, independent of any solver state: Horner in Y
        over the Y-slices, and in X within each slice."""
        return _evaluate_slices(self.y_slices(field), x, y)

    def y_slices(self, field) -> list[list[Poly]]:
        """P_k(X) coefficients: slices[k][j] in F_q[t], trailing zeros kept."""
        b = self.bounds
        step = b.column(1, 0, 0)  # columns of one t-power
        return [[Poly(field, self.coeffs[b.column(0, j, k)::step])
                 for j in range(b.j_max + 1)] for k in range(b.k_max + 1)]


def _evaluate_slices(slices, x: Poly, y: Poly) -> Poly:
    """Q(x, y) from Q's Y-slices: Horner in Y, and in X within each slice."""
    return _horner([_horner(s, x) for s in slices], y)


def _vanishing_scan(entries, F):
    """The whole-table check on a list of (A, f(A)) entries over F: called
    with Y-slices (slices[k][j] in F_q[t] multiplies X^j Y^k), it yields
    every entry, in order, where sum_k P_k(A) f(A)^k != 0.

    Each call runs the nested Horner of `_evaluate_slices` on packed forms:
    over GF(2) the bit-packed kernel forms, multiplied by `_mul2` and added
    by XOR; over odd p Kronecker ints with unreduced slots, read mod p once
    per entry.  Every coefficient is >= 0, so none exceeds the value at
    t = 1, which is at most sum P_jk(1) x1^j y1^k with x1 and y1 the
    entries' largest coefficient sums; the slots are sized from that.  An
    entry is packed when a call first reaches it, and packed again only
    when a call needs wider slots; the calls share those forms, so a caller
    advances only the latest call's generator.  Extension fields evaluate
    each entry directly.
    """
    if F.e > 1:
        return lambda slices: (e for e in entries
                               if _evaluate_slices(slices, *e))
    codes = [(a._k, v._k) for a, v in entries]
    if F.p == 2:
        def scan(slices):
            ks = [[c._k for c in cs[::-1]] for cs in slices[::-1]]
            for e, (x, y) in zip(entries, codes):
                acc = 0
                for cs in ks:
                    inner = 0
                    for c in cs:
                        inner = _mul2(inner, x) ^ c if inner else c
                    acc = _mul2(acc, y) ^ inner if acc else inner
                if acc:
                    yield e
        return scan
    p = F.p
    x1 = max(sum(x) for x, _ in codes)
    y1 = max(sum(y) for _, y in codes)
    forms = []
    width = 0

    def packed():
        yield from forms
        for x, y in codes[len(forms):]:
            forms.append((_kron_pack(x, width), _kron_pack(y, width)))
            yield forms[-1]

    def scan(slices):
        nonlocal width
        s = _slot_width(sum(sum(c._k) * x1 ** j * y1 ** k
                            for k, cs in enumerate(slices)
                            for j, c in enumerate(cs)))
        if s > width:
            width = s
            forms.clear()
        ks = [[_kron_pack(c._k, width) for c in cs[::-1]]
              for cs in slices[::-1]]
        for e, (x, y) in zip(entries, packed()):
            acc = 0
            for cs in ks:
                inner = 0
                for c in cs:
                    inner = inner * x + c
                acc = acc * y + inner
            n = -(-acc.bit_length() // (8 * width))  # the slots acc fills
            if any(_kron_slots(acc.to_bytes(n * width, "little"),
                               width, n, p)):
                yield e
    return scan


def _powers(x: Poly, n: int) -> list[Poly]:
    out = [Poly.one(x.field), x][:n + 1]
    for _ in range(n - 1):
        out.append(out[-1] * x)
    return out


def _system_rows(entries, budget: int, what: str, ncols: int = 0) -> list:
    """Rows of an F_q-linear system whose unknowns multiply powers of t.

    Each entry lists one (b, i) pair per column: that column holds the
    coefficients of t^i * b, zero-padded to the entry's height (the largest
    deg b + i + 1), so row r is the t^r equation.  The running row count is
    checked against the budget before an entry's rows are built.  Each entry
    of a relation or ansatz system has a column t^0 * 1, so it adds at least
    one row: `_linear_rows` passes the column count, and more columns than
    the budget are refused before the first entry is built.
    """
    refusal = "%s exceeds %d matrix entries" % (what, budget)
    if ncols > budget:
        raise BudgetExceeded(refusal)
    rows = []
    nrows = 0
    for cols in entries:
        codes = [(b.coeffs, i) for b, i in cols]
        height = max((len(cs) + i for cs, i in codes if cs), default=0)
        nrows += height
        if nrows * len(cols) > budget:
            raise BudgetExceeded(refusal)
        pad = (0,) * height
        rows.extend(zip(*[((0,) * i + cs + pad)[:height]
                          for cs, i in codes]))
    return rows


def _relation_columns(a: Poly, v: Poly, bounds: TriDegreeBounds) -> list:
    """The (b, i) columns of one entry (A, f(A)), in TriDegreeBounds.column
    order: t^i * A^j * f(A)^k for unknown (i, j, k)."""
    row = _powers(v, bounds.k_max)  # A^j * f(A)^k for one j
    base = list(row)
    for _ in range(bounds.j_max):
        row = [b * a for b in row]
        base += row
    return [(b, i) for i in range(bounds.i_max + 1) for b in base]


def _relation_row_count(entries, bounds: TriDegreeBounds) -> int:
    """The rows of the full relation system on the (A, f(A)) entries, from
    degrees alone: an entry's height is i_max + 1 plus the largest
    deg(A^j * f(A)^k) over its nonzero products, j_max * deg A +
    k_max * deg f(A) with a zero factor's term left out."""
    return sum(bounds.i_max + 1 + (bounds.j_max * a.deg if a else 0)
               + (bounds.k_max * v.deg if v else 0) for a, v in entries)


def find_relation(table: FuncTable, bounds: TriDegreeBounds,
                  budget: int = DEFAULT_MATRIX_BUDGET):
    """First canonical nonzero Q vanishing on the whole table, or None.

    The full system has one F_q equation per (input, t-power) pair, over
    columns ordered by (i, j, k); it is refused, from degrees alone, once it
    exceeds the budget, but never built.  The search starts with no rows:
    it takes the first canonical kernel vector of the rows it has and
    evaluates that candidate directly on every table entry, in canonical
    order, on the entries' packed forms, prepared once per call
    (`_vanishing_scan`).  The first entry where it does not vanish (a
    witness) adds its rows and the kernel is solved again, until the
    candidate vanishes everywhere or the kernel is trivial.

    The first canonical kernel vector of a subspace is its one element with
    the smallest last nonzero column, scaled to 1 there, and adding rows
    only shrinks the kernel: a candidate that vanishes on every entry is
    the full system's first vector too.  Each witness removes the current
    candidate from the kernel, so there are at most unknowns + 1 solves.
    """
    field = table.field
    ncols = bounds.unknowns
    entries = list(table.items())
    if _relation_row_count(entries, bounds) * ncols > budget:
        raise BudgetExceeded("relation system exceeds %d matrix entries"
                             % budget)
    scan = _vanishing_scan(entries, field)
    rows = []
    witnesses = set()
    while True:
        vec = kernel_vector(field, rows, ncols)
        if vec is None:
            return None
        rel = RelationQ(bounds=bounds, coeffs=tuple(vec))
        witness = next(scan(rel.y_slices(field)), None)
        if witness is None:
            return rel
        if witness[0] in witnesses:
            raise AssertionError("solver returned a non-vanishing relation")
        witnesses.add(witness[0])
        # within the budget: the full system passed it
        rows += _system_rows([_relation_columns(*witness, bounds)], budget,
                             "relation system")


# -- counting check -----------------------------------------------------------


@dataclass(frozen=True)
class UnknownCountReport:
    q: int
    M: int
    bounds: TriDegreeBounds
    unknowns: int
    equations: int
    degenerate: bool
    exceeds: bool | None


def unknown_count_check(q: int, M: int) -> UnknownCountReport:
    """Counting behind the existence of a relation: unknowns in the standard
    box versus q^(M+1) inputs times q^M coefficient constraints each.

    For small M the middle range collapses (j_max = 0); the counts are still
    reported but the comparison is not asserted.
    """
    if M < 2:
        raise ValueError("M must be >= 2 for the counting ranges")
    bounds = TriDegreeBounds.counting_schedule(q, M)
    unknowns = bounds.unknowns
    equations = q ** (2 * M + 1)
    degenerate = bounds.j_max == 0
    exceeds = None if degenerate else unknowns > equations
    return UnknownCountReport(q=q, M=M, bounds=bounds, unknowns=unknowns,
                              equations=equations, degenerate=degenerate,
                              exceeds=exceeds)


# -- degree bounds from a relation ---------------------------------------------


@dataclass(frozen=True)
class DegreeBoundCert:
    """deg f(A) <= c3 * deg A + c4 for nonzero A, read off a relation's
    Y-slices: c3 is the top X-degree across slices, c4 the top t-degree."""
    c3: int
    c4: int
    y_degree: int


def degree_bound_from_relation(rel: RelationQ, field) -> DegreeBoundCert:
    slices = rel.y_slices(field)
    y_degree = max((k for k, s in enumerate(slices)
                    if any(not c.is_zero() for c in s)), default=-1)
    if y_degree < 1:
        raise ValueError("relation must involve Y to bound growth")
    c3 = 0
    c4 = 0
    for s in slices[:y_degree + 1]:
        for j, c in enumerate(s):
            if not c.is_zero():
                c3 = max(c3, j)
                c4 = max(c4, c.deg)
    return DegreeBoundCert(c3=c3, c4=c4, y_degree=y_degree)


@dataclass(frozen=True)
class DegreeBoundReport:
    cert: DegreeBoundCert
    ok: bool
    violations: tuple[Poly, ...]


def check_degree_bound(table: FuncTable, cert: DegreeBoundCert) -> DegreeBoundReport:
    bad = []
    for a, v in table.items():
        if a.is_zero():
            continue
        if v.deg > cert.c3 * a.deg + cert.c4:
            bad.append(a)
    return DegreeBoundReport(cert=cert, ok=not bad, violations=tuple(bad))


# -- linear ansatz -----------------------------------------------------------


@dataclass(frozen=True)
class LinearCaps:
    """Degree caps for the pair (P, Q) in A[X]: X-degrees and coefficient
    t-degrees."""
    p_deg_x: int
    p_coeff_deg: int
    q_deg_x: int
    q_coeff_deg: int

    def __post_init__(self):
        if min(self.p_deg_x, self.p_coeff_deg,
               self.q_deg_x, self.q_coeff_deg) < 0:
            raise ValueError("caps must be >= 0")

    @property
    def unknowns(self) -> int:
        return ((self.p_deg_x + 1) * (self.p_coeff_deg + 1)
                + (self.q_deg_x + 1) * (self.q_coeff_deg + 1))


@dataclass(frozen=True)
class LinearAnsatz:
    """(P, Q) in A[X] x A[X], not both zero, with P(x)y + Q(x) = 0 on the
    samples it was solved from."""
    p_coeffs: tuple[Poly, ...]
    q_coeffs: tuple[Poly, ...]
    caps: LinearCaps

    def residual(self, x: Poly, y: Poly) -> Poly:
        return _horner(self.p_coeffs, x) * y + _horner(self.q_coeffs, x)


def _linear_rows(samples, caps: LinearCaps, budget: int) -> list:
    """One equation per (sample, t-power) pair: P's unknowns by (X-power,
    t-power) multiply t^i * x^j * y, then Q's multiply t^i * x^j."""
    def entries():
        for x, y in samples:
            xp = _powers(x, max(caps.p_deg_x, caps.q_deg_x))
            yield ([(xp[j] * y, i) for j in range(caps.p_deg_x + 1)
                    for i in range(caps.p_coeff_deg + 1)]
                   + [(xp[j], i) for j in range(caps.q_deg_x + 1)
                      for i in range(caps.q_coeff_deg + 1)])
    return _system_rows(entries(), budget, "linear ansatz system",
                        caps.unknowns)


def find_linear_relation(samples, caps: LinearCaps,
                         budget: int = DEFAULT_MATRIX_BUDGET):
    """First canonical (P, Q) pair vanishing on the samples, or None.

    Samples are (x, y) pairs with pairwise distinct x.  Columns: P's
    coefficient unknowns by (X-power, t-power), then Q's.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    field = samples[0][0].field
    xs = [x for x, _ in samples]
    if len({x.index() for x in xs}) != len(xs):
        raise ValueError("sample inputs must be pairwise distinct")
    pw, qw = caps.p_coeff_deg + 1, caps.q_coeff_deg + 1
    p_cols = (caps.p_deg_x + 1) * pw
    vec = kernel_vector(field, _linear_rows(samples, caps, budget),
                        caps.unknowns)
    if vec is None:
        return None
    p_coeffs = [Poly(field, vec[c:c + pw]) for c in range(0, p_cols, pw)]
    q_coeffs = [Poly(field, vec[c:c + qw])
                for c in range(p_cols, len(vec), qw)]
    while p_coeffs and p_coeffs[-1].is_zero():
        p_coeffs.pop()
    while q_coeffs and q_coeffs[-1].is_zero():
        q_coeffs.pop()
    ansatz = LinearAnsatz(p_coeffs=tuple(p_coeffs), q_coeffs=tuple(q_coeffs),
                          caps=caps)
    for x, y in samples:
        if not ansatz.residual(x, y).is_zero():
            raise AssertionError("solver returned a non-vanishing ansatz")
    return ansatz


def power_samples(table: FuncTable, u: Poly, N: int) -> list:
    """The samples (u^n, f(u^n)) for n = 0..N, checked before any is built.

    A constant or zero u has at most q distinct powers, so N >= q repeats an
    input; a nonconstant u with deg u * N > D leaves the table domain.  Both
    fail with the error the full sample list would have raised.
    """
    if u.deg < 1:
        if N >= table.field.q:
            raise ValueError("sample inputs must be pairwise distinct")
    elif u.deg * N > table.D:
        table.lookup(u ** (table.D // u.deg + 1))  # raises: first power past D
    return [(u ** n, table.lookup(u ** n)) for n in range(N + 1)]


def _lowest_terms(nums, w: Poly) -> tuple[tuple[Poly, ...], Poly]:
    """N(X)/w as (N, d) in lowest terms: N's trailing zeros stripped and
    d = w / gcd(w, N_0, N_1, ...) made monic, the lcm of the reduced
    denominators of the coefficients N_j/w."""
    nums = list(nums)
    while nums and nums[-1].is_zero():
        nums.pop()
    g = reduce(poly_gcd, nums, w)
    d = w // g
    inv = w.field.inv(d.lc)
    return tuple((c // g).scaled(inv) for c in nums), d.scaled(inv)


def _coefficients(nums, d: Poly) -> tuple[RatFunc, ...]:
    """The canonical RatFunc coefficients N_j/d of a map held as (N, d)."""
    return tuple(RatFunc(c, d) for c in nums)


def _pseudo_quotient(ansatz: LinearAnsatz) -> tuple[tuple[Poly, ...], Poly]:
    """-Q/P as (N, d) by pseudo-division in F_q[t][X] (Knuth, TAOCP 2,
    4.6.1, Algorithm R).

    With e quotient terms, lc(P)^e * (-Q) = S*P + R in F_q[t][X]; every
    step's division by lc(P) is exact, and -Q/P = S/lc(P)^e iff R = 0.
    """
    p = list(ansatz.p_coeffs)
    while p and p[-1].is_zero():
        p.pop()
    if not p:
        raise ValueError("cannot recover a map from P = 0")
    m, lc = len(p) - 1, p[-1]
    e = max(len(ansatz.q_coeffs) - m, 0)
    scale = lc ** e
    rem = [-(c * scale) for c in ansatz.q_coeffs]
    quot = [None] * e
    for i in reversed(range(e)):
        c = quot[i] = rem[i + m] // lc
        if c:
            for j in range(m):  # the top term cancels by construction
                rem[i + j] = rem[i + j] - c * p[j]
    if any(rem[:m]):
        raise ExactDivisionError("-Q is not divisible by P in K[X]")
    return _lowest_terms(quot, scale)


def recover_polymap(ansatz: LinearAnsatz) -> tuple[RatFunc, ...]:
    """F = -Q/P by exact division in K[X]; a remainder means the ansatz does
    not certify a polynomial map."""
    return _coefficients(*_pseudo_quotient(ansatz))


# -- direct interpolation -----------------------------------------------------


@dataclass(frozen=True)
class FitReport:
    coeffs: tuple[RatFunc, ...]
    degree_cap: int
    holdout_ok: bool
    mismatches: tuple[Poly, ...]
    values_in_ring: bool


def _interpolate(points) -> tuple[tuple[Poly, ...], Poly]:
    """The interpolant of degree < len(points) through (x, y) pairs in
    F_q[t], as (N, d) (von zur Gathen & Gerhard, MCA 5.2).

    With M(X) = prod (X - x_j), the i-th basis numerator M/(X - x_i) comes
    by synthetic division and has weight w_i = prod_{j != i} (x_i - x_j);
    the sum of y_i * (w/w_i) * M/(X - x_i) is put over w = lcm of the w_i
    with y_i != 0.
    """
    xs = [x for x, _ in points]
    seen = {}
    dups = [(seen[x], j) for j, x in enumerate(xs)
            if seen.setdefault(x, j) != j]
    if dups:
        raise ValueError("duplicate interpolation nodes at positions %d and %d"
                         % min(dups))
    field = xs[0].field
    one = Poly.one(field)
    m = [one]  # M(X), lowest coefficient first
    for x in xs:
        m = [-(x * m[0])] + [a - x * b for a, b in zip(m, m[1:])] + [one]
    terms = [(x, y, reduce(Poly.__mul__, [x - z for z in xs if z != x], one))
             for x, y in points if y]
    w = reduce(lambda a, b: a // poly_gcd(a, b) * b,
               [wi for _, _, wi in terms], one)
    acc = [Poly.zero(field)] * len(xs)
    for x, y, wi in terms:
        c, b = y * (w // wi), one
        for k in reversed(range(len(xs))):  # b runs down M/(X - x)
            acc[k] = acc[k] + c * b
            b = m[k] + x * b
    return _lowest_terms(acc, w)


def fit_polynomial(points, B: int, max_mismatches: int = 10,
                   budget: int = DEFAULT_MATRIX_BUDGET) -> FitReport:
    """Interpolate degree <= B through the first B+1 points, then judge it.

    Reports whether the interpolant N(X)/d matches every point (x, y), by
    one `_vanishing_scan` with the Y-slices [N, -d], the first
    max_mismatches x where it does not, and whether all its values land in
    F_q[t] rather than properly in K.  The budget rule is the cost of
    solving the (B+1)-square Vandermonde system over K, whose entries x^j
    reach t-degree B * max deg x: (B+1)^3 entry updates of up to
    B * max deg x + 1 coefficients each, checked before interpolating.
    Interpolation now runs in F_q[t] in O(B^2) Poly operations, so the rule
    overstates its cost; raising it waits on timings (ROADMAP: "fit budget
    from timings").
    """
    points = list(points)
    if B < 0:
        raise ValueError("B must be >= 0")
    if max_mismatches < 0:
        raise ValueError("max_mismatches must be >= 0")
    if len(points) < B + 1:
        raise ValueError("need at least B+1 points")
    dx = max(max(x.deg, 0) for x, _ in points[:B + 1])
    if (B + 1) ** 3 * (B * dx + 1) > budget:
        raise BudgetExceeded("interpolation through %d points exceeds %d "
                             "matrix entry updates" % (B + 1, budget))
    nums, d = _interpolate(points[:B + 1])
    fails = _vanishing_scan(points, points[0][0].field)([nums, [-d]])
    mism = tuple(x for x, _ in islice(fails, max_mismatches))
    # a value N(x)/d lies in F_q[t] iff d | N(x), always when d = 1
    in_ring = d.deg <= 0 or all((_horner(nums, x) % d).is_zero()
                                for x, _ in points)
    return FitReport(coeffs=_coefficients(nums, d), degree_cap=B,
                     holdout_ok=not mism and next(fails, None) is None,
                     mismatches=mism, values_in_ring=in_ring)


# -- vanishing criterion --------------------------------------------------------


@dataclass(frozen=True)
class VanishingReport:
    """Audit of: (a) congruence preservation, (b) deg f(A) <= q^deg A - 1
    above the floor C1, (c) f = 0 at degrees <= C1.  When all three hold the
    table must be identically zero; any nonzero entry is reported with the
    product of irreducibles that must divide it."""
    c1: int
    congruence_ok: bool
    congruence_violations: tuple
    degree_cap_ok: bool
    degree_cap_witnesses: tuple[Poly, ...]
    zero_floor_ok: bool
    zero_floor_witnesses: tuple[Poly, ...]
    hypotheses_ok: bool
    all_zero: bool
    counterexample: Poly | None
    counterexample_value: Poly | None
    divisibility_witness: Poly | None
    witness_divides: bool | None

    @property
    def ok(self) -> bool:
        return self.hypotheses_ok and self.all_zero


def check_vanishing_lemma(table: FuncTable, c1: int) -> VanishingReport:
    if not (0 <= c1 <= table.D):
        raise ValueError("need 0 <= C1 <= D")
    field, q = table.field, table.field.q
    p3 = verify_p3(table)
    cap_bad = []
    floor_bad = []
    first_nonzero = value = witness = divides = None
    for a, v in table.items():
        n = 0 if a.is_zero() else a.deg
        if n <= c1:
            if not v.is_zero():
                floor_bad.append(a)
        elif not (v.deg <= q ** n - 1):
            cap_bad.append(a)
        if first_nonzero is None and not v.is_zero():
            first_nonzero, value = a, v
    if first_nonzero is not None:
        n = 0 if first_nonzero.is_zero() else first_nonzero.deg
        witness = irreducible_product(field, n)
        divides = (value % witness).is_zero() if witness.deg > 0 else True
    return VanishingReport(
        c1=c1, congruence_ok=p3.ok, congruence_violations=p3.violations,
        degree_cap_ok=not cap_bad, degree_cap_witnesses=tuple(cap_bad),
        zero_floor_ok=not floor_bad, zero_floor_witnesses=tuple(floor_bad),
        hypotheses_ok=p3.ok and not cap_bad and not floor_bad,
        all_zero=first_nonzero is None,
        counterexample=first_nonzero, counterexample_value=value,
        divisibility_witness=witness, witness_divides=divides)


# -- pigeonhole schedule ---------------------------------------------------------


@dataclass(frozen=True)
class ScheduleReport:
    """Parameters (N, D2) derived from (D1, eps, delta, C5, C6), plus the two
    exponents the pigeonhole compares: distinct value tuples on U^0..U^N
    versus available (P, Q) pairs."""
    N: int
    D2: int
    tuple_exponent: int
    choice_exponent: Fraction
    counting_ok: bool


def schedule_check(D1: int, epsilon: Fraction, delta: int,
                   C5: int, C6: int) -> ScheduleReport:
    if D1 <= 0 or delta <= 0:
        raise ValueError("D1 and delta must be positive")
    epsilon = Fraction(epsilon)
    if not (0 < epsilon < 2):
        raise ValueError("epsilon must lie in (0, 2)")
    n_plus_1 = math.floor(Fraction((2 - epsilon) * D1, delta))
    if n_plus_1 < 2:
        raise ValueError("schedule degenerates: (2-eps)*D1/delta < 2")
    N = n_plus_1 - 1
    D2 = math.ceil(Fraction(delta, epsilon) * N * (N + 1))
    tuple_exponent = D1 * N * (N + 1) // 2 + D2 * (N + 1) + N + 1
    choice_exponent = Fraction(D1 * D2 + (D1 - C5) * (D2 - C6), delta)
    return ScheduleReport(N=N, D2=D2, tuple_exponent=tuple_exponent,
                          choice_exponent=choice_exponent,
                          counting_ok=choice_exponent > tuple_exponent)


def linear_growth_fit(samples) -> tuple[int, int]:
    """Smallest slope C5, then offset C6, with deg y <= C5*n + C6 over the
    samples ((x_n, y_n) indexed by position n)."""
    degs = [(n, y.deg) for n, (_, y) in enumerate(samples)
            if y.deg is not NEG_INF]
    if not degs:
        return 0, 0
    c5 = 0
    for n, d in degs:
        if n > 0:
            c5 = max(c5, math.ceil(Fraction(d - degs[0][1], n)))
    c5 = max(c5, 0)
    c6 = max(d - c5 * n for n, d in degs)
    return c5, max(c6, 0)


# -- end-to-end workflow -----------------------------------------------------------


@dataclass(frozen=True)
class PipelineReport:
    steps: tuple[tuple[str, bool, str], ...]
    relation: RelationQ | None
    cert: DegreeBoundCert | None
    ansatz: LinearAnsatz | None
    recovered: tuple[RatFunc, ...] | None
    reproduces_table: bool
    ok: bool


def _reproduces(nums, d: Poly, table: FuncTable) -> bool:
    """Whether the map N(X)/d agrees with the table on every entry.

    d != 0, so F(A) = f(A) iff N(A) - d*f(A) = 0: one `_vanishing_scan`
    of the table with the Y-slices [N, -d], on packed forms, with no Poly
    built and no normalisation in K per entry.
    """
    return next(_vanishing_scan(list(table.items()), table.field)(
        [nums, [-d]]), None) is None


def run_pipeline(table: FuncTable, bounds: TriDegreeBounds, u: Poly, N: int,
                 caps: LinearCaps | None = None,
                 budget: int = DEFAULT_MATRIX_BUDGET) -> PipelineReport:
    """Relation -> degree bound -> linear ansatz on powers of u -> exact
    division -> full-table cross-check; both solvers get the matrix
    budget."""
    steps = []
    rel = cert = ansatz = recovered = None
    reproduces = False

    rel = find_relation(table, bounds, budget)
    steps.append(("find_relation", rel is not None,
                  "found" if rel else "no nonzero relation in the box"))
    if rel is not None:
        try:
            cert = degree_bound_from_relation(rel, table.field)
            rep = check_degree_bound(table, cert)
            steps.append(("degree_bound", rep.ok,
                          "C3=%d C4=%d, %d violations"
                          % (cert.c3, cert.c4, len(rep.violations))))
        except ValueError as exc:
            steps.append(("degree_bound", False, str(exc)))
            cert = None
    if cert is not None and steps[-1][1]:
        if u.deg * N > table.D:
            steps.append(("linear_relation", False,
                          "powers of u up to N leave the table domain"))
        else:
            if caps is None:
                caps = LinearCaps(p_deg_x=0, p_coeff_deg=0,
                                  q_deg_x=cert.c3, q_coeff_deg=cert.c4)
            ansatz = find_linear_relation(power_samples(table, u, N), caps,
                                          budget)
            steps.append(("linear_relation", ansatz is not None,
                          "found" if ansatz else "trivial kernel under caps"))
    if ansatz is not None:
        try:
            nums, d = _pseudo_quotient(ansatz)
            recovered = _coefficients(nums, d)
            steps.append(("recover", True, "exact division"))
        except (ValueError, ExactDivisionError) as exc:
            steps.append(("recover", False, str(exc)))
    if recovered is not None:
        reproduces = _reproduces(nums, d, table)
        steps.append(("reproduce_table", reproduces,
                      "matches all %d entries" % (table.field.q ** (table.D + 1))
                      if reproduces else "some entry disagrees"))
    ok = bool(steps) and all(s[1] for s in steps)
    return PipelineReport(steps=tuple(steps), relation=rel, cert=cert,
                          ansatz=ansatz, recovered=recovered,
                          reproduces_table=reproduces, ok=ok)
