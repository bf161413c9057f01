"""Finite tables of maps f: { A : deg A <= D } -> F_q[t], plus the two desk
checks that matter for them: congruence preservation and degree growth.

A table's domain is exactly the q^(D+1) polynomials of degree <= D, including
zero and the constants.  Lookups outside the domain raise; nothing is ever
defaulted.  Tables serialize to a stable JSON form with compact polynomial
literals and canonically sorted entries, so equal tables produce identical
bytes.

The congruence check reads a ResidueMap: the residue, as an index, of every
input and every value mod every monic irreducible of degree <= D.  The map
reduces the inputs and then the values by one path, as F_p-linear maps on
packed columns of their coordinates (`residues.index_arrays`): a value is
first reduced mod the product M of all those moduli only when some value
reaches deg M, and inputs never do.  A caller that needs the residues too
(certification) builds the map once and passes it in.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DEFAULT_DEGREE_BUDGET, DEFAULT_ENUM_BUDGET,
                     BudgetExceeded, TableDomainError, power_exceeds)
from .field import FiniteField
from .irreducibles import degree_sum, enumerate_monic_irreducibles
from .poly import (NEG_INF, Poly, _horner, format_poly_compact, parse_poly,
                   polys_up_to)

# Degree cap for human-form values in table files.  build_counterexample
# refuses q^D > budget, so under the default budget its largest value, of
# degree dsum(D) < 2*q^D, stays below this cap.
_VALUE_DEGREE_CAP = 2 * DEFAULT_DEGREE_BUDGET


def _check_domain_size(field, D: int, n: int):
    """Raise unless n == q^(D+1), the size of the degree-<= D domain.

    q^(D+1) >= 2^(D+1) > n as soon as D+1 >= n.bit_length(), so such a D
    is rejected without computing the power; a table file's D could make
    that power astronomically large.
    """
    if D + 1 >= n.bit_length() or field.q ** (D + 1) != n:
        raise ValueError(
            "table must cover the full domain: expected %d^%d entries, got %d"
            % (field.q, D + 1, n))


def field_to_obj(field: FiniteField) -> dict:
    """The field as table and ansatz files store it."""
    return {"p": field.p, "e": field.e,
            "modulus": list(field.modulus) if field.modulus else None}


def field_from_obj(fo) -> FiniteField:
    """The field a table or ansatz file names; ValueError on a bad shape."""
    if not isinstance(fo, dict):
        raise ValueError("field must be an object, got %r" % (fo,))
    for key in ("p", "e"):
        if type(fo[key]) is not int:
            raise ValueError("field %s must be an integer, got %r"
                             % (key, fo[key]))
    modulus = fo.get("modulus")
    if modulus and not (isinstance(modulus, list)
                        and all(type(c) is int for c in modulus)):
        raise ValueError("field modulus must be a list of integers, got %r"
                         % (modulus,))
    return FiniteField(fo["p"], fo["e"], tuple(modulus) if modulus else None)


class FuncTable:
    """Immutable-by-convention map from all A with deg A <= D to F_q[t]."""

    # _entries: the (input, value) pairs in canonical order, for walks;
    # _values: the same pairs as a dict, for look-ups
    __slots__ = ("field", "D", "_values", "_entries")

    def __init__(self, field: FiniteField, D: int, values: dict):
        if D < 0:
            raise ValueError("D must be >= 0")
        _check_domain_size(field, D, len(values))
        # the q^(D+1) distinct keys of degree <= D fill the domain's indices
        entries = [None] * len(values)
        for a, v in values.items():
            if (a.field is not field and a.field != field
                    or v.field is not field and v.field != field):
                raise ValueError("table entries from a different field")
            if not (a.deg is NEG_INF or a.deg <= D):
                raise ValueError("key %s outside degree bound %d" % (a, D))
            entries[a.index()] = (a, v)
        self.field = field
        self.D = D
        self._values = dict(values)
        self._entries = entries

    @classmethod
    def from_function(cls, field, D, fn, budget: int = DEFAULT_ENUM_BUDGET):
        if power_exceeds(field.q, D + 1, budget):
            raise BudgetExceeded("domain of degree <= %d exceeds budget %d"
                                 % (D, budget))
        return cls(field, D, {a: fn(a) for a in polys_up_to(field, D)})

    @classmethod
    def from_polymap(cls, field, D, coeffs, budget: int = DEFAULT_ENUM_BUDGET):
        """Table of A -> sum coeffs[j] * A^j for coeffs in F_q[t]."""
        coeffs = tuple(coeffs)
        return cls.from_function(field, D, lambda a: _horner(coeffs, a),
                                 budget=budget)

    def lookup(self, a: Poly) -> Poly:
        try:
            return self._values[a]
        except KeyError:
            raise TableDomainError("input %s outside table domain (D=%d)"
                                   % (a, self.D)) from None

    def domain(self):
        return (a for a, _ in self._entries)

    def items(self):
        return iter(self._entries)

    def with_value(self, a: Poly, v: Poly) -> "FuncTable":
        """A copy with one entry overwritten (for corruption experiments)."""
        if a not in self._values:
            raise TableDomainError("input %s outside table domain" % a)
        vals = dict(self._values)
        vals[a] = v
        return FuncTable(self.field, self.D, vals)

    def restrict(self, D2: int) -> "FuncTable":
        if not (0 <= D2 <= self.D):
            raise ValueError("restriction degree must satisfy 0 <= D2 <= D")
        vals = {a: self._values[a] for a in polys_up_to(self.field, D2)}
        return FuncTable(self.field, D2, vals)

    def __eq__(self, other):
        if not isinstance(other, FuncTable):
            return NotImplemented
        return (self.field == other.field and self.D == other.D
                and self._values == other._values)

    def __repr__(self):
        return "FuncTable(q=%d, D=%d)" % (self.field.q, self.D)

    # -- serialization ------------------------------------------------------

    def to_obj(self) -> dict:
        values = [[format_poly_compact(a), format_poly_compact(v)]
                  for a, v in self.items()]
        return {"field": field_to_obj(self.field), "D": self.D,
                "values": values}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_obj(cls, obj) -> "FuncTable":
        if not isinstance(obj, dict):
            raise ValueError("a table file must hold a JSON object")
        field = field_from_obj(obj["field"])
        D = obj["D"]
        if type(D) is not int or D < 0:
            raise ValueError("table D must be an integer >= 0, got %r" % (D,))
        values = obj["values"]
        if not (isinstance(values, list) and all(
                isinstance(e, list) and len(e) == 2
                and all(isinstance(x, str) for x in e) for e in values)):
            raise ValueError("table values must be a list of [input, value] "
                             "pairs of polynomial strings")
        _check_domain_size(field, D, len(values))
        vals = {}
        for a_txt, v_txt in values:
            vals[parse_poly(field, a_txt, max_degree=D)] = parse_poly(
                field, v_txt, max_degree=_VALUE_DEGREE_CAP)
        return cls(field, D, vals)

    @classmethod
    def from_json(cls, text: str) -> "FuncTable":
        return cls.from_obj(json.loads(text))

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "FuncTable":
        with open(path) as fh:
            return cls.from_json(fh.read())


# -- congruence check -------------------------------------------------------


@dataclass(frozen=True)
class P3Violation:
    """f(a) and f(base) differ mod p even though a = base mod p."""
    modulus: Poly
    a: Poly
    base: Poly


@dataclass(frozen=True)
class P3Report:
    ok: bool
    violations: tuple[P3Violation, ...]
    violation_count: int
    irreducibles_checked: int
    truncated: bool


def index_code(top: int) -> str:
    """The narrowest `array` type code that holds every index below top."""
    return next(c for c in "BHILQ" if top <= 1 << 8 * array(c).itemsize)


class ResidueMap:
    """A table's inputs and values mod every monic irreducible of degree <= D.

    `moduli` lists those irreducibles by degree, each degree in canonical
    order.  For the domain entry A_k of index k, inputs[i][k] is the index of
    A_k mod moduli[i] and values[i][k] that of f(A_k) mod moduli[i].
    Reduction mod P is F_p-linear, so the map reduces all entries at once:
    coordinate pos of every entry is packed into one column int, one slot
    per entry, and each residue coordinate is a sum of small multiples of
    columns (`residues.index_arrays`, called once for the inputs and once
    for the values).  By the slot rule a slot of s bytes holds a sum of
    e*L products below (p-1)^2 for entries of degree < L; over
    characteristic 2 it is one bit and sums are XOR.  M, the product of all
    the moduli, is formed only when some entry reaches deg M = dsum(D), and
    then every entry is divided by it once: inputs never reach it, and a
    counterexample's values leave quotients of one term at most.  Residues
    are kept as indices, below q^D, in one array per modulus of the
    narrowest type that holds them (a byte each when q^D <= 256, two bytes
    up to 65536), written straight from the packed index column.  The map
    still holds 2 * q^(D+1) indices per modulus at once, so it grows with
    the number of moduli times the domain: at (q=2, D=12) about 24 MB for
    747 moduli.  A D = 0 table has no modulus and an empty map.
    """

    __slots__ = ("moduli", "inputs", "values")

    def __init__(self, table: FuncTable):
        mods = []
        for d in range(1, table.D + 1):
            mods.extend(enumerate_monic_irreducibles(table.field, d))
        self.moduli = tuple(mods)
        if not mods:
            self.inputs = self.values = ()
            return
        # imported here, so that a start-up that builds no map skips it
        from .residues import index_arrays
        code = index_code(table.field.q ** table.D)  # residues lie below it
        self.inputs = tuple(index_arrays(mods, table.domain(), code))
        self.values = tuple(index_arrays(mods, [v for _, v in table.items()],
                                         code))


def _p3_scan_modulus(keys, vals) -> list[tuple[int, int]]:
    """(k, base) for each domain index k whose value disagrees with that of
    the least index `base` in its residue class; classes are `keys`.  The
    modulus has degree <= D, so the least member of a class is the residue
    itself, in the domain: base is the key."""
    return [(k, key) for k, (key, v) in enumerate(zip(keys, vals))
            if v != vals[key]]


def verify_p3(table: FuncTable, max_violations: int = 100,
              residues: ResidueMap | None = None) -> P3Report:
    """Check f(a) = f(b) mod P whenever a = b mod P, over every monic
    irreducible P of degree <= D.

    Each residue class is compared against its canonically least member, so
    a class is clean iff all pairs within it agree.  Violations are collected
    exhaustively (up to max_violations retained) rather than fail-fast.  The
    scan reads `residues`, the table's ResidueMap, and builds it when none is
    given.
    """
    if max_violations < 0:
        raise ValueError("max_violations must be >= 0")
    if residues is None:
        residues = ResidueMap(table)
    field = table.field
    violations = [
        P3Violation(modulus=p, a=Poly.from_index(field, k),
                    base=Poly.from_index(field, base))
        for p, keys, vals in zip(residues.moduli, residues.inputs,
                                 residues.values)
        for k, base in _p3_scan_modulus(keys, vals)]
    violations.sort(key=lambda v: (v.modulus.sort_key(), v.a.sort_key(),
                                   v.base.sort_key()))
    count = len(violations)
    return P3Report(ok=count == 0,
                    violations=tuple(violations[:max_violations]),
                    violation_count=count,
                    irreducibles_checked=len(residues.moduli),
                    truncated=count > max_violations)


# -- growth profile -----------------------------------------------------------


@dataclass(frozen=True)
class GrowthRow:
    """Max value degree in one input-degree stratum against three caps.

    The caps are q^n/(27*q*n), (1-eps)*dsum(n), and q^n - 1.  The first is
    exceeded when max_deg reaches it (the interesting regime is strictly
    below), the other two when max_deg goes strictly over.
    """
    n: int
    max_deg: object  # int or NEG_INF
    qn_over_27qn: Fraction | None
    one_minus_eps_dsum: Fraction | None
    qn_minus_one: int
    exceeds_qn_over_27qn: bool | None
    exceeds_one_minus_eps_dsum: bool | None
    exceeds_qn_minus_one: bool


@dataclass(frozen=True)
class GrowthProfile:
    D: int
    epsilon: Fraction
    rows: tuple[GrowthRow, ...]


def growth_profile(table: FuncTable,
                   epsilon: Fraction = Fraction(1, 2)) -> GrowthProfile:
    q = table.field.q
    maxima = {n: NEG_INF for n in range(table.D + 1)}
    for a, v in table.items():
        n = 0 if a.is_zero() else a.deg
        if v.deg > maxima[n]:
            maxima[n] = v.deg
    rows = []
    for n in range(table.D + 1):
        md = maxima[n]
        window = q ** n - 1
        if n == 0:
            cap1 = cap2 = None
            ex1 = ex2 = None
        else:
            cap1 = Fraction(q ** n, 27 * q * n)
            cap2 = (1 - epsilon) * degree_sum(q, n)
            ex1 = md >= cap1
            ex2 = md > cap2
        rows.append(GrowthRow(
            n=n, max_deg=md,
            qn_over_27qn=cap1, one_minus_eps_dsum=cap2, qn_minus_one=window,
            exceeds_qn_over_27qn=ex1, exceeds_one_minus_eps_dsum=ex2,
            exceeds_qn_minus_one=md > window))
    return GrowthProfile(D=table.D, epsilon=epsilon, rows=tuple(rows))
