"""Certify's column maps by recurrence against the shift-and-reduce
reference.

`residues._column_map` builds the rows of M_P from the top coordinate of
t^i mod P, a linear recurring sequence.  The reference in helpers builds
each column t^i mod P (times x^b) from the one before by one reduction.
Both must give the same rows over prime fields, over extension fields of
characteristic 2 and 3 (F_9 under both moduli), for monic, non-monic and
unit moduli, reducible ones included, and for maps on fewer columns than
deg P, exactly deg P, and more.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fqtlab import FiniteField, Poly, enumerate_monic_irreducibles
from fqtlab.residues import _column_map

from helpers import shift_and_reduce_column_map

# F_9 twice, the second with t^2 + t + 2 in place of the default t^2 + 1
FIELDS = [FiniteField(2), FiniteField(3), FiniteField(5), FiniteField(7),
          FiniteField(2, 2), FiniteField(3, 2), FiniteField(3, 2, (2, 1, 1))]
IDS = ["F2", "F3", "F5", "F7", "F4", "F9", "F9b"]


def rows(m, L, field):
    return [list(row) for row in _column_map(m._k, L, field)]


def reference(m, L, field):
    return [list(row) for row in shift_and_reduce_column_map(m._k, L, field)]


def moduli(field):
    """Every unit; every monic irreducible of degree 1 and 2, and each
    scaled by the last nonzero code; t^4 and a square; and seeded
    polynomials of degree 3 to 7 with random leading codes."""
    rng = random.Random(field.q)
    q = field.q
    t = Poly.gen(field)
    irreducibles = [p for d in (1, 2)
                    for p in enumerate_monic_irreducibles(field, d)]
    out = [Poly.constant(field, c) for c in range(1, q)]
    out += irreducibles + [p.scaled(q - 1) for p in irreducibles]
    out += [t ** 4, (t + Poly.one(field)) ** 2]
    out += [Poly(field, [rng.randrange(q) for _ in range(d)]
                 + [rng.randrange(1, q)]) for d in range(3, 8)]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_recurrence_matches_shift_and_reduce(field):
    ms = moduli(field)
    assert any(not m.is_monic() for m in ms) == (field.q > 2)
    for m in ms:
        d = m.deg
        for L in sorted({0, 1, max(d - 1, 0), d, d + 1, 2 * d + 3, 40}):
            got = rows(m, L, field)
            assert got == reference(m, L, field)
            assert len(got) == field.e * d
            assert all(len(row) == field.e * L for row in got)


@st.composite
def column_case(draw):
    field = draw(st.sampled_from(FIELDS))
    code = st.integers(min_value=0, max_value=field.q - 1)
    cs = draw(st.lists(code, max_size=9))
    top = draw(st.integers(min_value=1, max_value=field.q - 1))
    return Poly(field, cs + [top]), draw(st.integers(min_value=0,
                                                      max_value=30))


@given(column_case())
@settings(max_examples=150, deadline=None)
def test_recurrence_property(case):
    m, L = case
    assert rows(m, L, m.field) == reference(m, L, m.field)
