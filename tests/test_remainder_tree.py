"""residues.index_arrays against one direct division per modulus, and the
per-entry reference in helpers against the same."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fqtlab import FiniteField, Poly, enumerate_monic_irreducibles
from fqtlab.functable import index_code
from fqtlab.residues import index_arrays

from helpers import direct_indices

FIELDS = [FiniteField(2), FiniteField(3), FiniteField(5), FiniteField(2, 2)]
# degrees up to which the irreducibles are many, and their product long
DEGREES = {2: 6, 3: 5, 5: 3, 4: 3}


def irreducibles_up_to(field, D):
    return [p for d in range(1, D + 1)
            for p in enumerate_monic_irreducibles(field, d)]


def random_poly(field, rng, deg):
    if deg < 0:
        return Poly.zero(field)
    cs = [rng.randrange(field.q) for _ in range(deg)]
    return Poly(field, cs + [rng.randrange(1, field.q)])


def check(moduli, xs):
    """Both index_arrays and the per-entry reference give every residue
    index of every x."""
    xs = list(xs)
    expected = [[(x % m).index() for x in xs] for m in moduli]
    code = index_code(moduli[0].field.q ** max(m.deg for m in moduli))
    assert [list(col) for col in index_arrays(moduli, xs, code)] == expected
    assert [direct_indices(moduli, x) for x in xs] == [list(r)
                                                       for r in zip(*expected)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda F: "F%d" % F.q)
def test_indices_match_direct_remainders(field):
    rng = random.Random(field.q)
    mods = irreducibles_up_to(field, DEGREES[field.q])
    odd = len(mods) - 1 + len(mods) % 2
    for n in sorted({1, 2, 3, 5, 7, odd, len(mods)}):
        moduli = mods[:n]
        top = sum(m.deg for m in moduli)
        low = min(m.deg for m in moduli)
        xs = [Poly.zero(field), Poly.one(field)]
        xs += [random_poly(field, rng, d) for d in range(low)]  # below all
        # below, at and past deg M, M the product: quotients of 0, 1, 2 and
        # many terms
        xs += [random_poly(field, rng, d) for d in (top - 1, top, top + 1)]
        xs += [random_poly(field, rng, 3 * top + 7) for _ in range(3)]
        check(moduli, xs)


def test_indices_with_arbitrary_nonzero_moduli():
    # the product needs no coprimality: repeated, non-monic and constant moduli
    F = FiniteField(5)
    rng = random.Random(7)
    x = random_poly(F, rng, 40)
    m = Poly(F, [1, 2, 3])
    moduli = [m, m, m.scaled(3), Poly.constant(F, 4), m * m,
              Poly(F, [0, 0, 0, 2])]
    check(moduli, [x])


def test_rejects_bad_input():
    F2, F3 = FiniteField(2), FiniteField(3)
    with pytest.raises(ValueError):
        index_arrays([], [], "B")
    with pytest.raises(ZeroDivisionError):
        index_arrays([Poly.gen(F2), Poly.zero(F2)], [], "B")
    with pytest.raises(ValueError):
        index_arrays([Poly.gen(F2)], [Poly.gen(F3)], "B")
    with pytest.raises(ValueError):
        index_arrays([Poly.gen(F2), Poly.gen(F3)], [], "B")


@st.composite
def residue_case(draw):
    field = draw(st.sampled_from(FIELDS))
    poly = st.lists(st.integers(min_value=0, max_value=field.q - 1),
                    max_size=12).map(lambda cs: Poly(field, cs))
    moduli = draw(st.lists(poly.filter(bool), min_size=1, max_size=9))
    return moduli, draw(st.lists(poly, min_size=1, max_size=4))


@given(residue_case(), st.integers(min_value=0, max_value=3))
@settings(max_examples=120, deadline=None)
def test_indices_property(case, power):
    moduli, factors = case
    x = factors[0] ** (power + 1)
    for f in factors[1:]:
        x = x * f + f
    check(moduli, [x, x * x, Poly.zero(x.field)])
