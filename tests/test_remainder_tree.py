"""RemainderTree.index_arrays against one direct division per modulus, and
the per-entry reference in helpers against the same."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fqtlab import FiniteField, Poly, enumerate_monic_irreducibles
from fqtlab.functable import index_code
from fqtlab.residues import RemainderTree

from helpers import tree_indices

FIELDS = [FiniteField(2), FiniteField(3), FiniteField(5), FiniteField(2, 2)]
# degrees up to which the irreducibles give a tree of several levels; over
# F_3 up to degree 5 some nodes are large enough to keep a Newton inverse
DEGREES = {2: 6, 3: 5, 5: 3, 4: 3}


def irreducibles_up_to(field, D):
    return [p for d in range(1, D + 1)
            for p in enumerate_monic_irreducibles(field, d)]


def random_poly(field, rng, deg):
    if deg < 0:
        return Poly.zero(field)
    cs = [rng.randrange(field.q) for _ in range(deg)]
    return Poly(field, cs + [rng.randrange(1, field.q)])


def check(tree, moduli, xs):
    """Both the tree's arrays and the per-entry reference give every
    residue index of every x."""
    xs = list(xs)
    expected = [[(x % m).index() for x in xs] for m in moduli]
    code = index_code(moduli[0].field.q ** max(m.deg for m in moduli))
    assert [list(col) for col in tree.index_arrays(xs, code)] == expected
    assert [tree_indices(tree, x) for x in xs] == [list(r)
                                                   for r in zip(*expected)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda F: "F%d" % F.q)
def test_indices_match_direct_remainders(field):
    rng = random.Random(field.q)
    mods = irreducibles_up_to(field, DEGREES[field.q])
    odd = len(mods) - 1 + len(mods) % 2
    # 1, 2 and 3 moduli; odd counts carry a last node up unpaired
    for n in sorted({1, 2, 3, 5, 7, odd, len(mods)}):
        moduli = mods[:n]
        tree = RemainderTree(moduli)
        top = sum(m.deg for m in moduli)
        low = min(m.deg for m in moduli)
        xs = [Poly.zero(field), Poly.one(field)]
        xs += [random_poly(field, rng, d) for d in range(low)]  # below all
        xs += [random_poly(field, rng, d) for d in (top - 1, top, top + 1)]
        xs += [random_poly(field, rng, 3 * top + 7) for _ in range(3)]
        check(tree, moduli, xs)


@pytest.mark.parametrize("field", FIELDS, ids=lambda F: "F%d" % F.q)
def test_every_stop_level_matches_direct_remainders(field, monkeypatch):
    # a cost bound at each level's largest e*deg stops the descent there,
    # so the arrays run the divisions of every level, Newton nodes included
    rng = random.Random(field.q + 1)
    moduli = irreducibles_up_to(field, DEGREES[field.q])
    top = sum(m.deg for m in moduli)
    xs = [random_poly(field, rng, d) for d in (-1, 0, 3, top // 2, top - 1,
                                               top, 2 * top + 3)]
    levels = RemainderTree(moduli)._levels
    stops = set()
    for level in levels:
        bound = field.e * max(node.poly.deg for node in level)
        monkeypatch.setattr("fqtlab.residues._COLUMN_MAX_LEN", bound)
        tree = RemainderTree(moduli)
        stops.add(tree._stop)
        check(tree, moduli, xs)
    assert stops == set(range(len(levels)))


def test_odd_p_tree_keeps_newton_inverses():
    # the F_3 case above runs both division kernels of an odd-p tree
    tree = RemainderTree(irreducibles_up_to(FiniteField(3), DEGREES[3]))
    inverses = [node._newton for level in tree._levels for node in level]
    assert any(inv is not None for inv in inverses)
    assert any(inv is None for inv in inverses)


def test_indices_with_arbitrary_nonzero_moduli():
    # the tree needs no coprimality: repeated, non-monic and constant moduli
    F = FiniteField(5)
    rng = random.Random(7)
    x = random_poly(F, rng, 40)
    m = Poly(F, [1, 2, 3])
    moduli = [m, m, m.scaled(3), Poly.constant(F, 4), m * m,
              Poly(F, [0, 0, 0, 2])]
    check(RemainderTree(moduli), moduli, [x])


def test_rejects_bad_input():
    F2, F3 = FiniteField(2), FiniteField(3)
    with pytest.raises(ValueError):
        RemainderTree([])
    with pytest.raises(ZeroDivisionError):
        RemainderTree([Poly.gen(F2), Poly.zero(F2)])
    with pytest.raises(ValueError):
        RemainderTree([Poly.gen(F2)]).index_arrays([Poly.gen(F3)], "B")
    with pytest.raises(ValueError):
        tree_indices(RemainderTree([Poly.gen(F2)]), Poly.gen(F3))


@st.composite
def tree_case(draw):
    field = draw(st.sampled_from(FIELDS))
    poly = st.lists(st.integers(min_value=0, max_value=field.q - 1),
                    max_size=12).map(lambda cs: Poly(field, cs))
    moduli = draw(st.lists(poly.filter(bool), min_size=1, max_size=9))
    return moduli, draw(st.lists(poly, min_size=1, max_size=4))


@given(tree_case(), st.integers(min_value=0, max_value=3))
@settings(max_examples=120, deadline=None)
def test_indices_property(case, power):
    moduli, factors = case
    x = factors[0] ** (power + 1)
    for f in factors[1:]:
        x = x * f + f
    check(RemainderTree(moduli), moduli, [x, x * x, Poly.zero(x.field)])
