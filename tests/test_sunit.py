"""Unit-equation solutions, Frobenius orbit collapse, large-factor scans."""

import signal

import pytest
from hypothesis import given, settings, strategies as st

from fqtlab import (BudgetExceeded, FiniteField, GroupElem, GroupSpec, Poly,
                    RatFunc, SolutionPair, enumerate_solutions,
                    find_large_factor, orbit_reduce)
from fqtlab.sunit import _pth_root_ratfunc
from helpers import pth_root_ratfunc_by_factoring

F2 = FiniteField(2)
F3 = FiniteField(3)
t = Poly(F2, [0, 1])
one = Poly.one(F2)


def P2(*cs):
    return Poly(F2, list(cs))


def R(num, den=None):
    return RatFunc(num, den)


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(generators=())
    with pytest.raises(ValueError):
        GroupSpec(generators=(Poly.zero(F2),))


def test_rank():
    assert GroupSpec(generators=(t, P2(1, 1))).rank() == 2
    assert GroupSpec(generators=(t, t * t)).rank() == 1
    assert GroupSpec(generators=(one,)).rank() == 0
    assert GroupSpec(generators=(t, P2(1, 1), P2(0, 1, 1))).rank() == 2


def test_enumerate_solutions_small_box():
    spec = GroupSpec(generators=(t, P2(1, 1)))
    sols = enumerate_solutions(spec, 1)
    assert len(sols) == 6
    values = {(s.x.value, s.y.value) for s in sols}
    # t + (t+1) = 1 in characteristic 2
    assert (R(t), R(P2(1, 1))) in values
    # t/(t+1) + 1/(t+1) = 1
    assert (R(t, P2(1, 1)), R(one, P2(1, 1))) in values
    for s in sols:
        assert s.check()
        assert s.x.value + s.y.value == RatFunc.one(F2)
    # the enumeration order is deterministic
    assert [ (s.x.exponents, s.x.unit) for s in sols ] == \
        [ (s.x.exponents, s.x.unit) for s in enumerate_solutions(spec, 1) ]


def test_enumerate_excludes_constant_pairs():
    # over F3: 2 + 2 = 1, but both coordinates are constants
    g3 = Poly(F3, [0, 1])
    spec = GroupSpec(generators=(g3,))
    for s in enumerate_solutions(spec, 2):
        assert not (s.x.value.is_constant() and s.y.value.is_constant())


def test_enumerate_no_solutions():
    spec = GroupSpec(generators=(t * t,))
    assert enumerate_solutions(spec, 3) == []


def test_enumerate_validation_and_budget():
    spec = GroupSpec(generators=(t, P2(1, 1)))
    with pytest.raises(ValueError):
        enumerate_solutions(spec, 0)
    with pytest.raises(BudgetExceeded):
        enumerate_solutions(spec, 6, budget=10)


def test_orbit_reduce_squaring_chain():
    spec = GroupSpec(generators=(t, P2(1, 1)))

    def pair(x, y):
        return SolutionPair(
            x=GroupElem(exponents=(0, 0), unit=1, value=R(x)),
            y=GroupElem(exponents=(0, 0), unit=1, value=R(y)))

    chain = [pair(t, P2(1, 1)),
             pair(t * t, P2(1, 1) ** 2),
             pair(t ** 4, P2(1, 1) ** 4)]
    rep = orbit_reduce(chain, spec)
    assert len(rep.orbits) == 1
    orb = rep.orbits[0]
    assert orb.base_x == R(t)
    assert orb.base_y == R(P2(1, 1))
    assert sorted(k for k, _ in orb.members) == [0, 1, 2]
    assert rep.rank == 2
    assert rep.bound == 2 ** 4 - 1
    assert rep.ok


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_orbit_reduce_stops_at_a_constant_pair():
    # a constant always has a p-th root: the descent must stop there, not
    # loop; SIGALRM ends the test if it does not
    spec = GroupSpec(generators=(Poly.gen(F3),))
    two = RatFunc.from_poly(Poly.constant(F3, 2))
    elem = GroupElem(exponents=(0,), unit=2, value=two)
    pair = SolutionPair(x=elem, y=elem)  # 2 + 2 = 1 over F_3
    assert pair.check()

    def timeout(signum, frame):
        raise TimeoutError("orbit_reduce did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        rep = orbit_reduce([pair], spec)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(rep.orbits) == 1
    orb = rep.orbits[0]
    assert (orb.base_x, orb.base_y) == (two, two)
    assert orb.members == ((0, pair),)


def test_orbit_reduce_full_box():
    spec = GroupSpec(generators=(t, P2(1, 1)))
    sols = enumerate_solutions(spec, 6)
    assert len(sols) == 18
    rep = orbit_reduce(sols, spec)
    assert len(rep.orbits) == 6
    assert rep.bound == 15
    assert rep.ok
    # frobenius pairs recorded with their descent depth
    assert sum(len(o.members) for o in rep.orbits) == 18


def test_orbit_members_share_base_powers():
    spec = GroupSpec(generators=(t, P2(1, 1)))
    rep = orbit_reduce(enumerate_solutions(spec, 4), spec)
    for orb in rep.orbits:
        for k, pair in orb.members:
            assert pair.x.value == orb.base_x ** (2 ** k)
            assert pair.y.value == orb.base_y ** (2 ** k)


DESCENT_FIELDS = (F2, F3, FiniteField(2, 2), FiniteField(5),
                  FiniteField(3, 2))


@st.composite
def descent_start(draw):
    """A nonzero element of F_q(t): a random reduced fraction, a p-th or
    p^2-th power of one (times a constant, which is always a p-th power),
    or a constant."""
    F = draw(st.sampled_from(DESCENT_FIELDS))

    def poly():
        cs = draw(st.lists(st.integers(0, F.q - 1), max_size=5))
        return Poly(F, cs + [draw(st.integers(1, F.q - 1))])

    unit = RatFunc.from_poly(Poly.constant(F, draw(st.integers(1, F.q - 1))))
    kind = draw(st.sampled_from(("fraction", "power", "constant")))
    if kind == "constant":
        return unit
    v = RatFunc(poly(), poly())
    if kind == "power":
        v = v ** (F.p ** draw(st.integers(1, 2))) * unit
    return v


@given(descent_start())
@settings(max_examples=150, deadline=None)
def test_pth_root_matches_factoring(v):
    # a chain of descents: each step's root, or None, equals the root read
    # off the factorizations, and the next step starts from it
    for _ in range(4):
        root = _pth_root_ratfunc(v)
        assert root == pth_root_ratfunc_by_factoring(v)
        if root is None:
            break
        assert root ** v.num.field.p == v
        v = root


def test_pth_root_descends_to_a_non_power():
    # (t^8 + 1)/t^4 over F_2 has two square roots in a row, then t in the
    # denominator stops the descent
    x = RatFunc(t ** 8 + one, t ** 4)
    assert _pth_root_ratfunc(x) == RatFunc(t ** 4 + one, t * t)
    assert _pth_root_ratfunc(RatFunc(t ** 4 + one, t * t)) == \
        RatFunc(t * t + one, t)
    assert _pth_root_ratfunc(RatFunc(t * t + one, t)) is None


def test_find_large_factor_frozen():
    rep = find_large_factor(t, t, 2, range(2, 10))
    assert rep.found and rep.n == 4
    assert rep.witness == P2(1, 1, 1)
    assert rep.pivot == t and rep.pivot_mult_u == 1 and rep.pivot_mult_a == 1
    rep = find_large_factor(t, t, 1, range(2, 10))
    assert rep.n == 2
    rep = find_large_factor(one, t, 2, range(1, 10))
    assert rep.n == 3
    assert rep.witness == P2(1, 1, 1)


def test_find_large_factor_in_s_pattern():
    # v(U) = 1 at the pivot t, v(A) = 0 for A = 1: n is promising iff n is odd
    rep = find_large_factor(one, t, 2, range(1, 4))
    for row in rep.rows:
        assert row.in_s == (row.n % 2 == 1)


def test_find_large_factor_not_found():
    rep = find_large_factor(t, t, 5, range(2, 4))
    assert not rep.found
    assert rep.n is None and rep.witness is None
    assert len(rep.rows) == 2


def test_find_large_factor_skips_zero_difference():
    rep = find_large_factor(t * t, t, 2, range(1, 5))
    # n=2 gives A - U^n = 0, logged and skipped; nothing else qualifies
    zero_rows = [r for r in rep.rows if r.diff_degree is None]
    assert [r.n for r in zero_rows] == [2]
    assert all(not r.qualifies for r in zero_rows)
    assert not rep.found


def test_find_large_factor_validation():
    with pytest.raises(ValueError):
        find_large_factor(Poly.zero(F2), t, 1, range(1, 3))
    with pytest.raises(ValueError):
        find_large_factor(t, one, 1, range(1, 3))
    with pytest.raises(ValueError):
        find_large_factor(t, t * t, 1, range(1, 3))  # derivative vanishes
    with pytest.raises(ValueError):
        find_large_factor(t, t, 0, range(1, 3))
    with pytest.raises(BudgetExceeded):
        # nothing qualifies below the budget line, so the scan must hit it
        find_large_factor(t, t, 50, range(1, 30), budget=20)


def test_find_large_factor_odd_characteristic():
    g3 = Poly(F3, [0, 1])
    rep = find_large_factor(g3, g3, 2, range(2, 12))
    assert rep.found
    diff = g3 - g3 ** rep.n
    assert (diff % rep.witness).is_zero()
    assert rep.witness.deg >= 2
