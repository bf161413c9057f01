"""Acceptance sweep: one test per criterion, each printing a timed verdict.

Every criterion body is wrapped in a stopwatch; the printed line reads
[criterion NN] PASS/FAIL <summary> (elapsed, limit).  The elapsed time is
asserted against the stated limit, so a slow pass is a failure.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from fqtlab import (DeltaSpec, FiniteField, FuncTable, LinearCaps, Poly,
                    RatFunc, SolutionPair, TriDegreeBounds,
                    build_counterexample, certify_counterexample,
                    check_vanishing_lemma, count_irreducibles, d_mnu,
                    degree_sum, enumerate_monic_irreducibles,
                    enumerate_solutions, find_large_factor,
                    find_linear_relation, find_relation, fit_polynomial,
                    irreducible_product, kernel_vector, orbit_reduce,
                    product_identity_check, recover_polymap,
                    roots_of_unity_count, union_size_identity_map, verify_p3)
from fqtlab.deltalab import s0, s1, s2
from fqtlab.sunit import GroupElem, GroupSpec
from helpers import forced_table, kpoly_eval

F2 = FiniteField(2)
F3 = FiniteField(3)
t = Poly(F2, [0, 1])
one = Poly.one(F2)


@contextmanager
def criterion(num, limit, summary):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print("[criterion %02d] FAIL %s (%.2fs, limit %ss)"
              % (num, summary, elapsed, limit))
        raise
    elapsed = time.perf_counter() - start
    print("[criterion %02d] PASS %s (%.2fs, limit %ss)"
          % (num, summary, elapsed, limit))
    assert elapsed < limit, "criterion %d exceeded %ss" % (num, limit)


@pytest.fixture(scope="module")
def growth_q2_d5():
    return build_counterexample(F2, 5)


def cube_map(a):
    return a ** 3 + Poly(a.field, [0, 1]) * a


def test_criterion_01_degree_sum_window():
    with criterion(1, 1, "d_n window q^n <= d_n < 2q^n and exact enumeration"):
        for q in (2, 3, 5):
            for n in range(1, 11):
                d_n = degree_sum(q, n)
                assert q ** n <= d_n < 2 * q ** n
        for n in range(1, 7):
            total = sum(d * len(enumerate_monic_irreducibles(F2, d))
                        for d in range(1, n + 1))
            assert degree_sum(2, n) == total
            assert irreducible_product(F2, n).deg == total


def test_criterion_02_product_identity():
    with criterion(2, 1, "prod of irreducibles of degree dividing n "
                         "equals t^(q^n) - t"):
        for q, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
            field = F2 if q == 2 else F3
            assert product_identity_check(field, n)


def test_criterion_03_fast_growth_construction():
    with criterion(3, 60, "CRT-built tables certify congruences and the "
                          "degree window at (q=2, D=5) and (q=3, D=3)"):
        for field, D in ((F2, 5), (F3, 3)):
            tab, trace = build_counterexample(field, D)
            rep = certify_counterexample(tab, trace)
            assert rep.ok
            assert verify_p3(tab).ok
            q = field.q
            for a, v in tab.items():
                if not a.is_constant():
                    assert q ** a.deg <= v.deg < 2 * q ** a.deg


def test_criterion_04_no_polynomial_fit(growth_q2_d5):
    with criterion(4, 10, "every degree-<=5 interpolant mispredicts the "
                          "fast-growth table"):
        tab, _ = growth_q2_d5
        points = list(tab.items())
        for B in range(6):
            rep = fit_polynomial(points, B)
            assert not rep.holdout_ok
            assert rep.mismatches != ()


def test_criterion_05_relation_pipeline_true_map():
    with criterion(5, 10, "A^3 + tA: relation found, linear ansatz recovers "
                          "X^3 + tX, reproduces all 64 entries"):
        tab = FuncTable.from_function(F2, 5, cube_map)
        rel = find_relation(tab, TriDegreeBounds(1, 3, 1))
        assert rel is not None
        for a, v in tab.items():
            assert rel.evaluate(F2, a, v).is_zero()
        samples = [(t ** n, cube_map(t ** n)) for n in range(7)]
        ansatz = find_linear_relation(samples, LinearCaps(0, 0, 3, 1))
        assert ansatz is not None
        rec = recover_polymap(ansatz)
        assert rec == (RatFunc.zero(F2), RatFunc.from_poly(t),
                       RatFunc.zero(F2), RatFunc.one(F2))
        for a, v in tab.items():
            assert kpoly_eval(rec, RatFunc.from_poly(a)) == RatFunc.from_poly(v)


def test_criterion_06_solver_oracle():
    with criterion(6, 10, "kernel vectors confirmed against exhaustive "
                          "enumeration on 20 random GF(2) systems"):
        rng = random.Random(20260814)
        for _ in range(20):
            ncols = rng.randrange(1, 13)
            nrows = rng.randrange(0, 15)
            rows = [[rng.randrange(2) for _ in range(ncols)]
                    for _ in range(nrows)]
            true_kernel = set()
            for vec in itertools.product((0, 1), repeat=ncols):
                if all(sum(c & x for c, x in zip(row, vec)) % 2 == 0
                       for row in rows):
                    true_kernel.add(vec)
            got = kernel_vector(F2, rows, ncols)
            if got is None:
                assert true_kernel == {tuple([0] * ncols)}
            else:
                assert got in true_kernel
                assert any(got)


def test_criterion_07_counting_identities():
    with criterion(7, 30, "survivor-size identity and closed sums to n=50; "
                          "radical degree crosschecks to n=12"):
        for p in (2, 3, 5):
            for n in range(1, 51):
                for m in range(n):
                    v0, v1, v2 = s0(m, n), s1(m, n, p), s2(m, n, p)
                    window = range(n - m, n + 1)
                    assert v0 == sum(window)
                    assert v1 == sum(k for k in window if k % p == 0)
                    assert v2 == sum(k for k in window if k % (p * p) == 0)
                    total = sum(roots_of_unity_count(n - i, p)
                                for i in range(m + 1)
                                if (n - i) % (p * p) != 0)
                    assert p * total == p * (v0 - v1) + (v1 - v2)
        from fqtlab import factor, delta, radical
        for u in (t, Poly(F2, [0, 1, 1])):
            for n in range(1, 13):
                for m in range(n):
                    spec = DeltaSpec(u=u, m=m, n=n)
                    prod = delta(spec)
                    d_rad = radical(prod).deg
                    d_fac = sum(g.deg for g, _ in factor(prod).factors)
                    assert d_rad == d_fac == d_mnu(spec)
                    if u == t:
                        assert d_rad == union_size_identity_map(spec)


def test_criterion_08_orbit_desk_check():
    with criterion(8, 60, "rank-2 group, E=6: 18 solutions collapse to <= 15 "
                          "orbits; the squaring chain is one orbit"):
        spec = GroupSpec(generators=(t, Poly(F2, [1, 1])))
        assert spec.rank() == 2
        sols = enumerate_solutions(spec, 6)
        for s in sols:
            assert s.check()
            assert not (s.x.value.is_constant() and s.y.value.is_constant())
        rep = orbit_reduce(sols, spec)
        assert sum(len(o.members) for o in rep.orbits) == len(sols)
        assert len(rep.orbits) <= 15
        assert rep.ok

        def pair(x, y):
            return SolutionPair(
                x=GroupElem(exponents=(0, 0), unit=1, value=RatFunc(x)),
                y=GroupElem(exponents=(0, 0), unit=1, value=RatFunc(y)))

        tp1 = Poly(F2, [1, 1])
        chain = [pair(t, tp1), pair(t * t, tp1 ** 2), pair(t ** 4, tp1 ** 4)]
        chain_rep = orbit_reduce(chain, spec)
        assert len(chain_rep.orbits) == 1
        assert sorted(k for k, _ in chain_rep.orbits[0].members) == [0, 1, 2]


def test_criterion_09_large_factor_search():
    with criterion(9, 1, "A - U^n gains a degree->=2 irreducible factor at "
                         "the predicted n"):
        rep = find_large_factor(t, t, 2, range(1, 21))
        assert rep.found and rep.n == 4
        assert rep.witness == Poly(F2, [1, 1, 1])
        rep = find_large_factor(one, t, 2, range(1, 21))
        assert rep.found and rep.n == 3


def test_criterion_10_vanishing_checker():
    with criterion(10, 30, "50 hypothesis-satisfying tables confirmed zero; "
                           "injected nonzero flagged with witness"):
        shapes = [(2, 3, 0), (2, 3, 1), (2, 4, 2), (3, 2, 0), (3, 2, 1)]
        for seed in range(50):
            q, D, c1 = shapes[seed % len(shapes)]
            field = F2 if q == 2 else F3
            tab = forced_table(field, D, c1, random.Random(seed))
            rep = check_vanishing_lemma(tab, c1)
            assert rep.hypotheses_ok
            assert rep.all_zero
        # injection: a nonzero value inside the degree cap still trips the
        # congruence gate and is reported with its divisibility witness
        base = forced_table(F2, 3, 1, random.Random(0))
        target = Poly(F2, [0, 0, 1])
        injected = base.with_value(target, t)
        rep = check_vanishing_lemma(injected, 1)
        assert not rep.ok
        assert not rep.all_zero
        assert rep.counterexample == target
        assert rep.counterexample_value == t
        assert rep.divisibility_witness == irreducible_product(F2, 2)
        assert rep.witness_divides is False


def run_bytes(*argv):
    proc = subprocess.run([sys.executable, "-m", "fqtlab.cli", *argv],
                          capture_output=True)
    return proc.returncode, proc.stdout


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, 240, "all 17 subcommands byte-identical across reruns "
                            "and --threads 1 vs 8"):
        square = str(tmp_path / "square.json")
        FuncTable.from_function(F2, 3, lambda a: a * a).save(square)
        cube = str(tmp_path / "cube.json")
        FuncTable.from_function(F2, 3, cube_map).save(cube)
        growth = str(tmp_path / "growth.json")
        tab, _ = build_counterexample(F2, 3)
        tab.save(growth)
        zero = str(tmp_path / "zero.json")
        FuncTable.from_function(F2, 2, lambda a: Poly.zero(F2)).save(zero)
        lin = str(tmp_path / "lin.json")
        code, out = run_bytes("linear-relation", "--table", cube,
                              "--U", "t", "--N", "3", "--out", lin)
        assert code == 0

        invocations = [
            ("irreducibles", "--q", "2", "--n", "4"),
            ("dn", "--q", "2", "--n", "3"),
            ("identity-check", "--q", "2", "--n", "2"),
            ("build-counterexample", "--q", "2", "--D", "3", "--trace"),
            ("verify-p3", "--table", square),
            ("growth", "--table", growth),
            ("find-relation", "--table", square, "--bounds", "0,2,1"),
            ("degree-bound", "--table", cube, "--bounds", "1,3,1"),
            ("linear-relation", "--table", cube, "--U", "t", "--N", "3"),
            ("recover", "--ansatz", lin),
            ("fit", "--table", growth, "--B", "2"),
            ("vanishing-check", "--table", zero, "--C1", "0"),
            ("delta-lab", "--q", "2", "--U", "t", "--n", "4", "--sweep",
             "--format", "csv"),
            ("sunit-enum", "--q", "2", "--gens", "t,t+1", "--E", "1"),
            ("sunit-orbits", "--q", "2", "--gens", "t,t+1", "--E", "3"),
            ("large-factor", "--q", "2", "--A", "t", "--U", "t",
             "--M-floor", "2", "--n", "10"),
            ("pipeline", "--table", cube, "--bounds", "1,3,1",
             "--U", "t", "--N", "3"),
        ]
        seen = set()
        for argv in invocations:
            seen.add(argv[0])
            first = run_bytes(*argv, "--seed", "7")
            second = run_bytes(*argv, "--seed", "7")
            assert first[0] == 0, argv[0]
            assert first == second, argv[0]
            single = run_bytes(*argv, "--seed", "7", "--threads", "1")
            eight = run_bytes(*argv, "--seed", "7", "--threads", "8")
            assert first == single == eight, argv[0]
        assert len(seen) == 17
