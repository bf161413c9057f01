"""The four benchmark workloads: seeded inputs, jobs and their checks.

A workload's `setup(seed, workdir, src)` builds every input from the seed and
returns the list of jobs that make up one pass.  A job's `run` is the timed
call into the library; its `check` judges the output afterwards, outside the
timed interval.  Jobs call the library through module attributes at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import fqtlab as fq
from fqtlab import irreducibles

# Second seed, not used while sizing: a claim must also hold on it.
SIZING_SEED = 1
SECOND_SEED = 7919

# Library caches emptied before every job, so each job pays its own
# irreducible enumeration, as a fresh CLI process does.
_CACHES = (irreducibles.enumerate_monic_irreducibles,
           irreducibles.irreducible_product,
           irreducibles.count_irreducibles)


def clear_caches():
    for cached in _CACHES:
        cached.cache_clear()


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    argv: tuple = ()  # cli jobs: the subcommand's arguments


def _rand_monic(F, rng, d):
    return fq.Poly(F, [rng.randrange(F.q) for _ in range(d)] + [1])


def _rand_linear(F, rng):
    """A random polynomial of degree exactly 1."""
    return fq.Poly(F, [rng.randrange(F.q), rng.randrange(1, F.q)])


# -- construct ---------------------------------------------------------------

# (p, e, D): the ROADMAP baseline sizes q=2 D=7, q=3 D=4, q=4 D=3.
CONSTRUCT_SIZES = ((2, 1, 7), (3, 1, 4), (2, 2, 3))


def construct_job(p, e, D):
    F = fq.FiniteField(p, e)

    def run():
        table, trace = fq.build_counterexample(F, D)
        return fq.certify_counterexample(table, trace)

    return Job("construct q=%d D=%d" % (F.q, D), run, lambda rep: rep.ok)


def setup_construct(seed, workdir, src):
    sizes = list(CONSTRUCT_SIZES)
    random.Random(seed).shuffle(sizes)
    return [construct_job(p, e, D) for p, e, D in sizes]


# -- radical -----------------------------------------------------------------

# (p, e, degree, count): seeded random monic inputs to factor, one job per
# row.  Batching evens out how much a job's time depends on the seed.
FACTOR_SIZES = ((2, 1, 300, 3), (3, 1, 120, 3), (5, 1, 80, 3),
                (7, 1, 60, 3), (2, 2, 60, 3))
CROSSCHECK_QS = (3, 5)
CROSSCHECK_NM = ((20, 10), (30, 15))
# (p, U is t^2+t, min factor degree, scan length)
LARGE_FACTOR_SCANS = ((2, False, 40, 96), (3, True, 20, 48),
                      (5, False, 12, 40))
SUNIT_BOXES = ((2, 6), (3, 4))


def factor_check(inputs):
    def check(results):
        return len(results) == len(inputs) and all(
            fl.expand(a.field) == a
            and all(g.is_monic() and fq.is_irreducible(g)
                    for g, _ in fl.factors)
            for a, fl in zip(inputs, results))
    return check


def factor_job(name, inputs, seed):
    return Job(name, lambda: [fq.factor(a, seed=seed) for a in inputs],
               factor_check(inputs))


def setup_radical(seed, workdir, src):
    rng = random.Random(seed)
    jobs = []
    for p, e, d, count in FACTOR_SIZES:
        F = fq.FiniteField(p, e)
        jobs.append(factor_job(
            "factor q=%d deg=%d x%d" % (F.q, d, count),
            [_rand_monic(F, rng, d) for _ in range(count)], seed))
        # g^p * h^2 * k forces the p-th-root descent
        g, h, k = (_rand_monic(F, rng, d // 10) for _ in range(3))
        jobs.append(factor_job("factor q=%d g^p*h^2*k" % F.q,
                               [g ** F.p * h * h * k], seed))
    for q in CROSSCHECK_QS:
        F = fq.FiniteField(q)
        t = fq.Poly.gen(F)
        for u in (t, t * t + t):
            for n, m in CROSSCHECK_NM:
                spec = fq.DeltaSpec(u=u, m=m, n=n)
                jobs.append(Job(
                    "crosscheck q=%d U=%s n=%d m=%d" % (q, u, n, m),
                    lambda spec=spec: fq.root_count_crosscheck(spec),
                    lambda rep: rep.ok))
    for p, square, min_deg, length in LARGE_FACTOR_SCANS:
        F = fq.FiniteField(p)
        t = fq.Poly.gen(F)
        u = t * t + t if square else t
        a = _rand_monic(F, rng, 4)
        jobs.append(Job(
            "large-factor q=%d U=%s M=%d" % (p, u, min_deg),
            lambda a=a, u=u, m=min_deg, n=length:
                fq.find_large_factor(a, u, m, range(1, n + 1)),
            _large_factor_check(a, u, min_deg)))
    for q, E in SUNIT_BOXES:
        F = fq.FiniteField(q)
        t = fq.Poly.gen(F)
        shift = fq.Poly.constant(F, rng.randrange(1, q))
        spec = fq.GroupSpec(generators=(t, t + shift))

        def run(spec=spec, E=E):
            sols = fq.enumerate_solutions(spec, E)
            return sols, fq.orbit_reduce(sols, spec)

        jobs.append(Job("sunit q=%d E=%d" % (q, E), run, _sunit_check))
    return jobs


def _large_factor_check(a, u, min_deg):
    def check(rep):
        if not rep.found:
            return False
        w = rep.witness
        return (w.deg >= min_deg and fq.is_irreducible(w)
                and ((a - u ** rep.n) % w).is_zero())
    return check


def _sunit_check(out):
    sols, rep = out
    members = sum(len(o.members) for o in rep.orbits)
    return (rep.ok and bool(sols) and members == len(sols)
            and all(pair.check() for pair in sols))


# -- relations ---------------------------------------------------------------

# (p, D, X-degrees of the seeded polynomial maps)
PIPELINE_SIZES = ((2, 6, (2, 2, 2, 3, 3, 3)), (2, 7, (2, 2, 2, 3, 3, 3)),
                  (3, 4, (2, 2, 2, 3, 3, 3)), (3, 5, (2, 2, 2, 3, 3, 3)))
VANISHING_SIZES = ((2, 6), (3, 4))
NEGATIVE_SIZE = (2, 5)
NEGATIVE_BOUNDS = (2, 2, 2)


def polymap_table(F, D, rng, k):
    """A -> sum c_j A^j with monic top term and degree-1 coefficients."""
    coeffs = [_rand_linear(F, rng) for _ in range(k)] + [fq.Poly.one(F)]
    return fq.FuncTable.from_polymap(F, D, coeffs)


def setup_relations(seed, workdir, src):
    rng = random.Random(seed)
    jobs = []
    for p, D, ks in PIPELINE_SIZES:
        F = fq.FiniteField(p)
        t = fq.Poly.gen(F)
        for i, k in enumerate(ks):
            table = polymap_table(F, D, rng, k)
            jobs.append(Job(
                "pipeline q=%d D=%d k=%d #%d" % (p, D, k, i),
                lambda table=table, k=k, t=t: fq.run_pipeline(
                    table, fq.TriDegreeBounds(1, k, 1), t, k),
                lambda rep: rep.ok))
            if i == len(ks) - 1:
                jobs.append(Job(
                    "fit q=%d D=%d k=%d" % (p, D, k),
                    lambda table=table, k=k: fq.fit_polynomial(
                        table.items(), k),
                    lambda rep: rep.holdout_ok and rep.values_in_ring))
    for p, D in VANISHING_SIZES:
        F = fq.FiniteField(p)
        zero = fq.FuncTable.from_function(F, D, lambda a, F=F: fq.Poly.zero(F))
        jobs.append(Job("vanishing q=%d D=%d zero" % (p, D),
                        lambda zero=zero: fq.check_vanishing_lemma(zero, 1),
                        lambda rep: rep.ok))
        a = fq.Poly.from_index(F, F.q ** D + rng.randrange(F.q ** D))
        bad = zero.with_value(a, _rand_linear(F, rng))
        jobs.append(Job("vanishing q=%d D=%d injected" % (p, D),
                        lambda bad=bad: fq.check_vanishing_lemma(bad, 1),
                        lambda rep, a=a: not rep.ok
                        and rep.counterexample == a))
    table, _ = fq.build_counterexample(fq.FiniteField(NEGATIVE_SIZE[0]),
                                       NEGATIVE_SIZE[1])
    jobs.append(negative_job(table))
    return jobs


def negative_job(table):
    return Job("find-relation counterexample q=%d D=%d" % (table.field.q,
                                                           table.D),
               lambda: fq.find_relation(
                   table, fq.TriDegreeBounds(*NEGATIVE_BOUNDS)),
               lambda rel: rel is None)


def relations_expected_find_calls(jobs):
    """find_relation calls one relations pass makes: one per pipeline plus
    the negative job."""
    return sum(1 for j in jobs if j.name.startswith(("pipeline",
                                                     "find-relation")))


# -- cli ---------------------------------------------------------------------

WARM_ARGV = ("linear-relation", "--table", "{cube}", "--U", "t", "--N", "3",
             "--out", "{lin}")

# The 17 subcommands at the sizes of acceptance criterion 11.
CLI_ARGVS = (
    ("irreducibles", "--q", "2", "--n", "4"),
    ("dn", "--q", "2", "--n", "3"),
    ("identity-check", "--q", "2", "--n", "2"),
    ("build-counterexample", "--q", "2", "--D", "3", "--trace"),
    ("verify-p3", "--table", "{square}"),
    ("growth", "--table", "{growth}"),
    ("find-relation", "--table", "{square}", "--bounds", "0,2,1"),
    ("degree-bound", "--table", "{cube}", "--bounds", "1,3,1"),
    ("linear-relation", "--table", "{cube}", "--U", "t", "--N", "3"),
    ("recover", "--ansatz", "{lin}"),
    ("fit", "--table", "{growth}", "--B", "2"),
    ("vanishing-check", "--table", "{zero}", "--C1", "0"),
    ("delta-lab", "--q", "2", "--U", "t", "--n", "4", "--sweep",
     "--format", "csv"),
    ("sunit-enum", "--q", "2", "--gens", "t,t+1", "--E", "1"),
    ("sunit-orbits", "--q", "2", "--gens", "t,t+1", "--E", "3"),
    ("large-factor", "--q", "2", "--A", "t", "--U", "t",
     "--M-floor", "2", "--n", "10"),
    ("pipeline", "--table", "{cube}", "--bounds", "1,3,1",
     "--U", "t", "--N", "3"),
)
CLI_MIN_CALLS = 100


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, workdir):
    """Run argv to completion; return (exit code, stdout, wall s, peak RSS KB).

    The child is reaped with wait4 so its own peak RSS is known.
    """
    out_path = os.path.join(workdir, "child.out")
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    return proc.returncode, stdout, wall, usage.ru_maxrss


def write_cli_inputs(workdir):
    """The criterion-11 tables; returns the path of each by name."""
    F2 = fq.FiniteField(2)
    t = fq.Poly.gen(F2)
    paths = {name: os.path.join(workdir, name + ".json")
             for name in ("square", "cube", "growth", "zero", "lin")}
    fq.FuncTable.from_function(F2, 3, lambda a: a * a).save(paths["square"])
    fq.FuncTable.from_function(F2, 3, lambda a: a ** 3 + t * a).save(
        paths["cube"])
    fq.build_counterexample(F2, 3)[0].save(paths["growth"])
    fq.FuncTable.from_function(F2, 2, lambda a: fq.Poly.zero(F2)).save(
        paths["zero"])
    return paths


def cli_check(argv, refs):
    """Exit code 0 and stdout byte-identical to the run's first call."""
    def check(out):
        code, stdout = out[0], out[1]
        ref = refs.setdefault(argv, stdout)
        return code == 0 and stdout == ref and _well_formed(argv, stdout)
    return check


def _well_formed(argv, stdout):
    if "csv" in argv:
        return stdout.startswith(b"p,q,U,m,n,d,")
    try:
        envelope = json.loads(stdout)
    except ValueError:
        return False
    return envelope.get("command") == argv[0]


def setup_cli(seed, workdir, src):
    paths = write_cli_inputs(workdir)
    env = child_env(src)
    python = [sys.executable, "-m", "fqtlab.cli"]
    warm = [a.format(**paths) for a in WARM_ARGV]
    code = run_child(python + warm, env, workdir)[0]
    if code != 0:
        raise RuntimeError("warm-up call exited %d" % code)
    argvs = [tuple(a.format(**paths) for a in argv) + ("--seed", str(seed))
             for argv in CLI_ARGVS]
    random.Random(seed).shuffle(argvs)
    refs = {}
    return [Job(argv[0],
                lambda argv=argv: run_child(python + list(argv), env,
                                            workdir),
                cli_check(argv, refs), argv)
            for argv in argvs]


SETUPS = {
    "construct": setup_construct,
    "radical": setup_radical,
    "relations": setup_relations,
    "cli": setup_cli,
}
