"""Self-test of the benchmark's own checks.

For each workload one genuine output must pass its job's check and one
corrupted output must be counted as failed by the same accounting the
timed runs use.  Job lists must not depend on the seed, and the metric
names must match BENCHMARK.json when that file is present.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import fqtlab as fq
import harness
import speed
import tracer
import workloads


def _counted(job, output):
    """(attempted, failed) after feeding `output` to `job`'s check."""
    tally = harness.Tally()
    fake = workloads.Job(job.name, lambda: output, job.check, job.argv)
    harness.run_passes([fake], 0, 0, tally, speed.Speedometer(period=None))
    return tally.attempted, tally.failed


def _expect(results, label, job, good, bad):
    ok = (_counted(job, good) == (1, 0) and _counted(job, bad) == (1, 1))
    results.append((label, ok))


def check_corruption(workdir, src):
    results = []
    F2 = fq.FiniteField(2)
    one = fq.Poly.one(F2)

    # construct: a table with one entry changed no longer certifies
    job = workloads.construct_job(2, 1, 3)
    table, trace = fq.build_counterexample(F2, 3)
    b = trace.rows[-1].b
    bad_table = table.with_value(b, table.lookup(b) + one)
    _expect(results, "construct: corrupted table", job, job.run(),
            fq.certify_counterexample(bad_table, trace))

    # radical: a factor list whose product is not the input
    F3 = fq.FiniteField(3)
    a = fq.Poly(F3, [1, 2, 0, 1, 1, 0, 2, 1])
    job = workloads.factor_job("factor", [a], 0)
    good = job.run()
    p, m = good[0].factors[0]
    bad = [replace(good[0], factors=((p, m + 1),) + good[0].factors[1:])]
    _expect(results, "radical: wrong multiplicity", job, good, bad)

    # relations: the negative job must find no relation
    ce, _ = fq.build_counterexample(F2, 3)
    job = workloads.negative_job(ce)
    cube = fq.FuncTable.from_polymap(F2, 3, (fq.Poly.zero(F2), fq.Poly.gen(F2),
                                             fq.Poly.zero(F2), one))
    spurious = fq.find_relation(cube, fq.TriDegreeBounds(1, 3, 1))
    _expect(results, "relations: spurious relation", job, job.run(),
            spurious)

    # cli: one flipped byte against the run's first call, and a bad exit
    cli_jobs = workloads.setup_cli(1, workdir, src)
    job = next(j for j in cli_jobs if j.argv[0] == "dn")
    good = job.run()
    flipped = bytearray(good[1])
    flipped[-2] ^= 1
    _expect(results, "cli: changed stdout", job, good,
            (good[0], bytes(flipped)) + good[2:])
    _expect(results, "cli: wrong exit code", job, good, (2,) + good[1:])
    return results


def check_seeds(workdir, src):
    results = []
    for name, setup in workloads.SETUPS.items():
        names = [sorted(j.name for j in setup(seed, workdir, src))
                 for seed in (workloads.SIZING_SEED, workloads.SECOND_SEED)]
        results.append(("%s: same %d jobs under seeds %d and %d"
                        % (name, len(names[0]), workloads.SIZING_SEED,
                           workloads.SECOND_SEED), names[0] == names[1]))
    return results


def check_spec():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        spec = json.load(fh)
    return [
        ("BENCHMARK.json workloads",
         [w["name"] for w in spec["workloads"]] == list(workloads.SETUPS)),
        ("BENCHMARK.json end_to_end",
         [(m["name"], m["unit"]) for m in spec["end_to_end"]]
         == list(harness.END_TO_END)),
        ("BENCHMARK.json per_layer",
         [(m["name"], m["unit"]) for m in spec["per_layer"]]
         == tracer.PER_LAYER),
    ]


def main(workdir, src):
    results = (check_corruption(workdir, src) + check_seeds(workdir, src)
               + check_spec())
    for label, ok in results:
        print("%s  %s" % ("ok  " if ok else "FAIL", label))
    failed = sum(1 for _, ok in results if not ok)
    print("self-test: %d of %d checks failed" % (failed, len(results)),
          file=sys.stderr)
    return 1 if failed else 0
