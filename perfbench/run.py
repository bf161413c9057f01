"""Benchmark of the fqtlab desk checks, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0

Workloads: construct, radical, relations, cli (see perfbench/SPEC.md).
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs one
untraced and one traced pass and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `--self-test` checks that corrupted outputs
are counted as failed and that job counts do not depend on the seed.

The library is imported from src/ of this checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("construct", "radical", "relations", "cli")


def load_library():
    """Import fqtlab from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "fqtlab", "__init__.py")):
        sys.exit("perfbench: no fqtlab sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import fqtlab
    if not os.path.abspath(fqtlab.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: fqtlab was imported from %s, not %s"
                 % (fqtlab.__file__, SRC))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload's inputs and exit")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.workload is None and not args.self_test:
        ap.error("--workload is required")
    return args


def report(metrics, units, tally, correct, plain=()):
    for name, unit in units:
        print("%-42s %14.6g %s" % (name, metrics[name], unit))
    for name, value, unit in plain:
        print("%-42s %14.6g %s (not in the result)" % (name, value, unit))
    print("%-42s %14.6g (%d of %d jobs)" % (
        "failed_ratio", tally.failed / tally.attempted, tally.failed,
        tally.attempted))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }, sort_keys=True))


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # On SIGTERM, unwind: child processes are killed and reaped, and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    load_library()
    import harness
    import tracer
    import workloads

    workdir = os.path.join(SCRATCH, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.self_test:
            import selftest
            return selftest.main(workdir, SRC)
        if args.setup_only:
            workloads.SETUPS[args.workload](args.seed, workdir, SRC)
            return 0
        plain = ()
        if args.trace:
            jobs = workloads.SETUPS[args.workload](args.seed, workdir, SRC)
            tally, metrics, problems, spans = harness.traced_run(
                args.workload, jobs)
            units = tracer.PER_LAYER
            with open(os.path.join(SCRATCH, "spans-%s-seed%d.json"
                                   % (args.workload, args.seed)), "w") as fh:
                json.dump(spans, fh)
        else:
            setup_argv = [sys.executable, os.path.abspath(__file__),
                          "--workload", args.workload, "--seed",
                          str(args.seed), "--setup-only"]
            jobs = workloads.SETUPS[args.workload](args.seed, workdir, SRC)
            tally, metrics, plain = harness.timed_run(
                args.workload, jobs, args.seconds, setup_argv)
            plain = [(name, plain[name], unit)
                     for name, unit in harness.PLAIN]
            units = harness.END_TO_END
            problems = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("perfbench: %s" % problem, file=sys.stderr)
    correct = tally.failed == 0 and not problems
    report(metrics, units, tally, correct, plain)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
