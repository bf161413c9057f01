"""Timed and traced runs over a workload's jobs.

One pass runs every job once, closed loop with a single client: a job
starts when the previous one has finished.  Each job's output is checked
after its timer stops.  A failed check or an exception counts the job as
failed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed
import tracer as tracing
import workloads

# Every time here is normalised for the host's speed (speed.py).
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_ratio", "ratio"), ("call_p50_s", "s"), ("call_p90_s", "s"))
# Printed above the result line, not part of it: the same times as plain
# wall-clock seconds, which follow the host's speed, and the median kernel
# time.
PLAIN = (("setup_s.plain", "s"), ("wall_s.plain", "s"),
         ("call_p50_s.plain", "s"), ("call_p90_s.plain", "s"),
         ("kernel_ms", "ms"))
SETUP_REPEATS = 7

# Counts the mathematics fixes, checked on every traced run.  construct:
# one CRT lift per row, and rows = sum of q^(D+1) - q = 254 + 240 + 252;
# verify_p3 checks every monic irreducible of degree <= D, 41 + 32 + 30.
PINS = {
    "construct": {"poly.crt.calls": 746, "counterexample.rows": 746,
                  "functable.verify_p3.moduli": 103},
}


class Tally:
    """Attempted and failed jobs, and every job's time."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times = []   # (seconds, normalised seconds) per call
        self.by_job = {}
        self.passes = []  # (seconds, normalised seconds) per pass
        self.max_child_rss_kb = 0

    def record(self, job, ok, out, seconds, norm=0.0):
        self.attempted += 1
        self.times.append((seconds, norm))
        self.by_job.setdefault(job.name, []).append((seconds, norm))
        if ok:
            try:
                ok = bool(job.check(out))
            except Exception:
                traceback.print_exc()
                ok = False
        if not ok:
            self.failed += 1
            print("perfbench: job failed its check: %s" % job.name,
                  file=sys.stderr)


def call_job(job, meter):
    """Run a job; return (ran without raising, output, seconds,
    normalised seconds).

    A cli job's time is its child's, from spawn to reaping."""
    wall_of = (lambda out: out[2]) if job.argv else None
    try:
        out, seconds, norm = meter.measure(job.run, wall_of)
    except Exception:
        traceback.print_exc()
        return False, None, 0.0, 0.0
    return True, out, seconds, norm


class SetupSampler:
    """Set-up time: fresh processes that import the library, build the
    workload's inputs and exit, each timed from spawn to exit and
    normalised like a job.

    The samples are spread over the run, one after the first job past each
    due time; those still missing are taken at the end.
    """

    def __init__(self, argv, seconds, meter):
        self.argv = argv
        self.meter = meter
        self.start = time.perf_counter()
        self.every = seconds / SETUP_REPEATS
        self.times = []   # (seconds, normalised seconds)

    def _spawn(self):
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            raise RuntimeError("set-up exited %d" % proc.returncode)
        return time.perf_counter() - t0

    def _take(self):
        _, seconds, norm = self.meter.measure(self._spawn, lambda s: s)
        self.times.append((seconds, norm))

    def maybe(self):
        due = self.start + len(self.times) * self.every
        if len(self.times) < SETUP_REPEATS and time.perf_counter() >= due:
            self._take()

    def medians(self):
        while len(self.times) < SETUP_REPEATS:
            self._take()
        return (statistics.median(s for s, _ in self.times),
                statistics.median(n for _, n in self.times))


def run_passes(jobs, seconds, min_calls, tally, meter,
               between=lambda: None):
    """Whole passes until another would overrun `seconds`; at least one
    pass and `min_calls` calls.  `between` runs after every job, outside
    its timing."""
    start = time.perf_counter()
    took = []  # wall seconds of each pass, checks and `between` included
    while True:
        pass_start = time.perf_counter()
        total = total_norm = 0.0
        for job in jobs:
            workloads.clear_caches()
            gc.collect()
            ok, out, dt, dn = call_job(job, meter)
            total += dt
            total_norm += dn
            if ok and job.argv:
                tally.max_child_rss_kb = max(tally.max_child_rss_kb, out[3])
            tally.record(job, ok, out, dt, dn)
            between()
        tally.passes.append((total, total_norm))
        now = time.perf_counter()
        took.append(now - pass_start)
        if (len(tally.times) >= min_calls
                and now - start + statistics.median(took) > seconds):
            return


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def timed_run(workload, jobs, seconds, setup_argv):
    """Closed-loop passes for `seconds`; returns the tally, the end-to-end
    metrics and the same times in plain seconds.

    The in-process workloads sample the reference kernel all through each
    job; the cli workload, whose calls are short and run in a child, only
    right before and after each call.
    """
    tally = Tally()
    cli = workload == "cli"
    with speed.Speedometer(period=None if cli else speed.PERIOD) as meter:
        setup = SetupSampler(setup_argv, seconds, meter)
        run_passes(jobs, seconds, workloads.CLI_MIN_CALLS if cli else 0,
                   tally, meter, setup.maybe)
        setup_plain, setup_norm = setup.medians()
    if cli:
        rss_kb = tally.max_child_rss_kb
        calls = tally.times
    else:
        # Jobs differ in size by design, so each job counts once, at its
        # median; the percentiles then do not depend on the number of passes.
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        calls = [(statistics.median(s for s, _ in v),
                  statistics.median(n for _, n in v))
                 for v in tally.by_job.values()]
    plain = [s for s, _ in calls]
    norm = [n for _, n in calls]
    metrics = {
        "setup_s": setup_norm,
        "wall_s": statistics.median(n for _, n in tally.passes),
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "call_p50_s": percentile(norm, 0.5),
        "call_p90_s": percentile(norm, 0.9),
    }
    printed = {
        "setup_s.plain": setup_plain,
        "wall_s.plain": statistics.median(s for s, _ in tally.passes),
        "call_p50_s.plain": percentile(plain, 0.5),
        "call_p90_s.plain": percentile(plain, 0.9),
        "kernel_ms": meter.median_kernel_s() * 1e3,
    }
    return tally, metrics, printed


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _library_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "fqtlab" or name.startswith("fqtlab.")}


def _call_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["fqtlab.cli"].main(list(argv))
    return code, out.getvalue().encode()


def _untraced_pass(jobs, tally, outputs, startup):
    """One untraced pass; returns its wall seconds.

    A cli job runs as a subprocess and then in-process through `cli.main`;
    the pass's wall time is the in-process part, which the traced pass
    repeats.  Every (exit code, stdout) goes into `outputs`.
    """
    meter = speed.Speedometer(period=None)
    if not jobs[0].argv:
        run_passes(jobs, 0, 0, tally, meter)
        return tally.passes[-1][0]
    wall = 0.0
    for job in jobs:
        workloads.clear_caches()
        ok, out, child_s, norm = call_job(job, meter)
        tally.record(job, ok, out, child_s, norm)
        workloads.clear_caches()
        t0 = time.perf_counter()
        result = _call_main(job.argv)
        main_s = time.perf_counter() - t0
        wall += main_s
        outputs.setdefault(job.argv, set()).add(result)
        if ok:
            outputs[job.argv].add(out[:2])
            startup.append(child_s - main_s)
    return wall


def traced_run(workload, jobs):
    """An untraced pass, the same pass with every layer wrapped, and the
    untraced pass again; the overhead is taken against the mean of the two
    untraced passes.  For cli the traced pass is in-process only.
    """
    import fqtlab.cli  # noqa: F401  (its by-name imports get patched too)

    tally = Tally()
    outputs, startup = {}, []
    problems = []
    cpu0 = _cpu_seconds()
    untraced = [_untraced_pass(jobs, tally, outputs, startup)]
    cpu = _cpu_seconds() - cpu0

    tr = tracing.Tracer()
    tr.install(_library_modules())
    traced_wall = 0.0
    try:
        for job in jobs:
            workloads.clear_caches()
            gc.collect()
            run = (lambda job=job: _call_main(job.argv)) if job.argv \
                else job.run
            try:
                out, wall = tr.run_job(job.name, run)
            except tracing.TraceError as exc:
                problems.append(str(exc))
                continue
            except Exception:
                traceback.print_exc()
                tally.record(job, False, None, 0.0)
                continue
            traced_wall += wall
            if job.argv:
                outputs[job.argv].add(out)
            else:
                tally.record(job, True, out, wall)
    finally:
        tr.uninstall()

    cpu0 = _cpu_seconds()
    untraced.append(_untraced_pass(jobs, tally, outputs, startup))
    cpu += _cpu_seconds() - cpu0
    metrics = tr.metrics()
    # every call of one argv, subprocess or in-process, must print the same
    mismatch = sum(1 for seen in outputs.values() if len(seen) > 1)
    tally.attempted += len(outputs)
    tally.failed += mismatch
    metrics["cli.mismatch"] = mismatch
    metrics["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    metrics["run.cpu_s"] = cpu / 2
    metrics["trace.overhead_ratio"] = traced_wall / statistics.mean(untraced)

    pins = dict(PINS.get(workload, {}))
    if workload == "relations":
        pins["relations.find_relation.calls"] = (
            workloads.relations_expected_find_calls(jobs))
    for name, expected in pins.items():
        if metrics[name] != expected:
            problems.append("pinned %s = %s, expected %s"
                            % (name, metrics[name], expected))
    return tally, metrics, problems, tr.spans
