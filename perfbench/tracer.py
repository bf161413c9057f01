"""Outside-in tracing of the fqtlab layers.

The library is not edited.  `Tracer.install` replaces public callables with
timing wrappers at run time, on the defining module and on every fqtlab
module that imported the callable by name, so calls made through
`from .poly import crt` are seen too.

Two wrapper kinds:

* op wrappers (Poly mul/divmod/powmod, gcd, xgcd, RatFunc arithmetic) keep
  only a call count and self time per key, because a construct run makes
  millions of them;
* span wrappers (crt and everything coarser) also record one span per call:
  name, job, start, duration and the enclosing span.

Self time is the wrapped call's duration minus the durations of the
wrapped calls made inside it.  Field operations are not wrapped: a single
field op costs about as much as a wrapper, so their time is counted in the
self time of the enclosing Poly operation.
"""

from __future__ import annotations

import time
from collections import Counter

# Every per-layer metric the traced run prints, with its unit.
PER_LAYER = []


def _metric(name, unit):
    PER_LAYER.append((name, unit))


for _op in ("mul", "divmod"):
    for _kind in ("p2", "odd", "ext"):
        _metric("poly.%s.%s.calls" % (_op, _kind), "count")
        _metric("poly.%s.%s.self_s" % (_op, _kind), "s")
_metric("poly.crt.calls", "count")
_metric("poly.crt.self_s", "s")
_metric("poly.crt.moduli", "count")
for _op in ("gcd", "xgcd", "powmod"):
    _metric("poly.%s.calls" % _op, "count")
    _metric("poly.%s.self_s" % _op, "s")
for _op in ("factor", "squarefree", "ddf", "edf", "is_irreducible", "radical"):
    _metric("factor.%s.calls" % _op, "count")
    _metric("factor.%s.self_s" % _op, "s")
_metric("factor.is_irreducible.true_ratio", "ratio")
_metric("irreducibles.enumerate.calls", "count")
_metric("irreducibles.enumerate.self_s", "s")
_metric("irreducibles.enumerate.returned", "count")
_metric("irreducibles.product.calls", "count")
_metric("irreducibles.product.self_s", "s")
_metric("functable.verify_p3.calls", "count")
_metric("functable.verify_p3.self_s", "s")
_metric("functable.verify_p3.moduli", "count")
_metric("functable.io.self_s", "s")
_metric("functable.growth.self_s", "s")
_metric("counterexample.build.self_s", "s")
_metric("counterexample.certify.self_s", "s")
_metric("counterexample.rows", "count")
_metric("relations.find_relation.calls", "count")
_metric("relations.find_relation.self_s", "s")
_metric("relations.find_relation.found_ratio", "ratio")
_metric("relations.linear.calls", "count")
_metric("relations.linear.self_s", "s")
for _op in ("pipeline", "fit", "vanishing"):
    _metric("relations.%s.self_s" % _op, "s")
_metric("linalg.kernel.calls", "count")
_metric("linalg.kernel.self_s", "s")
_metric("linalg.kernel.entries", "count")
_metric("ratfunc.ops.calls", "count")
_metric("ratfunc.ops.self_s", "s")
_metric("deltalab.delta.self_s", "s")
_metric("deltalab.crosscheck.self_s", "s")
for _op in ("enumerate", "orbits", "large_factor"):
    _metric("sunit.%s.self_s" % _op, "s")
_metric("cli.startup_s", "s")
_metric("cli.main.self_s", "s")
_metric("cli.mismatch", "count")
_metric("run.cpu_s", "s")
_metric("trace.overhead_ratio", "ratio")


def _field_kind(field):
    if field.e > 1:
        return "ext"
    return "p2" if field.p == 2 else "odd"


# (module, attribute, metric key): Poly and RatFunc operators.  A key
# ending in "." gets the field kind of `self` appended.
OPS = [
    ("fqtlab.poly", "Poly.__mul__", "poly.mul."),
    ("fqtlab.poly", "Poly.__divmod__", "poly.divmod."),
    ("fqtlab.poly", "Poly.powmod", "poly.powmod"),
    ("fqtlab.poly", "poly_gcd", "poly.gcd"),
    ("fqtlab.poly", "poly_xgcd", "poly.xgcd"),
] + [("fqtlab.ratfunc", "RatFunc." + m, "ratfunc.ops")
     for m in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__",
               "inverse")]


def _moduli(args, kwargs, result):
    moduli = kwargs.get("moduli", args[1] if len(args) > 1 else ())
    return {"poly.crt.moduli": len(moduli)}


def _is_irreducible(args, kwargs, result):
    return {"factor.is_irreducible.true": int(bool(result))}


def _returned(args, kwargs, result):
    return {"irreducibles.enumerate.returned": len(result)}


def _verify_moduli(args, kwargs, result):
    return {"functable.verify_p3.moduli": result.irreducibles_checked}


def _rows(args, kwargs, result):
    return {"counterexample.rows": len(result[1].rows)}


def _found(args, kwargs, result):
    return {"relations.find_relation.found": int(result is not None)}


def _entries(args, kwargs, result):
    rows = kwargs.get("rows", args[1] if len(args) > 1 else ())
    ncols = kwargs.get("ncols", args[2] if len(args) > 2 else 0)
    return {"linalg.kernel.entries": len(rows) * ncols}


# (module, attribute, metric key, extra-count hook): spans.
SPANS = [
    ("fqtlab.poly", "crt", "poly.crt", _moduli),
    ("fqtlab.factor", "factor", "factor.factor", None),
    ("fqtlab.factor", "squarefree_decomposition", "factor.squarefree", None),
    ("fqtlab.factor", "distinct_degree_split", "factor.ddf", None),
    ("fqtlab.factor", "equal_degree_factor", "factor.edf", None),
    ("fqtlab.factor", "is_irreducible", "factor.is_irreducible",
     _is_irreducible),
    ("fqtlab.factor", "radical", "factor.radical", None),
    ("fqtlab.irreducibles", "enumerate_monic_irreducibles",
     "irreducibles.enumerate", _returned),
    ("fqtlab.irreducibles", "irreducible_product", "irreducibles.product",
     None),
    ("fqtlab.functable", "verify_p3", "functable.verify_p3", _verify_moduli),
    ("fqtlab.functable", "growth_profile", "functable.growth", None),
    ("fqtlab.counterexample", "build_counterexample", "counterexample.build",
     _rows),
    ("fqtlab.counterexample", "certify_counterexample",
     "counterexample.certify", None),
    ("fqtlab.relations", "find_relation", "relations.find_relation", _found),
    ("fqtlab.relations", "find_linear_relation", "relations.linear", None),
    ("fqtlab.relations", "run_pipeline", "relations.pipeline", None),
    ("fqtlab.relations", "fit_polynomial", "relations.fit", None),
    ("fqtlab.relations", "check_vanishing_lemma", "relations.vanishing",
     None),
    ("fqtlab.linalg", "kernel_basis", "linalg.kernel", _entries),
    ("fqtlab.linalg", "kernel_vector", "linalg.kernel", _entries),
    ("fqtlab.linalg", "matrix_rank", "linalg.kernel", _entries),
    ("fqtlab.deltalab", "delta", "deltalab.delta", None),
    ("fqtlab.deltalab", "root_count_crosscheck", "deltalab.crosscheck", None),
    ("fqtlab.sunit", "enumerate_solutions", "sunit.enumerate", None),
    ("fqtlab.sunit", "orbit_reduce", "sunit.orbits", None),
    ("fqtlab.sunit", "find_large_factor", "sunit.large_factor", None),
    ("fqtlab.cli", "main", "cli.main", None),
] + [("fqtlab.functable", "FuncTable." + m, "functable.io", None)
     for m in ("to_obj", "to_json", "from_obj", "from_json", "save", "load")]

# By-name import sites the traced run must reach; install() fails without
# them, and the pinned counts show the calls went through.
REQUIRED_SITES = [
    ("fqtlab.counterexample", "crt"),
    ("fqtlab.counterexample", "verify_p3"),
    ("fqtlab.relations", "verify_p3"),
    ("fqtlab.relations", "kernel_vector"),
    ("fqtlab.deltalab", "factor"),
    ("fqtlab.deltalab", "radical"),
    ("fqtlab.sunit", "factor"),
    ("fqtlab.irreducibles", "is_irreducible"),
    ("fqtlab.factor", "poly_gcd"),
]


class TraceError(RuntimeError):
    """The trace contradicts itself or missed a call site."""


class Tracer:
    """Holds the counters and spans of one traced run."""

    def __init__(self):
        self.active = False
        self.stack = [0.0]           # child-time accumulator per open call
        self.calls = Counter()       # key -> calls (outermost per key)
        self.self_s = Counter()      # key -> self seconds
        self.counts = Counter()      # extra counts from hooks
        self.depth = Counter()       # key -> open calls of that key
        self.spans = []              # (id, parent, name, job, start, duration)
        self.span_stack = [None]
        self.job = None
        self.sites = set()
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self, modules):
        """Wrap every target; `modules` maps module name -> module."""
        for modname, attr, key in OPS:
            self._patch(modules, modname, attr, self._op_wrapper, key)
        for modname, attr, key, hook in SPANS:
            self._patch(modules, modname, attr, self._span_wrapper, key, hook)
        missing = [s for s in REQUIRED_SITES if s not in self.sites]
        if missing:
            raise TraceError("by-name import sites not patched: %s" % missing)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _patch(self, modules, modname, attr, factory, *args):
        mod = modules[modname]
        if "." in attr:
            clsname, meth = attr.split(".")
            cls = getattr(mod, clsname)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(factory(raw.__func__, *args))
            else:
                wrapped = factory(raw, *args)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
            return
        orig = getattr(mod, attr)
        wrapped = factory(orig, *args)
        for other in modules.values():
            for name, value in list(vars(other).items()):
                if value is orig:
                    self._restore.append((other, name, value))
                    setattr(other, name, wrapped)
                    self.sites.add((other.__name__, name))

    def _op_wrapper(self, orig, key):
        tracer = self
        clock = time.perf_counter
        by_kind = key.endswith(".")

        def wrapper(obj, *args):
            if not tracer.active:
                return orig(obj, *args)
            k = key + _field_kind(obj.field) if by_kind else key
            stack = tracer.stack
            stack.append(0.0)
            t0 = clock()
            try:
                return orig(obj, *args)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stack[-1] += elapsed
                tracer.calls[k] += 1
                tracer.self_s[k] += elapsed - child

        wrapper.__wrapped__ = orig
        return wrapper

    def _span_wrapper(self, orig, key, hook):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            stack = tracer.stack
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.span_stack[-1]
            tracer.span_stack.append(span_id)
            outermost = tracer.depth[key] == 0
            tracer.depth[key] += 1
            stack.append(0.0)
            t0 = clock()
            done = False
            try:
                result = orig(*args, **kwargs)
                done = True
                return result
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stack[-1] += elapsed
                tracer.depth[key] -= 1
                tracer.span_stack.pop()
                tracer.spans[span_id] = (span_id, parent, key, tracer.job,
                                         t0, elapsed)
                tracer.self_s[key] += elapsed - child
                if outermost:
                    tracer.calls[key] += 1
                    if hook is not None and done:
                        tracer.counts.update(hook(args, kwargs, result))

        wrapper.__wrapped__ = orig
        return wrapper

    # -- running -----------------------------------------------------------

    def run_job(self, job_id, fn):
        """Run fn traced; return (result, wall seconds).

        Checks that the self time the layers gained during the job does
        not exceed the job's wall time.
        """
        before = sum(self.self_s.values())
        self.job = job_id
        self.stack = [0.0]
        self.active = True
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            self.active = False
            self.job = None
        layered = sum(self.self_s.values()) - before
        if layered > wall + 1e-9:
            raise TraceError("job %s: layer self time %.6f s exceeds its "
                             "wall time %.6f s" % (job_id, layered, wall))
        return result, wall

    def metrics(self):
        """Every per-layer metric, read from the counters; the cli, run and
        trace metrics read 0 here and are filled in by the caller."""
        out = {}
        for name, _unit in PER_LAYER:
            key, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = self.calls[key]
            elif stat == "self_s":
                out[name] = self.self_s[key]
            else:
                out[name] = self.counts[name]
        for name, key, hit in (
                ("factor.is_irreducible.true_ratio", "factor.is_irreducible",
                 "factor.is_irreducible.true"),
                ("relations.find_relation.found_ratio",
                 "relations.find_relation", "relations.find_relation.found")):
            calls = self.calls[key]
            out[name] = self.counts[hit] / calls if calls else 0.0
        return out
