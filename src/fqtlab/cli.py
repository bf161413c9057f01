"""Batch command-line front end.

Every workflow is a subcommand emitting a deterministic report: JSON with
sorted keys (or CSV for delta-lab sweeps), identical bytes for identical
flags and seed, regardless of --threads.  Exit codes: 0 success, 2 a
verification-style subcommand found a violation, 1 usage errors, malformed
polynomial literals, or exceeded budgets.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction
from itertools import accumulate

from . import counterexample, deltalab, relations, sunit
from .errors import (DEFAULT_DEGREE_BUDGET as DEGREE_BUDGET,
                     DEFAULT_ENUM_BUDGET as ENUM_BUDGET,
                     DEFAULT_MATRIX_BUDGET as MATRIX_BUDGET,
                     BudgetExceeded, ExactDivisionError, FqtError,
                     power_exceeds)
from .field import FiniteField, is_prime
from .functable import (FuncTable, field_from_obj, field_to_obj,
                        growth_profile, verify_p3)
from .irreducibles import (count_irreducibles, degree_sum,
                           enumerate_monic_irreducibles,
                           product_identity_check)
from .poly import NEG_INF, Poly, format_poly, format_poly_compact, parse_poly
from .ratfunc import RatFunc


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _integer_root(n: int, e: int) -> int:
    """floor(n^(1/e)) by bisection."""
    lo, hi = 1, 1 << (n.bit_length() // e + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** e <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _decompose_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError("q must be >= 2")
    # q = p^e has one such representation; try every exponent the size allows
    for e in range(q.bit_length(), 0, -1):
        p = _integer_root(q, e)
        if p ** e == q and is_prime(p):
            return p, e
    raise ValueError("q = %d is not a prime power" % q)


def _resolve_field(args) -> FiniteField:
    if getattr(args, "q", None) is not None:
        if args.p is not None or args.ext_degree is not None \
                or args.modulus is not None:
            raise ValueError("--q conflicts with --p/--ext-degree/--modulus")
        p, e = _decompose_prime_power(args.q)
        return FiniteField(p, e)
    p = args.p if args.p is not None else 2
    e = args.ext_degree if args.ext_degree is not None else 1
    modulus = None
    if args.modulus is not None:
        try:
            modulus = json.loads(args.modulus)
        except ValueError:  # not JSON at all: refused below
            pass
        if not (isinstance(modulus, list)
                and all(type(c) is int for c in modulus)):
            raise ValueError("--modulus must be a JSON list of integers, "
                             "got %s" % args.modulus)
        modulus = tuple(modulus)
    return FiniteField(p, e, modulus)


def _budgets(args) -> dict:
    if args.budget is not None:
        return {"degree": args.budget, "matrix": args.budget,
                "enumeration": args.budget}
    return {"degree": DEGREE_BUDGET, "matrix": MATRIX_BUDGET,
            "enumeration": ENUM_BUDGET}


def _jsonable(x):
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        return "-inf" if x == NEG_INF else x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Poly):
        return format_poly(x)
    if isinstance(x, RatFunc):
        if x.den == Poly.one(x.field):
            return format_poly(x.num)
        return "(%s)/(%s)" % (format_poly(x.num), format_poly(x.den))
    if isinstance(x, FuncTable):
        return x.to_obj()
    if isinstance(x, FiniteField):
        return dict(field_to_obj(x), q=x.q)
    if dataclasses.is_dataclass(x):
        return {f.name: _jsonable(getattr(x, f.name))
                for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, range)):
        return [_jsonable(v) for v in x]
    raise TypeError("cannot serialize %r" % type(x))


def _emit(text: str, out_path):
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def _unwrap(obj, key):
    """obj, or the part `key` of its result when obj is a report envelope."""
    result = obj.get("result") if isinstance(obj, dict) else None
    return result[key] if isinstance(result, dict) and result.get(key) else obj


def _load_table(path) -> FuncTable:
    with open(path) as fh:
        return FuncTable.from_obj(_unwrap(json.load(fh), "table"))


def _parse_ints(text: str, n: int, what: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError("%s wants %d comma-separated integers" % (what, n))
    return tuple(int(p) for p in parts)


def _parse_gens(field, text: str, budget: int) -> tuple[Poly, ...]:
    """A JSON list of literals, or literals separated by the commas that
    lie outside brackets, so "t,[1,1]*t" keeps its extension coefficient."""
    try:
        literals = json.loads(text)
    except ValueError:
        literals = None
    if isinstance(literals, list):
        if not all(isinstance(lit, str) for lit in literals):
            raise ValueError("--gens must be a JSON list of strings, got %s"
                             % text)
    else:
        depths = accumulate((c == "[") - (c == "]") for c in text)
        cuts = [i for i, (c, d) in enumerate(zip(text, depths))
                if c == "," and not d]
        literals = [text[i + 1:j]
                    for i, j in zip([-1] + cuts, cuts + [len(text)])]
    return tuple(parse_poly(field, lit, budget) for lit in literals)


def _ansatz_to_obj(ansatz: relations.LinearAnsatz, field) -> dict:
    return {
        "field": _jsonable(field),
        "caps": _jsonable(ansatz.caps),
        "p_coeffs": [format_poly_compact(c) for c in ansatz.p_coeffs],
        "q_coeffs": [format_poly_compact(c) for c in ansatz.q_coeffs],
    }


def _ansatz_from_obj(obj) -> relations.LinearAnsatz:
    obj = _unwrap(obj, "ansatz")
    if not isinstance(obj, dict):
        raise ValueError("an ansatz file must hold a JSON object")
    field = field_from_obj(obj["field"])
    caps = obj["caps"]
    names = [f.name for f in dataclasses.fields(relations.LinearCaps)]
    if not (isinstance(caps, dict) and sorted(caps) == sorted(names)
            and all(type(v) is int for v in caps.values())):
        raise ValueError("ansatz caps must map exactly %s to integers, got %r"
                         % (", ".join(names), caps))
    for key in ("p_coeffs", "q_coeffs"):
        if not (isinstance(obj[key], list)
                and all(isinstance(c, str) for c in obj[key])):
            raise ValueError("ansatz %s must be a list of polynomial "
                             "strings, got %r" % (key, obj[key]))
    return relations.LinearAnsatz(
        p_coeffs=tuple(parse_poly(field, c) for c in obj["p_coeffs"]),
        q_coeffs=tuple(parse_poly(field, c) for c in obj["q_coeffs"]),
        caps=relations.LinearCaps(**caps))


# -- handlers: each returns (result object, ok, fail_is_verification) --------


def _cmd_irreducibles(args, budgets):
    field = _resolve_field(args)
    if power_exceeds(field.q, args.n, budgets["enumeration"]):
        raise BudgetExceeded("enumeration of degree %d over q=%d exceeds "
                             "budget %d"
                             % (args.n, field.q, budgets["enumeration"]))
    polys = enumerate_monic_irreducibles(field, args.n)
    expected = count_irreducibles(field.q, args.n)
    return {"q": field.q, "degree": args.n, "count": len(polys),
            "count_by_formula": expected,
            "polys": list(polys)}, len(polys) == expected, True


def _cmd_dn(args, budgets):
    field = _resolve_field(args)
    q, n = field.q, args.n
    if n > budgets["degree"]:
        raise BudgetExceeded("n=%d exceeds the degree budget %d"
                             % (n, budgets["degree"]))
    # the report prints 2*q^n in full: refuse before the work if its
    # digits pass the interpreter's int-to-str limit (0 is no limit)
    digits = int(n * math.log10(q) + math.log10(2)) + 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise BudgetExceeded("n=%d: 2*q^n has %d digits, over the "
                             "interpreter's limit of %d for printing an int"
                             % (n, digits, limit))
    d_n = degree_sum(q, n)
    lower, upper = q ** n, 2 * q ** n
    ok = lower <= d_n < upper
    return {"n": n, "d_n": d_n, "lower": lower, "upper": upper,
            "ok": ok}, ok, True


def _cmd_identity_check(args, budgets):
    field = _resolve_field(args)
    ok = product_identity_check(field, args.n, budget=budgets["degree"])
    return {"q": field.q, "n": args.n, "degree": field.q ** args.n,
            "ok": ok}, ok, True


def _cmd_build_counterexample(args, budgets):
    field = _resolve_field(args)
    table, trace = counterexample.build_counterexample(
        field, args.D, budget=budgets["degree"])
    report = counterexample.certify_counterexample(table, trace)
    result = {"table": table, "certification": report}
    if args.trace:
        result["trace"] = trace
    return result, report.ok, True


def _cmd_verify_p3(args, budgets):
    table = _load_table(args.table)
    report = verify_p3(table)
    return report, report.ok, True


def _cmd_growth(args, budgets):
    table = _load_table(args.table)
    try:
        eps = Fraction(args.epsilon)
    except ZeroDivisionError:
        raise ValueError("--epsilon %s has a zero denominator"
                         % args.epsilon) from None
    return growth_profile(table, epsilon=eps), True, False


def _cmd_find_relation(args, budgets):
    table = _load_table(args.table)
    i, j, k = _parse_ints(args.bounds, 3, "--bounds")
    bounds = relations.TriDegreeBounds(i, j, k)
    rel = relations.find_relation(table, bounds, budget=budgets["matrix"])
    result = {"bounds": bounds, "unknowns": bounds.unknowns,
              "found": rel is not None,
              "relation": {"bounds": rel.bounds, "coeffs": list(rel.coeffs)}
              if rel else None}
    return result, True, False


def _cmd_degree_bound(args, budgets):
    table = _load_table(args.table)
    if args.c3 is not None or args.c4 is not None:
        if args.c3 is None or args.c4 is None or args.bounds:
            raise ValueError("give both --c3 and --c4, or --bounds alone")
        cert = relations.DegreeBoundCert(c3=args.c3, c4=args.c4, y_degree=1)
    else:
        if not args.bounds:
            raise ValueError("need --bounds i,j,k or --c3/--c4")
        i, j, k = _parse_ints(args.bounds, 3, "--bounds")
        rel = relations.find_relation(table,
                                      relations.TriDegreeBounds(i, j, k),
                                      budget=budgets["matrix"])
        if rel is None:
            return {"found": False, "cert": None, "report": None}, False, True
        cert = relations.degree_bound_from_relation(rel, table.field)
    report = relations.check_degree_bound(table, cert)
    return {"found": True, "cert": cert, "report": report}, report.ok, True


def _cmd_linear_relation(args, budgets):
    table = _load_table(args.table)
    u = parse_poly(table.field, args.U, budgets["degree"])
    if args.caps:
        a, b, c, d = _parse_ints(args.caps, 4, "--caps")
        caps = relations.LinearCaps(a, b, c, d)
    else:
        caps = relations.LinearCaps(0, 0, 3, 1)
    samples = relations.power_samples(table, u, args.N)
    ansatz = relations.find_linear_relation(samples, caps,
                                            budget=budgets["matrix"])
    result = {"caps": caps, "N": args.N, "U": u,
              "found": ansatz is not None,
              "ansatz": _ansatz_to_obj(ansatz, table.field)
              if ansatz else None}
    return result, True, False


def _cmd_recover(args, budgets):
    with open(args.ansatz) as fh:
        obj = json.load(fh)
    ansatz = _ansatz_from_obj(obj)
    try:
        coeffs = relations.recover_polymap(ansatz)
    except ExactDivisionError as exc:
        return {"recovered": None, "reason": str(exc)}, False, True
    out = [{"num": c.num, "den": c.den} for c in coeffs]
    return {"recovered": out,
            "is_polynomial": all(c.is_poly() for c in coeffs)}, True, False


def _cmd_fit(args, budgets):
    table = _load_table(args.table)
    report = relations.fit_polynomial(table.items(), args.B,
                                      budget=budgets["matrix"])
    result = {"B": args.B,
              "coeffs": [{"num": c.num, "den": c.den} for c in report.coeffs],
              "holdout_ok": report.holdout_ok,
              "mismatches": report.mismatches,
              "values_in_ring": report.values_in_ring}
    return result, True, False


def _cmd_vanishing_check(args, budgets):
    table = _load_table(args.table)
    report = relations.check_vanishing_lemma(table, args.C1)
    # only a counterexample to "hypotheses force zero" is a failure
    ok = not (report.hypotheses_ok and not report.all_zero)
    return report, ok, True


def _cmd_delta_lab(args, budgets):
    field = _resolve_field(args)
    u = parse_poly(field, args.U, budgets["degree"])
    rows = []
    skipped = 0
    if args.sweep:
        if args.n > budgets["degree"]:
            raise BudgetExceeded("sweep to n=%d exceeds the degree budget %d"
                                 % (args.n, budgets["degree"]))
        m_cap = args.n if args.m is None else args.m
        sweep = [(range(min(m_cap, n - 1) + 1), n)
                 for n in range(1, args.n + 1)]
    else:
        sweep = [([args.m if args.m is not None else args.n - 1], args.n)]
    for ms, n in sweep:
        # s0(m, n), so the product degree, grows with m: past the first m
        # over the budget every m is skipped
        for i, m in enumerate(ms):
            spec = deltalab.DeltaSpec(u=u, m=m, n=n)
            if spec.product_degree > budgets["degree"]:
                skipped += len(ms) - i
                break
            rows.append(deltalab.count_report(spec,
                                              budget=budgets["degree"]))
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["p", "q", "U", "m", "n", "d",
                    "S0", "S1", "S2", "margin_b"])
        for r in rows:
            w.writerow([field.p, field.q, format_poly(u), r.spec.m, r.spec.n,
                        r.d, r.s0, r.s1, r.s2, str(r.margin_b)])
        return buf.getvalue(), True, False
    return {"rows": rows, "skipped": skipped}, True, False


def _cmd_sunit_enum(args, budgets):
    field = _resolve_field(args)
    gens = _parse_gens(field, args.gens, budgets["degree"])
    spec = sunit.GroupSpec(generators=gens)
    sols = sunit.enumerate_solutions(spec, args.E,
                                     budget=budgets["enumeration"])
    return {"generators": spec.generators, "E": args.E,
            "count": len(sols), "solutions": sols}, True, False


def _cmd_sunit_orbits(args, budgets):
    field = _resolve_field(args)
    gens = _parse_gens(field, args.gens, budgets["degree"])
    spec = sunit.GroupSpec(generators=gens)
    sols = sunit.enumerate_solutions(spec, args.E,
                                     budget=budgets["enumeration"])
    report = sunit.orbit_reduce(sols, spec, seed=args.seed)
    result = {"generators": spec.generators, "E": args.E,
              "solution_count": len(sols), "orbit_count": len(report.orbits),
              "rank": report.rank, "bound": report.bound,
              "orbits": report.orbits, "ok": report.ok}
    return result, report.ok, True


def _cmd_large_factor(args, budgets):
    field = _resolve_field(args)
    a = parse_poly(field, args.A, budgets["degree"])
    u = parse_poly(field, args.U, budgets["degree"])
    report = sunit.find_large_factor(a, u, args.M_floor,
                                     range(1, args.n + 1),
                                     budget=budgets["degree"], seed=args.seed)
    return report, True, False


def _cmd_pipeline(args, budgets):
    table = _load_table(args.table)
    i, j, k = _parse_ints(args.bounds, 3, "--bounds")
    bounds = relations.TriDegreeBounds(i, j, k)
    u = parse_poly(table.field, args.U, budgets["degree"])
    caps = None
    if args.caps:
        a, b, c, d = _parse_ints(args.caps, 4, "--caps")
        caps = relations.LinearCaps(a, b, c, d)
    report = relations.run_pipeline(table, bounds, u, args.N, caps=caps,
                                    budget=budgets["matrix"])
    return report, report.ok, True


_HANDLERS = {
    "irreducibles": _cmd_irreducibles,
    "dn": _cmd_dn,
    "identity-check": _cmd_identity_check,
    "build-counterexample": _cmd_build_counterexample,
    "verify-p3": _cmd_verify_p3,
    "growth": _cmd_growth,
    "find-relation": _cmd_find_relation,
    "degree-bound": _cmd_degree_bound,
    "linear-relation": _cmd_linear_relation,
    "recover": _cmd_recover,
    "fit": _cmd_fit,
    "vanishing-check": _cmd_vanishing_check,
    "delta-lab": _cmd_delta_lab,
    "sunit-enum": _cmd_sunit_enum,
    "sunit-orbits": _cmd_sunit_orbits,
    "large-factor": _cmd_large_factor,
    "pipeline": _cmd_pipeline,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="fqtlab",
                     description="function-field congruence toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--budget", type=int, default=None)
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--out", default=None)
    # accepted and unused: every command runs in one thread
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--trace", action="store_true")
    fieldf = argparse.ArgumentParser(add_help=False)
    fieldf.add_argument("--q", type=int, default=None)
    fieldf.add_argument("--p", type=int, default=None)
    fieldf.add_argument("--ext-degree", type=int, default=None)
    fieldf.add_argument("--modulus", default=None)

    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    def add(name, *, parents=(common,), **kw):
        sp = sub.add_parser(name, parents=list(parents))
        for flag, opts in kw.items():
            sp.add_argument("--" + flag.replace("_", "-"), **opts)
        return sp

    ints = {"type": int, "required": True}
    opt_int = {"type": int, "default": None}
    req = {"required": True}

    add("irreducibles", parents=(common, fieldf), n=ints)
    add("dn", parents=(common, fieldf), n=ints)
    add("identity-check", parents=(common, fieldf), n=ints)
    add("build-counterexample", parents=(common, fieldf), D=ints)
    add("verify-p3", table=req)
    add("growth", table=req, epsilon={"default": "1/2"})
    add("find-relation", table=req, bounds=req)
    add("degree-bound", table=req, bounds={"default": None},
        c3=opt_int, c4=opt_int)
    add("linear-relation", table=req, U=req, N=ints, caps={"default": None})
    add("recover", ansatz=req)
    add("fit", table=req, B=ints)
    add("vanishing-check", table=req, C1=ints)
    add("delta-lab", parents=(common, fieldf), U=req, n=ints, m=opt_int,
        sweep={"action": "store_true"})
    add("sunit-enum", parents=(common, fieldf), gens=req, E=ints)
    add("sunit-orbits", parents=(common, fieldf), gens=req, E=ints)
    add("large-factor", parents=(common, fieldf), A=req, U=req,
        M_floor=ints, n=ints)
    add("pipeline", table=req, bounds=req, U=req, N=ints,
        caps={"default": None})
    return parser


def _config_obj(args, budgets) -> dict:
    # threads never appears: reports must be byte-identical across --threads
    skip = {"command", "threads"}
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    cfg["budgets"] = budgets
    cfg.pop("budget", None)
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # our error() and --help funnel through here
        return exc.code if isinstance(exc.code, int) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("fqtlab: error: a subcommand is required", file=sys.stderr)
        return 1
    if args.format == "csv" and args.command != "delta-lab":
        print("fqtlab %s: error: csv output is only supported for delta-lab"
              % args.command, file=sys.stderr)
        return 1
    budgets = _budgets(args)
    try:
        result, ok, verifies = _HANDLERS[args.command](args, budgets)
        if not isinstance(result, str):  # csv comes preformatted
            envelope = {"command": args.command,
                        "config": _jsonable(_config_obj(args, budgets)),
                        "result": _jsonable(result),
                        "ok": ok}
            result = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    except (FqtError, ValueError, KeyError, OSError) as exc:
        print("fqtlab %s: error: %s" % (args.command, exc), file=sys.stderr)
        return 1
    _emit(result, args.out)
    if ok or not verifies:
        return 0
    return 2


def run():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
