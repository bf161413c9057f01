"""The package namespace: what `import fqtlab` loads, and what it exports.

`import fqtlab` loads the arithmetic core only; every other exported name
and submodule loads on first access.  Each case runs in a fresh interpreter,
since what a test process has already imported would hide what a bare
`import fqtlab` does.
"""

import json
import subprocess
import sys

# `__all__` as it stood when every module was imported eagerly
ALL = [
    "BudgetExceeded", "CRTBasis", "CertifyReport", "ConstructionTrace",
    "CountReport", "CrosscheckReport", "DegreeBoundCert", "DeltaSpec",
    "ExactDivisionError", "FactorList", "FiniteField", "FitReport",
    "FqtError", "FuncTable", "GroupElem", "GroupSpec", "GrowthProfile",
    "GrowthRow", "LargeFactorReport", "LinearAnsatz", "LinearCaps",
    "NEG_INF", "NotCoprime", "OrbitReport", "P3Report", "P3Violation",
    "PipelineReport", "Poly", "PolyParseError", "RatFunc", "RelationQ",
    "ScanRow", "ScheduleReport", "SolutionOrbit", "SolutionPair",
    "TableDomainError", "TraceRow", "TriDegreeBounds", "UnknownCountReport",
    "VanishingReport", "build_counterexample", "certify_counterexample",
    "check_degree_bound", "check_vanishing_lemma", "count_irreducibles",
    "count_report", "counterexample", "crt", "d_mnu", "default_modulus",
    "degree_bound_from_relation", "degree_sum", "delta", "deltalab",
    "distinct_degree_split", "enumerate_monic_irreducibles",
    "enumerate_solutions", "equal_degree_factor", "errors", "factor",
    "field", "find_large_factor", "find_linear_relation", "find_relation",
    "fit_polynomial", "format_poly", "format_poly_compact", "functable",
    "growth_profile", "irreducible_product", "irreducibles",
    "is_irreducible", "kernel_basis", "kernel_vector", "linalg",
    "linear_growth_fit", "matrix_rank", "monic_polys_of_degree",
    "orbit_reduce", "parse_poly", "poly", "poly_gcd", "poly_xgcd",
    "polys_up_to", "prime_factors", "product_identity_check", "pth_root",
    "radical", "ratfunc", "recover_polymap", "relations",
    "root_count_crosscheck", "roots_of_unity_count", "run_pipeline",
    "schedule_check", "squarefree_decomposition", "sunit",
    "union_size_identity_map", "unknown_count_check", "verify_p3",
]
# the rest of `dir(fqtlab)` as it stood then
DUNDERS = ["__all__", "__builtins__", "__cached__", "__doc__", "__file__",
           "__loader__", "__name__", "__package__", "__path__", "__spec__",
           "__version__"]
SUBMODULES = ["counterexample", "deltalab", "errors", "field", "functable",
              "irreducibles", "linalg", "poly", "ratfunc", "relations",
              "sunit"]


def fresh(code):
    """Run code in a new interpreter; return what it printed as JSON."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bare_import_loads_the_core_only():
    loaded = fresh("import json, sys, fqtlab; print(json.dumps(sorted("
                   "m for m in sys.modules if m.startswith('fqtlab'))))")
    assert loaded == ["fqtlab", "fqtlab.errors", "fqtlab.factor",
                      "fqtlab.field", "fqtlab.poly"]


def test_all_is_unchanged():
    assert fresh("import json, fqtlab; print(json.dumps(fqtlab.__all__))") \
        == ALL


def test_every_name_resolves_after_a_bare_import():
    # The submodule names go first: looking up another name loads its
    # module, which would bind that module's name in the package.  Each
    # exported object is its defining module's attribute at the time of
    # access: a patch there shows through the package, except on `factor`,
    # which the package binds at import since a submodule shares its name.
    names = SUBMODULES + [n for n in ALL + DUNDERS if n not in SUBMODULES]
    code = """if True:
        import json, sys, types, fqtlab
        names = %r
        missing = [n for n in names if not hasattr(fqtlab, n)]
        strays = []
        for n in fqtlab.__all__:
            obj = getattr(fqtlab, n)
            if isinstance(obj, types.ModuleType):
                home = obj.__name__ == 'fqtlab.' + n
            else:
                mod = sys.modules[getattr(obj, '__module__', 'fqtlab.poly')]
                home = getattr(mod, n) is obj
                if n != 'factor':
                    setattr(mod, n, sentinel := object())
                    home = home and getattr(fqtlab, n) is sentinel
                    setattr(mod, n, obj)
            if not home:
                strays.append(n)
        print(json.dumps([missing, strays]))
    """ % names
    assert fresh(code) == [[], []]


def test_factor_stays_the_function_after_other_modules_load():
    # the submodule and its entry point share the name `factor`
    found = fresh("import json, sys, fqtlab, fqtlab.irreducibles, fqtlab.cli;"
                  " print(json.dumps(fqtlab.factor is "
                  "sys.modules['fqtlab.factor'].factor))")
    assert found is True


def test_star_import_binds_every_name_and_dir_covers_them():
    code = """if True:
        import json, fqtlab
        from fqtlab import *
        bound = [n for n in fqtlab.__all__ if n in globals()]
        print(json.dumps([bound, sorted(set(fqtlab.__all__)
                                        - set(dir(fqtlab)))]))
    """
    bound, undirred = fresh(code)
    assert bound == ALL
    assert undirred == []


def test_unknown_name_raises_attribute_error():
    code = """if True:
        import json, fqtlab
        try:
            fqtlab.no_such
        except AttributeError as exc:
            print(json.dumps(str(exc)))
    """
    assert fresh(code) == "module 'fqtlab' has no attribute 'no_such'"
