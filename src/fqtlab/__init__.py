"""Exact arithmetic and verification workflows for congruence-preserving
functions on F_q[t]: irreducible bookkeeping, a CRT-built fast-growing
counterexample, vanishing-ideal relation solving, root-of-unity counting,
and unit-equation orbit experiments.

`import fqtlab` loads only the arithmetic core: `errors`, `field`, `poly`
and `factor`.  Every other module loads on first use (PEP 562), so
`fqtlab.X`, `from fqtlab import X` and `from fqtlab import *` work as if all
were imported at once.  `fqtlab.X` is looked up on X's defining module at
each access, never copied here.  The command line, `fqtlab.cli`, still
imports every module at start-up.
"""

from importlib import import_module as _import_module

# `factor` names both a submodule and its entry point.  The import system
# binds the package attribute to the submodule when it first loads, so it
# loads here, and the function is bound over it.
from .factor import factor

__version__ = "0.1.0"

# defining module -> the names it exports here
_EXPORTS = {
    "counterexample": """CertifyReport ConstructionTrace TraceRow
        build_counterexample certify_counterexample""",
    "deltalab": """CountReport CrosscheckReport DeltaSpec count_report d_mnu
        delta root_count_crosscheck roots_of_unity_count
        union_size_identity_map""",
    "errors": """BudgetExceeded ExactDivisionError FqtError NotCoprime
        PolyParseError TableDomainError""",
    "factor": """FactorList distinct_degree_split equal_degree_factor factor
        is_irreducible pth_root radical squarefree_decomposition""",
    "field": "FiniteField default_modulus prime_factors",
    "functable": """FuncTable GrowthProfile GrowthRow P3Report P3Violation
        growth_profile verify_p3""",
    "irreducibles": """count_irreducibles degree_sum
        enumerate_monic_irreducibles irreducible_product
        product_identity_check""",
    "linalg": "kernel_basis kernel_vector matrix_rank",
    "poly": """NEG_INF CRTBasis Poly crt format_poly format_poly_compact
        monic_polys_of_degree parse_poly poly_gcd poly_xgcd polys_up_to""",
    "ratfunc": "RatFunc",
    "relations": """DegreeBoundCert FitReport LinearAnsatz LinearCaps
        PipelineReport RelationQ ScheduleReport TriDegreeBounds
        UnknownCountReport VanishingReport check_degree_bound
        check_vanishing_lemma degree_bound_from_relation
        find_linear_relation find_relation fit_polynomial linear_growth_fit
        recover_polymap run_pipeline schedule_check unknown_count_check""",
    "sunit": """GroupElem GroupSpec LargeFactorReport OrbitReport ScanRow
        SolutionOrbit SolutionPair enumerate_solutions find_large_factor
        orbit_reduce""",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}
# the submodules exported by name; `factor` is the function above
_SUBMODULES = frozenset(_EXPORTS) - {"factor"}

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module("." + name, __name__)
    if name in _HOME:
        return getattr(_import_module("." + _HOME[name], __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
