"""Exact arithmetic and verification workflows for congruence-preserving
functions on F_q[t]: irreducible bookkeeping, a CRT-built fast-growing
counterexample, vanishing-ideal relation solving, root-of-unity counting,
and unit-equation orbit experiments.
"""

from .counterexample import (CertifyReport, ConstructionTrace, TraceRow,
                             build_counterexample, certify_counterexample)
from .deltalab import (CountReport, CrosscheckReport, DeltaSpec, count_report,
                       d_mnu, delta, root_count_crosscheck,
                       roots_of_unity_count, union_size_identity_map)
from .errors import (BudgetExceeded, ExactDivisionError, FqtError,
                     NotCoprime, PolyParseError, TableDomainError)
from .factor import (FactorList, distinct_degree_split, equal_degree_factor,
                     factor, is_irreducible, pth_root, radical,
                     squarefree_decomposition)
from .field import FiniteField, default_modulus, prime_factors
from .functable import (FuncTable, GrowthProfile, GrowthRow, P3Report,
                        P3Violation, growth_profile, verify_p3)
from .irreducibles import (count_irreducibles, degree_sum,
                           enumerate_monic_irreducibles, irreducible_product,
                           product_identity_check)
from .linalg import kernel_basis, kernel_vector, matrix_rank
from .poly import (NEG_INF, CRTBasis, Poly, crt, format_poly,
                   format_poly_compact, monic_polys_of_degree, parse_poly,
                   poly_gcd, poly_xgcd, polys_up_to)
from .ratfunc import RatFunc
from .relations import (DegreeBoundCert, FitReport, LinearAnsatz, LinearCaps,
                        PipelineReport, RelationQ, ScheduleReport,
                        TriDegreeBounds, UnknownCountReport, VanishingReport,
                        check_degree_bound, check_vanishing_lemma,
                        degree_bound_from_relation, find_linear_relation,
                        find_relation, fit_polynomial, linear_growth_fit,
                        recover_polymap, run_pipeline, schedule_check,
                        unknown_count_check)
from .sunit import (GroupElem, GroupSpec, LargeFactorReport, OrbitReport,
                    ScanRow, SolutionOrbit, SolutionPair, enumerate_solutions,
                    find_large_factor, orbit_reduce)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
