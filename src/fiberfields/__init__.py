"""fiberfields: residue-field diversity of branched covers of the affine
line over Q, at desk scale.

The library classifies the fibers of a cover (cyclic y^p = g(x) or plane
F(x, y) = 0) over x = 1..N, counts the distinct residue fields appearing,
tracks the growth of the compositum of those fields as an F_p-rank, and
checks the supporting quantitative facts (squarefree-value densities,
norm-collision bounds, ramified-prime fingerprints) exactly.
"""

__version__ = "0.1.0"

from .arith import Factorization, factor
from .covers import (
    CoverSpec,
    CyclicCover,
    FiberSpec,
    PlaneCover,
    branch_polynomial,
    cover_from_text,
    has_nonrational_branch_point,
    normalize_cyclic,
    points_over_infinity,
    specialize,
)
from .diversity import (
    CompositumReport,
    DiversityReport,
    compare_methods,
    norm_collision_check,
    strong_diversity_rank,
    weak_diversity_count,
)
from .errors import BudgetError, DomainError, PolyParseError, UnfactoredResidualError
from .kummer import (
    FieldFingerprint,
    KummerClass,
    field_fingerprint,
    radical_class,
    radical_fields_isomorphic,
)
from .polyring import (
    IntPoly,
    IrreducibleFactorization,
    PlanePoly,
    discriminant,
    factor_over_Q,
    format_poly,
    parse_poly,
    radical,
    resultant,
    y_discriminant,
)
from .sieve import SieveReport, euler_density, exact_order_prime_ratio, squarefree_value_count

__all__ = [
    "__version__",
    "Factorization",
    "factor",
    "IntPoly",
    "PlanePoly",
    "IrreducibleFactorization",
    "parse_poly",
    "format_poly",
    "radical",
    "discriminant",
    "resultant",
    "y_discriminant",
    "factor_over_Q",
    "KummerClass",
    "FieldFingerprint",
    "radical_class",
    "radical_fields_isomorphic",
    "field_fingerprint",
    "CoverSpec",
    "CyclicCover",
    "PlaneCover",
    "FiberSpec",
    "normalize_cyclic",
    "branch_polynomial",
    "has_nonrational_branch_point",
    "points_over_infinity",
    "specialize",
    "cover_from_text",
    "DiversityReport",
    "CompositumReport",
    "weak_diversity_count",
    "strong_diversity_rank",
    "norm_collision_check",
    "compare_methods",
    "SieveReport",
    "squarefree_value_count",
    "euler_density",
    "exact_order_prime_ratio",
    "DomainError",
    "BudgetError",
    "UnfactoredResidualError",
    "PolyParseError",
]
