"""valext: exact valuation rings, Gauss norms, composita and their extensions.

The package constructs and verifies extensions of valuation rings with
controlled value group and residue field: monomial (generalized Gauss)
valuations on rational function fields, the canonical norm on free modules
and algebras over them, decomposition of tensor products of field extensions
into composed extensions, and the two extension constructions (the strictly
maximal route preserving the value group, and the truncated perfect-closure
route in positive characteristic).
"""

from .builder import (
    BuiltExtension,
    ExtensionScenario,
    build_general,
    build_strictly_maximal,
    render_report,
    spectrum_correspondence,
    verify_weakly_unramified,
)
from .compositum import (
    CompositumPoint,
    base_change_maximality_check,
    degree_bookkeeping,
    separable_transfer_check,
    subfield_maximality_check,
    tensor_decompose,
)
from .errors import (
    CapabilityError,
    DomainError,
    PreconditionError,
    ScenarioParseError,
    SelfCheckError,
    StructuralError,
    ValextError,
)
from .fields import (
    FieldElement,
    FieldTower,
    TowerHom,
    is_radicial,
    perfect_closure_truncated,
    pth_root,
)
from .norms import (
    FreeAlgebra,
    GaussExtension,
    check_algebra_norm,
    gauss_extend,
    is_reduced_lift,
)
from .poly import Factorization, Polynomial, factor, gcd, resultant, squarefree_part
from .valuations import HenselLift, MonomialValuation, hensel_factor_lift
from .value_groups import ValueGroup, ValueWithZero, is_p_torsion_quotient

__version__ = "0.1.0"

__all__ = [
    "BuiltExtension",
    "CapabilityError",
    "CompositumPoint",
    "DomainError",
    "ExtensionScenario",
    "Factorization",
    "FieldElement",
    "FieldTower",
    "FreeAlgebra",
    "GaussExtension",
    "HenselLift",
    "MonomialValuation",
    "Polynomial",
    "PreconditionError",
    "ScenarioParseError",
    "SelfCheckError",
    "StructuralError",
    "TowerHom",
    "ValextError",
    "ValueGroup",
    "ValueWithZero",
    "base_change_maximality_check",
    "build_general",
    "build_strictly_maximal",
    "check_algebra_norm",
    "degree_bookkeeping",
    "factor",
    "gauss_extend",
    "gcd",
    "hensel_factor_lift",
    "is_p_torsion_quotient",
    "is_radicial",
    "is_reduced_lift",
    "perfect_closure_truncated",
    "pth_root",
    "render_report",
    "resultant",
    "separable_transfer_check",
    "spectrum_correspondence",
    "squarefree_part",
    "subfield_maximality_check",
    "tensor_decompose",
    "verify_weakly_unramified",
]
