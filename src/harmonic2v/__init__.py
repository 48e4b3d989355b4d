"""harmonic2v: exact SO(m) harmonic analysis for polynomials in two vector
variables, with quadrature on the Stiefel manifold V_2(R^m)."""

from .errors import (
    DimensionMismatch,
    ExponentOutOfRange,
    GammaPole,
    IndexOutOfRange,
    LowerParameterPole,
    NonTerminating,
    NotDoubleHarmonic,
    PolySyntaxError,
    VariableOutOfRange,
    ZeroNormalizer,
)
from .rationals import GaussianRational, falling, rising
from .poly import Monomial, Polynomial
from .transvector import (
    GeneratorTag,
    extremal_projection_s,
    extremal_projection_u,
    extremal_projection_x,
    generator_chain,
    is_double_harmonic,
    verify_quadratic_relations,
)
from .fischer import (
    DoubleFischerComponent,
    double_fischer,
    fischer_inner_product,
)
from .decomp import (
    DecompositionEntry,
    DecompositionResult,
    LadderIndex,
    SimplicialComponent,
    decompose_double_harmonic,
    decompose_full,
    highest_weight_vector,
    is_simplicial,
    ladder_alpha,
    ladder_c,
    ladder_phi,
    ladder_psi,
    master_projection,
    project_component,
    projection_weight,
    verify_component_orthogonality,
)
from .stiefel import (
    QuadratureReport,
    SphereIntegral,
    a_c_power_constant,
    c_power_one,
    gamma_constant,
    gegenbauer,
    monte_carlo_many,
    sphere_integrate,
    stiefel_integrate,
    stiefel_monte_carlo,
)
from .hypergeom import (
    eval_pfq,
    g_sum,
    verify_unit_argument_product,
    verify_g_vanishes,
    verify_product_transformation,
    verify_whipple,
)
from .parser import parse_poly
from .suites import run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
