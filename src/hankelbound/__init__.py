"""Second Hankel determinant bounds for subordination-defined classes."""

from .bounds import (
    BoundResult,
    QuadraticProfile,
    certified_quadratic,
    majorant_surface,
    profile,
    quad_max,
    robust_quad_max,
    second_hankel_bound,
)
from .classes import (
    ClassSpec,
    CoefficientTriple,
    coefficients_from_c,
    coefficients_from_schwarz,
    convex,
    g_alpha,
    hankel2,
    r_gamma_tau,
    starlike,
)
from .series import TruncatedSeries, WORK_ORDER, compose, div, elementary
from .targets import PhiCoefficients, custom, load_phi_file, preset, preset_series
from .verify import (
    CaratheodoryPoint,
    VerificationReport,
    check_caratheodory_bounds,
    check_mu_monotone,
    empirical_sup,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "CaratheodoryPoint",
    "ClassSpec",
    "CoefficientTriple",
    "PhiCoefficients",
    "QuadraticProfile",
    "TruncatedSeries",
    "VerificationReport",
    "WORK_ORDER",
    "certified_quadratic",
    "check_caratheodory_bounds",
    "check_mu_monotone",
    "coefficients_from_c",
    "coefficients_from_schwarz",
    "compose",
    "convex",
    "custom",
    "div",
    "elementary",
    "empirical_sup",
    "g_alpha",
    "hankel2",
    "load_phi_file",
    "majorant_surface",
    "preset",
    "preset_series",
    "profile",
    "quad_max",
    "r_gamma_tau",
    "robust_quad_max",
    "second_hankel_bound",
    "starlike",
]
