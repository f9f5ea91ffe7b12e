"""lltwalk: exact and asymptotic laws of lattice walks whose exit
probability from the origin is perturbed.
"""

from .asymptotics import (
    llt_edgeworth,
    llt_gaussian_leading,
    perturbation_correction,
)
from .exact_engine import (
    ExactDistribution,
    convolve_power,
    cross_check,
    first_return_probs,
    max_abs_difference,
    perturbed_distribution,
    perturbed_forward,
    perturbed_forward_many,
    perturbed_fourier,
    perturbed_via_representation,
)
from .harness import (
    AsymptoticPrediction,
    ConvergenceReport,
    EmpiricalPMF,
    asymptotic_prediction,
    chi_squared_check,
    compare,
    simulate,
)
from .spectral import EdgeworthCoeffs, TorusGrid, charfn_grid, edgeworth_coeffs, invert_charfn
from .special_fn import (
    IdentityReport,
    hermite,
    hermite_at_zero,
    identity_suite,
    laguerre,
    sign_expansion_partial,
)
from .specfile import load_walk_spec, parse_spec_text
from .walk_model import (
    LatticePMF,
    SignedLatticeFn,
    WalkSpec,
    moments,
    validate_walk_spec,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticPrediction",
    "ConvergenceReport",
    "EdgeworthCoeffs",
    "EmpiricalPMF",
    "ExactDistribution",
    "IdentityReport",
    "LatticePMF",
    "SignedLatticeFn",
    "TorusGrid",
    "WalkSpec",
    "asymptotic_prediction",
    "charfn_grid",
    "chi_squared_check",
    "compare",
    "convolve_power",
    "cross_check",
    "edgeworth_coeffs",
    "first_return_probs",
    "hermite",
    "hermite_at_zero",
    "identity_suite",
    "invert_charfn",
    "laguerre",
    "llt_edgeworth",
    "llt_gaussian_leading",
    "load_walk_spec",
    "max_abs_difference",
    "moments",
    "parse_spec_text",
    "perturbation_correction",
    "perturbed_distribution",
    "perturbed_forward",
    "perturbed_forward_many",
    "perturbed_fourier",
    "perturbed_via_representation",
    "sign_expansion_partial",
    "simulate",
    "validate_walk_spec",
]
