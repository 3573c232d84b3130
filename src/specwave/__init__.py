"""Spectral Galerkin simulator for stochastic wave equations on (0,1).

Simulates the semilinear stochastic wave equation with multiplicative noise
in its first-order Galerkin form and empirically verifies weak and strong
convergence rates across spatial resolutions, including the explicit
weak-error bound arithmetic.
"""

__version__ = "0.1.0"

from .analysis import (BoundParams, ExponentPair, RateFit, fit_rate,
                       predicted_exponent, theoretical_weak_bound)
from .coefficients import CoefficientSpec, preset
from .integrator import BlowUpError, SimConfig, path_seed, step
from .mc import (ErrorTable, StudyReport, TestFunctional, coordinate,
                 cos_pairing, estimate_functional, exp_neg_norm, run_study)
from .propagator import propagate
from .spectral import (GridWorkspace, PairState, SpectralModel, build_model,
                       hs_norm_lambda_pow, norm_bold_hr, project)

__all__ = [
    "__version__",
    "BoundParams", "ExponentPair", "RateFit", "fit_rate",
    "predicted_exponent", "theoretical_weak_bound",
    "CoefficientSpec", "preset",
    "BlowUpError", "SimConfig", "path_seed", "step",
    "ErrorTable", "StudyReport", "TestFunctional", "coordinate", "cos_pairing",
    "estimate_functional", "exp_neg_norm", "run_study",
    "propagate",
    "GridWorkspace", "PairState", "SpectralModel", "build_model",
    "hs_norm_lambda_pow", "norm_bold_hr", "project",
]
