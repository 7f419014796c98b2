"""Sojourn-time distribution of a tagged job in a finite-population
processor-sharing queue: exact spectral solution plus large-population
asymptotic approximations."""

from .exact import (
    DensityTrajectory,
    Generator,
    ModelParams,
    Regime,
    SpectralDecomposition,
    build_generator,
    closed_form_small_N,
    conditional_density_exact_log,
    integrate_ode,
    orthogonality_residual,
    reconstruction_residual,
    small_n_rates,
    spectral_decompose,
    spectral_trajectory,
    steady_state_log_weights,
    time_integral_residual,
    unconditional_density_exact_log,
    unit_mass_residual,
)

__version__ = "0.1.0"

__all__ = [
    "DensityTrajectory",
    "Generator",
    "ModelParams",
    "Regime",
    "SpectralDecomposition",
    "build_generator",
    "closed_form_small_N",
    "conditional_density_exact_log",
    "integrate_ode",
    "orthogonality_residual",
    "reconstruction_residual",
    "small_n_rates",
    "spectral_decompose",
    "spectral_trajectory",
    "steady_state_log_weights",
    "time_integral_residual",
    "unconditional_density_exact_log",
    "unit_mass_residual",
    "__version__",
]
