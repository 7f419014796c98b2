"""Error taxonomy shared across the package.

Every domain-level failure raises a subclass of PSQError so callers can
distinguish numerical-contract violations from programming errors.
"""

from __future__ import annotations


class PSQError(Exception):
    """Base class for all domain errors raised by this package."""


# -- exact machinery ---------------------------------------------------------

class DegenerateSpectrum(PSQError):
    """Two eigenvalues are too close for the sorted spectrum to be trusted."""


class StepTooLarge(PSQError):
    """Explicit ODE step violates the stability bound step * nu_max <= 0.1."""


class UnsupportedN(PSQError):
    """Operation only defined for specific population sizes."""


class InvalidInput(PSQError, ValueError):
    """Argument outside a function's domain: model parameters with N < 2 or
    rho not positive; for the exact evaluators a time that is NaN or
    negative, a state index that is not an integer in 0..N-1, or a generator
    whose dimension is not the population N; an ODE horizon that is not
    positive and finite, a state index outside the N = 2 / N = 3 closed
    forms, or oracle digits outside [15, 200]; for the infinite model a state
    that is not a nonnegative integer, a rho that is not positive and
    finite, a time that is not positive and finite (at least 10 for the tail
    formula), a transform argument that is not finite with a positive real
    part, an inversion step_scale other than 1 or 2, or a tail mass bound
    outside (0, 1)."""


# -- special functions / numerics --------------------------------------------

class ModulusOutOfRange(PSQError):
    """Elliptic modulus must lie in [0, 1)."""


class NoSignChange(PSQError):
    """Root bracket endpoints do not straddle a sign change."""


class MaxDepthExceeded(PSQError):
    """Adaptive quadrature hit its refinement cap before converging."""


# -- asymptotic regime guards -------------------------------------------------

class NotSupercritical(PSQError):
    """Formula requires rho > 1."""


class NotSubcritical(PSQError):
    """Formula requires rho < 1."""


class IndexTooLarge(PSQError):
    """Eigenvalue/coefficient index outside the expansion's validity window."""


class OutOfRegion(PSQError):
    """Point lies outside the regime a formula is valid in."""


class CurveSingularity(PSQError):
    """Point too close to a separating curve where the formula degenerates."""


class ScaleGap(PSQError):
    """Spatial index falls between asymptotic scale validity windows."""


# -- implicit-equation solvers -------------------------------------------------

class RootNotBracketed(PSQError):
    """Automatic bracket search failed to enclose the root."""


class BracketFailure(PSQError):
    """Bracketed solve did not converge; signals quadrature misconfiguration."""


# -- transform inversion --------------------------------------------------------

class BranchCollision(PSQError):
    """Transform evaluated at (or too close to) a branch point."""


class InversionUnstable(PSQError):
    """Euler-accelerated inversion terms oscillate beyond tolerance."""
