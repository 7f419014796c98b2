"""Error taxonomy shared across the package.

Every domain-level failure raises a subclass of PSQError so callers can
distinguish numerical-contract violations from programming errors.  A few
subclasses are also ValueErrors (InvalidInput, NegativeDensity,
SearchExhausted), for callers that caught the ValueError those checks once
raised.

Where a quantity can leave double range (the exact densities, the rho > 1
corner-tail constant, the rho < 1 eigenvector entries), it is returned as
its log, with a sign where it can be negative, and no error stands for the
overflow of its plain value.
"""

from __future__ import annotations


class PSQError(Exception):
    """Base class for all domain errors raised by this package."""


# -- exact machinery ---------------------------------------------------------

class DegenerateSpectrum(PSQError):
    """Two eigenvalues are too close for the sorted spectrum to be trusted."""


class NegativeDensity(PSQError, ValueError):
    """A density came out negative beyond round-off: a tabulated trajectory
    (integrate_ode, spectral_trajectory) below -1e-12, or an oracle mode sum
    that is not positive (oracle_conditional_log).  The log-form mode sum
    conditional_density_exact_log reports a negative sum by its sign
    instead."""


class StepTooLarge(PSQError):
    """Explicit ODE step violates the stability bound step * nu_max <= 0.1."""


class UnsupportedN(PSQError):
    """Operation only defined for specific population sizes."""


class InvalidInput(PSQError, ValueError):
    """Argument outside a function's domain: model parameters with N < 2 or rho
    not positive and finite; for the exact evaluators a time that is NaN or
    negative, a state index that is not an integer in 0..N-1, or a generator
    whose dimension is not the population N; an ODE horizon that is not
    positive and finite, a state index outside the N = 2 / N = 3 closed
    forms, or oracle digits outside [15, 200]; for the infinite model a
    state that is not a nonnegative integer, a rho that is not positive and
    finite, a time that is not positive and finite (at least 10 for the tail
    formula), a transform argument that is not finite with a positive real
    part, an inversion step_scale other than 1 or 2, or a tail mass bound
    outside (0, 1); for the rho < 1 asymptotics a state index outside
    0..N-1, a negative time, a scaled coordinate (xi, tau, x, sigma, the
    scale of a log density) outside the formula's sign range, a Delta that
    is not finite, a negative mode index, or an unknown regime kind; for the
    rho > 1 asymptotics an xi outside (0, 1], a tau out of its sign range, a
    negative mode index, a state index outside 0..N-1, or a tail constant
    asked for at a state that is not a nonnegative integer or at a rho that
    is not finite; for the special
    functions a Hermite index outside [0, 200], a loop-series index outside
    [0, 500], a negative harmonic index, or a rho outside (0, 1) for the
    transition-layer integral."""


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
    """A layer root solve gave no root it can stand by: a Newton solve that
    the doubles leave unresolved or that meets a nan, a prefactor that
    degenerates at the root, D1's ladder with no rung past the root, or a
    D1 Brent root whose residual exceeds what its bracket's width allows."""


# -- the M/M/1-PS corner: transform, inversion, tail truncation ---------------

class TransformNotConverged(PSQError):
    """The transform's forward-elimination sweep did not bring its remainder
    bound below 2^-56 of its sum within infinite._SWEEP_MAX_ROWS rows past
    the state n.  For rho > 1 each row shrinks the bound by a factor that
    tends to 1 as Re theta -> 0 (rho = 2 at theta = 1e-6); a Bromwich ladder
    has Re theta >= 9.2 / t, and none for t <= 80 comes near the cap."""


class InversionUnstable(PSQError):
    """Euler-accelerated inversion terms oscillate beyond tolerance."""


class SearchExhausted(PSQError, ValueError):
    """The tail-truncation time search passed its last step without the
    remaining mass falling below the bound."""


class NoTruncationTime(PSQError):
    """The tail-truncation time is not a finite double: at rho = 1, where the
    corner tail is neither stretched-exponential nor algebraic, and for
    rho > 1 where C / ((alpha0 - 1) mass_bound) to the power rho - 1 leaves
    double range (rho = 100 at mass_bound = 1e-6)."""
