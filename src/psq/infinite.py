"""Infinite-population processor-sharing reference solution.

The corner n, t = O(1) of the finite model converges to the classical
M/M/1-PS sojourn density, which this module computes three ways: the Laplace
transform p_hat_n(theta) in closed form, numerical Bromwich inversion with
Euler acceleration, and the large-t tail formulas for both traffic regimes.

The transform is assembled as a lattice Green's function from the two
solutions of the three-term recurrence

    rho u_{n+1} - (1 + rho + theta) u_n + (n/(n+1)) u_{n-1} = -1/(n+1).

The loop solution around the branch cut [z_-, z_+] is specfun.cut_integral
times the phase e^{pi i alpha_1} / (1 - e^{2 pi i alpha_1}) applied here at
the call site; it satisfies the n = 0 boundary row.  The decaying solution is
the segment integral over [0, z_-], which picks up exactly the inhomogeneous
boundary term.  The printed loop-integral form alone solves the homogeneous
recurrence (integrate the defining ODE for the kernel by parts), so both
solutions are needed; the finished resolvent is verified against a truncated
tridiagonal solve in the tests.

There is one transform path: transform_phat takes one theta or an array of
them and integrates the decaying-solution pair for all of them in a single
specfun.tanh_sinh call, and invert_density makes one transform_phat call for
the head term and the whole Bromwich ladder.

Accuracy note: the assembly balances factors z_-^(n+alpha) against
z_-^(-n), so double precision holds up to roughly n ~ 30 for |theta| ~ 1e5;
the package only needs single-digit n here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchCollision, InvalidInput, InversionUnstable
from .specfun import cut_integral, loop_series_Q_log, tanh_sinh
from .subcritical import LogDensityApprox
from .supercritical import algebraic_tail_constant

_BRANCH_TOL = 1e-10
_VIETA_TOL = 1e-12

# Abate-Whitt abscissa constant: discretization error ~ e^{-A}.
_AW_A = 18.4
_AW_BASE_BLOCKS = 38
_AW_EULER_BLOCKS = 13
_EULER_WEIGHTS = np.array(
    [math.comb(_AW_EULER_BLOCKS, j) for j in range(_AW_EULER_BLOCKS + 1)], dtype=float
)


# ---------------------------------------------------------------------------
# branch points of the transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformPoint:
    """Branch data of p_hat at one theta: roots z_-, z_+ and exponent alpha_1.

    z_-, z_+ solve rho z^2 - (1 + rho + theta) z + 1 = 0, labeled so that
    |z_-| < |z_+|; alpha_1 = z_+ / (z_+ - z_-).
    """

    theta: complex
    z_minus: complex
    z_plus: complex
    alpha1: complex

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.theta) and self.theta.real > 0.0):
            raise InvalidInput(f"theta must be finite with Re > 0, got {self.theta}")
        prod = self.z_minus * self.z_plus
        rho = 1.0 / prod
        sum_ref = (1.0 + rho + self.theta) * prod
        if abs(self.z_minus + self.z_plus - sum_ref) > _VIETA_TOL * abs(sum_ref):
            raise ValueError("z_- + z_+ violates the Vieta sum identity")
        alpha_ref = self.z_plus / (self.z_plus - self.z_minus)
        if abs(self.alpha1 - alpha_ref) > _VIETA_TOL * abs(alpha_ref):
            raise ValueError("alpha1 inconsistent with the branch points")

    @property
    def rho(self) -> complex:
        return 1.0 / (self.z_minus * self.z_plus)

    @classmethod
    def from_theta(cls, theta: complex, rho: float) -> TransformPoint:
        theta = complex(theta)
        if not (cmath.isfinite(theta) and theta.real > 0.0):
            raise InvalidInput(f"theta must be finite with Re > 0, got {theta}")
        b = 1.0 + rho + theta
        root = cmath.sqrt(b * b - 4.0 * rho)
        # larger-modulus root first, partner from the product z_- z_+ = 1/rho;
        # avoids the cancellation in (b - root) at large |theta|
        z_plus = (b + root if abs(b + root) >= abs(b - root) else b - root) / (
            2.0 * rho
        )
        z_minus = 1.0 / (rho * z_plus)
        if abs(z_plus - z_minus) < _BRANCH_TOL:
            raise BranchCollision(
                f"theta = {theta} sits at a branch point: |z_+ - z_-| < {_BRANCH_TOL}"
            )
        return cls(
            theta=theta,
            z_minus=z_minus,
            z_plus=z_plus,
            alpha1=z_plus / (z_plus - z_minus),
        )


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def _loop_phase(alpha: complex) -> complex:
    denom = 1.0 - cmath.exp(2j * math.pi * alpha)
    if denom == 0.0:
        raise BranchCollision(
            f"alpha_1 = {alpha} is an exact integer; loop representation degenerates"
        )
    return cmath.exp(1j * math.pi * alpha) / denom


def transform_phat(n: int, theta, rho: float):
    """Laplace transform of the infinite-population conditional density.

    Green-function assembly: with V_m the phase-carrying loop solution and
    h_tilde / T the decaying-solution integrals,

        p_hat_n = z_+^a z_-^(1-a) [h_tilde_n sum_{m<=n} rho^m V_m + V_n T_n] / V_0.

    The overall phase cancels between numerator and V_0, so real theta gives
    a real transform.  theta is one complex or a 1-D array of them, and the
    result is a complex or an array of the same length.

    Over [0, z_-], h_tilde_n = int z^n (z_+ - z)^(-a) (z_- - z)^(a-1) dz and
    T_n = int (rho z)^(n+1) (z_+ - z)^(-a) (z_- - z)^(a-1) / (1 - rho z) dz,
    the tail sum of the source series.  Both reduce to [0, 1] after
    z = z_- s; the principal branches never cross a cut there because
    Im(1 - (z_-/z_+) s) has one sign along the segment.  One tanh-sinh call
    integrates both for every theta, so the kernel
    (1 - x s)^(-a) (1 - s)^(a-1) is formed once per node.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise InvalidInput(f"n must be a nonnegative integer, got {n}")
    if not 0.0 < rho < math.inf:
        raise InvalidInput(f"rho must be positive and finite, got {rho}")
    thetas = np.asarray(theta, dtype=complex)
    if thetas.ndim > 1:
        raise InvalidInput(f"theta must be a scalar or 1-D, got shape {thetas.shape}")
    pts = [TransformPoint.from_theta(th, rho) for th in thetas.ravel().tolist()]
    alphas = np.array([pt.alpha1 for pt in pts])
    x = np.array([pt.z_minus / pt.z_plus for pt in pts])
    y = np.array([rho * pt.z_minus for pt in pts])

    def integrand(s: np.ndarray) -> np.ndarray:
        col = s[:, None]
        kernel = (1.0 - x * col) ** -alphas * np.exp((alphas - 1.0) * np.log1p(-col))
        base = col**n * kernel
        return np.concatenate((base, base * col / (1.0 - y * col)), axis=1)

    base, tail = np.split(
        tanh_sinh(integrand, 0.0, 1.0, rel_tol=1e-12, vectorized=True), 2
    )
    out = np.empty(len(pts), dtype=complex)
    for i, pt in enumerate(pts):
        a = pt.alpha1
        phase = _loop_phase(a)
        loop = [
            phase * cut_integral(m, a, pt.z_minus, pt.z_plus) for m in range(n + 1)
        ]
        pref = pt.z_minus**a * pt.z_plus**-a
        h_tilde = pref * pt.z_minus**n * base[i]
        t_n = pref * (rho * pt.z_minus) ** (n + 1) * tail[i]
        source = sum(rho**m * loop[m] for m in range(n + 1))
        scale = pt.z_plus**a * pt.z_minus ** (1.0 - a)
        out[i] = scale * (h_tilde * source + loop[n] * t_n) / loop[0]
    return complex(out[0]) if thetas.ndim == 0 else out


# ---------------------------------------------------------------------------
# Bromwich inversion
# ---------------------------------------------------------------------------


def invert_density(
    n: int,
    t: float,
    rho: float,
    step_scale: int = 1,
) -> float:
    """Conditional sojourn density p_n(t) of the infinite-population model.

    Bromwich discretization at abscissa a = 18.4/(2t) with grid spacing
    pi/(t*step_scale), Euler-accelerated over trailing partial-sum blocks.
    step_scale = 2 halves the step for the self-consistency check.
    """
    if not 0.0 < t < math.inf:
        raise InvalidInput(f"t must be positive and finite, got {t}")
    if step_scale not in (1, 2):
        raise InvalidInput(f"step_scale must be 1 or 2, got {step_scale}")
    a = _AW_A / (2.0 * t)
    h = math.pi / (t * step_scale)
    n_terms = (_AW_BASE_BLOCKS + _AW_EULER_BLOCKS) * step_scale
    ks = np.arange(n_terms + 1)
    # the head term at theta = a and the ladder in one transform call
    vals = transform_phat(n, a + 1j * h * ks, rho)
    terms = np.real(vals[1:] * np.exp(1j * (h * t) * ks[1:]))
    partial = 0.5 * vals[0].real + np.cumsum(terms)
    blocks = partial[step_scale - 1 :: step_scale]

    def euler_avg(start: int) -> float:
        window = blocks[start : start + _AW_EULER_BLOCKS + 1]
        return float(np.dot(_EULER_WEIGHTS, window)) / 2.0**_AW_EULER_BLOCKS

    est = euler_avg(_AW_BASE_BLOCKS - 1)
    shifted = euler_avg(_AW_BASE_BLOCKS - 2)
    osc = abs(est - shifted)
    term_scale = max(1.0, float(np.max(np.abs(terms))))
    if osc > 1e-5 * abs(est) and osc > 1e-12 * term_scale:
        raise InversionUnstable(
            f"Euler windows disagree by {osc:.3e} at (n={n}, t={t}, rho={rho})"
        )
    return h * math.exp(a * t) / math.pi * est


# ---------------------------------------------------------------------------
# tail asymptotics
# ---------------------------------------------------------------------------


def tail_asym_infinite(n: int, t: float, rho: float) -> LogDensityApprox:
    """Large-t corner tail; evaluate with .log_value(t) / .value(t).

    rho < 1: stretched-exponential decay with a t^(1/3) term in the exponent
    and algebraic prefactor t^(-5/6).  rho > 1: pure algebraic tail
    C t^(-alpha0), constant delegated to the overloaded-regime module.
    """
    if not t >= 10.0:
        raise InvalidInput(f"tail formula requires t >= 10, got {t}")
    if not 0.0 < rho < math.inf:
        raise InvalidInput(f"rho must be positive and finite, got {rho}")
    if rho >= 1.0:
        alpha0 = rho / (rho - 1.0)
        const = algebraic_tail_constant(n, rho)
        return LogDensityApprox(
            coeff_N=0.0, coeff_logN=-alpha0, coeff_O1=math.log(const)
        )
    sq = math.sqrt(rho)
    stretch = 3.0 * 2.0 ** (-2.0 / 3.0) * math.pi ** (2.0 / 3.0) * rho ** (1.0 / 6.0)
    # the pi^(5/6) factor is forced by the sigma -> 0 limit of the layer
    # density at fixed n and by the geometric mixture over n; see the
    # matching notes in tests covering the layer-to-tail handoff
    prefactor = (
        2.0 ** (2.0 / 3.0)
        * math.pi ** (5.0 / 6.0)
        / math.sqrt(3.0)
        * rho ** (-5.0 / 12.0)
        / (1.0 - sq)
        * math.exp(sq / (1.0 - sq))
    )
    return LogDensityApprox(
        coeff_N=-((1.0 - sq) ** 2),
        coeff_cbrt=-stretch,
        coeff_logN=-5.0 / 6.0,
        coeff_O1=math.log(prefactor)
        - 0.5 * n * math.log(rho)
        + loop_series_Q_log(n),
    )


def tail_truncation_time(n: int, rho: float, mass_bound: float) -> float:
    """Time beyond which the remaining tail mass is below mass_bound."""
    if not 0.0 < mass_bound < 1.0:
        raise InvalidInput(f"mass_bound must lie in (0, 1), got {mass_bound}")
    approx = tail_asym_infinite(n, 10.0, rho)
    if rho >= 1.0:
        alpha0 = rho / (rho - 1.0)
        const = math.exp(approx.coeff_O1)
        return (const / ((alpha0 - 1.0) * mass_bound)) ** (1.0 / (alpha0 - 1.0))
    decay = (1.0 - math.sqrt(rho)) ** 2
    t = 20.0
    for _ in range(200):
        remaining = approx.value(t) / decay
        if remaining < mass_bound:
            return t
        t *= 1.3
    raise ValueError("truncation search did not converge")
