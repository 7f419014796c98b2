"""Large-population asymptotics for the underloaded regime (rho < 1).

The conditional density for rho < 1 splits the (xi, tau) quadrant with two
critical curves into regions R1/R2/R3, joined by transition layers T1 and T2,
plus a family of boundary layers near n = O(sqrt(N)) where the answer lives
on sigma = t / N^(3/4) or tau time scales.  Everything here is exponentially
small in some power of N, so densities move around in log form.

This module also houses the rho < 1 eigenvalue, eigenvector, and spectral
coefficient expansions.  Region R1 itself delegates to the supercritical
module's (xi, tau) expansion, which stays valid below saturation for small
enough tau.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import LogDensityApprox, check_index, check_real
from .errors import (
    BracketFailure,
    CurveSingularity,
    IndexTooLarge,
    InvalidInput,
    MaxDepthExceeded,
    NotSubcritical,
    OutOfRegion,
    RootNotBracketed,
    ScaleGap,
)
from .exact import ModelParams
from .specfun import (
    BRENT_RTOL,
    BRENT_XTOL,
    EllipticPair,
    agm,
    carlson_rf_rd,
    elliptic_KE,
    find_root_bracketed,
    find_root_newton,
    hermite_He,
    loop_series_Q_log,
    parabolic_cylinder_H,
    # not used in this module; kept importable from it because perfbench's
    # tracer test calls subcritical.quad_to_infinity
    quad_to_infinity,  # noqa: F401
    tanh_sinh,
)
from .supercritical import XiTauPoint

# the D1/D2 Brent solve meets |f| <= 1e-10; the layer equations'
# quadratures run one decade tighter so the bracket logic never sees
# quadrature noise
_ROOT_RESIDUAL_TOL = 1e-10
_EQ_QUAD_TOL = 1e-11
_EVAL_QUAD_TOL = 1e-12
_CURVE_GUARD = 1e-8
# a D1 rung whose closed-form P (`_d1_sigma_lhs`, within 1e-10 relative of
# the quadrature) exceeds the target by this much relative is not negative,
# whether its quadrature would converge or give up
_CLOSED_FORM_MARGIN = 1e-6


def _require_subcritical(rho: float) -> None:
    if not 0.0 < rho < 1.0:
        raise NotSubcritical(f"rho = {rho} is not subcritical")


def _big_r(xi: float, rho: float) -> float:
    # R = sqrt(rho^2 xi^2 + 4 rho xi (1 - sqrt(rho))), the recurring radical
    return math.sqrt(rho * xi * (rho * xi + 4.0 * (1.0 - math.sqrt(rho))))


# ---------------------------------------------------------------------------
# critical curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalCurves:
    """The two curves splitting the (xi, tau) quadrant for rho < 1.

    tau0/xi0 and tau_star/xi_star are exact inverse pairs.  Below tau0 the
    density is algebraically small (R1); between the curves a saddle point
    controls it (R2); above tau_star the slowest decay mode dominates (R3).
    Where e^(rho tau) leaves the float range, xi0 and xi_star are inf: both
    curves then lie beyond every xi.
    """

    rho: float

    def tau0(self, xi: float) -> float:
        check_real("xi", xi, 0.0, math.inf, "[)")
        return math.log1p(self.rho * xi / (1.0 - self.rho)) / self.rho

    def tau_star(self, xi: float) -> float:
        check_real("xi", xi, 0.0, math.inf, "[)")
        c = 1.0 - math.sqrt(self.rho)
        lift = (self.rho * xi + _big_r(xi, self.rho)) / (2.0 * c)
        return math.log1p(lift) / self.rho

    def xi0(self, tau: float) -> float:
        check_real("tau", tau, 0.0, math.inf, "[)")
        try:
            growth = math.expm1(self.rho * tau)
        except OverflowError:
            return math.inf
        return (1.0 - self.rho) / self.rho * growth

    def xi_star(self, tau: float) -> float:
        check_real("tau", tau, 0.0, math.inf, "[)")
        c = 1.0 - math.sqrt(self.rho)
        try:
            s = math.sinh(0.5 * self.rho * tau)
        except OverflowError:
            return math.inf
        return 4.0 * c / self.rho * s * s


def critical_curves(rho: float) -> CriticalCurves:
    _require_subcritical(rho)
    return CriticalCurves(rho=rho)


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------

REGIME_KINDS = (
    "CornerO1",
    "R1",
    "T1",
    "R2",
    "T2",
    "R3",
    "BL_xsigma",
    "BL_nsigma",
    "BL_xtau",
    "BL_ntau",
)


# Thresholds steering which approximation a point (n, t) is sent to.  They
# are artifact constants, not model quantities: _N_CORNER and _T_CORNER bound
# the O(1) corner, _X_CUT ends the n = O(sqrt(N)) layers, _SIGMA_TIME_CUT (in
# units of N^(3/4)) splits the sigma from the tau time scale, and _T1_WIDTH /
# _T2_WIDTH are the half-widths of the T1/T2 bands in xi, in units of
# N^(-1/2) and N^(-1/4); _T2_DELTA_MAX bounds the T2 band in Delta too.
_N_CORNER = 8
_T_CORNER = 8.0
_X_CUT = 4.0
_SIGMA_TIME_CUT = 4.0
_T1_WIDTH = 1.0
_T2_WIDTH = 1.0
_T2_DELTA_MAX = 8.0


@dataclass(frozen=True)
class RegimeLabel:
    """Classification outcome: regime kind plus all four scaled coordinates.

    sub is the D1/D2/D3 sub-region for kind BL_xsigma and None otherwise.
    """

    kind: str
    xi: float
    tau: float
    x: float
    sigma: float
    sub: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in REGIME_KINDS:
            raise InvalidInput(f"unknown regime kind {self.kind!r}")


def classify(n: int, t: float, params: ModelParams) -> RegimeLabel:
    """Assign (n, t) to the regime whose expansion should be used.

    Precedence: corner, then the small-n boundary layers, then the T1/T2
    bands (T2's also |Delta| <= 8, where `t2_evaluate` holds, and only where
    that band lies at t > 0), then the bulk regions by position.
    """
    rho = params.rho
    _require_subcritical(rho)
    big_n = params.population
    check_index("n", n, 0, big_n - 1)
    check_real("t", t, 0.0, math.inf, "[)")
    sqrt_n = math.sqrt(big_n)
    xi = n / big_n
    tau = t / big_n
    x = n / sqrt_n
    sigma = t / big_n**0.75

    if n <= _N_CORNER and t <= _T_CORNER:
        return RegimeLabel("CornerO1", xi, tau, x, sigma)
    if n <= _X_CUT * sqrt_n:
        if t <= _SIGMA_TIME_CUT * big_n**0.75:
            if n <= _N_CORNER:
                return RegimeLabel("BL_nsigma", xi, tau, x, sigma)
            return RegimeLabel(
                "BL_xsigma", xi, tau, x, sigma, sub=_xsigma_region(x, sigma, rho)
            )
        if n <= _N_CORNER:
            return RegimeLabel("BL_ntau", xi, tau, x, sigma)
        return RegimeLabel("BL_xtau", xi, tau, x, sigma)

    curves = critical_curves(rho)
    xi_zero = curves.xi0(tau)
    xi_st = curves.xi_star(tau)
    if abs(xi - xi_zero) <= _T1_WIDTH / sqrt_n:
        return RegimeLabel("T1", xi, tau, x, sigma)
    if abs(xi - xi_st) <= _T2_WIDTH / big_n**0.25:
        t_star = big_n * curves.tau_star(xi)
        delta = (t - t_star) / big_n**0.75
        if abs(delta) <= _T2_DELTA_MAX and t_star > _T2_DELTA_MAX * big_n**0.75:
            return RegimeLabel("T2", xi, tau, x, sigma)
    if xi > xi_zero:
        return RegimeLabel("R1", xi, tau, x, sigma)
    if xi < xi_st:
        return RegimeLabel("R3", xi, tau, x, sigma)
    return RegimeLabel("R2", xi, tau, x, sigma)


# ---------------------------------------------------------------------------
# (x, sigma) separating curves
# ---------------------------------------------------------------------------


def d1d2_curve_sigma(x: float, rho: float) -> float:
    """Sigma on the D1/D2 boundary at abscissa x; +inf past the asymptote.

    Closed form of the layer equation at the degenerate coefficient
    B1 = -2 sqrt(1 - sqrt(rho)); the curve rises from (0, 0) and has the
    vertical asymptote x = (1 - sqrt(rho))^(-1/2).
    """
    _require_subcritical(rho)
    check_real("x", x, 0.0, math.inf, "()")
    c = 1.0 - math.sqrt(rho)
    q = c**0.25
    rx = math.sqrt(x)
    if q * rx >= 1.0:
        return math.inf
    lift = (math.log1p(q * rx) - math.log1p(-q * rx)) / q
    return (lift - 2.0 * rx) / (2.0 * math.sqrt(rho) * math.sqrt(c))


def d2d3_curve_sigma(x: float, rho: float) -> float:
    """Sigma on the D2/D3 boundary (the curve where eta_x changes sign).

    F(x) = 2 sqrt(rho) sigma, the layer equation at alpha = x, with the F of
    `_fixed_n_lhs` that `_solve_alpha` measures a point's gap to the curve
    by: its K - E at k = sqrt(1 - sqrt(rho)) x < 1 does not cancel at small k.
    """
    _require_subcritical(rho)
    c = 1.0 - math.sqrt(rho)
    check_real("x", x, 0.0, c**-0.5, "()")
    return _fixed_n_lhs(x, c)[0] / (2.0 * math.sqrt(rho))


def _xsigma_region(x: float, sigma: float, rho: float) -> str:
    c = 1.0 - math.sqrt(rho)
    if x >= c**-0.5:
        return "D1"
    if sigma < d1d2_curve_sigma(x, rho):
        return "D1"
    if sigma <= d2d3_curve_sigma(x, rho):
        return "D2"
    return "D3"


# ---------------------------------------------------------------------------
# region R2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class R2Terms:
    """Saddle data in R2: growth rate phi, algebraic order phi1, log K and
    the log of K's tau-free part K0.

    B parametrizes the saddle; it sweeps (0, 1 - sqrt(rho)) as the point
    moves from the first critical curve to the second.
    """

    B: float
    phi: float
    phi1: float
    log_K: float
    log_K0: float


def r2_root(xi: float, tau: float, rho: float) -> float:
    """Saddle parameter B(xi, tau).  Raises InvalidInput unless xi lies in
    (0, 1] and tau is a real below +inf, and OutOfRegion outside R2's
    closure: tau <= 0, xi below xi*(tau), or no real saddle."""
    _require_subcritical(rho)
    check_real("xi", xi, 0.0, 1.0, "(]")
    check_real("tau", tau, -math.inf, math.inf, "[)")
    if tau <= 0.0:
        raise OutOfRegion(f"R2 requires tau > 0, got {tau}")
    xi_st = critical_curves(rho).xi_star(tau)  # before e^(2 rho tau) overflows
    if xi < xi_st:
        raise OutOfRegion(f"xi={xi} < xi_star={xi_st:.6e}: past the second critical curve")
    e_rt = math.exp(rho * tau)
    em1 = math.expm1(rho * tau)
    lin = rho * xi * e_rt + 1.0 - e_rt * e_rt
    disc = lin * lin - 4.0 * e_rt * em1 * ((1.0 - rho) * em1 - rho * xi)
    if disc < 0.0:
        raise OutOfRegion(
            f"no real saddle at xi={xi}, tau={tau}: point lies outside R2"
        )
    return (e_rt * e_rt - 1.0 - rho * xi * e_rt - math.sqrt(disc)) / (2.0 * em1)


def r2_evaluate(
    pt: XiTauPoint, params: ModelParams
) -> tuple[R2Terms, LogDensityApprox]:
    """R2 density approximation exp(N phi) N^phi1 K at the given point."""
    rho = params.rho
    _require_subcritical(rho)
    xi, tau = pt.xi, pt.tau
    c = 1.0 - math.sqrt(rho)
    b = r2_root(xi, tau, rho)
    if not _CURVE_GUARD < b < c - _CURVE_GUARD:
        raise OutOfRegion(
            f"saddle parameter B={b:.3e} outside ({_CURVE_GUARD}, {c:.6f} - {_CURVE_GUARD})"
        )
    e_rt = math.exp(rho * tau)
    em1 = math.expm1(rho * tau)
    one_b = 1.0 - b
    g = one_b * one_b
    u = b * math.exp(-rho * tau)
    phi = (
        (1.0 - u) / rho * (1.0 + e_rt * (b + rho - 1.0) / one_b) * math.log1p(-u)
        - math.log(one_b)
        - b / rho * (-math.expm1(-rho * tau))
    )
    phi1 = -(3.0 * g - rho) / (2.0 * g - 2.0 * rho)
    # in logs: the powers grow as 1 / (g - rho) next to the second curve
    log_k0 = (
        math.log(one_b)
        - 0.5 * math.log(2.0 * math.pi)
        - phi1 * math.log(rho)
        + g / (rho - g) * math.log(b)
        + rho / (g - rho) * math.log(1.0 - rho / one_b)
        + (g + 2.0 * rho) / (rho - g) * math.log(one_b - rho / one_b)
        + math.lgamma(g / (g - rho))
    )
    log_k = (
        log_k0
        + 2.5 * rho * tau
        + rho / (g - rho) * math.log(b * b - b + e_rt * (1.0 - rho - b))
        - 0.5 * (math.log(g + rho * e_rt) + math.log(e_rt - b))
        + phi1 * math.log(em1)
    )
    terms = R2Terms(B=b, phi=phi, phi1=phi1, log_K=log_k, log_K0=log_k0)
    approx = LogDensityApprox(coeff_N=phi, coeff_logN=phi1, coeff_O1=log_k)
    return terms, approx


# ---------------------------------------------------------------------------
# region R3
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class R3Terms:
    """Slow-mode data in R3; psi terms are exactly affine in tau.

    F is the tau-free spatial exponent psi + (1-sqrt(rho))^2 tau
    + (xi/2) log(rho) shared with the T2 layer.
    """

    B0: float
    psi: float
    psi1: float
    psi2: float
    J: float
    L0: float
    F: float


def _psi_value(xi: float, tau: float, rho: float) -> float:
    sr = math.sqrt(rho)
    c = 1.0 - sr
    rr = _big_r(xi, rho)
    return (
        -c * c * tau
        + xi * math.log(2.0)
        + 0.5 * xi
        - rr / (2.0 * rho)
        - xi * math.log(2.0 * sr - rho * xi + rr)
        + (rho - 4.0 * sr + 2.0) / (2.0 * rho) * math.log((2.0 * c + rho * xi + rr) / (2.0 * c))
        + 0.5
        * math.log(
            ((rho - 2.0 * sr + 2.0) * xi + 2.0 * c + (2.0 - sr) * rr / sr) / (2.0 * c)
        )
    )


def r3_big_f(xi: float, rho: float) -> float:
    """Tau-free exponent F(xi); F(0) = 0 and F < 0 for xi > 0."""
    _require_subcritical(rho)
    check_real("xi", xi, 0.0, math.inf, "[)")
    if xi == 0.0:
        return 0.0
    return _psi_value(xi, 0.0, rho) + 0.5 * xi * math.log(rho)


def r3_j_factor(xi: float, rho: float) -> float:
    """Spatial constant J(xi) shared by R3 and T2."""
    _require_subcritical(rho)
    check_real("xi", xi, 0.0, math.inf, "()")
    sr = math.sqrt(rho)
    c = 1.0 - sr
    rr = _big_r(xi, rho)
    s = rho * xi + rr
    return (
        math.sqrt(2.0)
        * rho
        * c**-0.75
        * (2.0 * c + s) ** 2.5
        * (2.0 * sr * c + s) ** -0.5
        * s**-1.5
        * (4.0 * c + s) ** -0.5
        * math.exp((sr - 2.0) * rho * xi / (2.0 * c * rr))
    )


def r3_evaluate(
    pt: XiTauPoint, params: ModelParams
) -> tuple[R3Terms, LogDensityApprox]:
    """R3 density approximation at the given point; requires tau > tau_star."""
    rho = params.rho
    _require_subcritical(rho)
    xi, tau = pt.xi, pt.tau
    curves = critical_curves(rho)
    if tau <= curves.tau_star(xi) * (1.0 + _CURVE_GUARD):
        raise OutOfRegion(
            f"tau={tau} is not above tau_star({xi})={curves.tau_star(xi):.6f}"
        )
    sr = math.sqrt(rho)
    c = 1.0 - sr
    rr = _big_r(xi, rho)
    # lr is the tau-free log ratio log(B0 exp(-rho tau) / c)
    lr = math.log((2.0 * c + rho * xi - rr) / (2.0 * c))
    psi = _psi_value(xi, tau, rho)
    psi1 = -2.0 * sr * math.sqrt(c) * tau - 2.0 * math.sqrt(c) / sr * lr
    psi2 = (
        -sr * c**0.75 * tau
        - 8.0 / 3.0 * c**-0.25
        - c**0.75 / sr * lr
    )
    b0 = 0.5 * math.exp(rho * tau) * (2.0 * c + rho * xi - rr)
    slope = (22.0 * sr - 3.0 * rho - 15.0) / (16.0 * sr * c)
    l0 = 8.0 * c**-0.625 * math.exp(1.0 / c - 2.5 + slope * math.log(c / b0))
    jf = r3_j_factor(xi, rho)
    big_f = psi + c * c * tau + 0.5 * xi * math.log(rho)
    terms = R3Terms(B0=b0, psi=psi, psi1=psi1, psi2=psi2, J=jf, L0=l0, F=big_f)
    approx = LogDensityApprox(
        coeff_N=psi,
        coeff_sqrtN=psi1,
        coeff_N14=psi2,
        coeff_logN=-9.0 / 8.0,
        coeff_O1=math.log(l0 * jf),
    )
    return terms, approx


# ---------------------------------------------------------------------------
# transition T1
# ---------------------------------------------------------------------------


def t1_delta1(pt: XiTauPoint, params: ModelParams) -> float:
    """Stretched coordinate Delta1 measuring the distance to the first curve."""
    rho = params.rho
    _require_subcritical(rho)
    xi, tau = pt.xi, pt.tau
    xi_zero = critical_curves(rho).xi0(tau)
    spread = math.sqrt(xi) * math.sqrt(rho * rho * xi + 1.0 - rho * rho)
    return math.sqrt(params.population) * (xi - xi_zero) / spread


def t1_evaluate(pt: XiTauPoint, params: ModelParams) -> float:
    """Density in the T1 band around the first critical curve.

    Valid for Delta1 = O(1); the formula itself is evaluable for any Delta1
    and reproduces the neighbouring R1/R2 forms in the respective limits, so
    no hard window is enforced.
    """
    rho = params.rho
    _require_subcritical(rho)
    xi = pt.xi
    big_n = params.population
    power = (rho - 2.0) / (2.0 - 2.0 * rho)
    v_fac = (
        xi**power
        * (rho * rho * xi + 1.0 - rho * rho) ** (rho / (2.0 - 2.0 * rho))
        * (rho * xi + 1.0 - rho)
    )
    return big_n**power * v_fac * parabolic_cylinder_H(t1_delta1(pt, params), rho)


# ---------------------------------------------------------------------------
# transition T2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class T2State:
    """Layer solution at (xi, Delta): implicit coefficient a and factors.

    a solves the scale equation and decreases strictly in delta with
    infimum -2 sqrt(1 - sqrt(rho)); f is the N^(1/4) exponent, g0 the
    xi-free part of the prefactor, g the full prefactor.
    """

    delta: float
    a: float
    f: float
    g0: float
    g: float


def _t2_integrals(a_val: float, c: float) -> tuple[float, float, float]:
    """Gap, decay and prefactor integrals of the T2 layer at coefficient a.

    With Q(w) = (c w^2 + a) w^2 + 1 and s = 1/w^2, each is the complete
    elliptic integral F0(a, c) = int_0^inf s^(-1/2) (s^2 + a s + c)^(-1/2) ds
    = pi / M, M = AGM(x0, y0), x0 = sqrt((a + 2 sqrt(c)) / 4), y0 = c^(1/4),
    or part of its gradient:

        gap   = int_0^inf 2 (w^2 / sqrt(Q) - 1 / sqrt(c)) dw = 4 F0_a + 2 a F0_c
        decay = int_0^inf (4/3) Q^(-1/2) dw                 = (2/3) F0
        pref  = int_0^inf 2 w^4 Q^(-3/2) dw                  = -2 F0_c

    for every a > -2 sqrt(c), whether the roots of Q are real or complex.
    `agm`'s q gives M's gradient, x0 M_x = M (1/2 + q) and y0 M_y =
    M (1/2 - q), so gap = -F0 ((1/2 + q) / sqrt(c) + a (1/2 - q) / (2c)), in
    which the 1/x0 poles of 4 F0_a and 2 a F0_c have already cancelled, and
    pref = F0 ((1/2 + q) / (4 x0^2 sqrt(c)) + (1/2 - q) / (2c)).  At or
    below the floor a = -2 sqrt(c) all three are their limit, +inf.
    """
    rt_c = math.sqrt(c)
    x0_sq = (a_val + 2.0 * rt_c) / 4.0
    if not x0_sq > 0.0:
        return math.inf, math.inf, math.inf
    m, q = agm(math.sqrt(x0_sq), c**0.25)
    f0 = math.pi / m
    gap = -f0 * ((0.5 + q) / rt_c + a_val * (0.5 - q) / (2.0 * c))
    pref = f0 * ((0.5 + q) / (4.0 * x0_sq * rt_c) + (0.5 - q) / (2.0 * c))
    return gap, 2.0 * math.pi / (3.0 * m), pref


# the scaled T2 equation G(A) = tau, with A = a / sqrt(c), G = c^(3/4) gap
# and tau = c^(3/4) * 2 sqrt(rho) Delta, depends on no parameter: its seeds
# come from the expansions of G next to the floor A = -2 and for large A
_T2_FLOOR_CONSTANT = math.log(64.0) - 4.0


def _t2_seed_log_eps(tau: float) -> float:
    """log(A + 2) near the root of the scaled T2 equation G(A) = tau.

    Next to the floor, G = L - log(eps) + O(eps log eps) with eps = A + 2 and
    L = log 64 - 4; G = L - log(eps (1 + eps)) keeps within 0.013 of the root
    in log(eps) for tau >= -1.5.  For large A, G = -2 sqrt(A) - (log(4A) -
    3/2) / A^(3/2) + ..., and one step of that from A = tau^2 / 4 keeps
    within 0.05 for tau <= -3.  Both overstate the root from tau = -1 down,
    so the smaller is the better there: within 0.1 everywhere.
    """
    log_eps = math.inf
    if tau > -30.0:
        q = math.exp(_T2_FLOOR_CONSTANT - tau)
        # eps (1 + eps) = q, in a form that neither cancels nor underflows
        log_eps = (
            _T2_FLOOR_CONSTANT - tau + math.log(2.0 / (1.0 + math.sqrt(1.0 + 4.0 * q)))
        )
    if tau < -2.0:
        big = 0.25 * tau * tau
        big = (0.5 * (-tau - (math.log(4.0 * big) - 1.5) / big**1.5)) ** 2
        log_eps = min(log_eps, math.log(big + 2.0))
    return log_eps


def _t2_root(delta: float, rho: float) -> tuple[float, float, float]:
    """a(Delta) of the T2 layer equation with the decay and prefactor
    integrals of `_t2_integrals` at it; see `t2_solve_A`."""
    _require_subcritical(rho)
    check_real("Delta", delta, -math.inf, math.inf, "()")
    sr = math.sqrt(rho)
    c = 1.0 - sr
    rt_c = math.sqrt(c)
    floor = -2.0 * rt_c
    target = 2.0 * sr * delta
    tau = c**0.75 * target

    def fdf(a_val: float) -> tuple[float, float, float, float]:
        # d gap / d a = -pref / 2: differentiate under the integral
        gap, decay, pref = _t2_integrals(a_val, c)
        return gap - target, -0.5 * pref, decay, pref

    # the gap is +inf at the floor and falls to -inf, nearly linearly in
    # log(a - floor) next to it; the ends are the first double above the
    # floor and a point past every representable root
    a_val, (_, _, decay, pref) = find_root_newton(
        fdf,
        floor + rt_c * math.exp(_t2_seed_log_eps(tau)),
        math.nextafter(floor, math.inf),
        floor + 2.0**1000,
        floor=floor,
        rising=False,
    )
    return a_val, decay, pref


def t2_solve_A(delta: float, rho: float) -> float:
    """Coefficient a(Delta) of the T2 layer equation, by safeguarded Newton.

    The left side, the closed-form gap of `_t2_integrals` (no quadrature),
    decreases from +inf (as a drops to -2 sqrt(1-sqrt(rho))) to -inf, and
    it is nearly linear in log(a - floor) next to the floor, so Newton steps
    in that log, from the seed of `_t2_seed_log_eps`, with the derivative
    -pref/2 that the same AGM gives: 2-5 evaluations, mostly 3 or 4, for
    Delta in [-15, 18] and rho in [0.05, 0.95].  The reach in Delta has one
    edge: at large Delta the root sits so close to the floor that the
    doubles there no longer resolve log(a - floor) to 2^-26, and
    BracketFailure is raised from Delta of about 30 at rho = 0.25 and 46.6
    at rho = 0.75 on.
    """
    return _t2_root(delta, rho)[0]


def t2_evaluate(
    xi: float, delta: float, params: ModelParams
) -> tuple[T2State, LogDensityApprox]:
    """T2 layer density at spatial xi and stretched time Delta.

    No quadrature: a comes from the Newton solve of `t2_solve_A`, whose
    evaluation of `_t2_integrals` at the root also gives the decay and
    prefactor integrals.  OutOfRegion is raised outside |Delta| <= 8, the
    band `classify` gives T2, where the R2/R3 forms take over and from
    Delta of about -15 (at rho = 0.25) the prefactor underflows.
    """
    rho = params.rho
    _require_subcritical(rho)
    check_real("xi", xi, 0.0, math.inf, "()")
    if abs(delta) > _T2_DELTA_MAX:
        raise OutOfRegion(f"Delta={delta} is outside the T2 band |Delta| <= {_T2_DELTA_MAX}")
    sr = math.sqrt(rho)
    c = 1.0 - sr
    a_val, decay, i3 = _t2_root(delta, rho)
    f_val = sr * a_val * delta / 3.0 - decay
    g0 = math.sqrt(2.0) * c**-1.25 * math.exp((1.0 + sr) / (2.0 * c)) * i3**-0.5
    small_r = math.sqrt(rho * xi * xi + 4.0 * xi * c)
    g_val = (
        g0
        * r3_j_factor(xi, rho)
        * math.exp(
            -(2.0 * c + sr * xi) / (4.0 * c * c * small_r) * (a_val * a_val - 4.0 * c)
        )
    )
    tau_st = critical_curves(rho).tau_star(xi)
    state = T2State(delta=delta, a=a_val, f=f_val, g0=g0, g=g_val)
    approx = LogDensityApprox(
        coeff_N=r3_big_f(xi, rho) - c * c * tau_st - 0.5 * xi * math.log(rho),
        coeff_N34=-c * c * delta,
        coeff_N14=f_val,
        coeff_logN=-9.0 / 8.0,
        coeff_O1=math.log(g_val),
    )
    return state, approx


# ---------------------------------------------------------------------------
# boundary layers on the sigma = t / N^(3/4) time scale
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XsigmaSolution:
    """Layer solution at (x, sigma): coefficient b1, roots, and factors.

    alpha/beta are the roots of the layer quadratic (NaN in D1, complex or
    negative there); gamma0 is the elliptic correction entering only in D3.
    """

    x: float
    sigma: float
    b1: float
    region: str
    alpha: float
    beta: float
    eta: float
    gamma: float
    gamma0: float


def _split_quad(h, upper_w: float, c: float, rel_tol: float) -> float:
    # integral of the array integrand h over (0, upper_w); the layer
    # quadratic is flattest at w = c^(-1/4), and splitting there turns a
    # possible mid-panel spike into two endpoint features.  The inner panel
    # (0, c^(-1/4)) depends on h's b1 and c alone, never on upper_w, which
    # _bl_sigma_lhs uses to share it between solves
    w_mid = c**-0.25
    knots = (0.0, w_mid, upper_w) if upper_w > w_mid else (0.0, upper_w)
    return sum(
        tanh_sinh(h, knots[i], knots[i + 1], rel_tol, vectorized=True)
        for i in range(len(knots) - 1)
    )


def _sigma_integrand(b1: float, c: float):
    # [c v + 1/v + b1]^(-1/2) dv with v = w^2, as an array integrand in w
    def h(w: np.ndarray) -> np.ndarray:
        q = (c * w * w + b1) * w * w + 1.0
        return 2.0 * w * w / np.sqrt(q)

    return h


# distinct (b1, c) inner panels kept.  Only the left-end walk of a
# D1 solve at x > v* asks for them: 6-7 b1 values a rho (all but the last
# give up at max_depth), the same for every solve at that rho, so the memo
# holds the walks of 36 or more rho values and no solve's own b1 values.
# This memo keeps values; the panel's nodes, shared by every b1 at one rho,
# are kept by tanh_sinh's own memo of node batches
_INNER_PANEL_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_INNER_PANEL_MEMO_SIZE)
def _sigma_inner_panel(b1: float, c: float) -> float | MaxDepthExceeded:
    # the panel (0, c^(-1/4)) of _bl_sigma_lhs, or the MaxDepthExceeded it
    # gave up with (created afresh, so no traceback or frame is kept); any
    # other error is not an outcome and propagates uncached
    try:
        h = _sigma_integrand(b1, c)
        return tanh_sinh(h, 0.0, c**-0.25, _EQ_QUAD_TOL, vectorized=True)
    except MaxDepthExceeded as err:
        return MaxDepthExceeded(*err.args)


def _bl_sigma_lhs(x: float, b1: float, c: float, shared: bool = False) -> float:
    # integral of [c v + 1/v + b1]^(-1/2) over (0, x), via v = w^2, at the
    # layer equation's tolerance.  Past the knot the inner panel is a pure
    # function of (b1, c); with
    # shared set it comes from _sigma_inner_panel's memo, which returns the
    # bits (or the failure) of the same quadrature run afresh, and adding
    # 0 + inner + outer is the order _split_quad's sum() takes
    upper_w = math.sqrt(x)
    w_mid = c**-0.25
    h = _sigma_integrand(b1, c)
    if not shared or upper_w <= w_mid:
        return _split_quad(h, upper_w, c, _EQ_QUAD_TOL)
    inner = _sigma_inner_panel(b1, c)
    if isinstance(inner, MaxDepthExceeded):
        raise MaxDepthExceeded(*inner.args)
    return 0 + inner + tanh_sinh(h, w_mid, upper_w, _EQ_QUAD_TOL, vectorized=True)


def _bl_eta_integral(upper: float, b1: float, c: float) -> float:
    # integral of sqrt(c v + 1/v + b1) over (0, upper), via v = w^2
    def h(w: np.ndarray) -> np.ndarray:
        q = (c * w * w + b1) * w * w + 1.0
        return 2.0 * np.sqrt(q)

    return _split_quad(h, math.sqrt(upper), c, _EVAL_QUAD_TOL)


def _d1_carlson(x: float, b1: float, c: float) -> tuple[float, float, float]:
    """carlson_rf_rd(1 - w x, 1 - w' x, 1), where q(v) = c v^2 + b1 v + 1 =
    (1 - w v)(1 - w' v): a conjugate pair 1 + b1 x / 2 -+ i (x/2)
    sqrt(4c - b1^2) where b1^2 < 4c, else real, from the root w = -(b1 +
    sign(b1) sqrt(b1^2 - 4c)) / 2 that does not cancel and w' = c / w.  By
    v = x / (t + 1) the D1 integrals over (0, x) are
    P = int sqrt(v / q) dv = (2/3) x^(3/2) R_D and Gamma = x^(5/2) J."""
    disc = 4.0 * c - b1 * b1
    if disc > 0.0:
        a = complex(1.0 + 0.5 * b1 * x, 0.5 * x * math.sqrt(disc))
        b = a.conjugate()
    else:
        w = -0.5 * (b1 + math.copysign(math.sqrt(-disc), b1))
        a, b = 1.0 - w * x, 1.0 - c / w * x
    return carlson_rf_rd(a, b, 1.0)


def _d1_gamma_integral(x: float, b1: float, c: float) -> float:
    """Gamma = int (v / q)^(3/2) dv over (0, x) = x^(5/2) J (`_d1_carlson`)."""
    return x * x * math.sqrt(x) * _d1_carlson(x, b1, c)[2]


def _d1_sigma_lhs(x: float, b1: float, c: float) -> float:
    """P = _bl_sigma_lhs(x, b1, c) in closed form, (2/3) x^(3/2) R_D
    (`_d1_carlson`): within 1e-10 relative of the quadrature from 1e-6
    relative above the floor up, and losing up to 2e-9 nearer it."""
    return 2.0 / 3.0 * x * math.sqrt(x) * _d1_carlson(x, b1, c)[1]


def _gamma_prefactor(x: float, q_over_v: float, rho: float, c: float) -> float:
    # q_over_v = c x + 1/x + b1, the layer quadratic over v at v = x
    return (
        math.sqrt(2.0)
        / c
        * math.exp((1.0 + math.sqrt(rho)) / (2.0 * c))
        * math.exp(0.25 * x * x)
        / math.sqrt(x)
        * q_over_v**-0.25
    )


def _bl_eta_closed_form(alpha: float, c: float, pair: EllipticPair) -> float:
    """The integral of sqrt(c v + 1/v + b1) over (0, alpha) at the layer
    root, b1 = -(c alpha + 1/alpha), from `pair` = elliptic_KE(sqrt(c) alpha).

    With beta = 1/(c alpha) the integrand is sqrt(c (alpha - v)(beta - v) / v),
    and the integral is 2 sqrt(alpha) / (3 k^2) ((1 + k^2) E - (1 - k^2) K)
    at k^2 = c alpha^2.  That difference cancels at small k; with
    E = K (1 - k^2 (1/2 + q)), q the pair's tail_ratio, it is
    K k^2 (3/2 - k^2/2 - (1 + k^2) q), whose terms do not.
    """
    k2 = c * alpha * alpha
    bracket = 0.5 - k2 / 6.0 - (1.0 + k2) * pair.tail_ratio / 3.0
    return 2.0 * math.sqrt(alpha) * pair.K * bracket


def _fixed_n_lhs(alpha: float, c: float) -> tuple[float, float, EllipticPair]:
    """F(alpha), the integral of [c v + 1/v + b1]^(-1/2) over (0, alpha) at
    the layer root, b1 = -(c alpha + 1/alpha), with dF/dalpha and the
    elliptic_KE(sqrt(c) alpha) they come from.

    With beta = 1/(c alpha) and k = sqrt(c) alpha, F = 2 sqrt(beta / c)
    (K - E), and with K - E = K k^2 (1/2 + q), q the pair's tail_ratio,
    that is 2 K (1/2 + q) alpha^(3/2); d(K - E)/dk = k E / (1 - k^2) makes
    its derivative sqrt(alpha) (2E / (1 - k^2) - K (1/2 + q)): nothing
    cancels at small k.  It is the left side of the fixed-n layer equation
    and the complete part of the D3 one.
    """
    k = math.sqrt(c) * alpha
    pair = elliptic_KE(k)
    k_minus_e_per_k2 = pair.K * (0.5 + pair.tail_ratio)
    root_alpha = math.sqrt(alpha)
    lhs = 2.0 * k_minus_e_per_k2 * alpha * root_alpha
    slope = root_alpha * (2.0 * pair.E / ((1.0 - k) * (1.0 + k)) - k_minus_e_per_k2)
    return lhs, slope, pair


def _real_root_integrals(x: float, delta: float, c: float) -> tuple[float, float, float, float]:
    """P, Gamma, eta(x) and q(x)/x in closed form where q(v) = c v^2 + b1 v + 1
    has the real roots alpha = x + delta and beta = 1/(c alpha): with a =
    delta/alpha, b = 1 - c alpha x, v = x / (t + 1) makes the integrals over
    (0, x) of q = (1 - v/alpha)(1 - v/beta)

        P     = int sqrt(v / q) dv    = (2/3) x^(3/2) R_D(a, b, 1)
        I0    = int (v q)^(-1/2) dv   = 2 sqrt(x) R_F(a, b, 1)
        Gamma = int (v / q)^(3/2) dv  = x^(5/2) J(a, b; 1)
        eta   = int sqrt(q / v) dv    = (2 I0 + b1 P + 2 sqrt(x q(x))) / 3,

    eta by parts, all from one `carlson_rf_rd`.  Neither a nor b = (1 - k^2)
    + c alpha delta cancels, and J keeps its accuracy where alpha meets beta.
    """
    alpha = x + delta
    k = math.sqrt(c) * alpha
    a = delta / alpha
    b = (1.0 - k) * (1.0 + k) + c * alpha * delta
    rf, rd, rj = carlson_rf_rd(a, b, 1.0)
    root_x = math.sqrt(x)
    p = 2.0 / 3.0 * x * root_x * rd
    b1 = -(c * alpha + 1.0 / alpha)
    eta = (4.0 * root_x * rf + b1 * p + 2.0 * root_x * math.sqrt(a * b)) / 3.0
    return p, x * x * root_x * rj, eta, a * b / x


def _solve_alpha(
    x: float, sigma: float, rho: float, c: float, region: str
) -> tuple[float, tuple[float, float, float, float], EllipticPair | None]:
    """The root alpha in (x, v*] of the D2 layer equation P = 2 sqrt(rho)
    sigma or the D3 one 2F - P = 2 sqrt(rho) sigma, F = `_fixed_n_lhs`, with
    the `_real_root_integrals` at it and, in D3, its elliptic_KE pair.

    Newton steps in log(delta), delta = alpha - x, with dP/dalpha = -Gamma
    (1 - k^2) / (2 alpha^2), from where both sides, F(x) -+ 2 x sqrt(delta /
    (1 - c x^2)) next to the D2/D3 curve, meet the target.  P is flat at v*,
    the D1/D2 curve, so D2 solves sqrt(P - P(v*)) = sqrt(target - P(v*)),
    seeded from P - P(v*) = c^(3/2) Gamma(v*) (v* - alpha)^2 / 2 where that is
    nearer v*.  At most 12 Newton evaluations.  sigma within 4 ulps of the
    D1/D2 curve gives v* itself; within about 5e-10 relative of the D2/D3
    curve, where its rounding no longer fixes the root, and up to a few 1e-9
    where the doubles do not resolve delta, CurveSingularity is raised.
    """
    target = 2.0 * math.sqrt(rho) * sigma
    rt_c = math.sqrt(c)
    span = c**-0.5 - x

    unresolved = f"x={x}, sigma={sigma} is too close to the D2/D3 curve to resolve its root"
    gap = 0.5 * abs(target - _fixed_n_lhs(x, c)[0])
    if gap < 2.0**20 * math.ulp(target):
        raise CurveSingularity(unresolved)
    seed = min(gap * gap * (1.0 - c * x * x) / (x * x), 0.5 * span)
    hi = c**-0.5 * (1.0 - 2.0**-50) - x  # D3's elliptic_KE needs k < 1
    if region == "D2":
        top = _real_root_integrals(x, span, c)  # at the double root v*
        rise = target - top[0]
        if rise <= 4.0 * math.ulp(target):
            return c**-0.5, top, None
        root_rise = math.sqrt(rise)
        seed = max(seed, span - root_rise / math.sqrt(0.5 * c * rt_c * top[1]))
        hi = span

    def fdf(delta: float) -> tuple:
        integrals = _real_root_integrals(x, delta, c)
        p, gamma_int = integrals[:2]
        alpha = x + delta
        k = rt_c * alpha
        slope = -0.5 * gamma_int * (1.0 - k) * (1.0 + k) / (alpha * alpha)
        if region == "D2":
            lift = math.sqrt(max(p - top[0], 0.0))
            slope = slope / (2.0 * lift) if lift else math.nan
            return lift - root_rise, slope, integrals, None
        full, full_slope, pair = _fixed_n_lhs(alpha, c)
        return 2.0 * full - p - target, 2.0 * full_slope - slope, integrals, pair

    try:
        delta, (_, _, integrals, pair) = find_root_newton(
            fdf, seed, math.nextafter(0.0, 1.0), hi, floor=0.0, rising=region == "D3"
        )
    except BracketFailure as err:
        raise CurveSingularity(unresolved) from err
    return x + delta, integrals, pair


def _solve_b1_direct(x: float, sigma: float, rho: float, c: float) -> float:
    """b1 of the D1 layer equation, decreasing in b1 on (floor, inf), by Brent
    over quadrature (D2 and D3 are solved by `_solve_alpha`).  For x >= v*
    the floor and the left-end walk's b1 values depend on rho alone, so the
    walk takes its inner panels (0, c^(-1/4)) from _bl_sigma_lhs's shared
    memo, with the bits a fresh quadrature gives; the rungs' and Brent's b1
    values integrate both panels afresh, leaving the memo to the walks.

    The upper end is the first negative rung of a walk up the ladder floor +
    span 2^k (k < 200), found in one pass.  q(v) / v >= b1 - floor on (0, x),
    so P <= x / sqrt(b1 - floor), and the pass starts at the first rung where
    that bound is below the target.  It steps down while the closed-form P
    (`_d1_sigma_lhs`) of the rung below is under 1 + 1e-6 times the target: a
    rung above that margin is not negative, the decision its quadrature makes
    whether it converges or gives up.  It then steps up while the quadrature
    is not negative, so Brent gets the walk's bracket and end values, with a
    quadrature only at the rungs the climb visits.  No negative rung raises
    BracketFailure.

    Brent stops once its sign bracket is narrower than 1e-14 + 8.9e-16 |b1|,
    about 45 ulps of b1 near |b1| = 1.  Where P is steep, next to the D1/D2
    curve as x nears v*, that width moves P by more than the absolute 1e-10,
    so the root is also accepted where its residual is within what the width
    allows, the width times |dP/db1| = Gamma/2 (`_d1_gamma_integral`).
    """
    target = 2.0 * math.sqrt(rho) * sigma
    vstar = c**-0.5
    floor = -2.0 * math.sqrt(c) if x >= vstar else -(c * x + 1.0 / x)
    walking = True

    @functools.cache  # one memo for the bracket search and the root solve
    def g(b1: float) -> float:
        try:
            return _bl_sigma_lhs(x, b1, c, walking) - target
        except MaxDepthExceeded:
            return math.inf

    span = max(1.0, abs(floor))
    lo = floor + 1e-12 * span
    g_lo = g(lo)
    for _ in range(60):
        if math.isfinite(g_lo):
            break
        lo = floor + (lo - floor) * 4.0
        g_lo = g(lo)
    if not math.isfinite(g_lo) or g_lo <= 0.0:
        raise RootNotBracketed(
            f"layer equation has no solution on this branch at x={x}, sigma={sigma}"
        )
    walking = False
    # upper end: at small sigma the root is 1e8-1e10, the 30th-40th rung
    count = 200
    k = bisect_left(
        range(count - 1), True, key=lambda j: x < target * math.sqrt(span * 2.0**j)
    )
    rungs = [floor + span]
    while len(rungs) <= k:
        rungs.append(floor + (rungs[-1] - floor) * 2.0)
    least = (1.0 + _CLOSED_FORM_MARGIN) * target
    while k > 0 and _d1_sigma_lhs(x, rungs[k - 1], c) < least:
        k -= 1
    while not g(rungs[k]) < 0.0:
        k += 1
        if k == count:
            raise BracketFailure(f"upper bracket end not found at x={x}, sigma={sigma}")
        if k == len(rungs):
            rungs.append(floor + (rungs[-1] - floor) * 2.0)
    root = find_root_bracketed(g, lo, rungs[k])
    residual = abs(g(root))  # read from the memo
    if residual > _ROOT_RESIDUAL_TOL:
        width = BRENT_XTOL + BRENT_RTOL * abs(root)
        allowed = 0.5 * width * _d1_gamma_integral(x, root, c)
        if not residual <= allowed:
            raise BracketFailure(
                f"root at {root} leaves |f| = {residual:.3e} > tol = "
                f"{_ROOT_RESIDUAL_TOL:.3e} and > {allowed:.3e}, what Brent's width allows"
            )
    return root


def bl_xsigma_evaluate(
    x: float, sigma: float, params: ModelParams
) -> tuple[XsigmaSolution, LogDensityApprox]:
    """Boundary-layer density at n = x sqrt(N), t = sigma N^(3/4).

    Splits into sub-regions D1/D2/D3 by the separating curves; raises
    CurveSingularity within 1e-6 of the shared vertical asymptote
    x = (1 - sqrt(rho))^(-1/2), where the region decision degenerates, and
    in D2/D3 within a few 1e-9 relative of the D2/D3 curve, where the
    doubles no longer resolve the root.  D2 and D3 are solved by Newton on
    the Carlson forms of `_solve_alpha`, with no quadrature; D1 keeps Brent
    over quadrature for P and eta only, its Gamma a Carlson form too, and
    P's Carlson form only decides where the pass for the upper bracket end
    starts climbing (`_solve_b1_direct`).
    """
    rho = params.rho
    _require_subcritical(rho)
    check_real("x", x, 0.0, math.inf, "()")
    check_real("sigma", sigma, 0.0, math.inf, "()")
    sr = math.sqrt(rho)
    c = 1.0 - sr
    vstar = c**-0.5
    if abs(x - vstar) < 1e-6:
        raise CurveSingularity(
            f"x={x} is within 1e-6 of the separating ray {vstar:.8f}"
        )
    region = _xsigma_region(x, sigma, rho)
    gamma0 = 0.0
    if region == "D1":
        b1 = _solve_b1_direct(x, sigma, rho, c)
        alpha = beta = math.nan
        eta = b1 * sr * sigma - _bl_eta_integral(x, b1, c)
        gamma = (
            _gamma_prefactor(x, c * x + 1.0 / x + b1, rho, c)
            * _d1_gamma_integral(x, b1, c) ** -0.5
        )
    else:
        alpha, (_, gamma_int, eta_x, q_over_x), pair = _solve_alpha(
            x, sigma, rho, c, region
        )
        beta = 1.0 / (c * alpha)
        b1 = -(c * alpha + 1.0 / alpha)
        if region == "D2":
            eta = b1 * sr * sigma - eta_x
        else:
            k = math.sqrt(c) * alpha
            eta_alpha = _bl_eta_closed_form(alpha, c, pair)
            eta = b1 * sr * sigma + eta_x - 2.0 * eta_alpha
            # the elliptic correction -2 sqrt(2) sqrt(-b1 + d) (d K + b1 E) / (c d^2),
            # d = sqrt(b1^2 - 4c) = (1 - k^2) / alpha, is 6 alpha^2 eta_alpha / (1 - k^2)^2:
            # its sum d K + b1 E = -3 k^2 eta_alpha / (2 alpha^(3/2)) cancels at
            # small k, and d itself next to v*, where eta_alpha does neither
            gamma0 = 6.0 * eta_alpha * (alpha / ((1.0 - k) * (1.0 + k))) ** 2
        gamma = _gamma_prefactor(x, q_over_x, rho, c) * (gamma_int + gamma0) ** -0.5
    sol = XsigmaSolution(
        x=x,
        sigma=sigma,
        b1=b1,
        region=region,
        alpha=alpha,
        beta=beta,
        eta=eta,
        gamma=gamma,
        gamma0=gamma0,
    )
    approx = LogDensityApprox(
        coeff_N=0.0,
        coeff_sqrtN=-0.5 * x * math.log(rho),
        coeff_N34=-c * c * sigma,
        coeff_N14=eta,
        coeff_logN=-0.75,
        coeff_O1=math.log(gamma),
    )
    return sol, approx


def _bl_nsigma_seed_modulus(s: float) -> float:
    """The modulus k near the root of (K(k) - E(k)) / sqrt(k) = s.

    For small k, K - E = (pi/4) k^2 (1 + 3k^2/8 + 15k^4/64 + ...), and two
    fixed-point steps from k = (4s/pi)^(2/3) keep within 0.023 of the root
    in log k up to s = 0.55.  Next to k = 1 the left side is
    log(4/k') - 1 - k'^2/4 + ..., k' = sqrt(1 - k^2), and one fixed-point
    step keeps within 0.03 from s = 0.55 up.  Both overstate the root, so
    Newton on the convex left side closes in from above.
    """
    if s <= 0.55:
        k_lead = (4.0 * s / math.pi) ** (2.0 / 3.0)
        k = k_lead
        for _ in range(2):
            k2 = k * k
            k = k_lead * (1.0 + k2 * (0.375 + 0.234375 * k2)) ** (-2.0 / 3.0)
        return k
    kp = 4.0 * math.exp(-1.0 - s)
    kp *= math.exp(-0.25 * kp * kp)
    return math.sqrt((1.0 - kp) * (1.0 + kp))


def bl_nsigma_evaluate(n: int, sigma: float, params: ModelParams) -> LogDensityApprox:
    """Boundary-layer density at fixed n and t = sigma N^(3/4).

    The layer root alpha solves a closed elliptic equation,
    2 sqrt(beta / c) (K(k) - E(k)) = sqrt(rho) sigma with beta = 1/(c alpha)
    and k = sqrt(c) alpha, which depends on sigma alone through
    s = sqrt(rho) sigma c^(3/4) / 2 = (K - E) / sqrt(k).  Newton steps in
    log alpha from the seed of `_bl_nsigma_seed_modulus`, with
    d(K - E)/dk = k E / (1 - k^2), and the eta integral is the closed form
    of the same AGM, so no quadrature is run.

    Raises RootNotBracketed when sigma is too large for the bracket
    (0, vstar (1 - 1e-12)), from sigma of 93.5 at rho = 0.25 and 144.5 at
    rho = 0.75 up to sigma = +inf.  Every sigma below that is solved:
    however close the root comes to vstar, the doubles there resolve log
    alpha.  BracketFailure is raised below sigma of about 1e-194, where the
    prefactor underflows.
    """
    rho = params.rho
    _require_subcritical(rho)
    check_index("n", n, 0, params.population - 1)
    check_real("sigma", sigma, 0.0, math.inf, "(]")
    sr = math.sqrt(rho)
    c = 1.0 - sr
    rt_c = math.sqrt(c)
    vstar = c**-0.5
    target = sr * sigma

    def fdf(alpha: float) -> tuple[float, float, EllipticPair]:
        lhs, slope, pair = _fixed_n_lhs(alpha, c)
        return lhs - target, slope, pair

    # the left side rises from 0 at alpha = 0 to +inf at vstar, as a function
    # of s alone; past s = 5 the root may lie above the bracket's upper end,
    # where s is 13.86, and the value there decides whether it does
    s = 0.5 * target * c**0.75
    hi = vstar * (1.0 - 1e-12)
    if s > 5.0 and fdf(hi)[0] < 0.0:
        raise RootNotBracketed(f"layer equation not bracketed for sigma={sigma}")
    alpha, (_, _, pair) = find_root_newton(
        fdf,
        _bl_nsigma_seed_modulus(s) / rt_c,
        math.nextafter(0.0, 1.0),
        hi,
        floor=0.0,
        rising=True,
    )
    b1 = -(c * alpha + 1.0 / alpha)
    # sqrt(b1^2 - 4c) = (1 - k^2) / alpha, which does not cancel next to v*
    k = rt_c * alpha
    root_disc = (1.0 - k) * (1.0 + k) / alpha
    gamma_star = (
        -2.0 * sr * sigma + 8.0 * math.sqrt(alpha) * pair.E / root_disc
    ) / root_disc
    if gamma_star <= 0.0:
        raise BracketFailure(f"prefactor degenerated at sigma={sigma}")
    combo = sr * sigma * b1 - 2.0 * _bl_eta_closed_form(alpha, c, pair)
    coeff_o1 = (
        math.log(2.0 * math.sqrt(2.0 * math.pi))
        - math.log(c)
        + sr / c
        - 0.5 * math.log(gamma_star)
        - 0.5 * n * math.log(rho)
        + loop_series_Q_log(n)
    )
    return LogDensityApprox(
        coeff_N=0.0,
        coeff_N34=-c * c * sigma,
        coeff_N14=combo,
        coeff_logN=-0.625,
        coeff_O1=coeff_o1,
    )


# ---------------------------------------------------------------------------
# boundary layers on the tau = t / N time scale
# ---------------------------------------------------------------------------


def bl_xtau_evaluate(x: float, tau: float, params: ModelParams) -> LogDensityApprox:
    """Boundary-layer density at n = x sqrt(N), t = tau N; fully closed form."""
    rho = params.rho
    _require_subcritical(rho)
    check_real("x", x, 0.0, math.inf, "()")
    check_real("tau", tau, 0.0, math.inf, "()")
    sr = math.sqrt(rho)
    c = 1.0 - sr
    q4 = c**0.25
    rx = math.sqrt(x)
    coeff_o1 = (
        math.log(8.0)
        - 0.375 * math.log(c)
        - 2.5
        + 1.0 / c
        - sr * (22.0 * sr - 3.0 * rho - 15.0) / (16.0 * c) * tau
        + 0.25 * x * x
        + q4 * rx
        - 0.25 * math.log(x)
        - math.log1p(q4 * rx)
    )
    return LogDensityApprox(
        coeff_N=-c * c * tau,
        coeff_sqrtN=-0.5 * x * math.log(rho) - 2.0 * sr * math.sqrt(c) * tau,
        coeff_N14=-sr * c**0.75 * tau
        + 2.0 * rx
        - 2.0 / 3.0 * math.sqrt(c) * x**1.5
        - 8.0 / 3.0 * c**-0.25,
        coeff_logN=-0.75,
        coeff_O1=coeff_o1,
    )


def bl_ntau_evaluate(n: int, tau: float, params: ModelParams) -> LogDensityApprox:
    """Boundary-layer density at fixed n and t = tau N; fully closed form."""
    rho = params.rho
    _require_subcritical(rho)
    check_index("n", n, 0, params.population - 1)
    check_real("tau", tau, 0.0, math.inf, "()")
    sr = math.sqrt(rho)
    c = 1.0 - sr
    coeff_o1 = (
        math.log(16.0 * math.sqrt(math.pi))
        - 0.375 * math.log(c)
        - 3.0
        + 1.0 / c
        - sr * (22.0 * sr - 3.0 * rho - 15.0) / (16.0 * c) * tau
        - 0.5 * n * math.log(rho)
        + loop_series_Q_log(n)
    )
    return LogDensityApprox(
        coeff_N=-c * c * tau,
        coeff_sqrtN=-2.0 * sr * math.sqrt(c) * tau,
        coeff_N14=-sr * c**0.75 * tau - 8.0 / 3.0 * c**-0.25,
        coeff_logN=-0.625,
        coeff_O1=coeff_o1,
    )


# ---------------------------------------------------------------------------
# spectrum asymptotics for rho < 1
# ---------------------------------------------------------------------------

_EIGVEC_CORNER_N = 8
_EIGVEC_Z_WINDOW = 2.0
_EIGVEC_XI_MIN = 0.05
_EIGVEC_X_MAX = 4.0


def _check_mode_index(j: int, population: int) -> None:
    check_index("j", j)
    if j > population**0.25 / 4.0:
        raise IndexTooLarge(
            f"mode index {j} exceeds N^(1/4)/4 = {population ** 0.25 / 4.0:.3f}"
        )


def eigen_asym_sub(j: int, params: ModelParams) -> float:
    """Four-term eigenvalue expansion nu_j for rho < 1; needs j = o(N^(1/4))."""
    rho = params.rho
    _require_subcritical(rho)
    big_n = params.population
    _check_mode_index(j, big_n)
    sr = math.sqrt(rho)
    c = 1.0 - sr
    return (
        c * c
        + 2.0 * sr * math.sqrt(c) / math.sqrt(big_n)
        + (2.0 * j + 1.0) * sr * c**0.75 * big_n**-0.75
        + (sr * (22.0 * sr - 3.0 * rho - 15.0) / (16.0 * c) - 0.375 * sr * c * j * (j + 1.0))
        / big_n
    )


def spectral_coeff_asym_sub(j: int, params: ModelParams) -> LogDensityApprox:
    """Expansion coefficient c_j in log form, for fixed j as N grows.

    c_j goes with the eigenvector normalization phi_j(0) = Q(0) = e of
    `eigvec_asym_sub`, so against the exact balanced data it is
    beta_j v_j(0) / (D_0 Q(0)).
    """
    rho = params.rho
    _require_subcritical(rho)
    big_n = params.population
    _check_mode_index(j, big_n)
    c = 1.0 - math.sqrt(rho)
    coeff_o1 = (
        0.5 * math.log(math.pi)
        + (5.0 * j + 4.0) * math.log(2.0)
        - math.lgamma(j + 1.0)
        - 4.0 * j
        - 3.0
        - (0.25 * j + 0.375) * math.log(c)
        + 1.0 / c
    )
    return LogDensityApprox(
        coeff_N=0.0,
        coeff_N14=-8.0 / 3.0 * c**-0.25,
        coeff_logN=0.25 * j - 0.625,
        coeff_O1=coeff_o1,
    )


def eigvec_shape_g(j: int, x: float, rho: float) -> float:
    """Spatial eigenvector shape on the x = n/sqrt(N) scale.

    Carries a zero of order j at x = (1 - sqrt(rho))^(-1/2), the point
    where mode j's sign changes accumulate.
    """
    _require_subcritical(rho)
    check_index("j", j)
    check_real("x", x, 0.0, math.inf, "()")
    c = 1.0 - math.sqrt(rho)
    q4 = c**0.25
    rx = math.sqrt(x)
    return (
        (1.0 - math.sqrt(c) * x) ** j
        * math.exp(0.25 * x * x)
        * math.exp((2.0 * j + 1.0) * q4 * rx)
        / (x**0.25 * (1.0 + q4 * rx) ** (2.0 * j + 1.0))
    )


def _signed_log(log_mag: float, factor: float) -> tuple[int, float]:
    """(sign, log|exp(log_mag) factor|); (0, -inf) where factor is zero."""
    if factor == 0.0:
        return 0, -math.inf
    return (1 if factor > 0.0 else -1), log_mag + math.log(abs(factor))


def eigvec_asym_sub(j: int, n: int, params: ModelParams) -> tuple[int, float]:
    """(sign, log|phi_j(n)|) for the eigenvector entry under the
    normalization phi_j(0) = Q(0); sign 0 means the entry is zero.

    Four windows cover n: the O(1) corner, the Gaussian window around
    n = sqrt(N/(1 - sqrt(rho))), the x = n/sqrt(N) scale, and the
    xi = n/N scale; raises ScaleGap for points between windows.  Values
    grow like rho^(-n/2), past double range at large N and n, so only
    their log is formed.
    """
    rho = params.rho
    _require_subcritical(rho)
    big_n = params.population
    _check_mode_index(j, big_n)
    check_index("n", n, 0, big_n - 1)
    sr = math.sqrt(rho)
    c = 1.0 - sr
    ln_rho = math.log(rho)
    if n <= _EIGVEC_CORNER_N:
        # leading order here is the same for every mode index
        return 1, -0.5 * n * ln_rho + loop_series_Q_log(n)
    sqrt_n = math.sqrt(big_n)
    z = (n - sqrt_n / math.sqrt(c)) * math.sqrt(2.0) * c**0.375 * big_n**-0.375
    sign = -1 if j % 2 else 1
    if abs(z) <= _EIGVEC_Z_WINDOW:
        # normalization fixed by matching onto the x-scale form at the peak;
        # it carries (c/N)^((j+1)/8), which the direct Gaussian-window route
        # misses, and the exact ladder at N = 1024..4096 confirms this one
        ln_k0 = (
            0.5
            * (
                4.0 * j
                + 3.0
                - (5.0 * j + 4.0) * math.log(2.0)
                - math.log(math.pi)
                + 0.5 / c
                + 8.0 / 3.0 * c**-0.25 * big_n**0.25
            )
            + (j + 1.0) / 8.0 * (math.log(c) - math.log(big_n))
        )
        return _signed_log(ln_k0 - 0.5 * n * ln_rho - 0.25 * z * z, sign * hermite_He(j, z))
    ln_k1 = -0.125 * math.log(big_n) + 0.5 - math.log(2.0) - 0.5 * math.log(math.pi)
    xi = n / big_n
    if xi >= _EIGVEC_XI_MIN:
        rr = _big_r(xi, rho)
        lr_big = math.log((2.0 * c + rho * xi + rr) / (2.0 * c))
        # the mode index enters the prefactor only through a closed-form
        # power of the same log ratio that drives the exponent; the
        # index-free power below is forced by assembling mode 0 against
        # the interior density on this scale
        ln_shape = (
            math.log(r3_j_factor(xi, rho))
            + (22.0 * sr - 3.0 * rho - 15.0) / (16.0 * sr * c) * lr_big
            - 0.375 * c * j * (j + 1.0) / sr * lr_big
        )
        ln_val = (
            ln_k1
            - 0.25 * math.log(c)
            - 0.375 * math.log(big_n)
            - 0.5 * n * ln_rho
            + big_n * r3_big_f(xi, rho)
            + sqrt_n * 2.0 * math.sqrt(c) / sr * lr_big
            + big_n**0.25 * (2.0 * j + 1.0) * c**0.75 / sr * lr_big
            + ln_shape
        )
        return sign, ln_val
    x = n / sqrt_n
    if x <= _EIGVEC_X_MAX:
        ln_bulk = (
            ln_k1
            - 0.5 * n * ln_rho
            + big_n**0.25 * (2.0 * math.sqrt(x) - 2.0 / 3.0 * math.sqrt(c) * x**1.5)
        )
        return _signed_log(ln_bulk, eigvec_shape_g(j, x, rho))
    raise ScaleGap(
        f"n={n} falls between the asymptotic windows at N={big_n} (z={z:.3f}, "
        f"xi={xi:.4f}, x={x:.3f})"
    )
