"""Infinite-population processor-sharing reference solution.

The corner n, t = O(1) of the finite model converges to the classical
M/M/1-PS sojourn density, which this module computes three ways: the Laplace
transform p_hat_n(theta), numerical Bromwich inversion with Euler
acceleration, and the large-t tail formulas for both traffic regimes.

The transform y_k = p_hat_k(theta) solves the three-term recurrence

    rho y_{k+1} - (1 + rho + theta) y_k + (k/(k+1)) y_{k-1} = -1/(k+1),

k = 0, 1, ..., and transform_phat picks its bounded solution by Olver's
forward elimination (F. W. J. Olver, J. Res. NBS 71B (1967) 111-129; the
error analysis is in J. Wimp, Computation with Recurrence Relations,
Pitman 1984, ch. 6).  Row 0 gives y_0 = u_0 + w_0 y_1, and row k with
y_{k-1} eliminated gives y_k = u_k + w_k y_{k+1}, so

    y_n = sum_{k=n}^{K} P_k u_k + P_{K+1} y_{K+1},   P_k = prod_{j=n}^{k-1} w_j,

and no back-substitution is needed.  p_k is a nonnegative density of mass
at most 1, so |y_{K+1}| <= 1 for Re theta > 0, and the sweep stops once
|P_{K+1}| is below 2^-56 of the partial sum.  One sweep serves every theta
of a Bromwich ladder at once: invert_density makes one transform_phat call
for the head term and the whole ladder.

Accuracy note: every pivot of the sweep has modulus above rho + Re theta
(see transform_phat), so |w_k| < rho / (rho + Re theta) < 1, nothing
overflows and no power of a characteristic root is formed.  The transform
is within 3e-15 relative of a banded solve of the recurrence on the
Bromwich ladders of rho in [0.05, 3], n <= 60, t in [0.25, 80], and at
n = 200, theta = 0.5 + 1e5 i.  Its cost is the stop row K: on those
ladders K - n is 8 to about 740 (rho = 3, t = 80).  For rho > 1 the
per-row factor tends to 1 as Re theta -> 0, and past _SWEEP_MAX_ROWS rows
beyond n the sweep raises TransformNotConverged (rho = 2 at theta = 1e-6,
or invert_density at rho = 2, t = 4.6e4).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import LogDensityApprox, check_index, check_real
from .errors import (
    InvalidInput,
    InversionUnstable,
    NoTruncationTime,
    SearchExhausted,
    TransformNotConverged,
)
from .specfun import loop_series_Q_log
from .supercritical import algebraic_tail_log_constant

# exp of anything above this overflows
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)

# the sweep stops once its remainder bound is below this share of its sum;
# it tests the bound every _SWEEP_CHECK_EVERY rows, since a test costs about
# half a row, and gives up _SWEEP_MAX_ROWS rows past n (a 52-theta ladder
# takes about 1 s to get there; the ladder of rho = 2, t = 3.6e4 stops
# 115 156 rows past n)
_SWEEP_TOL = 2.0**-56
_SWEEP_CHECK_EVERY = 4
_SWEEP_MAX_ROWS = 1 << 17

# Abate-Whitt abscissa constant: discretization error ~ e^{-A}.
_AW_A = 18.4
_AW_BASE_BLOCKS = 38
_AW_EULER_BLOCKS = 13
_EULER_WEIGHTS = np.array(
    [math.comb(_AW_EULER_BLOCKS, j) for j in range(_AW_EULER_BLOCKS + 1)], dtype=float
)


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def _elimination_rows(n: int, thetas: np.ndarray, rho: float):
    """Olver's forward elimination for p_hat_n at a 1-D array of thetas.

    Runs rows 0 .. n + _SWEEP_MAX_ROWS - 1 and yields, after each row
    k >= n, the arrays (S, Q) with

        (n+1) p_hat_n = S + (k+2) Q p_hat_{k+1},

    so |p_hat_n - S/(n+1)| <= (k+2)|Q|/(n+1), the bound |P_{k+1}| of the
    module docstring.  Both arrays are updated in place by the next row.

    The sweep runs on U_k = (k+1) u_k and W_k = ((k+1)/(k+2)) w_k, which
    take the row's k-dependence out of every array operation but one:

        d_k = b - W_{k-1},  U_k = (1 + U_{k-1}) / d_k,  W_k = r_k / d_k,

    with b = 1 + rho + theta, r_k = rho (k+1)/(k+2) and U_{-1} = W_{-1} = 0.
    Then P_k u_k = Q_k U_k / (n+1) with Q_k = prod_{j=n}^{k-1} W_j.  Below,
    pivot is d_k, gain U_k, ratio W_k, prod Q_{k+1} and total S.
    """
    b = 1.0 + rho + thetas
    pivot = b.copy()
    gain = 1.0 / b  # U_0
    ratio = (0.5 * rho) / b  # W_0
    total = np.zeros_like(b)
    prod = np.ones_like(b)
    term = np.empty_like(b)
    for k in range(n + _SWEEP_MAX_ROWS):
        if k:
            np.subtract(b, ratio, out=pivot)
            gain += 1.0
            gain /= pivot
            np.divide(rho * (k + 1) / (k + 2), pivot, out=ratio)
        if k >= n:
            np.multiply(prod, gain, out=term)
            total += term
            prod *= ratio
            yield total, prod


def transform_phat(n: int, theta, rho: float):
    """Laplace transform p_hat_n(theta) of the infinite-population
    conditional density, by one forward-elimination sweep (see the module
    docstring and _elimination_rows).

    theta is one complex or a 1-D array of them, each finite with
    Re theta > 0; the result is a complex or an array of the same length,
    real for real theta.  The sweep runs over every theta at once and stops
    at the first tested row where the remainder bound of each is below
    2^-56 of its partial sum.

    Every pivot is nonzero: if |W_{k-1}| < 1 then
    |d_k| >= |b| - |W_{k-1}| > Re b - 1 = rho + Re theta, so
    |W_k| < rho / (rho + Re theta), and W_{-1} = 0 starts the induction.  The remainder bound therefore
    falls at least geometrically, but slowly for rho > 1 as Re theta -> 0;
    where it has not met the tolerance _SWEEP_MAX_ROWS rows past n,
    TransformNotConverged is raised naming n, the first such theta and rho.
    """
    check_index("n", n)
    check_real("rho", rho, 0.0, math.inf, "()")
    thetas = np.asarray(theta, dtype=complex)
    if thetas.ndim > 1:
        raise InvalidInput(f"theta must be a scalar or 1-D, got shape {thetas.shape}")
    flat = thetas.ravel()
    bad = ~(np.isfinite(flat) & (flat.real > 0.0))
    if bad.any():
        raise InvalidInput(f"theta must be finite with Re > 0, got {flat[bad][0]}")
    for rows, (total, bound) in enumerate(_elimination_rows(n, flat, rho)):
        if rows % _SWEEP_CHECK_EVERY == 0:
            unmet = np.abs(bound) > (_SWEEP_TOL / (n + rows + 2)) * np.abs(total)
            if not unmet.any():
                out = total / (n + 1)
                return complex(out[0]) if thetas.ndim == 0 else out
    raise TransformNotConverged(
        f"forward elimination did not converge within {_SWEEP_MAX_ROWS} rows "
        f"at (n={n}, theta={flat[unmet][0]}, rho={rho})"
    )


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
    check_real("t", t, 0.0, math.inf, "()")
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
    """Large-t corner tail, for a finite t >= 10; evaluate with .log_value(t).

    rho < 1: stretched-exponential decay with a t^(1/3) term in the exponent
    and algebraic prefactor t^(-5/6).  rho > 1: pure algebraic tail
    C t^(-alpha0), constant delegated to the overloaded-regime module.
    """
    check_real("t", t, 10.0, math.inf, "[)")
    check_real("rho", rho, 0.0, math.inf, "()")
    if rho >= 1.0:
        # log C first: it raises NotSupercritical at rho = 1
        log_const = algebraic_tail_log_constant(n, rho)
        return LogDensityApprox(
            coeff_N=0.0, coeff_logN=-rho / (rho - 1.0), coeff_O1=log_const
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
    """Time beyond which the remaining tail mass is below mass_bound.

    For rho > 1 the tail C t^(-alpha0) leaves mass
    C t^(1 - alpha0) / (alpha0 - 1) past t, solved for t in log form.  Raises
    NoTruncationTime where that t is not a finite double, and at rho = 1,
    where neither tail formula holds.
    """
    check_real("mass_bound", mass_bound, 0.0, 1.0, "()")
    where = f"(n={n}, rho={rho}, mass_bound={mass_bound})"
    if rho == 1.0:
        raise NoTruncationTime(f"no tail formula at rho = 1 {where}")
    approx = tail_asym_infinite(n, 10.0, rho)
    if rho > 1.0:
        # alpha0 - 1 = 1 / (rho - 1), so t = (C (rho - 1) / mass_bound)^(rho - 1)
        log_t = (rho - 1.0) * (
            approx.coeff_O1 + math.log(rho - 1.0) - math.log(mass_bound)
        )
        if not log_t <= _LOG_DOUBLE_MAX:
            raise NoTruncationTime(
                f"truncation time exp({log_t:.6g}) leaves double range {where}"
            )
        return math.exp(log_t)
    log_decay = math.log((1.0 - math.sqrt(rho)) ** 2)
    log_bound = math.log(mass_bound)
    t = 20.0
    for _ in range(200):
        # remaining mass density(t) / decay, compared in log form
        if approx.log_value(t) - log_decay < log_bound:
            return t
        t *= 1.3
    raise SearchExhausted(
        f"no truncation time up to {t / 1.3:.3e} at (n={n}, rho={rho}, "
        f"mass_bound={mass_bound})"
    )
