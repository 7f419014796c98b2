"""Direct tests of the rho < 1 boundary-layer quadratures and the T2 layer.

The boundary-layer values were recorded from the scalar-integrand
quadrature that preceded the array integrands, and are compared with ==:
the array path must reproduce those bits, not just approximate them.  There
rho = 0.25, so c = 1 - sqrt(rho) = 0.5 and the layer quadratic's knot sits
at w = c^(-1/4) = 1.189 (v = 1.414).

The T2 layer integrals are closed forms (one AGM with forward derivatives),
checked against 30-digit mpmath quadrature, against their exact values at
the double root a = 2 sqrt(c), and for their divergence at the floor
a = -2 sqrt(c); `t2_evaluate` is checked against values recorded from the
quadrature it replaced.
"""

from __future__ import annotations

import math

import mpmath as mp
import pytest

from psq.exact import ModelParams
from psq.subcritical import (
    _bl_eta_integral,
    _bl_gamma_integral,
    _bl_sigma_lhs,
    _bl_sigma_lhs_d3,
    _t2_integrals,
    bl_xsigma_evaluate,
    t2_evaluate,
)

C = 0.5
PARAMS = ModelParams(population=10**6, rho=0.25)

# (x, b1): x = 0.8 integrates in one piece, x = 2.5 splits at the knot
LAYER_CASES = [
    # x, b1, sigma lhs, eta integral, gamma integral
    (0.8, -1.0, 0.5950513419872401, 1.5890334121059784, 0.5003053664491642),
    (0.8, 0.5, 0.40978608837309727, 1.9508376930960916, 0.13307412688661308),
    (2.5, -1.0, 3.028529901699275, 2.7824154212647407, 5.55646473553703),
    (2.5, 0.5, 1.6138589316049756, 4.35177073195911, 0.7376627657209482),
]


@pytest.mark.parametrize("x, b1, sigma_lhs, eta, gamma", LAYER_CASES)
def test_layer_integrals_pinned(x, b1, sigma_lhs, eta, gamma) -> None:
    assert _bl_sigma_lhs(x, b1, C) == sigma_lhs
    assert _bl_eta_integral(x, b1, C) == eta
    assert _bl_gamma_integral(x, b1, C) == gamma


def test_layer_integral_below_its_floor_raises() -> None:
    # b1 = -3 is below the layer's floor -2 sqrt(c) = -1.41, so
    # Q = (c w^2 + b1) w^2 + 1 < 0 for w in (0.60, 2.38), most of the range
    # (0, sqrt(2)) of w = sqrt(v): the kernel's sqrt raises, as math.sqrt
    # did in its scalar form, instead of the nan reaching the stopping rule
    # and coming back as MaxDepthExceeded
    with pytest.raises(FloatingPointError):
        _bl_sigma_lhs(2.0, -3.0, C)


@pytest.mark.parametrize(
    "x, alpha, want",
    [(0.5, 0.9, 2.9203373568952546), (1.0, 1.3, 7.305095969247022)],
)
def test_reflected_layer_lhs_pinned(x, alpha, want) -> None:
    assert _bl_sigma_lhs_d3(x, alpha, C) == want


@pytest.mark.parametrize(
    "x, sigma, region, b1, eta, gamma, log_p",
    [
        (0.5, 0.05, "D1", 90.80153002076398, -2.823370516248193,
         272.39497875439497, -142.7483121178937),
        (0.5, 0.45, "D2", -2.160189397399767, -1.601091788682243,
         32.36220698932269, -3268.5043869891983),
        (0.5, 1.0, "D3", -2.0623088738012005, -2.201527453679545,
         15.000233194726277, -7636.392538162335),
    ],
)
def test_bl_xsigma_pinned(x, sigma, region, b1, eta, gamma, log_p) -> None:
    sol, approx = bl_xsigma_evaluate(x, sigma, PARAMS)
    assert sol.region == region
    assert (sol.b1, sol.eta, sol.gamma) == (b1, eta, gamma)
    assert approx.log_value(PARAMS.population) == log_p


def _t2_quadrature(a_val: float, c: float) -> tuple:
    """gap, decay and pref of the T2 layer by 30-digit mpmath quadrature,
    split at the minimum of Q and on both sides of w = 1."""
    with mp.workdps(30):
        a, c = mp.mpf(a_val), mp.mpf(c)
        rt_c = mp.sqrt(c)

        def q(w):
            return (c * w * w + a) * w * w + 1

        knots = {mp.mpf(0), mp.mpf(1) / 4, mp.mpf(1), mp.mpf(4), mp.inf}
        if a < 0:
            knots.add(mp.sqrt(-a / (2 * c)))
        knots = sorted(knots)
        # 2 (w^2 / sqrt(Q) - 1 / sqrt(c)), written without the subtraction
        gap = mp.quad(
            lambda w: -2 * (a * w * w + 1)
            / (rt_c * mp.sqrt(q(w)) * (w * w * rt_c + mp.sqrt(q(w)))),
            knots,
        )
        decay = mp.quad(lambda w: mp.mpf(4) / 3 / mp.sqrt(q(w)), knots)
        pref = mp.quad(lambda w: 2 * w**4 / q(w) ** mp.mpf(1.5), knots)
        return float(gap), float(decay), float(pref)


def _t2_cases():
    for rho in (0.25, 0.75):
        c = 1.0 - math.sqrt(rho)
        floor = -2.0 * math.sqrt(c)
        for a_val in (floor + 1e-3, -1.0, -0.005, 0.7, 2.0 * math.sqrt(c), 20.0):
            if a_val > floor:  # -1.0 is below the floor -0.732 at rho = 0.75
                yield pytest.param(a_val, c, id=f"rho{rho}-a{a_val:.4g}")


@pytest.mark.parametrize("a_val, c", list(_t2_cases()))
def test_t2_integrals_match_quadrature(a_val, c) -> None:
    got = _t2_integrals(a_val, c)
    want = _t2_quadrature(a_val, c)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rho", [0.25, 0.75])
def test_t2_integrals_exact_at_double_root(rho) -> None:
    # at a = 2 sqrt(c), Q = (sqrt(c) w^2 + 1)^2 and the AGM starts converged
    c = 1.0 - math.sqrt(rho)
    exact = (
        -math.pi * c**-0.75,
        2.0 * math.pi / 3.0 * c**-0.25,
        3.0 * math.pi / 8.0 * c**-1.25,
    )
    a_val = 2.0 * math.sqrt(c)
    assert _t2_integrals(a_val, c) == pytest.approx(exact, rel=1e-15, abs=0.0)
    for near in (a_val - 1e-12, a_val + 1e-12):
        assert _t2_integrals(near, c) == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rho", [0.25, 0.75])
def test_t2_gap_diverges_at_the_floor(rho) -> None:
    c = 1.0 - math.sqrt(rho)
    floor = -2.0 * math.sqrt(c)
    gaps = [_t2_integrals(floor + 10.0**-k, c)[0] for k in range(3, 13)]
    assert all(0.0 < g < math.inf for g in gaps)
    assert all(g1 < g2 for g1, g2 in zip(gaps, gaps[1:]))
    # on and below the floor: the limit, not a domain error
    for a_val in (floor, floor + 1e-25, floor - 1.0):
        assert _t2_integrals(a_val, c) == (math.inf, math.inf, math.inf)


@pytest.mark.parametrize(
    "delta, a_val, f_val, g_val, log_p",
    [
        (-4.0, 0.5894198842676884, -3.102775427127538, 210.8884287719587,
         -205454.586762885),
        (0.0, -0.9223918498921463, -3.680278474933786, 61.04773237498186,
         -237096.86528760023),
        (4.0, -1.3451852255460595, -6.060540662001249, 6.421382326082556,
         -268797.1644113251),
    ],
)
def test_t2_evaluate_matches_recorded(delta, a_val, f_val, g_val, log_p) -> None:
    # recorded from the half-line quadrature the closed forms replaced
    state, approx = t2_evaluate(0.3, delta, PARAMS)
    assert (state.a, state.f, state.g) == pytest.approx(
        (a_val, f_val, g_val), rel=1e-12, abs=0.0
    )
    assert approx.log_value(PARAMS.population) == pytest.approx(log_p, rel=0.0, abs=1e-10)
