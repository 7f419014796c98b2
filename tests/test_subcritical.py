"""Direct tests of the rho < 1 boundary-layer and T2 quadratures.

The expected values were recorded from the scalar-integrand quadrature that
preceded the array integrands, and are compared with ==: the array path must
reproduce those bits, not just approximate them.  rho = 0.25 throughout, so
c = 1 - sqrt(rho) = 0.5, the layer quadratic's knot sits at
w = c^(-1/4) = 1.189 (v = 1.414) and the T2 floor at a = -1.414.
"""

from __future__ import annotations

import pytest

from psq.exact import ModelParams
from psq.subcritical import (
    _bl_eta_integral,
    _bl_gamma_integral,
    _bl_sigma_lhs,
    _bl_sigma_lhs_d3,
    _t2_gap_lhs,
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
    "a_val, want",
    [
        (0.7, -4.189733147468357),  # a >= 0: one half-line integral
        (-0.005, -2.838636003218753),  # sign change far past the dip
        (-1.0, 0.39867814436709503),  # split at the dip and the sign change
    ],
)
def test_t2_gap_lhs_pinned(a_val, want) -> None:
    assert _t2_gap_lhs(a_val, C, 1e-11) == want


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
def test_t2_evaluate_pinned(delta, a_val, f_val, g_val, log_p) -> None:
    state, approx = t2_evaluate(0.3, delta, PARAMS)
    assert (state.a, state.f, state.g) == (a_val, f_val, g_val)
    assert approx.log_value(PARAMS.population) == log_p
