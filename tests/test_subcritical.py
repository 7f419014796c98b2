"""Direct tests of the rho < 1 boundary layers and the T2 layer.

The D1 layer equation's and eta's quadratures were recorded from the
scalar-integrand quadrature that preceded the array integrands, and are
compared with ==: the array path must reproduce those bits, not just
approximate them.  There rho = 0.25, so c = 1 - sqrt(rho) = 0.5 and the
layer quadratic's knot sits at w = c^(-1/4) = 1.189 (v = 1.414).  D1's
prefactor integral is a Carlson form, on a conjugate pair where the layer
quadratic has complex roots: it is checked against 40-digit mpmath next to
the floor on both sides of v*, mid-range and where the pair turns real, and
against the quadrature values it replaced.

The T2 layer integrals are closed forms (one AGM with forward derivatives),
checked against 30-digit mpmath quadrature, against their exact values at
the double root a = 2 sqrt(c), and for their divergence at the floor
a = -2 sqrt(c); `t2_evaluate` is checked against values recorded from the
quadrature it replaced, and refuses Delta outside the band |Delta| <= 8
that `classify` gives it.  The T2 and fixed-n sigma-layer equations are
solved by Newton on their closed forms: the derivatives they use are
checked against 40-digit mpmath, the closed-form eta integral against the
quadrature and 50-digit mpmath, each solve's residual and AGM count over
the parameter range by a hypothesis property test, and both run with the
Brent, ladder and quadrature kernels made to raise.  Their reach has one
edge each, and the fixed-n density next to v* matches 50-digit mpmath.

The D2 and D3 layer equations, P and 2F - P, are solved by Newton too, on
the Carlson forms of their integrals: those integrals against 40-digit
mpmath next to both curves, the D3 roots, values and slopes and its
elliptic prefactor correction against 40-digit mpmath, and the D2 and D3
densities against 50-digit solves of the Legendre forms.  A hypothesis
property test over D2 and D3 at N = 10^6, drawn towards both curves, asks
for a finite density in at most 12 evaluations and no quadrature or
bracket search, or CurveSingularity next to the D2/D3 curve.  Their
recorded Brent roots and evaluated points still hold to a few ulps, and
the D2/D3 curve, the same F, matches 40-digit mpmath.

Also here: `classify` gives every (n, t) one label (a hypothesis property
test); each D1 root solve evaluates its layer equation once per distinct
argument; the upper bracket end is the rung a rung-by-rung walk finds,
reached in few evaluations, also where the target sits within the closed
form's margin of a rung, and a root whose residual Brent's width does not
allow raises BracketFailure; the D1 roots keep their recorded bits; the bounded memo of the
layer equation's inner panel gives the bits of a fresh quadrature, replays
its MaxDepthExceeded, spares later solves at one rho their left-end walk
and holds nothing but the walks; bad caller input raises
InvalidInput; the eigenvalue expansion converges to the exact spectrum at
its predicted order, and the mode-0 spectral coefficient to the exact c_0;
the eigenvector expansion stays finite, in log form, past double range;
the layer is continuous across the D2/D3 curve, down to 1e-6 relative of
it; the T2 points far outside the band in Delta, which gave a positive log
density or a raw ValueError, go to R1/R2/R3; and R2's prefactor, in log
form, stays finite where its linear form left double range.
"""
from __future__ import annotations

import contextlib
import math
import sys
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from perfbench import adapters
from psq import subcritical
from psq.errors import (
    BracketFailure,
    CurveSingularity,
    InvalidInput,
    MaxDepthExceeded,
    OutOfRegion,
    PSQError,
    RootNotBracketed,
    ScaleGap,
)
from psq.exact import ModelParams, build_generator, steady_state_log_weights
from psq.infinite import tail_asym_infinite
from psq.supercritical import XiTauPoint
from psq.specfun import elliptic_KE, find_root_bracketed, loop_series_Q_log
from psq.subcritical import (
    LogDensityApprox,
    RegimeLabel,
    _bl_eta_closed_form,
    _bl_eta_integral,
    _bl_sigma_lhs,
    _d1_gamma_integral,
    _d1_sigma_lhs,
    _fixed_n_lhs,
    _real_root_integrals,
    _solve_alpha,
    _solve_b1_direct,
    _t2_integrals,
    bl_nsigma_evaluate,
    bl_ntau_evaluate,
    bl_xsigma_evaluate,
    bl_xtau_evaluate,
    classify,
    critical_curves,
    d1d2_curve_sigma,
    d2d3_curve_sigma,
    eigen_asym_sub,
    eigvec_asym_sub,
    eigvec_shape_g,
    r3_big_f,
    r3_j_factor,
    spectral_coeff_asym_sub,
    t2_evaluate,
    t2_solve_A,
)

C = 0.5
PARAMS = ModelParams(population=10**6, rho=0.25)

# (x, b1): x = 0.8 integrates in one piece, x = 2.5 splits at the knot; the
# gamma integrals were recorded from the quadrature the closed form replaced
LAYER_CASES = [
    # x, b1, sigma lhs, eta integral, gamma integral
    (0.8, -1.0, 0.5950513419872401, 1.5890334121059784, 0.5003053664491642),
    (0.8, 0.5, 0.40978608837309727, 1.9508376930960916, 0.13307412688661308),
    (2.5, -1.0, 3.028529901699275, 2.7824154212647407, 5.55646473553703),
    (2.5, 0.5, 1.6138589316049756, 4.35177073195911, 0.7376627657209482),
]


def _mp_d1_integral(x: float, b1: float, c: float, power: float = 1.5):
    """The D1 integral of (v / q)^power over (0, x), q = c v^2 + b1 v + 1:
    power 3/2 gives the prefactor integral Gamma, 1/2 the layer equation's
    P.  By 40-digit mpmath quadrature, split around q's minimum at
    v* = c^(-1/2), where next to the floor b1 = -2 sqrt(c) it peaks with
    width sqrt((b1 + 2 sqrt(c)) / c)."""
    with mp.workdps(40):
        xm, b, cm = mp.mpf(x), mp.mpf(b1), mp.mpf(c)
        vstar = 1 / mp.sqrt(cm)
        width = mp.sqrt(abs(b + 2 * mp.sqrt(cm)) / cm)
        knots = {mp.mpf(0), xm}
        for k in (-3, -1, 0, 1, 3):
            if 0 < vstar + k * width < xm:
                knots.add(vstar + k * width)
        return mp.quad(lambda v: (v / ((cm * v + b) * v + 1)) ** power, sorted(knots))


@pytest.mark.parametrize("x, b1, sigma_lhs, eta, gamma", LAYER_CASES)
def test_layer_integrals_pinned(x, b1, sigma_lhs, eta, gamma) -> None:
    assert _bl_sigma_lhs(x, b1, C) == sigma_lhs
    assert _bl_eta_integral(x, b1, C) == eta
    got = _d1_gamma_integral(x, b1, C)
    assert got == pytest.approx(float(_mp_d1_integral(x, b1, C)), rel=1e-15, abs=0.0)
    assert got == pytest.approx(gamma, rel=1e-14, abs=0.0)


# D1's Gamma at b1 = k sqrt(c) + offset, at rho = 0.25 and 0.75: next to
# the floor -2 sqrt(c) on both sides of v* (a conjugate pair 1 - w x whose
# real part is positive before v* and negative past it), mid-range, at and
# past b1 = 2 sqrt(c), where the pair turns real, and just below -2 sqrt(c),
# where a Brent root next to the D1/D2 curve may land before v* (a real
# positive pair, still above the floor -(c x + 1/x) there)
D1_GAMMA_CASES = [
    (rho, frac * (1.0 - math.sqrt(rho)) ** -0.5, k * (1.0 - math.sqrt(rho)) ** 0.5 + offset)
    for rho in (0.25, 0.75)
    for frac in (0.5, 0.99, 1.01, 2.1)
    for k, offset in (
        (-2.0, 1.4e-5), (-2.0, 1e-3), (0.3, 0.0), (2.0, 0.0), (2.0, 1e-9), (0.0, 40.0),
        (-2.0, -1e-6),
    )
    if frac < 1.0 or offset >= 0.0
]


@pytest.mark.parametrize("rho, x, b1", D1_GAMMA_CASES)
def test_d1_gamma_integral_matches_mpmath(rho, x, b1) -> None:
    # next to the floor Gamma grows as 1 / (b1 + 2 sqrt(c)) once x reaches
    # v*, so one ulp of b1 moves it by about ulp(b1) / (b1 + 2 sqrt(c))
    # relative (1.6e-11 at 1.4e-5 above the floor); 4c - b1^2 carries that
    # rounding, and Gamma keeps within half of it (2.5e-12 at most here)
    c = 1.0 - math.sqrt(rho)
    got = _d1_gamma_integral(x, b1, c)
    bound = 4e-15 + 0.5 * math.ulp(b1) / abs(b1 + 2.0 * math.sqrt(c))
    assert got == pytest.approx(float(_mp_d1_integral(x, b1, c)), rel=bound, abs=0.0)


def test_layer_integral_below_its_floor_raises() -> None:
    # b1 = -3 is below the layer's floor -2 sqrt(c) = -1.41, so
    # Q = (c w^2 + b1) w^2 + 1 < 0 for w in (0.60, 2.38), most of the range
    # (0, sqrt(2)) of w = sqrt(v): the kernel's sqrt raises, as math.sqrt
    # did in its scalar form, instead of the nan reaching the stopping rule
    # and coming back as MaxDepthExceeded
    with pytest.raises(FloatingPointError):
        _bl_sigma_lhs(2.0, -3.0, C)


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
    # recorded from Brent solves over quadratures.  D2 and D3, now Newton
    # solves on the Carlson forms, keep within a few ulps of them; D1 keeps
    # its bits but for gamma, whose integral is a Carlson form now too
    sol, approx = bl_xsigma_evaluate(x, sigma, PARAMS)
    assert sol.region == region
    got = (sol.b1, sol.eta, sol.gamma, approx.log_value(PARAMS.population))
    assert got == pytest.approx((b1, eta, gamma, log_p), rel=1e-14, abs=0.0)
    if region == "D1":
        assert (sol.b1, sol.eta, got[3]) == (b1, eta, log_p)


# points past v* = c^(-1/2), whose layer integrals split at the knot and take
# their inner panel from the memo: the surface table's ulp-pinned D1 point,
# a D1 root near the floor, and a D1 point at rho = 0.75
SPLIT_PANEL_CASES = [
    (0.25, 1.777, 3.154e-5, 3174325630.9021144, -50059.11563644927,
     885056.7074162087, -1581773.42568095),
    (0.25, 2.045, 8.97, -1.4100910162408555, -8.035928232345816,
     1.5742196894038454, -69760.61678151373),
    (0.75, 3.645, 2.29e-5, 8445062062.778855, -167482.31696603834,
     7799722835.810718, -5295719.19084938),
]


@pytest.mark.parametrize("rho, x, sigma, b1, eta, gamma, log_p", SPLIT_PANEL_CASES)
def test_bl_xsigma_split_panel_pinned(rho, x, sigma, b1, eta, gamma, log_p) -> None:
    # the same bits with the inner-panel memo cold and warm; gamma, recorded
    # from the quadrature its Carlson form replaced, within a few ulps
    params = ModelParams(population=10**6, rho=rho)
    subcritical._sigma_inner_panel.cache_clear()
    for _ in range(2):
        sol, approx = bl_xsigma_evaluate(x, sigma, params)
        assert sol.region == "D1"
        assert (sol.b1, sol.eta) == (b1, eta)
        assert sol.gamma == pytest.approx(gamma, rel=1e-14, abs=0.0)
        assert approx.log_value(params.population) == log_p


# D1's P in closed form, (2/3) x^(3/2) R_D of the pair `_d1_gamma_integral`
# uses: at 8 pins against 40-digit mpmath (a conjugate pair before and past
# v*, a real pair just below -2 sqrt(c) before v* and one past 2 sqrt(c)),
# and against the layer equation's quadrature on D1 points of the benchmark
# grids and drawn towards the floor on both sides of v*.  The D1 rung search
# relies on it only to 1e-6 relative, on rungs at least `span` above the floor
D1_P_PINS = [
    (rho, frac * (1.0 - math.sqrt(rho)) ** -0.5, k * (1.0 - math.sqrt(rho)) ** 0.5 + offset)
    for rho in (0.25, 0.75)
    for frac, k, offset in ((0.5, 0.3, 0.0), (2.1, -2.0, 1e-3), (0.99, -2.0, -1e-6), (1.01, 0.0, 40.0))
]


@pytest.mark.parametrize("rho, x, b1", D1_P_PINS)
def test_d1_sigma_lhs_matches_mpmath(rho, x, b1) -> None:
    # within what one ulp of b1 moves P, ulp(b1) Gamma / 2, and a few eps
    c = 1.0 - math.sqrt(rho)
    got = _d1_sigma_lhs(x, b1, c)
    bound = 4e-15 + math.ulp(b1) * 0.5 * _d1_gamma_integral(x, b1, c) / got
    want = float(_mp_d1_integral(x, b1, c, power=0.5))
    assert got == pytest.approx(want, rel=bound, abs=0.0)


def _d1_p_points() -> list:
    """(rho, x, b1): the roots of every 10th D1 point of the seed 1-10
    asym_surface grids, and 120 points drawn with x within 1e-6 to 0.5
    relative of v* on either side and b1 from 1e-6 to 1e3 times
    max(1, |floor|) above the floor."""
    from perfbench import workloads

    points = []
    d1 = 0
    for seed in range(1, 11):
        for params, grid in workloads.AsymSurface(seed, None).grids:
            big_n, rho = params.population, params.rho
            for n, t in grid:
                label = classify(n, t, params)
                if label.sub != "D1":
                    continue
                d1 += 1
                if d1 % 10 == 0:
                    x, sigma = n / math.sqrt(big_n), t / big_n**0.75
                    c = 1.0 - math.sqrt(rho)
                    points.append((rho, x, _solve_b1_direct(x, sigma, rho, c)))
    rng = np.random.default_rng(20)
    for _ in range(120):
        rho = float(rng.choice([0.25, 0.75]))
        c = 1.0 - math.sqrt(rho)
        x = c**-0.5 * (1.0 + float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-6.0, math.log10(0.5)))
        floor = -2.0 * math.sqrt(c) if x >= c**-0.5 else -(c * x + 1.0 / x)
        points.append((rho, x, floor + max(1.0, abs(floor)) * 10.0 ** rng.uniform(-6.0, 3.0)))
    return points


def test_d1_sigma_lhs_matches_the_quadrature() -> None:
    # 1e-10 relative on every point where the quadrature converges; nearer
    # the floor than 1e-6 both drift (the closed form by up to 2e-9 at 1e-9
    # above it, where the quadrature gives up)
    compared = 0
    for rho, x, b1 in _d1_p_points():
        c = 1.0 - math.sqrt(rho)
        try:
            want = _bl_sigma_lhs(x, b1, c)
        except MaxDepthExceeded:
            continue
        assert _d1_sigma_lhs(x, b1, c) == pytest.approx(want, rel=1e-10, abs=0.0), (rho, x, b1)
        compared += 1
    assert compared >= 200


@pytest.mark.parametrize(
    "rho, x, sigma",
    [(0.25, 0.5, 0.05), (0.25, 0.5, 0.2), (0.25, 1.777, 3.154e-5), (0.75, 3.645, 2.29e-5)],
)
def test_d1_rung_search_skips_the_quadrature_below_the_root(monkeypatch, rho, x, sigma) -> None:
    # with the closed form deciding the rungs that are clearly not negative,
    # Brent gets the same bracket and root, for at least one quadrature less
    # (where the root is above rung 0, as here)
    c = 1.0 - math.sqrt(rho)
    seen = _counting(monkeypatch, "_bl_sigma_lhs")
    root = _solve_b1_direct(x, sigma, rho, c)
    calls = sum(seen.values())
    monkeypatch.setattr(subcritical, "_CLOSED_FORM_MARGIN", math.inf)
    seen.clear()
    assert _solve_b1_direct(x, sigma, rho, c) == root
    assert sum(seen.values()) >= calls + 1


def test_d1_solve_builds_each_interval_once(monkeypatch) -> None:
    # x > v*: every quadrature of the solve integrates (0, c^(-1/4)) or
    # (c^(-1/4), sqrt(x)); the node memo builds each of their batches once
    from psq import specfun

    asked: Counter = Counter()
    memo = specfun._interval_nodes

    def counted(a, b, first, last):
        asked[(a, b, first, last)] += 1
        return memo(a, b, first, last)

    counted.__wrapped__ = memo.__wrapped__
    monkeypatch.setattr(specfun, "_interval_nodes", counted)
    memo.cache_clear()
    subcritical._sigma_inner_panel.cache_clear()
    _solve_b1_direct(2.045, 8.97, PARAMS.rho, C)
    assert {(a, b) for a, b, _, _ in asked} == {(0.0, C**-0.25), (C**-0.25, math.sqrt(2.045))}
    assert sum(asked.values()) > 2 * len(asked)
    assert memo.cache_info().misses == len(asked)


@pytest.mark.parametrize("rho, x, sigma, b1, eta, log_p", [
    (0.25, 0.5, 0.05, 90.80153002076398, -2.823370516248193, -142.7483121178937),
    (0.25, 2.045, 8.97, -1.4100910162408555, -8.035928232345816, -69760.61678151373),
])
def test_d1_bits_with_the_node_memo_cold_and_warm(rho, x, sigma, b1, eta, log_p) -> None:
    # one point before v* (one panel) and one past it (two), recorded before
    # the node memo: the same bits from fresh nodes and from the memo's
    from psq import specfun

    params = ModelParams(population=10**6, rho=rho)
    specfun._interval_nodes.cache_clear()
    for _ in range(2):
        sol, approx = bl_xsigma_evaluate(x, sigma, params)
        assert (sol.b1, sol.eta, approx.log_value(params.population)) == (b1, eta, log_p)


@pytest.mark.parametrize("sigma", [12.760265044051096, 12.760265044051096 * (1.0 - 1e-9)])
def test_d1_next_to_the_d1_d2_curve(sigma) -> None:
    # 1.1e-12 and 1e-9 relative below the curve at x = 0.996 v*, rho = 0.75:
    # P is steep at the root, and Brent's 1e-14 stopping width leaves a
    # residual of 3.7e-10, 18 ulps of b1 times Gamma/2, which the solve
    # accepts as within that width.  log p lies on the line through the D2
    # values just across
    rho, x = 0.75, 2.7209516072753126
    params = ModelParams(population=10**6, rho=rho)
    curve = d1d2_curve_sigma(x, rho)
    assert subcritical._xsigma_region(x, sigma, rho) == "D1"

    def log_p(s: float) -> float:
        return bl_xsigma_evaluate(x, s, params)[1].log_value(params.population)

    across = [curve, curve * (1.0 + 1e-9)]
    assert [subcritical._xsigma_region(x, s, rho) for s in across] == ["D2", "D2"]
    slope = (log_p(across[1]) - log_p(across[0])) / (across[1] - across[0])
    assert log_p(sigma) == pytest.approx(log_p(curve) + slope * (sigma - curve), rel=0.0, abs=1e-7)


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


# ---------------------------------------------------------------------------
# root solves: one evaluation per distinct argument
# ---------------------------------------------------------------------------


def _counting(monkeypatch, name: str) -> Counter:
    """Count the calls of subcritical.<name> by their second argument."""
    seen: Counter = Counter()
    inner = getattr(subcritical, name)

    def counted(x, arg, *rest):
        seen[arg] += 1
        return inner(x, arg, *rest)

    monkeypatch.setattr(subcritical, name, counted)
    return seen


@pytest.mark.parametrize(
    "sigma, region, solver, layer",
    [
        (0.05, "D1", _solve_b1_direct, "_bl_sigma_lhs"),
        (0.2, "D1", _solve_b1_direct, "_bl_sigma_lhs"),
    ],
)
def test_layer_root_solve_evaluates_each_argument_once(
    monkeypatch, sigma, region, solver, layer
) -> None:
    # the D1 bracket search, Brent's first calls at the ends and the
    # residual check at the root share one memo, so no quadrature is repeated
    x, rho = 0.5, PARAMS.rho
    assert subcritical._xsigma_region(x, sigma, rho) == region
    seen = _counting(monkeypatch, layer)
    solver(x, sigma, rho, C)
    assert len(seen) > 5
    assert max(seen.values()) == 1


def test_find_root_bracketed_evaluates_each_argument_once() -> None:
    seen: Counter = Counter()

    def f(v: float) -> float:
        seen[v] += 1
        return math.cos(v)

    assert find_root_bracketed(f, 0.0, 2.0) == pytest.approx(0.5 * math.pi, abs=1e-12)
    assert max(seen.values()) == 1


def test_root_memo_lives_for_one_solve(monkeypatch) -> None:
    # a second solve of the same point evaluates again: nothing is kept
    # between solves
    seen = _counting(monkeypatch, "_bl_sigma_lhs")
    first = _solve_b1_direct(0.5, 0.2, PARAMS.rho, C)
    calls = sum(seen.values())
    assert _solve_b1_direct(0.5, 0.2, PARAMS.rho, C) == first
    assert sum(seen.values()) == 2 * calls


@pytest.mark.parametrize(
    "rho, x, sigma, most",
    [
        # tiny sigma: the root b1 is 3e9 and 8e9, the 32nd and 34th rung; a
        # rung-by-rung climb evaluated the layer equation 48 and 47 times
        (0.25, 1.777, 3.154e-5, 20),
        (0.75, 3.645, 2.29e-5, 20),
        # the root is rung 0 or close to it: no more than the climb's 22
        (0.25, 2.045, 8.97, 22),
    ],
)
def test_layer_root_solve_finds_the_bracket_in_few_evaluations(
    monkeypatch, rho, x, sigma, most
) -> None:
    seen = _counting(monkeypatch, "_bl_sigma_lhs")
    _solve_b1_direct(x, sigma, rho, 1.0 - math.sqrt(rho))
    assert sum(seen.values()) <= most


# D1/D2 roots b1 and D3 roots alpha over rho in {0.25, 0.75}, x on both
# sides of v* = c^(-1/2) and sigma in [1e-5, 10] (each D2 sigma between its
# two curves), recorded as float hex from the rung-by-rung bracket search;
# D2 and D3 are now solved by Newton, within a few ulps of those roots
LAYER_ROOTS = [
    (0.25, 0.3, 1e-05, "D1", "0x1.ad2745ef6c153p+29"),
    (0.25, 0.3, 0.01, "D1", "0x1.b7d96c55aff15p+9"),
    (0.25, 0.3, 1.0, "D3", "0x1.f9a6b57d26552p-2"),
    (0.25, 0.3, 10.0, "D3", "0x1.573081ca3351dp+0"),
    (0.25, 1.273, 1e-05, "D1", "0x1.e2f48cfe5c5d3p+33"),
    (0.25, 1.273, 0.01, "D1", "0x1.fa26e445539c9p+13"),
    (0.25, 1.273, 1.0, "D1", "-0x1.1db91f1465c98p-1"),
    (0.25, 1.273, 10.0, "D3", "0x1.61c6c90d368d8p+0"),
    (0.25, 1.838, 1e-05, "D1", "0x1.f765c80c74771p+34"),
    (0.25, 1.838, 0.01, "D1", "0x1.07df87a2a803ap+15"),
    (0.25, 1.838, 1.0, "D1", "0x1.3dfdf98254a85p+0"),
    (0.25, 1.838, 10.0, "D1", "-0x1.69ae3a12b36f5p+0"),
    (0.25, 0.3, 0.1819, "D2", "-0x1.8f4533eeb07e7p+1"),
    (0.25, 0.9, 1.267, "D2", "-0x1.88805c0ede4bcp+0"),
    (0.25, 1.273, 3.394, "D2", "-0x1.6ba81803f2ce2p+0"),
    (0.75, 0.3, 1e-05, "D1", "0x1.1e1a2c1a42459p+28"),
    (0.75, 0.3, 0.01, "D1", "0x1.1b23bc49d0d7cp+8"),
    (0.75, 0.3, 1.0, "D3", "0x1.6342dc7de17e0p-1"),
    (0.75, 0.3, 10.0, "D3", "0x1.2a2059fed1b1ap+1"),
    (0.75, 2.459, 1e-05, "D1", "0x1.2c57865ec04d9p+34"),
    (0.75, 2.459, 0.01, "D1", "0x1.3adb89833905dp+14"),
    (0.75, 2.459, 1.0, "D1", "0x1.62234f0227531p-1"),
    (0.75, 2.459, 10.0, "D3", "0x1.480b92afaa6f9p+1"),
    (0.75, 3.552, 1e-05, "D1", "0x1.3956d7ff0d1a5p+35"),
    (0.75, 3.552, 0.01, "D1", "0x1.4887f52c1f159p+15"),
    (0.75, 3.552, 1.0, "D1", "0x1.783f403e6d4f8p+1"),
    (0.75, 3.552, 10.0, "D1", "-0x1.7389e388fcaf3p-1"),
    (0.75, 0.3, 0.1007, "D2", "-0x1.75db8085fd6f5p+1"),
    (0.75, 0.9, 0.5786, "D2", "-0x1.2433ba2adc61fp+0"),
    (0.75, 2.459, 5.259, "D2", "-0x1.787cefea877b4p-1"),
]


@pytest.mark.parametrize("rho, x, sigma, region, root", LAYER_ROOTS)
def test_layer_roots_pinned(rho, x, sigma, region, root) -> None:
    c = 1.0 - math.sqrt(rho)
    assert subcritical._xsigma_region(x, sigma, rho) == region
    if region == "D1":
        assert _solve_b1_direct(x, sigma, rho, c) == float.fromhex(root)
        return
    alpha = _solve_alpha(x, sigma, rho, c, region)[0]
    got = alpha if region == "D3" else -(c * alpha + 1.0 / alpha)
    assert got == pytest.approx(float.fromhex(root), rel=4e-15, abs=0.0)


def _d1_ladder(x: float, c: float) -> list:
    """The 200 rungs floor + span 2^k of the D1 upper bracket end, each built
    from the last as a walk up the ladder builds it."""
    floor = -2.0 * math.sqrt(c) if x >= c**-0.5 else -(c * x + 1.0 / x)
    rungs = [floor + max(1.0, abs(floor))]
    while len(rungs) < 200:
        rungs.append(floor + (rungs[-1] - floor) * 2.0)
    return rungs


def _d1_bracket(monkeypatch, x: float, sigma: float, rho: float, c: float) -> tuple:
    """The (lo, hi) that `_solve_b1_direct` hands Brent."""
    brackets = []
    inner = subcritical.find_root_bracketed

    def recorded(g, lo, hi):
        brackets.append((lo, hi))
        return inner(g, lo, hi)

    monkeypatch.setattr(subcritical, "find_root_bracketed", recorded)
    _solve_b1_direct(x, sigma, rho, c)
    (bracket,) = brackets
    return bracket


@pytest.mark.parametrize(
    "rho, x, sigma",
    [
        (0.25, 0.5, 0.05),
        (0.25, 0.5, 0.2),
        (0.25, 1.838, 10.0),  # the root b1 is negative
        (0.25, 2.045, 8.97),  # the root is at rung 0 or close to it
        # tiny sigma: the root is the 28th-33rd rung
        (0.25, 0.3, 1e-5),
        (0.25, 1.777, 3.154e-5),
        (0.75, 3.645, 2.29e-5),
    ],
)
def test_d1_upper_bracket_is_the_walks_first_negative_rung(monkeypatch, rho, x, sigma) -> None:
    # a quadrature that gives up counts as not negative, as in the walk
    c = 1.0 - math.sqrt(rho)
    target = 2.0 * math.sqrt(rho) * sigma
    assert subcritical._xsigma_region(x, sigma, rho) == "D1"

    def negative(b1: float) -> bool:
        try:
            return _bl_sigma_lhs(x, b1, c) < target
        except MaxDepthExceeded:
            return False

    rungs = _d1_ladder(x, c)
    walk = next(b for b in rungs if negative(b))
    assert _d1_bracket(monkeypatch, x, sigma, rho, c)[1] == walk


@pytest.mark.parametrize("rho, x, rung", [(0.25, 0.5, 3), (0.25, 1.777, 20), (0.75, 3.645, 30)])
def test_d1_upper_bracket_steps_up_past_a_rung_within_the_margin(
    monkeypatch, rho, x, rung
) -> None:
    # the target sits just under the rung's P, within the closed form's 1e-6
    # margin: the closed form cannot settle that rung, so its quadrature
    # runs, finds it not negative, and the next rung ends the bracket
    c = 1.0 - math.sqrt(rho)
    rungs = _d1_ladder(x, c)
    sigma = _bl_sigma_lhs(x, rungs[rung], c) / (1.0 + 5e-7) / (2.0 * math.sqrt(rho))
    assert subcritical._xsigma_region(x, sigma, rho) == "D1"
    seen = _counting(monkeypatch, "_bl_sigma_lhs")
    assert _d1_bracket(monkeypatch, x, sigma, rho, c)[1] == rungs[rung + 1]
    assert [b1 for b1 in seen if b1 in rungs] == rungs[rung : rung + 2]


def test_d1_root_residual_check(monkeypatch) -> None:
    # a step in b1 gives Brent a "root" where |f| stays large
    x, sigma = 0.5, 0.05
    target = 2.0 * math.sqrt(PARAMS.rho) * sigma

    def step(x: float, b1: float, c: float, shared: bool = False) -> float:
        return 2.0 * target if b1 < 1.0 else 0.0

    monkeypatch.setattr(subcritical, "_bl_sigma_lhs", step)
    with pytest.raises(BracketFailure, match="Brent's width"):
        _solve_b1_direct(x, sigma, PARAMS.rho, C)


def _counting_depth_fails(monkeypatch) -> list:
    """Count the quadratures of subcritical.tanh_sinh that give up at max_depth."""
    fails = [0]
    inner = subcritical.tanh_sinh

    def counted(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        except MaxDepthExceeded:
            fails[0] += 1
            raise

    monkeypatch.setattr(subcritical, "tanh_sinh", counted)
    return fails


def test_inner_panel_shared_between_solves(monkeypatch) -> None:
    # x >= v* = c^(-1/2) = 1.414: both solves walk their left end up from
    # the floor -2 sqrt(c) through the same b1 values, whose inner panels
    # give up at max_depth; the second solve reads them from the memo.  (Its
    # outer panel is always integrated, and at some x, such as 2.5, it too
    # gives up at the walk's first step where the inner panel converges)
    subcritical._sigma_inner_panel.cache_clear()
    fails = _counting_depth_fails(monkeypatch)
    first = _solve_b1_direct(2.045, 8.97, PARAMS.rho, C)
    assert fails[0] > 0
    fails[0] = 0
    second = _solve_b1_direct(3.0, 1e-3, PARAMS.rho, C)
    assert fails[0] == 0
    assert first != second


def test_inner_panel_memo_holds_only_the_walk() -> None:
    # the rungs' and Brent's b1 values belong to one solve each and bypass
    # the memo, so a later solve at the same rho adds nothing to it and
    # cannot push out another rho's walk
    subcritical._sigma_inner_panel.cache_clear()
    _solve_b1_direct(2.045, 8.97, PARAMS.rho, C)
    walk = subcritical._sigma_inner_panel.cache_info()
    assert 0 < walk.currsize <= 8
    _solve_b1_direct(3.0, 1e-3, PARAMS.rho, C)
    _solve_b1_direct(1.777, 3.154e-5, PARAMS.rho, C)
    info = subcritical._sigma_inner_panel.cache_info()
    assert info.currsize == walk.currsize
    assert info.misses == walk.misses


@pytest.mark.parametrize("x", [2.0, 2.5, 3.0])
def test_inner_panel_memo_keeps_the_bits(x) -> None:
    # against both panels integrated afresh by _split_quad, cold and warm,
    # from just above the floor -2 sqrt(c), where the inner panel gives up
    # and the memo replays its MaxDepthExceeded with the same message; the
    # unshared form gives the same bits and leaves the memo alone
    subcritical._sigma_inner_panel.cache_clear()
    floor = -2.0 * math.sqrt(C)
    failed = 0
    for b1 in [floor + 1e-12, floor + 1e-6, -1.3, -1.0, 0.5, 40.0] * 2:
        h = subcritical._sigma_integrand(b1, C)
        before = subcritical._sigma_inner_panel.cache_info()
        try:
            want = subcritical._split_quad(h, math.sqrt(x), C, subcritical._EQ_QUAD_TOL)
        except MaxDepthExceeded as err:
            for shared in (True, False):
                with pytest.raises(MaxDepthExceeded) as info:
                    _bl_sigma_lhs(x, b1, C, shared=shared)
                assert info.value.args == err.args
            failed += 1
        else:
            assert _bl_sigma_lhs(x, b1, C, shared=True) == want
            assert _bl_sigma_lhs(x, b1, C) == want
        after = subcritical._sigma_inner_panel.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 1
    assert failed >= 2
    assert subcritical._sigma_inner_panel.cache_info().hits == 6


def test_inner_panel_domain_error_not_kept() -> None:
    # b1 below the floor: the sqrt of a negative Q raises on every call and
    # leaves nothing in the memo
    subcritical._sigma_inner_panel.cache_clear()
    for _ in range(2):
        with pytest.raises(FloatingPointError):
            _bl_sigma_lhs(2.0, -3.0, C, shared=True)
    info = subcritical._sigma_inner_panel.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


def test_inner_panel_memo_is_bounded() -> None:
    subcritical._sigma_inner_panel.cache_clear()
    size = subcritical._INNER_PANEL_MEMO_SIZE
    for b1 in np.linspace(0.5, 50.0, size + 8).tolist():
        _bl_sigma_lhs(2.5, b1, C, shared=True)
    info = subcritical._sigma_inner_panel.cache_info()
    assert info.misses == size + 8
    assert info.currsize == size


# ---------------------------------------------------------------------------
# classification: one label for every point
# ---------------------------------------------------------------------------


@st.composite
def _grid_points(draw):
    big_n = draw(st.sampled_from([10**3, 10**4, 10**6]))
    rho = draw(st.floats(0.05, 0.95, exclude_min=True, exclude_max=True))
    n = draw(st.integers(0, big_n - 1))
    t = draw(st.floats(0.0, 1e3 * big_n))
    return big_n, rho, n, t


# derandomized and without an example database, so every run draws the same
# examples and none is saved between runs
@settings(database=None, derandomize=True, deadline=None)
@given(_grid_points())
def test_classify_labels_every_point(point) -> None:
    big_n, rho, n, t = point
    params = ModelParams(big_n, rho)
    label = classify(n, t, params)
    assert label.kind in subcritical.REGIME_KINDS
    assert (label.xi, label.tau, label.x, label.sigma) == (
        n / big_n,
        t / big_n,
        n / math.sqrt(big_n),
        t / big_n**0.75,
    )
    assert (label.sub is not None) == (label.kind == "BL_xsigma")
    assert classify(n, t, params) == label


def test_critical_curves_past_float_range() -> None:
    # math.expm1(rho tau) overflows past tau = 709.8 / rho (xi0) and
    # math.sinh(rho tau / 2) past tau = 1421 / rho (xi_star); both curves are
    # then beyond every xi, and a bulk point there is R3
    curves = critical_curves(0.95)
    assert curves.xi0(1000.0) == math.inf
    assert curves.xi_star(2000.0) == math.inf
    assert classify(500, 1e6, ModelParams(1000, 0.95)).kind == "R3"


# ---------------------------------------------------------------------------
# caller input
# ---------------------------------------------------------------------------

_CURVES = critical_curves(0.25)

BAD_INPUT = {
    "classify-n-low": lambda: classify(-1, 1.0, PARAMS),
    "classify-n-high": lambda: classify(PARAMS.population, 1.0, PARAMS),
    "classify-t": lambda: classify(5, -1.0, PARAMS),
    "classify-t-nan": lambda: classify(5000, math.nan, PARAMS),
    "classify-t-inf": lambda: classify(5000, math.inf, PARAMS),
    "classify-n-fraction": lambda: classify(2.5, 1.0, PARAMS),
    "regime-kind": lambda: RegimeLabel("R9", 0.1, 0.1, 1.0, 1.0),
    "tau0": lambda: _CURVES.tau0(-0.1),
    "tau_star": lambda: _CURVES.tau_star(-0.1),
    "xi0": lambda: _CURVES.xi0(-0.1),
    "xi_star": lambda: _CURVES.xi_star(-0.1),
    "tau0-nan": lambda: _CURVES.tau0(math.nan),
    "tau_star-nan": lambda: _CURVES.tau_star(math.nan),
    "xi0-nan": lambda: _CURVES.xi0(math.nan),
    "xi_star-nan": lambda: _CURVES.xi_star(math.nan),
    "d1d2-curve": lambda: d1d2_curve_sigma(0.0, 0.25),
    "d1d2-curve-nan": lambda: d1d2_curve_sigma(math.nan, 0.25),
    "d2d3-curve": lambda: d2d3_curve_sigma(5.0, 0.25),
    "r3-big-f": lambda: r3_big_f(-0.1, 0.25),
    "r3-big-f-nan": lambda: r3_big_f(math.nan, 0.25),
    "r3-j-factor": lambda: r3_j_factor(0.0, 0.25),
    "r3-j-factor-nan": lambda: r3_j_factor(math.nan, 0.25),
    "t2-solve": lambda: t2_solve_A(math.nan, 0.25),
    "t2-evaluate": lambda: t2_evaluate(0.0, 1.0, PARAMS),
    "t2-evaluate-nan": lambda: t2_evaluate(math.nan, 0.0, PARAMS),
    "bl-xsigma-x": lambda: bl_xsigma_evaluate(0.0, 1.0, PARAMS),
    "bl-xsigma-x-inf": lambda: bl_xsigma_evaluate(math.inf, 1.0, PARAMS),
    "bl-xsigma-sigma": lambda: bl_xsigma_evaluate(0.5, 0.0, PARAMS),
    "bl-xsigma-sigma-nan": lambda: bl_xsigma_evaluate(0.5, math.nan, PARAMS),
    "bl-nsigma-n": lambda: bl_nsigma_evaluate(-1, 1.0, PARAMS),
    "bl-nsigma-n-fraction": lambda: bl_nsigma_evaluate(2.5, 1.0, PARAMS),
    "bl-nsigma-sigma": lambda: bl_nsigma_evaluate(3, 0.0, PARAMS),
    "bl-nsigma-sigma-nan": lambda: bl_nsigma_evaluate(3, math.nan, PARAMS),
    "bl-xtau-x": lambda: bl_xtau_evaluate(0.0, 1.0, PARAMS),
    "bl-xtau-tau": lambda: bl_xtau_evaluate(1.0, 0.0, PARAMS),
    "bl-xtau-tau-nan": lambda: bl_xtau_evaluate(1.0, math.nan, PARAMS),
    "bl-ntau-n": lambda: bl_ntau_evaluate(-1, 1.0, PARAMS),
    "bl-ntau-n-fraction": lambda: bl_ntau_evaluate(2.5, 1.0, PARAMS),
    "bl-ntau-tau": lambda: bl_ntau_evaluate(3, 0.0, PARAMS),
    "bl-ntau-tau-inf": lambda: bl_ntau_evaluate(3, math.inf, PARAMS),
    "mode-index": lambda: eigen_asym_sub(-1, PARAMS),
    "mode-index-fraction": lambda: eigen_asym_sub(2.5, PARAMS),
    "coeff-mode-index": lambda: spectral_coeff_asym_sub(-1, PARAMS),
    "eigvec-shape-j": lambda: eigvec_shape_g(-1, 1.0, 0.25),
    "eigvec-shape-j-fraction": lambda: eigvec_shape_g(0.5, 1.0, 0.25),
    "eigvec-shape-x": lambda: eigvec_shape_g(0, 0.0, 0.25),
    "eigvec-shape-x-nan": lambda: eigvec_shape_g(0, math.nan, 0.25),
    "eigvec-n": lambda: eigvec_asym_sub(0, -1, PARAMS),
    "eigvec-n-fraction": lambda: eigvec_asym_sub(0, 2.5, PARAMS),
    "log-value-scale": lambda: LogDensityApprox(-1.0).log_value(0.0),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_raises_invalid_input(case: str) -> None:
    with pytest.raises(InvalidInput):
        BAD_INPUT[case]()


# ---------------------------------------------------------------------------
# eigenvalue expansion against the exact spectrum
# ---------------------------------------------------------------------------


def _scaled_eigen_errors(rho: float, j: int) -> list:
    """(asym - exact) N^(5/4) for mode j at N = 10^3, 10^4, 10^5, 10^6; the
    exact nu_j from the symmetrized generator, slowest modes only."""
    out = []
    for big_n in (10**3, 10**4, 10**5, 10**6):
        params = ModelParams(big_n, rho)
        gen = build_generator(params)
        exact = eigvalsh_tridiagonal(
            -gen.diag, np.sqrt(gen.sup * gen.sub), select="i", select_range=(j, j)
        )[0]
        out.append((eigen_asym_sub(j, params) - exact) * big_n**1.25)
    return out


@pytest.mark.parametrize("j, lo, hi", [(0, -0.30, -0.20), (1, -0.96, -0.90)])
def test_eigen_asym_error_is_order_n_to_minus_five_quarters(j, lo, hi) -> None:
    # measured -0.237, -0.253, -0.260, -0.264 (j = 0) and -0.931, -0.933,
    # -0.929, -0.925 (j = 1)
    for scaled in _scaled_eigen_errors(0.25, j):
        assert lo <= scaled <= hi


def test_eigen_asym_next_term_is_order_n_to_minus_three_halves() -> None:
    # at rho = 0.75 the scaled error still moves (-0.61, -1.10, -1.41,
    # -1.59), but by steps that shrink by 10^(-1/4) = 0.56 a decade, as an
    # N^(-3/2) next term would (measured 0.64 and 0.57); a log N term would
    # keep them constant
    e3, e4, e5, e6 = _scaled_eigen_errors(0.75, 0)
    assert e6 < e5 < e4 < e3 < 0.0
    assert 0.5 <= (e5 - e4) / (e4 - e3) <= 0.75
    assert 0.5 <= (e6 - e5) / (e5 - e4) <= 0.75


def test_spectral_coeff_converges_to_exact_c0() -> None:
    # the exact c_0 = beta_0 v_0(0) / D_0 from the slowest eigenvector alone,
    # taken to the expansion's normalization phi_0(0) = Q(0); the error in
    # log (measured -0.257, -0.199, -0.150, -0.110) shrinks by about
    # 4^(-1/4) = 0.71 per step (measured 0.78, 0.75, 0.74)
    errors = []
    for big_n in (1000, 4000, 16000, 64000):
        params = ModelParams(big_n, 0.25)
        gen = build_generator(params)
        _, vec = eigh_tridiagonal(
            -gen.diag, -np.sqrt(gen.sup * gen.sub), select="i", select_range=(0, 0)
        )
        v = vec[:, 0]
        log_d = 0.5 * (np.log(np.arange(big_n) + 1.0) + steady_state_log_weights(params))
        beta = v @ np.exp(log_d - np.log(np.arange(big_n) + 1.0))
        log_c0 = math.log(beta * v[0]) - log_d[0] - loop_series_Q_log(0)
        errors.append(spectral_coeff_asym_sub(0, params).log_value(big_n) - log_c0)
    assert all(e < 0.0 for e in errors)
    for prev, cur in zip(errors, errors[1:]):
        assert 0.65 <= cur / prev <= 0.85


# (j, n) in the corner, Gaussian, x and xi windows at N = 10^4, rho = 0.25,
# and phi_j(n) there as a plain double
_EIGVEC_LINEAR = [
    (0, 5, 1120.6569884793817),
    (2, 150, -4.251400900682544e50),
    (1, 300, -3.2903092526936914e95),
    (1, 800, -3.471141262316452e226),
]


def test_eigvec_asym_in_log_form() -> None:
    params = ModelParams(10**4, 0.25)
    for j, n, linear in _EIGVEC_LINEAR:
        sign, log_mag = eigvec_asym_sub(j, n, params)
        assert sign * math.exp(log_mag) == pytest.approx(linear, rel=1e-12, abs=0.0)
    # phi_0 grows like rho^(-n/2) past double range on the xi scale
    for n in (3000, 9000):
        sign, log_mag = eigvec_asym_sub(0, n, params)
        assert sign == 1 and 709.8 < log_mag < math.inf
    with pytest.raises(ScaleGap):
        eigvec_asym_sub(1, 450, params)


# ---------------------------------------------------------------------------
# Newton solves of the closed-form layer equations (T2, BL_nsigma)
# ---------------------------------------------------------------------------


def _mp_t2_f0(a, c):
    # F0(a, c) = pi / AGM(x0, c^(1/4)) = 2 K(m) / x0, m = 1 - sqrt(c) / x0^2
    x0 = mp.sqrt((a + 2 * mp.sqrt(c)) / 4)
    return 2 * mp.ellipk(1 - mp.sqrt(c) / x0**2) / x0


def _t2_derivative_cases():
    for rho in (0.25, 0.75):
        c = 1.0 - math.sqrt(rho)
        floor = -2.0 * math.sqrt(c)
        for a_val in (floor + 1e-9, floor + 1e-6, floor + 1e-3, -0.3, 0.7, 5.0):
            yield pytest.param(a_val, c, id=f"rho{rho}-a{a_val:.10g}")


@pytest.mark.parametrize("a_val, c", list(_t2_derivative_cases()))
def test_t2_gap_derivative_is_minus_half_pref(a_val, c) -> None:
    # gap = 4 F0_a + 2 a F0_c, so d gap / da = 4 F0_aa + 2 F0_c + 2 a F0_ac,
    # by 40-digit differentiation of the elliptic form of F0.  The float code
    # places a against the floor with the rounded sqrt(c); the reference is
    # taken at the point that offset stands for, which next to the floor
    # differs from the double a by more than the identity's error
    with mp.workdps(40):
        c_mp = mp.mpf(c)
        a = mp.mpf(a_val) + 2 * (mp.mpf(math.sqrt(c)) - mp.sqrt(c_mp))
        f_aa = mp.diff(_mp_t2_f0, (a, c_mp), (2, 0))
        f_c = mp.diff(_mp_t2_f0, (a, c_mp), (0, 1))
        f_ac = mp.diff(_mp_t2_f0, (a, c_mp), (1, 1))
        want = float(4 * f_aa + 2 * f_c + 2 * a * f_ac)
    assert -0.5 * _t2_integrals(a_val, c)[2] == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("k", [1e-4, 0.3, 0.9, 1.0 - 1e-9])
def test_k_minus_e_derivative(k) -> None:
    # d(K - E)/dk = k E / (1 - k^2), the slope of the sigma-layer equation
    pair = elliptic_KE(k)
    got = k * pair.E / ((1.0 - k) * (1.0 + k))
    with mp.workdps(40):
        want = mp.diff(lambda q: mp.ellipk(q * q) - mp.ellipe(q * q), mp.mpf(k))
    assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("rho", [0.25, 0.75])
@pytest.mark.parametrize(
    "fraction", [1e-6, 1e-4, 1e-2, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-6]
)
def test_bl_eta_closed_form(rho, fraction) -> None:
    # alpha = fraction * v*, against the quadrature it replaced and 50-digit
    # mpmath; at small k the textbook (1 + k^2) E - (1 - k^2) K cancels
    # (1.4e-9 relative at fraction 1e-4), which the AGM tail avoids
    c = 1.0 - math.sqrt(rho)
    alpha = fraction * c**-0.5
    b1 = -(c * alpha + 1.0 / alpha)
    closed = _bl_eta_closed_form(alpha, c, elliptic_KE(math.sqrt(c) * alpha))
    assert closed == pytest.approx(_bl_eta_integral(alpha, b1, c), rel=1e-14, abs=0.0)
    with mp.workdps(50):
        a_mp, c_mp = mp.mpf(alpha), mp.mpf(c)
        beta = 1 / (c_mp * a_mp)
        want = mp.quad(
            lambda v: mp.sqrt(c_mp * (a_mp - v) * (beta - v) / v), [0, a_mp / 2, a_mp]
        )
    assert closed == pytest.approx(float(want), rel=4e-15, abs=0.0)


@contextlib.contextmanager
def _counted_solves(name: str):
    """Count the calls of subcritical.<name> and record what
    subcritical.find_root_newton returns, inside the with block."""
    seen = SimpleNamespace(calls=0, roots=[])
    inner, solve = getattr(subcritical, name), subcritical.find_root_newton

    def counted(*args):
        seen.calls += 1
        return inner(*args)

    def recorded(*args, **kwargs):
        seen.roots.append(solve(*args, **kwargs))
        return seen.roots[-1]

    with mock.patch.object(subcritical, name, counted), mock.patch.object(
        subcritical, "find_root_newton", recorded
    ):
        yield seen


# the whole range lies inside the reach: tau = 2 sqrt(rho) c^(3/4) Delta stays
# below 10.9, where BracketFailure sets in from tau of about 13, so every
# solve must succeed
@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(st.floats(-15.0, 18.0), st.floats(0.05, 0.95))
def test_t2_solve_meets_its_residual_in_few_evaluations(delta, rho) -> None:
    with _counted_solves("_t2_integrals") as seen:
        a_val = t2_solve_A(delta, rho)
    assert seen.calls <= 10
    ((root, (residual, *_)),) = seen.roots
    assert root == a_val
    assert abs(residual) <= subcritical._ROOT_RESIDUAL_TOL
    target = 2.0 * math.sqrt(rho) * delta
    assert _t2_integrals(a_val, 1.0 - math.sqrt(rho))[0] - target == residual


# sigma of the surface's BL_nsigma points at N = 10^6, t in (8, 4 N^(3/4)]:
# far below the reach (sigma of 40 and up), so every solve must succeed
@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(st.floats(math.log(8.0 * 10**-4.5), math.log(4.0)), st.floats(0.05, 0.95))
def test_bl_nsigma_solve_meets_its_residual_in_few_evaluations(log_sigma, rho) -> None:
    params = ModelParams(10**6, rho)
    with _counted_solves("elliptic_KE") as seen:
        approx = bl_nsigma_evaluate(3, math.exp(log_sigma), params)
    assert seen.calls <= 10
    ((alpha, (residual, *_)),) = seen.roots
    assert abs(residual) <= subcritical._ROOT_RESIDUAL_TOL
    assert 0.0 < alpha < (1.0 - math.sqrt(rho)) ** -0.5
    assert math.isfinite(approx.log_value(params.population))


@pytest.mark.parametrize("rho", [0.25, 0.75])
def test_closed_form_layers_past_their_reach(rho) -> None:
    # the documented errors, never a raw one: T2's root within rounding of
    # the floor or past double range, sigma above the bracket's upper end,
    # and a sigma so small that the prefactor underflows
    for delta in (50.0, 1e3, 1e300, -1e300):
        with pytest.raises(BracketFailure):
            t2_solve_A(delta, rho)
    params = ModelParams(10**6, rho)
    for sigma in (200.0, 1e300, math.inf):
        with pytest.raises(RootNotBracketed):
            bl_nsigma_evaluate(3, sigma, params)
    for sigma in (5e-324, 1e-300):
        with pytest.raises(BracketFailure):
            bl_nsigma_evaluate(3, sigma, params)


def test_closed_form_layers_run_no_bracket_search_or_quadrature(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("not on a closed-form path")

    for name in ("find_root_bracketed", "tanh_sinh"):
        monkeypatch.setattr(subcritical, name, refuse)
    for delta in (-8.0, 0.0, 4.0, 8.0):
        _, approx = t2_evaluate(0.3, delta, PARAMS)
        assert math.isfinite(approx.log_value(PARAMS.population))
    for sigma in (3e-4, 0.05, 1.0, 4.0):
        approx = bl_nsigma_evaluate(3, sigma, PARAMS)
        assert math.isfinite(approx.log_value(PARAMS.population))
    # D2 and D3 at x = 0.5 and 1.2 (the D3 points as in D3_POINTS); D1
    # still goes through them
    for x, sigma in ((0.5, 0.45), (0.5, 1.0), (1.2, 3.5), (1.2, 3.9)):
        assert subcritical._xsigma_region(x, sigma, PARAMS.rho) != "D1"
        _, approx = bl_xsigma_evaluate(x, sigma, PARAMS)
        assert math.isfinite(approx.log_value(PARAMS.population))
    with pytest.raises(AssertionError, match="closed-form"):
        bl_xsigma_evaluate(0.5, 0.05, PARAMS)


@pytest.mark.parametrize("rho", [0.25, 0.75])
def test_closed_form_layer_reach_has_one_edge(rho) -> None:
    # a root is accepted where the doubles resolve its Newton variable, so
    # the fixed-n layer solves every sigma up to the bracket's end (the
    # root's |f| may exceed 1e-10 next to v*), and T2 solves every Delta
    # until its root comes within 2^26 ulps of the floor
    params = ModelParams(10**6, rho)
    outcomes = []
    for sigma in np.arange(40.0, 150.0, 0.5).tolist():
        try:
            approx = bl_nsigma_evaluate(3, sigma, params)
            assert math.isfinite(approx.log_value(params.population))
            outcomes.append("ok")
        except RootNotBracketed:
            outcomes.append("not bracketed")
    edge = outcomes.index("not bracketed")
    assert outcomes == ["ok"] * edge + ["not bracketed"] * (len(outcomes) - edge)
    assert 40.0 + 0.5 * edge == {0.25: 93.5, 0.75: 144.5}[rho]
    outcomes = []
    for delta in np.arange(15.0, 60.0, 0.05).tolist():
        try:
            t2_solve_A(delta, rho)
            outcomes.append("ok")
        except BracketFailure:
            outcomes.append("unresolved")
    edge = outcomes.index("unresolved")
    assert outcomes == ["ok"] * edge + ["unresolved"] * (len(outcomes) - edge)
    assert 15.0 + 0.05 * edge == pytest.approx({0.25: 30.0, 0.75: 46.6}[rho])


# T2 roots past Delta = 22 (rho = 0.25) and 31.6 (rho = 0.75) that the
# residual check |f| <= 1e-10 let through, as float hex: the same bits now
@pytest.mark.parametrize(
    "delta, rho, root",
    [
        (22.35, 0.25, "-0x1.6a09cedf3f977p+0"),
        (25.15, 0.25, "-0x1.6a09e1f400e0ep+0"),
        (27.9, 0.25, "-0x1.6a09e589c06e7p+0"),
        (31.55, 0.75, "-0x1.76cf0d192d860p-1"),
        (38.2, 0.75, "-0x1.76cf56ce060a4p-1"),
    ],
)
def test_t2_roots_past_the_old_residual_reach(delta, rho, root) -> None:
    assert t2_solve_A(delta, rho) == float.fromhex(root)


def _mp_bl_nsigma_log(n: int, sigma: float, rho: float, big_n: int) -> float:
    """`bl_nsigma_evaluate`'s log density from a 50-digit solve of its
    layer equation and 50-digit K, E."""
    with mp.workdps(50):
        rho, sigma = mp.mpf(rho), mp.mpf(sigma)
        sr = mp.sqrt(rho)
        c = 1 - sr

        def lhs(a):
            m = c * a * a
            return 2 * (mp.ellipk(m) - mp.ellipe(m)) / (c * mp.sqrt(a))

        vstar = 1 / mp.sqrt(c)
        alpha = mp.findroot(
            lambda a: lhs(a) - sr * sigma, (vstar / 2, vstar * (1 - mp.mpf(10) ** -30)),
            solver="anderson",
        )
        m = c * alpha * alpha
        big_k, big_e = mp.ellipk(m), mp.ellipe(m)
        root_disc = (1 - m) / alpha
        gamma_star = (
            -2 * sr * sigma + 8 * mp.sqrt(alpha) * big_e / root_disc
        ) / root_disc
        eta = 2 * mp.sqrt(alpha) / (3 * m) * ((1 + m) * big_e - (1 - m) * big_k)
        combo = sr * sigma * -(c * alpha + 1 / alpha) - 2 * eta
        coeff_o1 = (
            mp.log(2 * mp.sqrt(2 * mp.pi)) - mp.log(c) + sr / c - mp.log(gamma_star) / 2
            - n * mp.log(rho) / 2 + mp.mpf(loop_series_Q_log(n))
        )
        big_n = mp.mpf(big_n)
        return float(
            -c * c * sigma * big_n ** mp.mpf(0.75) + combo * big_n ** mp.mpf(0.25)
            - mp.mpf(0.625) * mp.log(big_n) + coeff_o1
        )


@pytest.mark.parametrize("sigma", [20.0, 45.5, 54.0, 80.0])
def test_bl_nsigma_next_to_vstar_matches_mpmath(sigma) -> None:
    # the root comes within 1e-12 relative of v* at sigma = 93: sqrt(b1^2 - 4c)
    # is formed as (1 - k^2) / alpha and k' as sqrt((1 - k)(1 + k)), so the
    # density keeps the accuracy the rounding of alpha allows
    got = bl_nsigma_evaluate(3, sigma, PARAMS).log_value(PARAMS.population)
    want = _mp_bl_nsigma_log(3, sigma, PARAMS.rho, PARAMS.population)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# the D2 and D3 layers: Newton on P and 2F - P in Carlson form
# ---------------------------------------------------------------------------


def _mp_real_root_integrals(x, delta, c) -> tuple:
    """P, Gamma, eta(x) and q(x)/x of `_real_root_integrals` in 40 digits from
    the Legendre forms: with v = alpha sin^2 t, P is the incomplete elliptic
    integral F - E in k^2 = c alpha^2 up to phi = asin(sqrt(x / alpha)),
    Gamma = -2 alpha^2 / (1 - k^2) dP/dalpha at fixed x, and eta a smooth
    quadrature over (0, phi)."""
    with mp.workdps(40):
        x, c = mp.mpf(x), mp.mpf(c)
        alpha = x + mp.mpf(delta)

        def part(al):
            m = c * al * al
            phi = mp.asin(mp.sqrt(x / al))
            return 2 * al ** mp.mpf(1.5) / m * (mp.ellipf(phi, m) - mp.ellipe(phi, m))

        m = c * alpha * alpha
        phi = mp.asin(mp.sqrt(x / alpha))
        gamma_int = -2 * alpha**2 / (1 - m) * mp.diff(part, alpha)
        eta = 2 * mp.sqrt(alpha) * mp.quad(
            lambda t: mp.cos(t) ** 2 * mp.sqrt(1 - m * mp.sin(t) ** 2), [0, phi]
        )
        q_over_x = (1 - x / alpha) * (1 - c * alpha * x) / x
        return tuple(float(v) for v in (part(alpha), gamma_int, eta, q_over_x))


def _real_root_cases():
    for rho in (0.25, 0.75):
        c = 1.0 - math.sqrt(rho)
        vstar = c**-0.5
        for x in (0.01, 0.3, 0.9 * vstar):
            # next to the D2/D3 curve, mid-range, and next to v*, where
            # alpha and beta meet and the R_D difference form of Gamma cancels
            for delta in (1e-9 * x, 0.5 * (vstar - x), 0.999 * vstar - x):
                yield pytest.param(x, delta, c, id=f"rho{rho}-x{x:.3g}-d{delta:.3g}")


@pytest.mark.parametrize("x, delta, c", list(_real_root_cases()))
def test_real_root_integrals_match_mpmath(x, delta, c) -> None:
    got = _real_root_integrals(x, delta, c)
    assert got == pytest.approx(_mp_real_root_integrals(x, delta, c), rel=6e-15, abs=0.0)


def _mp_d3_lhs(x, alpha, c):
    """2F - P: F and P are complete and incomplete elliptic integrals in
    k^2 = c alpha^2, P up to phi = asin(sqrt(x / alpha))."""
    m = c * alpha * alpha
    phi = mp.asin(mp.sqrt(x / alpha))
    scale = 2 * alpha ** mp.mpf(1.5) / m
    full = scale * (mp.ellipk(m) - mp.ellipe(m))
    part = scale * (mp.ellipf(phi, m) - mp.ellipe(phi, m))
    return 2 * full - part


D3_POINTS = [
    (0.25, 0.3, 1.0),
    (0.25, 0.027, 0.00697591488530455),  # 4.6e-7 x from the D2/D3 curve
    (0.25, 1.2, 3.9),
    (0.25, 0.01, 3.0),
    (0.25, 0.9, 4.0),
    (0.75, 0.3, 1.0),
    (0.75, 2.0, 3.9),
    (0.75, 0.05, 0.5),
    (0.75, 1.5, 2.0),
    (0.75, 0.009, 3.9),
]


@pytest.mark.parametrize("rho, x, sigma", D3_POINTS)
def test_d3_root_matches_mpmath(rho, x, sigma) -> None:
    c = 1.0 - math.sqrt(rho)
    assert subcritical._xsigma_region(x, sigma, rho) == "D3"
    alpha = _solve_alpha(x, sigma, rho, c, "D3")[0]
    with mp.workdps(40):
        c_mp = 1 - mp.sqrt(mp.mpf(rho))
        target = 2 * mp.sqrt(mp.mpf(rho)) * mp.mpf(sigma)
        guess = mp.mpf(alpha)
        want = mp.findroot(
            lambda a: _mp_d3_lhs(mp.mpf(x), a, c_mp) - target,
            (guess * (1 - mp.mpf(10) ** -9), guess * (1 + mp.mpf(10) ** -9)),
            solver="secant",
        )
    assert alpha == pytest.approx(float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "rho, x, alpha",
    [
        (0.25, 0.3, 0.5),
        (0.25, 0.3, 0.300001),
        (0.25, 1.0, 1.4),
        (0.25, 0.01, 0.4),
        (0.75, 2.0, 2.7),
        (0.75, 0.5, 0.6),
    ],
)
def test_d3_equation_matches_mpmath(rho, x, alpha) -> None:
    # 2F - P from the closed forms of F and P, and its slope
    # 2F' + (1/2) Gamma (1 - k^2) / alpha^2 with Gamma the prefactor integral
    c = 1.0 - math.sqrt(rho)
    full, full_slope, _ = _fixed_n_lhs(alpha, c)
    part, gamma_int, _, _ = _real_root_integrals(x, alpha - x, c)
    got = 2.0 * full - part
    k = math.sqrt(c) * alpha
    db1 = (1.0 - k) * (1.0 + k) / alpha**2
    slope = 2.0 * full_slope + 0.5 * gamma_int * db1
    with mp.workdps(40):
        c_mp = 1 - mp.sqrt(mp.mpf(rho))
        want = _mp_d3_lhs(mp.mpf(x), mp.mpf(alpha), c_mp)
        want_slope = mp.diff(lambda a: _mp_d3_lhs(mp.mpf(x), a, c_mp), mp.mpf(alpha))
    assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)
    assert slope == pytest.approx(float(want_slope), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("rho, x, sigma", D3_POINTS[:1] + D3_POINTS[2:])
def test_d3_gamma0_closed_form(rho, x, sigma) -> None:
    # 6 alpha^2 eta_alpha / (1 - k^2)^2 against the form it replaced,
    # -2 sqrt(2) sqrt(-b1 + d) (d K + b1 E) / (c d^2), d = sqrt(b1^2 - 4c),
    # at the same alpha in 40 digits
    sol, _ = bl_xsigma_evaluate(x, sigma, ModelParams(10**6, rho))
    with mp.workdps(40):
        c = 1 - mp.sqrt(mp.mpf(rho))
        alpha = mp.mpf(sol.alpha)
        b1 = -(c * alpha + 1 / alpha)
        d = mp.sqrt(b1 * b1 - 4 * c)
        m = c * alpha * alpha
        want = (
            -2 * mp.sqrt(2) * mp.sqrt(-b1 + d) / (c * d * d)
            * (d * mp.ellipk(m) + b1 * mp.ellipe(m))
        )
    assert sol.gamma0 == pytest.approx(float(want), rel=1e-13, abs=0.0)


@st.composite
def _d2_d3_points(draw):
    """(rho, x, sigma) in D2 or D3 at N = 10^6 with sigma <= 4, the sigma
    layer's end: x in [0.009, v*) (n >= 9), and sigma drawn towards one of
    the curves, up from the D1/D2 curve or down to or up from the D2/D3
    curve, by a fraction of the way to the next curve or to 4 drawn
    log-uniformly down to 1e-14."""
    rho = draw(st.sampled_from([0.25, 0.75]))
    vstar = (1.0 - math.sqrt(rho)) ** -0.5
    x = draw(st.floats(0.009, vstar - 1e-6))
    low, mid = d1d2_curve_sigma(x, rho), d2d3_curve_sigma(x, rho)
    assume(low < 4.0)
    fraction = 10.0 ** draw(st.floats(-14.0, 0.0))
    side = draw(st.sampled_from(["up from D1/D2", "down to D2/D3", "up from D2/D3"]))
    if side == "up from D1/D2":
        sigma = low + (min(mid, 4.0) - low) * fraction
    elif side == "down to D2/D3":
        sigma = mid - (mid - low) * fraction
    else:
        assume(mid < 4.0)
        sigma = mid + (4.0 - mid) * fraction
    assume(subcritical._xsigma_region(x, sigma, rho) != "D1")
    return rho, x, sigma


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(_d2_d3_points())
def test_d2_d3_give_a_density_or_curve_singularity(point) -> None:
    # CurveSingularity is the only D2/D3 failure the benchmark knows, and it
    # is raised only within 1e-8 relative of the D2/D3 curve, where sigma's
    # own rounding no longer fixes the root; a solve takes at most 12 Newton
    # evaluations of the Carlson forms (D2 one more, at v*), and no
    # quadrature or bracket search
    rho, x, sigma = point
    params = ModelParams(10**6, rho)
    seen = Counter()
    inner = subcritical._real_root_integrals

    def counted(*args):
        seen["evaluations"] += 1
        return inner(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("D2 and D3 run no quadrature or bracket search")

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(subcritical, "_real_root_integrals", counted))
        for name in ("tanh_sinh", "find_root_bracketed"):
            stack.enter_context(mock.patch.object(subcritical, name, refuse))
        try:
            _, approx = bl_xsigma_evaluate(x, sigma, params)
        except CurveSingularity:
            assert abs(sigma / d2d3_curve_sigma(x, rho) - 1.0) <= 1e-8
            approx = None
    assert approx is None or math.isfinite(approx.log_value(params.population))
    assert seen["evaluations"] <= 12 + (subcritical._xsigma_region(x, sigma, rho) == "D2")


def _mp_bl_xsigma_log(rho, x, sigma, region, alpha_guess, big_n=10**6) -> float:
    """`bl_xsigma_evaluate`'s D2 or D3 log density from a 50-digit solve of
    the layer equation in Legendre form, with Gamma = -2 alpha^2 / (1 - k^2)
    dP/dalpha and the eta integrals by smooth quadrature in t, v = alpha sin^2 t."""
    with mp.workdps(50):
        rho, x, sigma = mp.mpf(rho), mp.mpf(x), mp.mpf(sigma)
        sr = mp.sqrt(rho)
        c = 1 - sr

        def part(alpha):  # P = 2F - (2F - P), F the value at x = alpha
            return 2 * _mp_d3_lhs(alpha, alpha, c) - _mp_d3_lhs(x, alpha, c)

        def lhs(delta):
            if region == "D2":
                return part(x + delta)
            return _mp_d3_lhs(x, x + delta, c)

        guess = mp.mpf(alpha_guess) - x
        delta = mp.findroot(
            lambda d: lhs(d) - 2 * sr * sigma,
            (guess * (1 - mp.mpf(10) ** -6), guess * (1 + mp.mpf(10) ** -6)),
            solver="secant",
        )
        alpha = x + delta
        m = c * alpha * alpha
        b1 = -(c * alpha + 1 / alpha)
        gamma_int = -2 * alpha**2 / (1 - m) * mp.diff(part, alpha)

        def eta_to(phi):
            return 2 * mp.sqrt(alpha) * mp.quad(
                lambda t: mp.cos(t) ** 2 * mp.sqrt(1 - m * mp.sin(t) ** 2), [0, phi]
            )

        eta_x = eta_to(mp.asin(mp.sqrt(x / alpha)))
        eta, gamma0 = b1 * sr * sigma - eta_x, 0
        if region == "D3":
            eta_alpha = eta_to(mp.pi / 2)
            eta += 2 * (eta_x - eta_alpha)
            gamma0 = 6 * eta_alpha * (alpha / (1 - m)) ** 2
        log_gamma = (
            mp.log(mp.sqrt(2) / c) + (1 + sr) / (2 * c) + x * x / 4 - mp.log(x) / 2
            - mp.log(c * x + 1 / x + b1) / 4 - mp.log(gamma_int + gamma0) / 2
        )
        n = mp.mpf(big_n)
        return float(
            -x * mp.log(rho) / 2 * mp.sqrt(n) - c * c * sigma * n ** mp.mpf(0.75)
            + eta * n ** mp.mpf(0.25) - mp.mpf(0.75) * mp.log(n) + log_gamma
        )


@pytest.mark.parametrize(
    "rho, x, curve, offset",
    [
        (0.25, 0.1, d1d2_curve_sigma, 1e-12),
        (0.25, 0.1, d2d3_curve_sigma, -1e-7),
        (0.25, 0.1, d2d3_curve_sigma, 1e-7),
        (0.75, 1.5, d1d2_curve_sigma, 1e-12),
        (0.75, 1.5, d1d2_curve_sigma, 0.2),
        (0.75, 1.5, d2d3_curve_sigma, 1e-7),
    ],
)
def test_d2_d3_density_matches_mpmath(rho, x, curve, offset) -> None:
    # next to both curves, where the quadratures gave up or the R_D
    # difference form of Gamma cancels, and in between
    sigma = curve(x, rho) * (1.0 + offset)
    sol, approx = bl_xsigma_evaluate(x, sigma, ModelParams(10**6, rho))
    want = _mp_bl_xsigma_log(rho, x, sigma, sol.region, sol.alpha)
    assert approx.log_value(10**6) == pytest.approx(want, rel=4e-15, abs=1e-12)


def test_d3_runs_no_bracket_search(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("D3 runs no bracket search")

    monkeypatch.setattr(subcritical, "find_root_bracketed", refuse)
    for rho, x, sigma in D3_POINTS:
        _, approx = bl_xsigma_evaluate(x, sigma, ModelParams(10**6, rho))
        assert math.isfinite(approx.log_value(10**6))


@pytest.mark.parametrize("rho", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("frac", [1e-4, 1e-2, 0.5, 0.99, 1.0 - 1e-4, 1.0 - 1e-6])
def test_d2d3_curve_matches_mpmath(rho, frac) -> None:
    # (K - E) / (sqrt(rho) c sqrt(x)) at k = sqrt(c) x = frac, from the c the
    # code forms.  Next to k = 1 one rounding of k moves K by about
    # eps / (1 - k) relative; at small k the form K - E cancels, and was
    # 3e-9 off at frac = 1e-4, where `_fixed_n_lhs` is not
    c = 1.0 - math.sqrt(rho)
    x = frac * c**-0.5
    with mp.workdps(40):
        cm, xm = mp.mpf(c), mp.mpf(x)
        m = cm * xm * xm
        want = (mp.ellipk(m) - mp.ellipe(m)) / (mp.sqrt(mp.mpf(rho)) * cm * mp.sqrt(xm))
    bound = 2e-15 + 2e-17 / (1.0 - frac)
    assert d2d3_curve_sigma(x, rho) == pytest.approx(float(want), rel=bound, abs=0.0)


# ---------------------------------------------------------------------------
# seams, matches and known defects
# ---------------------------------------------------------------------------


def test_bl_nsigma_matches_the_corner_tail() -> None:
    # n = 3 at sigma = 0.05 (t = 1581): the sigma layer and the infinite
    # model's large-t tail describe the same density; measured 0.0200 apart
    sigma = 0.05
    t = sigma * PARAMS.population**0.75
    layer = bl_nsigma_evaluate(3, sigma, PARAMS).log_value(PARAMS.population)
    corner = tail_asym_infinite(3, t, PARAMS.rho).log_value(t)
    assert abs(layer - corner) <= 0.03


@pytest.mark.parametrize(
    "x, offset",
    [
        pytest.param(x, offset, id=str(x))
        for x, offset in ((0.5, 1e-3), (0.8, 1e-3), (1.2, 1e-3), (0.027, 1e-6), (1.4, 1e-6))
    ],
)
def test_bl_xsigma_continuous_across_d2_d3(x, offset) -> None:
    s23 = d2d3_curve_sigma(x, PARAMS.rho)
    below, _ = bl_xsigma_evaluate(x, s23 * (1.0 - offset), PARAMS)
    above, _ = bl_xsigma_evaluate(x, s23 * (1.0 + offset), PARAMS)
    assert (below.region, above.region) == ("D2", "D3")
    assert abs(above.b1 - below.b1) <= 1e-4
    assert abs(above.eta - below.eta) <= 1e-2
    assert above.gamma == pytest.approx(below.gamma, rel=0.1)


def test_t2_far_below_the_band_is_not_silently_wrong() -> None:
    # xi = 0.0279, Delta = -14.6 at rho = 0.25, where the prefactor has lost
    # most of its digits and log p came out +12 885: now out of the band
    try:
        _, approx = t2_evaluate(0.0279, -14.6, PARAMS)
    except PSQError:
        return
    assert approx.log_value(PARAMS.population) <= 0.0


def test_t2_far_below_the_band_raises_a_psq_error() -> None:
    # Delta = -15.2, where the prefactor underflowed to 0 and math.log raised
    # a raw ValueError
    try:
        _, approx = t2_evaluate(0.0279, -15.2, PARAMS)
    except PSQError:
        return
    assert approx.log_value(PARAMS.population) <= 0.0


@pytest.mark.parametrize("n, delta", [(27_900, -14.5), (27_900, -8.5), (5_000, 8.5), (5_000, 10.5)])
def test_t2_band_ends_at_delta_8(n, delta) -> None:
    # at rho = 0.25 these points lie inside |xi - xi*| <= N^(-1/4), which
    # reaches Delta = -14.5 at n = 27 900 and 10.5 at n = 5000, so the band
    # in Delta decides.  Outside it classify sends the point on to R1/R2/R3
    # by position, whose evaluators give a finite, negative log density,
    # and t2_evaluate refuses it
    big_n = PARAMS.population
    t = big_n * _CURVES.tau_star(n / big_n) + delta * big_n**0.75
    label = classify(n, t, PARAMS)
    assert label.kind in ("R1", "R2", "R3")
    failure, log_p = adapters.EVALUATORS[label.kind](n, t, PARAMS)
    assert failure is None and log_p < 0.0
    with pytest.raises(OutOfRegion):
        t2_evaluate(n / big_n, delta, PARAMS)
    t_in = big_n * _CURVES.tau_star(n / big_n) + math.copysign(8.0, delta) * big_n**0.75
    assert classify(n, t_in, PARAMS).kind == "T2"


def test_r2_prefactor_in_log_form_past_double_range() -> None:
    # rho = 0.75, next to (1 - B)^2 = rho, where K0's powers overflowed the
    # linear form and the point raised a raw ValueError; 2 10^4 on either
    # side (the later side raised OverflowError) the log density falls
    # through it smoothly
    params = ModelParams(10**6, 0.75)
    n, t = 745_976, 2_317_465.79
    logs, past_double_range = [], []
    for dt in (-2e4, 0.0, 2e4):
        pt = XiTauPoint.from_indices(n, t + dt, params.population)
        assert classify(n, t + dt, params).kind == "R2"
        terms, approx = subcritical.r2_evaluate(pt, params)
        past_double_range.append(terms.log_K > math.log(sys.float_info.max))
        logs.append(approx.log_value(params.population))
    assert past_double_range == [False, True, True]
    assert logs == pytest.approx([-9191.72, -9513.57, -9784.42], abs=0.01)
