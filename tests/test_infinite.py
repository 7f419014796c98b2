"""Transform, inversion, and tail checks for the infinite-population model."""

from __future__ import annotations

import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.linalg import solve_banded

from psq import infinite, specfun
from psq.errors import (
    InvalidInput,
    NotSupercritical,
    TransformNotConverged,
)
from psq.infinite import (
    invert_density,
    tail_asym_infinite,
    tail_truncation_time,
    transform_phat,
)
from psq.specfun import loop_series_Q_log
from psq.supercritical import algebraic_tail_log_constant


# --- independent transform oracle ---


def phat_truncated_solve(n: int, theta: complex, rho: float, size: int = 4000) -> complex:
    """Solve the Laplace-domain three-term recurrence as a banded system.

    Truncation closes the last row with the initial-value estimate
    p_hat ~ 1/((k+2) theta), good enough at size = 4000 for 1e-12 accuracy
    at the small n used here.
    """
    k = np.arange(size + 1)
    bands = np.zeros((3, size + 1), dtype=complex)
    bands[0, 1:] = rho
    bands[1] = -(1.0 + rho + theta)
    bands[2, :-1] = k[1:] / (k[1:] + 1.0)
    rhs = -1.0 / (k + 1.0) + 0j
    rhs[size] -= rho / ((size + 2) * theta)
    return solve_banded((1, 1), bands, rhs)[n]


ORACLE_CASES = [
    (2, 1.3 + 0.0j, 0.5),
    (0, 0.8 + 0.0j, 0.5),
    (3, 2.0 + 0.0j, 2.0),
    (1, 1.7 + 0.0j, 0.5),
    (2, 0.7 + 1.1j, 2.0),
    (1, 0.4 + 0.2j, 0.8),
    (0, 200.0 + 0.0j, 0.5),
    (4, 0.05 + 0.0j, 0.9),
    (2, 0.02 + 0.0j, 2.0),
    (16, 1.3 + 0.0j, 0.5),
    (16, 0.7 + 1.1j, 2.0),
]


def test_transform_matches_truncated_solve() -> None:
    for n, theta, rho in ORACLE_CASES:
        got = transform_phat(n, theta, rho)
        ref = phat_truncated_solve(n, theta, rho)
        assert abs(got - ref) <= 1e-11 * abs(ref), (n, theta, rho)
    # one array call per (n, rho) over every theta of the table, as the
    # inversion ladder calls it: each element against the banded solve and
    # against the scalar call
    thetas = np.array([theta for _, theta, _ in ORACLE_CASES])
    for n, rho in {(n, rho) for n, _, rho in ORACLE_CASES}:
        got = transform_phat(n, thetas, rho)
        assert got.shape == thetas.shape
        for theta, val in zip(thetas, got):
            ref = phat_truncated_solve(n, theta, rho)
            assert abs(val - ref) <= 1e-11 * abs(ref), (n, theta, rho)
            one = transform_phat(n, theta, rho)
            assert abs(val - one) <= 1e-12 * abs(one), (n, theta, rho)


def test_transform_large_n_and_theta_matches_truncated_solve() -> None:
    # the sweep forms no power of a characteristic root, so n = 200 at
    # |theta| = 1e5 stays in double range
    theta = 0.5 + 1e5j
    for n in (50, 200):
        ref = phat_truncated_solve(n, theta, 0.5)
        assert abs(transform_phat(n, theta, 0.5) - ref) <= 1e-13 * abs(ref), n


def test_transform_overflow_raises() -> None:
    # n = 60 at theta = 0.5 + 1e5i, where powers of the characteristic
    # roots leave double range: the sweep returns the banded solve's value,
    # not an overflow, a nan or a RuntimeWarning (an error under this suite),
    # and the inversion there is finite
    theta = 0.5 + 1e5j
    ref = phat_truncated_solve(60, theta, 0.5)
    assert abs(transform_phat(60, theta, 0.5) - ref) <= 1e-13 * abs(ref)
    assert math.isfinite(invert_density(60, 1e-3, 0.5))


def _bromwich_ladder(t: float) -> np.ndarray:
    """The head term's theta and the ladder invert_density takes at the
    default step."""
    rungs = infinite._AW_BASE_BLOCKS + infinite._AW_EULER_BLOCKS
    return infinite._AW_A / (2.0 * t) + 1j * (math.pi / t) * np.arange(rungs + 1)


@settings(database=None, derandomize=True, deadline=None, max_examples=40)
@given(
    rho=st.floats(0.05, 3.0),
    n=st.integers(0, 60),
    t=st.floats(0.25, 80.0),
)
def test_transform_sweep_on_bromwich_ladders(rho: float, n: int, t: float) -> None:
    ladder = _bromwich_ladder(t)
    ref = np.array([phat_truncated_solve(n, theta, rho) for theta in ladder])
    got = transform_phat(n, ladder, rho)
    assert (abs(got - ref) <= 1e-13 * abs(ref)).all()
    # after every row k, |p_hat_n - S_k| <= |P_{k+1}|, the bound the sweep
    # stops by, with room for the rounding of the sum and of the reference
    for rows, (total, prod) in enumerate(infinite._elimination_rows(n, ladder, rho)):
        k = n + rows
        partial = total / (n + 1)
        bound = (k + 2) * abs(prod) / (n + 1)
        assert (abs(partial - ref) <= bound + 1e-14 * abs(ref)).all(), k
        if (bound <= 1e-3 * infinite._SWEEP_TOL * abs(ref)).all():
            break
    # the inversion takes no quadrature and no loop integral
    assert not hasattr(infinite, "tanh_sinh") and not hasattr(infinite, "cut_integral")
    refuse = mock.Mock(side_effect=AssertionError("quadrature called"))
    with mock.patch.object(specfun, "tanh_sinh", refuse), mock.patch.object(
        specfun, "cut_integral", refuse
    ):
        assert math.isfinite(invert_density(n, t, rho))
    assert not refuse.called


def test_transform_sweep_row_cap() -> None:
    # for rho > 1 the remainder bound shrinks by a factor near 1 - theta
    # per row as theta -> 0: refused at the cap, naming the point
    with pytest.raises(
        TransformNotConverged, match=r"n=0, theta=\(1e-06\+0j\), rho=2\.0"
    ):
        transform_phat(0, 1e-6, 2.0)


def test_transform_initial_value_theorem() -> None:
    theta = 200.0
    for n in (0, 1, 4):
        for rho in (0.5, 2.0):
            val = transform_phat(n, theta, rho)
            assert abs(val * (n + 1) * theta - 1.0) < 0.02


def test_transform_real_for_real_theta() -> None:
    for n in (0, 3):
        for rho in (0.5, 2.0):
            for theta in (0.3, 2.0):
                val = transform_phat(n, theta, rho)
                assert abs(val.imag) <= 1e-10 * abs(val)


def test_transform_conjugate_symmetry() -> None:
    for n, theta, rho in [(1, 0.9 + 1.7j, 0.5), (2, 0.4 + 0.6j, 2.0)]:
        upper = transform_phat(n, theta, rho)
        lower = transform_phat(n, theta.conjugate(), rho)
        assert abs(lower - upper.conjugate()) <= 1e-12 * abs(upper)


def test_transform_point_guards() -> None:
    for theta in (-0.1, 0.0, 1j, np.array([1.0, -1.0 + 2j])):
        with pytest.raises(InvalidInput, match="Re > 0"):
            transform_phat(0, theta, 0.5)
    with pytest.raises(ValueError):
        transform_phat(-1, 1.0, 0.5)
    with pytest.raises(ValueError):
        transform_phat(0, 1.0, -0.5)


# --- inversion ---


def test_invert_initial_condition() -> None:
    for n in (1, 2, 3):
        for rho in (0.5, 2.0):
            val = invert_density(n, 1e-3, rho)
            assert abs(val - 1.0 / (n + 1)) < 1e-3, (n, rho)


def test_invert_no_interference_limit() -> None:
    val = invert_density(0, 1.0, 1e-4)
    assert abs(val - math.exp(-1.0)) < 1e-3


# conditional density p_3(5) from the finite model at rho in {0.5, 2},
# RK4 on the full generator, step-halving agreed to ~1e-9
FINITE_REFS = {
    (0.5, 1024): 0.0686705889,
    (0.5, 4096): 0.0686554526,
    (2.0, 1024): 0.0476135643,
    (2.0, 4096): 0.0474736457,
}


def test_invert_agrees_with_finite_population() -> None:
    for rho in (0.5, 2.0):
        val = invert_density(3, 5.0, rho)
        err_cal = abs(val - FINITE_REFS[(rho, 1024)])
        err_big = abs(val - FINITE_REFS[(rho, 4096)])
        # 1.5x headroom on the calibrated constant covers the O(N^-2) term
        bound = 1.5 * err_cal * 1024.0
        assert err_big <= bound / 4096.0, rho
        assert err_big < err_cal


def test_invert_step_halving() -> None:
    coarse = invert_density(2, 10.0, 0.5, step_scale=1)
    fine = invert_density(2, 10.0, 0.5, step_scale=2)
    assert abs(coarse - fine) < 1e-8


def test_invert_guards() -> None:
    with pytest.raises(InvalidInput):
        invert_density(2, 0.0, 0.5)
    with pytest.raises(InvalidInput):
        invert_density(2, 1.0, 0.5, step_scale=3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: invert_density(2, math.nan, 0.5),
        lambda: invert_density(2, math.inf, 0.5),
        lambda: invert_density(2, 1.0, math.nan),
        lambda: invert_density(2.5, 1.0, 0.5),
        lambda: transform_phat(1, math.nan, 0.5),
        lambda: transform_phat(1, math.inf, 0.5),
        lambda: transform_phat(1, np.array([1.0, math.nan]), 0.5),
        lambda: transform_phat(1, np.ones((2, 2)), 0.5),
    ],
    ids=["t_nan", "t_inf", "rho_nan", "n_fractional", "theta_nan", "theta_inf",
         "theta_array_nan", "theta_2d"],
)
def test_invalid_input_raised(call) -> None:
    with pytest.raises(InvalidInput):
        call()


def _panel(f, a: float, b: float, order: int = 24) -> float:
    x, w = leggauss(order)
    mid, half = 0.5 * (b + a), 0.5 * (b - a)
    return half * float(np.dot(w, [f(mid + half * xi) for xi in x]))


def test_invert_unit_mass() -> None:
    for rho in (0.5, 2.0):
        for n in (0, 5):
            cut = tail_truncation_time(n, rho, 1e-6)
            edges = [1e-9, 0.5, 2.0, 8.0, 20.0, 50.0]
            if cut <= 50.0:
                edges = [e for e in edges if e < cut] + [cut]
                mass = sum(
                    _panel(lambda t: invert_density(n, t, rho), a, b)
                    for a, b in zip(edges, edges[1:])
                )
            else:
                mass = sum(
                    _panel(lambda t: invert_density(n, t, rho), a, b)
                    for a, b in zip(edges, edges[1:])
                )
                mass += _panel(
                    lambda u: invert_density(n, 1.0 / u, rho) / u**2,
                    1.0 / cut,
                    1.0 / 50.0,
                    order=32,
                )
            assert abs(mass - 1.0) < 1e-4, (n, rho, mass)


# --- tails ---


@pytest.mark.xfail(
    strict=True,
    reason="pointwise agreement at t=40 held only for a tail constant that is "
    "inconsistent with the layer density at fixed n; the consistent constant "
    "(larger by pi^(5/6)) meets the inversion only beyond the t^(-1/3) "
    "correction range, far past t=40",
)
def test_tail_ratio_against_inversion() -> None:
    exact = invert_density(2, 40.0, 0.5)
    approx = math.exp(tail_asym_infinite(2, 40.0, 0.5).log_value(40.0))
    assert abs(exact / approx - 1.0) < 0.15


def test_tail_constant_from_inversion_ladder() -> None:
    # the O(1) constant is entangled with a strong t^(-1/3) correction, so a
    # pointwise ratio never converges at reachable t; fit both jointly and
    # require the fitted constant to land on the implemented one, and to sit
    # far from the value lowered by pi^(5/6)
    rho = 0.5
    n = 2
    decay = (1.0 - math.sqrt(rho)) ** 2
    tail = tail_asym_infinite(n, 20.0, rho)
    times = [30.0, 40.0, 50.0, 60.0, 75.0, 90.0, 105.0]
    ys = []
    for t in times:
        y = (
            math.log(invert_density(n, t, rho))
            + decay * t
            - tail.coeff_cbrt * t ** (1.0 / 3.0)
            + (5.0 / 6.0) * math.log(t)
        )
        ys.append(y)
    basis = np.array(
        [[1.0, -t ** (-1.0 / 3.0), -t ** (-2.0 / 3.0)] for t in times]
    )
    fit_const, fit_kappa, _ = np.linalg.lstsq(basis, np.array(ys), rcond=None)[0]
    lowered = tail.coeff_O1 - (5.0 / 6.0) * math.log(math.pi)
    assert fit_kappa > 0.0
    assert abs(fit_const - tail.coeff_O1) < 0.8
    assert abs(fit_const - lowered) > 1.1
    assert abs(fit_const - tail.coeff_O1) < 0.5 * abs(fit_const - lowered)


def test_tail_stretched_exponent_slope() -> None:
    rho = 0.5
    decay = (1.0 - math.sqrt(rho)) ** 2
    times = np.linspace(20.0, 60.0, 25)
    tail = tail_asym_infinite(2, 20.0, rho)
    resid = [
        -(
            tail.log_value(t)
            + decay * t
            + (5.0 / 6.0) * math.log(t)
            - tail.coeff_O1
        )
        for t in times
    ]
    slope = np.polyfit(np.log(times), np.log(resid), 1)[0]
    assert abs(slope - 1.0 / 3.0) < 0.05


def test_tail_n_dependence_identity() -> None:
    rho = 0.5
    lhs = tail_asym_infinite(3, 40.0, rho).log_value(40.0) - tail_asym_infinite(
        1, 40.0, rho
    ).log_value(40.0)
    rhs = -math.log(rho) + loop_series_Q_log(3) - loop_series_Q_log(1)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_tail_supercritical_constant_closed_form() -> None:
    # at rho = 2, alpha0 = 2 and the loop sum collapses to n/2 + 1, so
    # C = 8 * Gamma(2) * 2^-2 * (n/2 + 1) = n + 2
    for n in range(4):
        assert abs(math.exp(algebraic_tail_log_constant(n, 2.0)) - (n + 2.0)) < 1e-10


def _loop_sum_mp(n: int, rho: mp.mpf, alpha0: mp.mpf) -> mp.mpf:
    """The order-n loop integral of the algebraic tail as its binomial sum,
    at the working mpmath precision."""
    return mp.fsum(
        mp.rf(alpha0, i) / mp.factorial(i)
        * mp.rf(1 - alpha0, n - i) / mp.factorial(n - i)
        * rho ** (i - n)
        for i in range(n + 1)
    )


@pytest.mark.parametrize("n", [8, 16, 24])
def test_tail_supercritical_constant_near_critical(n: int) -> None:
    # at rho = 1.05, alpha0 = 21: the loop sum's binomial terms alternate and
    # cancel by many digits, so the reference sums them in 60 digits
    rho = mp.mpf("1.05")
    alpha0 = rho / (rho - 1)
    with mp.workdps(60):
        loop = _loop_sum_mp(n, rho, alpha0)
        want = alpha0 ** (2 * alpha0 - 1) * mp.gamma(alpha0) * rho**-alpha0 * loop
    got = math.exp(algebraic_tail_log_constant(n, 1.05))
    assert abs(got / float(want) - 1.0) <= 1e-12


def _tail_log_constant_mp(n: int, rho: float) -> mp.mpf:
    """log C at the double rho in 40 digits (the alternating loop sum
    leaves plenty after its cancellation)."""
    with mp.workdps(40):
        rho = mp.mpf(rho)
        alpha0 = rho / (rho - 1)
        return (
            (2 * alpha0 - 1) * mp.log(alpha0)
            + mp.loggamma(alpha0)
            - alpha0 * mp.log(rho)
            + mp.log(_loop_sum_mp(n, rho, alpha0))
        )


@pytest.mark.parametrize("rho", [1.001, 1.01, 1.015, 1.05])
@pytest.mark.parametrize("n", [0, 1, 3, 8])
def test_tail_log_constant_near_critical(n: int, rho: float) -> None:
    # alpha0 = 1000 at rho = 1.001: C = exp(19736) has no double, log C does
    want = _tail_log_constant_mp(n, rho)
    got = algebraic_tail_log_constant(n, rho)
    assert abs(got - float(want)) <= 1e-14 * abs(float(want))
    tail = tail_asym_infinite(n, 20.0, rho)
    assert tail.coeff_O1 == got
    assert tail.coeff_logN == -rho / (rho - 1.0)
    # t = (C (rho - 1) / mass_bound)^(rho - 1), finite though C is not
    with mp.workdps(40):
        gap = mp.mpf(rho) - 1
        want_t = mp.exp(gap * (want + mp.log(gap) - mp.log(mp.mpf(1e-6))))
    assert tail_truncation_time(n, rho, 1e-6) == pytest.approx(float(want_t), rel=1e-13)


def test_tail_supercritical_guards() -> None:
    # neither tail holds at rho = 1 (alpha0 = rho / (rho - 1) divided by
    # zero); a negative or fractional state reached cut_integral's indexing
    with pytest.raises(NotSupercritical):
        tail_asym_infinite(2, 20.0, 1.0)
    for n in (-1, 2.5):
        with pytest.raises(InvalidInput):
            tail_asym_infinite(n, 20.0, 2.0)
    for rho in (math.inf, math.nan):
        with pytest.raises(InvalidInput):
            algebraic_tail_log_constant(1, rho)
    with pytest.raises(InvalidInput):
        algebraic_tail_log_constant(2.5, 2.0)
    assert algebraic_tail_log_constant(np.int64(2), 2.0) == algebraic_tail_log_constant(2, 2.0)


def test_tail_supercritical_slots() -> None:
    tail = tail_asym_infinite(1, 40.0, 2.0)
    assert tail.coeff_N == 0.0
    assert tail.coeff_cbrt == 0.0
    assert abs(tail.coeff_logN + 2.0) < 1e-12
    assert abs(tail.coeff_O1 - math.log(3.0)) < 1e-10
    ratio = math.exp(tail.log_value(80.0)) / math.exp(tail.log_value(40.0))
    assert abs(ratio - 0.25) < 1e-12


def test_tail_supercritical_against_inversion() -> None:
    exact = invert_density(1, 60.0, 2.0)
    approx = math.exp(tail_asym_infinite(1, 60.0, 2.0).log_value(60.0))
    assert abs(exact / approx - 1.0) < 0.3


def test_tail_guards() -> None:
    with pytest.raises(InvalidInput):
        tail_asym_infinite(2, 5.0, 0.5)
    with pytest.raises(InvalidInput):
        tail_asym_infinite(2, 20.0, math.nan)
    with pytest.raises(InvalidInput):
        tail_asym_infinite(2, 20.0, 0.0)
    with pytest.raises(InvalidInput):
        tail_truncation_time(0, 0.5, 2.0)


@pytest.mark.parametrize("rho", [1.5, 4.0, 20.0, 50.0])
def test_truncation_time_in_log_form(rho: float) -> None:
    # t = (C (rho - 1) / mass_bound)^(rho - 1) with C = exp(coeff_O1), against
    # 40 digits, within 2 ulps of log t (its exp can do no better than 1);
    # the float power of the rounded alpha0 - 1 was 5.6 ulps off at rho = 50
    coeff = tail_asym_infinite(3, 10.0, rho).coeff_O1
    with mp.workdps(40):
        gap = mp.mpf(rho) - 1
        log_t = gap * (mp.mpf(coeff) + mp.log(gap) - mp.log(mp.mpf(1e-6)))
        want = float(mp.exp(log_t))
    got = tail_truncation_time(3, rho, 1e-6)
    assert abs(got / want - 1.0) <= 2.0 * np.finfo(float).eps * float(log_t)


def test_truncation_time_monotone_in_bound() -> None:
    loose = tail_truncation_time(0, 0.5, 1e-3)
    tight = tail_truncation_time(0, 0.5, 1e-6)
    assert tight > loose
