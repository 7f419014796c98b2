"""Transform, inversion, and tail checks for the infinite-population model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import solve_banded

from psq.errors import BranchCollision, InvalidInput
from psq.infinite import (
    TransformPoint,
    invert_density,
    tail_asym_infinite,
    tail_truncation_time,
    transform_phat,
)
from psq.specfun import loop_series_Q_log
from psq.supercritical import algebraic_tail_constant


# --- independent transform oracle ---


def phat_truncated_solve(n: int, theta: complex, rho: float, size: int = 4000) -> complex:
    """Solve the Laplace-domain three-term recurrence as a banded system.

    Truncation closes the last row with the initial-value estimate
    p_hat ~ 1/((k+2) theta), good enough at size = 4000 for 1e-12 accuracy
    at the small n used here.
    """
    bands = np.zeros((3, size + 1), dtype=complex)
    rhs = np.zeros(size + 1, dtype=complex)
    for k in range(size + 1):
        bands[1, k] = -(1.0 + rho + theta)
        if k < size:
            bands[0, k + 1] = rho
        if k > 0:
            bands[2, k - 1] = k / (k + 1.0)
        rhs[k] = -1.0 / (k + 1.0)
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


def test_vieta_identities() -> None:
    rho = 0.5
    pt = TransformPoint.from_theta(1.0 + 1.0j, rho)
    assert abs(pt.z_minus * pt.z_plus - 1.0 / rho) <= 1e-12 / rho
    total = (1.0 + rho + pt.theta) / rho
    assert abs(pt.z_minus + pt.z_plus - total) <= 1e-12 * abs(total)
    alpha = pt.z_plus / (pt.z_plus - pt.z_minus)
    assert abs(pt.alpha1 - alpha) <= 1e-12 * abs(alpha)


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
    with pytest.raises(ValueError):
        TransformPoint.from_theta(-0.1, 0.5)
    with pytest.raises(ValueError):
        TransformPoint.from_theta(0.0, 0.5)
    with pytest.raises(ValueError):
        TransformPoint(theta=1.0 + 0.0j, z_minus=0.5 + 0.0j, z_plus=3.0 + 0.0j, alpha1=1.2 + 0.0j)
    with pytest.raises(ValueError):
        transform_phat(-1, 1.0, 0.5)
    with pytest.raises(ValueError):
        transform_phat(0, 1.0, -0.5)


def test_branch_collision_on_degenerate_fields() -> None:
    pt = TransformPoint.from_theta(1.0, 0.5)
    near = pt.z_plus + 5e-11
    with pytest.raises((BranchCollision, ValueError)):
        TransformPoint(theta=pt.theta, z_minus=near, z_plus=pt.z_plus, alpha1=pt.alpha1)


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
    approx = tail_asym_infinite(2, 40.0, 0.5).value(40.0)
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
        assert abs(algebraic_tail_constant(n, 2.0) - (n + 2.0)) < 1e-10


def test_tail_supercritical_slots() -> None:
    tail = tail_asym_infinite(1, 40.0, 2.0)
    assert tail.coeff_N == 0.0
    assert tail.coeff_cbrt == 0.0
    assert abs(tail.coeff_logN + 2.0) < 1e-12
    assert abs(tail.coeff_O1 - math.log(3.0)) < 1e-10
    ratio = tail.value(80.0) / tail.value(40.0)
    assert abs(ratio - 0.25) < 1e-12


def test_tail_supercritical_against_inversion() -> None:
    exact = invert_density(1, 60.0, 2.0)
    approx = tail_asym_infinite(1, 60.0, 2.0).value(60.0)
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


def test_truncation_time_monotone_in_bound() -> None:
    loose = tail_truncation_time(0, 0.5, 1e-3)
    tight = tail_truncation_time(0, 0.5, 1e-6)
    assert tight > loose
