"""Tests for the rho > 1 asymptotic catalogue."""

from __future__ import annotations

import math

import numpy as np
import pytest

from psq.errors import IndexTooLarge, NotSupercritical, OutOfRegion
from psq.exact import (
    ModelParams,
    build_generator,
    conditional_density_exact,
    spectral_decompose,
)
from psq.specfun import quad_to_infinity
from psq.supercritical import (
    XiTauPoint,
    eigen_asym_super,
    gaussian_scale_facts_super,
    large_rho_spectrum,
    small_n_scale_super,
    unconditional_super,
    uncond_correction_kernel,
    xi_tau_expansion,
)


def _decompose(params: ModelParams):
    return spectral_decompose(build_generator(params), params)


# ---------------------------------------------------------------------------
# scaled coordinates
# ---------------------------------------------------------------------------


def test_xi_tau_point_validation() -> None:
    with pytest.raises(ValueError):
        XiTauPoint(0.0, 1.0)
    with pytest.raises(ValueError):
        XiTauPoint(1.2, 1.0)
    with pytest.raises(ValueError):
        XiTauPoint(0.5, -0.1)
    pt = XiTauPoint.from_indices(50, 30.0, 100)
    assert pt.xi == 0.5
    assert pt.tau == 0.3
    XiTauPoint(1.0, 0.0)


# ---------------------------------------------------------------------------
# (xi, tau) expansion
# ---------------------------------------------------------------------------


def test_tau_zero_reduces_to_initial_value() -> None:
    for rho in (0.5, 2.0, 4.0):
        params = ModelParams(100, rho)
        ex = xi_tau_expansion(XiTauPoint(0.5, 0.0), params)
        assert ex.kernel == 0.0
        assert ex.delta_star == 0.0
        want = 1.0 / 50.0 - 1.0 / 2500.0
        assert abs(ex.value - want) < 1e-15


def test_critical_line_rejected() -> None:
    with pytest.raises(OutOfRegion):
        xi_tau_expansion(XiTauPoint(0.5, 0.1), ModelParams(100, 1.0))


def test_subcritical_reuse_stops_at_curve() -> None:
    # for rho < 1 the leading term lives only while xi + Delta_*(tau) > 0,
    # i.e. tau < log(1 + rho xi / (1-rho)) / rho
    params = ModelParams(1000, 0.5)
    tau_edge = math.log(1.0 + 0.5 * 0.5 / 0.5) / 0.5
    ex = xi_tau_expansion(XiTauPoint(0.5, 0.9 * tau_edge), params)
    assert ex.leading > 0.0
    with pytest.raises(OutOfRegion):
        xi_tau_expansion(XiTauPoint(0.5, 1.1 * tau_edge), params)


def test_small_xi_leading_matches_printed_factor() -> None:
    rho, tau = 2.0, 0.3
    params = ModelParams(10**6, rho)
    a0 = rho / (rho - 1.0)
    ratios = []
    for xi in (1e-2, 1e-3, 1e-4):
        ex = xi_tau_expansion(XiTauPoint(xi, tau), params)
        target = (
            xi ** (1.0 / (rho - 1.0))
            * a0**a0
            * (-math.expm1(-rho * tau)) ** -a0
            * math.exp(-a0 * tau)
        )
        ratios.append(ex.leading / target)
    errs = [abs(r - 1.0) for r in ratios]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_two_term_convergence_rate() -> None:
    # err(N) should fall like N^-3 with the correction, N^-2 without
    errs = {}
    for big_n in (256, 512):
        params = ModelParams(big_n, 2.0)
        spec = _decompose(params)
        n = big_n // 2
        t = 0.3 * big_n
        exact = conditional_density_exact(spec, n, t)
        ex = xi_tau_expansion(XiTauPoint.from_indices(n, t, big_n), params)
        errs[big_n] = abs(ex.value - exact)
        errs[(big_n, "one")] = abs(ex.leading / big_n - exact)
    assert 6.0 < errs[256] / errs[512] < 10.0
    assert 3.0 < errs[(256, "one")] / errs[(512, "one")] < 5.0


# ---------------------------------------------------------------------------
# n = O(1), t = O(N)
# ---------------------------------------------------------------------------


def test_small_n_guards() -> None:
    with pytest.raises(NotSupercritical):
        small_n_scale_super(2, 0.5, ModelParams(100, 0.5))
    with pytest.raises(ValueError):
        small_n_scale_super(2, 0.0, ModelParams(100, 2.0))


def test_small_n_positive_and_real() -> None:
    params = ModelParams(10**4, 2.0)
    for n in (0, 1, 5, 40):
        assert small_n_scale_super(n, 0.5, params) > 0.0


def test_small_n_matches_xi_tau_factor() -> None:
    # large-n limit recovers the xi-free factor of the small-xi leading term
    # after multiplying by N^alpha0 n^(1-alpha0); at rho=2 the residual is
    # exactly 2/n
    rho, tau, n = 2.0, 0.3, 200
    params = ModelParams(10**6, rho)
    a0 = rho / (rho - 1.0)
    value = small_n_scale_super(n, tau, params)
    scaled = value * params.population**a0 * n ** (1.0 - a0)
    target = a0**a0 * (-math.expm1(-rho * tau)) ** -a0 * math.exp(-a0 * tau)
    assert abs(scaled / target - 1.0) < 0.0105


def test_small_n_long_time_slope() -> None:
    params = ModelParams(10**6, 2.0)
    taus = np.linspace(5.0, 10.0, 11)
    vals = [small_n_scale_super(2, t, params) for t in taus]
    slope = np.polyfit(taus, np.log(vals), 1)[0]
    assert abs(slope + 2.0) < 1e-3


def test_small_n_midrange_algebraic_tail() -> None:
    # for 1 << t << N the density falls like t^(-alpha0)
    params = ModelParams(10**6, 2.0)
    ts = np.array([50.0, 100.0, 200.0])
    vals = [small_n_scale_super(2, t / params.population, params) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    assert abs(slope + 2.0) < 1e-3


# ---------------------------------------------------------------------------
# unconditional density
# ---------------------------------------------------------------------------


def test_correction_kernel_carries_zero_mass() -> None:
    # the kernel itself integrates to zero, so quadrature with a relative
    # stopping rule is applied to its two single-exponential pieces
    for rho in (1.5, 2.0, 4.0):
        gap = rho - 1.0

        def secular(t: float) -> float:
            return rho**3 / gap**5 * (t + (1.0 - 2.0 * rho) / rho) * math.exp(-rho * t / gap)

        def fast(t: float) -> float:
            return uncond_correction_kernel(t, rho) - secular(t)

        mass = quad_to_infinity(secular, 0.0) + quad_to_infinity(fast, 0.0)
        assert abs(mass) < 1e-10


def test_correction_kernel_needs_supercritical() -> None:
    with pytest.raises(NotSupercritical):
        uncond_correction_kernel(1.0, 0.5)


def test_unconditional_leading_coefficient() -> None:
    value = unconditional_super(0.0, ModelParams(10**6, 2.0))
    assert abs(value * 10**6 - 2.0) < 1e-4


def test_unconditional_vs_exact() -> None:
    # calibrate the O(N^-3) constant at N in {128, 256}, check N = 512
    def exact_uncond(big_n: int, tau: float) -> float:
        params = ModelParams(big_n, 2.0)
        spec = _decompose(params)
        t = tau * big_n
        return float((spec.uncond_coeffs * np.exp(-spec.eigenvalues * t)).sum())

    budget = 0.0
    for big_n in (128, 256):
        err = abs(unconditional_super(0.4, ModelParams(big_n, 2.0)) - exact_uncond(big_n, 0.4))
        budget = max(budget, err * big_n**3)
    err512 = abs(unconditional_super(0.4, ModelParams(512, 2.0)) - exact_uncond(512, 0.4))
    assert err512 <= 1.2 * budget / 512**3


def test_unconditional_renormalized_stays_close() -> None:
    params = ModelParams(512, 2.0)
    plain = unconditional_super(0.4, params)
    renorm = unconditional_super(0.4, params, renormalized=True)
    assert abs(renorm - plain) < 2e-8
    # at large tau the renormalized exponent parts company with the plain one
    assert unconditional_super(40.0, params, renormalized=True) != unconditional_super(
        40.0, params
    )


# ---------------------------------------------------------------------------
# eigenvalues, rho > 1
# ---------------------------------------------------------------------------


def test_eigen_asym_values_and_guards() -> None:
    assert abs(eigen_asym_super(0, ModelParams(400, 2.0)) - 0.005) < 1e-15
    assert abs(eigen_asym_super(2, ModelParams(300, 3.0)) - 0.025) < 1e-15
    assert eigen_asym_super(1, ModelParams(800, 2.0)) == pytest.approx(
        eigen_asym_super(1, ModelParams(400, 2.0)) / 2.0
    )
    with pytest.raises(IndexTooLarge):
        eigen_asym_super(50, ModelParams(400, 2.0))
    with pytest.raises(NotSupercritical):
        eigen_asym_super(0, ModelParams(400, 0.5))
    with pytest.raises(ValueError):
        eigen_asym_super(-1, ModelParams(400, 2.0))


def test_eigen_error_scales_like_inverse_square() -> None:
    scaled: dict[int, list[float]] = {0: [], 1: [], 2: []}
    for big_n in (200, 400, 800):
        params = ModelParams(big_n, 2.0)
        spec = _decompose(params)
        for j in range(3):
            err = spec.eigenvalues[j] - eigen_asym_super(j, params)
            scaled[j].append(abs(err) * big_n**2)
    for j, values in scaled.items():
        assert max(values) < 2.0 * min(values), (j, values)


# ---------------------------------------------------------------------------
# Gaussian-scale coefficient facts
# ---------------------------------------------------------------------------


def test_gaussian_scale_facts() -> None:
    ratios = []
    for big_n in (100, 200, 400):
        facts = gaussian_scale_facts_super(ModelParams(big_n, 2.0))
        ratios.append(facts.c0_phi0_ratio)
    assert abs(ratios[-1] - 1.0) < 0.02
    assert abs(ratios[0] - 1.0) > abs(ratios[1] - 1.0) > abs(ratios[2] - 1.0)
    facts = gaussian_scale_facts_super(ModelParams(400, 2.0))
    assert facts.center == 200.0
    assert facts.center_index == 200
    assert abs(facts.c0_approx - 2.0 / 400.0) < 1e-18


def test_higher_modes_fade_faster() -> None:
    # mode weights beyond the zeroth vanish one power of N sooner; the
    # normalization-free carriers are d_j = beta_j^2, with d_0 N -> rho/(rho-1)
    # and (d_1/d_0) N -> rho^3/(rho-1)^4
    ratios = []
    heads = []
    for big_n in (100, 200, 400):
        spec = _decompose(ModelParams(big_n, 2.0))
        weights = spec.sym_coeffs**2
        ratios.append(weights[1] / weights[0])
        heads.append(weights[0] * big_n)
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] * 400 == pytest.approx(8.0, rel=0.05)
    assert heads[2] == pytest.approx(2.0, rel=0.02)


# ---------------------------------------------------------------------------
# rho -> infinity, N fixed
# ---------------------------------------------------------------------------


def test_large_rho_eigenvalues_against_exact() -> None:
    params = ModelParams(6, 1e6)
    spec = _decompose(params)
    limit = large_rho_spectrum(params)
    assert abs(spec.eigenvalues[0] * 6 - 1.0) < 1e-3
    assert limit.nu0_approx == pytest.approx(1.0 / 6.0)
    for j in range(1, 6):
        assert abs(spec.eigenvalues[j] / limit.nu_j_approx(j) - 1.0) < 1e-4


def test_large_rho_eigenvector_forms_agree() -> None:
    limit = large_rho_spectrum(ModelParams(6, 1e6))
    for j in range(6):
        for n in range(6):
            a = limit.phi_j_leading(j, n)
            b = limit.phi_j_leading_series(j, n)
            assert abs(a - b) < 1e-12, (j, n, a, b)


def test_large_rho_eigenvector_structure() -> None:
    limit = large_rho_spectrum(ModelParams(6, 1e6))
    # head normalization, support cutoff, and the printed j=1 line
    for j in range(6):
        assert limit.phi_j_leading(j, 0) == 1.0
        for n in range(6 - j, 6):
            assert limit.phi_j_leading(j, n) == 0.0
    for n in range(6):
        assert limit.phi_j_leading(1, n) == pytest.approx((6 - n - 1) / 5.0)


def test_large_rho_zeroth_vector_harmonic_correction() -> None:
    params = ModelParams(6, 1e4)
    spec = _decompose(params)
    limit = large_rho_spectrum(params)
    phi, _, _ = spec.reporting_basis()
    for n in range(6):
        want = limit.phi0_correction(n)
        assert abs(phi[0, n] - want) < 1e-6


def test_large_rho_index_guards() -> None:
    limit = large_rho_spectrum(ModelParams(6, 1e6))
    with pytest.raises(IndexTooLarge):
        limit.nu_j_approx(0)
    with pytest.raises(IndexTooLarge):
        limit.nu_j_approx(6)
    with pytest.raises(ValueError):
        limit.phi0_correction(6)
    with pytest.raises(IndexTooLarge):
        limit.phi_j_leading(6, 0)
