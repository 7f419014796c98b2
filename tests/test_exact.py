"""Unit tests for the exact finite-population solver."""

from __future__ import annotations

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from psq.errors import InvalidInput, PSQError, StepTooLarge, UnsupportedN
from psq.exact import (
    ModelParams,
    Regime,
    build_generator,
    closed_form_small_N,
    conditional_density_exact,
    conditional_density_exact_log,
    integrate_ode,
    oracle_conditional_log,
    oracle_decompose,
    orthogonality_residual,
    reconstruction_residual,
    small_n_rates,
    spectral_decompose,
    spectral_trajectory,
    steady_state_log_weights,
    steady_state_weights,
    time_integral_residual,
    unconditional_density_exact,
    unconditional_density_exact_log,
    unit_mass_residual,
)


def _spec(population: int, rho: float):
    params = ModelParams(population, rho)
    return params, spectral_decompose(build_generator(params), params)


# ---------------------------------------------------------------------------
# parameters and generator
# ---------------------------------------------------------------------------

def test_params_validation() -> None:
    with pytest.raises(ValueError):
        ModelParams(1, 0.5)
    with pytest.raises(ValueError):
        ModelParams(8, 0.0)
    with pytest.raises(ValueError):
        ModelParams(8, -2.0)


def test_params_raise_invalid_input() -> None:
    with pytest.raises(InvalidInput):
        ModelParams(1, 0.5)
    with pytest.raises(InvalidInput):
        ModelParams(8, math.nan)


def test_regime_classification() -> None:
    assert ModelParams(8, 0.5).regime is Regime.SUBCRITICAL
    assert ModelParams(8, 2.0).regime is Regime.SUPERCRITICAL
    assert ModelParams(8, 1.0).regime is Regime.CRITICAL
    assert ModelParams(8, 1.0 + 1e-10).regime is Regime.CRITICAL
    assert ModelParams(8, 1.0 + 1e-8).regime is Regime.SUPERCRITICAL


def test_generator_entries_and_row_sums() -> None:
    params = ModelParams(7, 1.3)
    gen = build_generator(params)
    up0 = 1.3 * 6.0 / 7.0
    assert gen.sup[0] == pytest.approx(up0, abs=1e-15)
    assert gen.diag[0] == pytest.approx(-1.0 - up0, abs=1e-15)
    assert gen.sub[0] == pytest.approx(0.5, abs=1e-15)
    assert gen.sub[-1] == pytest.approx(6.0 / 7.0, abs=1e-15)
    dense = gen.to_dense()
    rows = dense.sum(axis=1)
    want = -1.0 / (np.arange(7) + 1.0)
    assert np.abs(rows - want).max() < 1e-14


def test_generator_matvec_matches_dense() -> None:
    params = ModelParams(9, 0.8)
    gen = build_generator(params)
    rng = np.random.default_rng(7)
    v = rng.normal(size=9)
    assert np.allclose(gen.matvec(v), gen.to_dense() @ v, atol=1e-14)


def test_steady_state_weights_frozen() -> None:
    # N = 4, rho = 2: ratios 1.5, 1.0, 0.5 give pi = (4, 6, 6, 3)/19.
    w = steady_state_weights(ModelParams(4, 2.0))
    want = np.array([4.0, 6.0, 6.0, 3.0]) / 19.0
    assert np.abs(w - want).max() < 1e-15


def test_steady_state_weights_normalized_and_log() -> None:
    for population, rho in ((8, 0.25), (512, 0.25), (512, 4.0)):
        params = ModelParams(population, rho)
        w = steady_state_weights(params)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        logw = steady_state_log_weights(params)
        assert np.isfinite(logw).all()
        mask = w > 0.0
        assert np.abs(np.exp(logw[mask]) - w[mask]).max() < 1e-15


# ---------------------------------------------------------------------------
# closed forms, N = 2 and N = 3
# ---------------------------------------------------------------------------

def test_small_n_rates_frozen_N2() -> None:
    nu = small_n_rates(ModelParams(2, 2.0))
    assert nu[0] == pytest.approx(1.5 - math.sqrt(3.0) / 2.0, abs=1e-15)
    assert nu[1] == pytest.approx(1.5 + math.sqrt(3.0) / 2.0, abs=1e-15)
    nu = small_n_rates(ModelParams(2, 4.0))
    assert nu[0] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-15)
    assert nu[1] == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-15)


def test_small_n_rates_N3_brackets() -> None:
    for rho in (0.3, 1.0, 4.0, 100.0):
        nu = small_n_rates(ModelParams(3, rho))
        assert 0.0 < nu[0] < 1.0
        assert 1.0 < nu[1] < 1.0 + rho / 3.0
        assert nu[2] > 1.0 + 2.0 * rho / 3.0
        # each root satisfies the characteristic equation
        for v in nu:
            lhs = (v - 1.0 - 2.0 * rho / 3.0) * (
                (v - 1.0 - rho / 3.0) * (v - 1.0) - 2.0 * rho / 9.0
            )
            rhs = rho * (v - 1.0) / 3.0
            assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, rho ** 3))


def test_small_n_rates_guard() -> None:
    with pytest.raises(UnsupportedN):
        small_n_rates(ModelParams(4, 1.0))
    with pytest.raises(UnsupportedN):
        closed_form_small_N(ModelParams(5, 1.0), 0, 1.0)
    for population in (2, 3):
        with pytest.raises(InvalidInput):
            closed_form_small_N(ModelParams(population, 1.0), population, 1.0)


def test_closed_form_matches_spectral_N2() -> None:
    for rho in (0.5, 2.0, 4.0):
        params, spec = _spec(2, rho)
        assert np.abs(spec.eigenvalues - small_n_rates(params)).max() < 1e-12
        for n in (0, 1):
            for t in (0.0, 0.1, 1.0, 5.0):
                a = closed_form_small_N(params, n, t)
                b = conditional_density_exact(spec, n, t)
                assert abs(a - b) < 1e-12


def test_closed_form_matches_spectral_N3() -> None:
    for rho in (0.5, 2.0, 4.0):
        params, spec = _spec(3, rho)
        assert np.abs(spec.eigenvalues - small_n_rates(params)).max() < 1e-10
        for n in (0, 1, 2):
            for t in (0.0, 0.1, 1.0, 5.0):
                a = closed_form_small_N(params, n, t)
                b = conditional_density_exact(spec, n, t)
                assert abs(a - b) < 1e-10


def test_initial_values() -> None:
    # Absolute error of the balanced evaluation is of order eps / D_n.
    for population, rho in ((2, 2.0), (3, 0.7), (16, 0.5)):
        params, spec = _spec(population, rho)
        for n in range(population):
            tol = 1e-13 + 1e-14 / spec.scale[n]
            assert conditional_density_exact(spec, n, 0.0) == pytest.approx(
                1.0 / (n + 1.0), abs=tol
            )


# ---------------------------------------------------------------------------
# structural identities (machine-precision subset; looser spec tolerances are
# exercised over the full grid in the acceptance suite)
# ---------------------------------------------------------------------------

def test_structural_identities_weighted() -> None:
    for population in (8, 64):
        for rho in (0.25, 0.5, 2.0, 4.0):
            _, spec = _spec(population, rho)
            assert reconstruction_residual(spec) < 1e-12
            assert orthogonality_residual(spec) < 1e-12
            assert time_integral_residual(spec) < 1e-12
            assert unit_mass_residual(spec) < 1e-12
            assert (spec.eigenvalues > 0.0).all()
            assert (np.diff(spec.eigenvalues) > 0.0).all()


def test_unconditional_is_weight_mixture() -> None:
    _, spec = _spec(12, 3.0)
    for t in (0.0, 0.7, 2.5):
        mix = sum(
            spec.weights[n] * conditional_density_exact(spec, n, t)
            for n in range(12)
        )
        assert unconditional_density_exact(spec, t) == pytest.approx(mix, rel=1e-12)


def test_uncond_coeffs_positive_and_sum() -> None:
    _, spec = _spec(24, 0.6)
    assert (spec.uncond_coeffs >= 0.0).all()
    # p(0) = sum_n pi_n/(n+1) = sum_j d_j
    want = (spec.weights / (np.arange(24) + 1.0)).sum()
    assert spec.uncond_coeffs.sum() == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_ode_vs_spectral_weighted() -> None:
    params, spec = _spec(16, 0.5)
    gen = build_generator(params)
    step = 0.04 / spec.eigenvalues[-1]
    traj = integrate_ode(gen, 10.0, step=step)
    st = spectral_trajectory(spec, traj.times)
    wdiff = np.abs(spec.scale[:, None] * (traj.values - st.values)).max()
    assert wdiff < 1e-8


def test_ode_step_guard() -> None:
    params, _ = _spec(16, 4.0)
    gen = build_generator(params)
    with pytest.raises(StepTooLarge):
        integrate_ode(gen, 10.0, step=1.0)
    with pytest.raises(StepTooLarge):
        integrate_ode(gen, 100.0, steps=3)
    for t_max in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidInput):
            integrate_ode(gen, t_max)


def test_trajectory_shapes_and_method_tags() -> None:
    params, spec = _spec(8, 1.5)
    gen = build_generator(params)
    traj = integrate_ode(gen, 2.0)
    assert traj.method == "ode"
    assert traj.values.shape == (8, traj.times.size)
    st = spectral_trajectory(spec, np.array([0.0, 1.0, 2.0]))
    assert st.method == "spectral"
    assert st.values.shape == (8, 3)
    assert (st.values >= 0.0).all()


# ---------------------------------------------------------------------------
# log-scale evaluation
# ---------------------------------------------------------------------------

def test_log_matches_linear_bulk() -> None:
    _, spec = _spec(64, 2.0)
    for n in (0, 10, 30):
        for t in (0.2, 1.0, 5.0):
            sgn, lg = conditional_density_exact_log(spec, n, t)
            lin = conditional_density_exact(spec, n, t)
            assert sgn == 1
            assert math.exp(lg) == pytest.approx(lin, rel=1e-10)
    for t in (0.2, 1.0, 5.0):
        assert math.exp(unconditional_density_exact_log(spec, t)) == pytest.approx(
            unconditional_density_exact(spec, t), rel=1e-12
        )


def test_log_tail_beyond_double_underflow() -> None:
    # At t = 10^4 (nu_0 t ~ 860) the density underflows doubles but the log
    # stays finite and is governed by the slowest mode: log p ~ log d_0 - nu_0 t.
    _, spec = _spec(32, 0.5)
    t = 10000.0
    assert unconditional_density_exact(spec, t) == 0.0
    lg = unconditional_density_exact_log(spec, t)
    want = math.log(spec.uncond_coeffs[0]) - spec.eigenvalues[0] * t
    assert lg == pytest.approx(want, rel=1e-12)
    sgn, lgc = conditional_density_exact_log(spec, 5, t)
    assert sgn == 1
    assert math.isfinite(lgc)


def test_state_index_guard() -> None:
    _, spec = _spec(8, 1.0)
    with pytest.raises(ValueError):
        conditional_density_exact(spec, 8, 1.0)
    with pytest.raises(ValueError):
        conditional_density_exact_log(spec, -1, 1.0)


def test_evaluators_reject_bad_time_and_state() -> None:
    _, spec = _spec(8, 1.0)
    for t in (math.nan, -1.0, -1e-300, -math.inf):
        for fn in (conditional_density_exact, conditional_density_exact_log):
            with pytest.raises(InvalidInput):
                fn(spec, 3, t)
        for fn in (unconditional_density_exact, unconditional_density_exact_log):
            with pytest.raises(InvalidInput):
                fn(spec, t)
    for n in (3.5, 2.0, -1, 8, "3", None):
        for fn in (conditional_density_exact, conditional_density_exact_log):
            with pytest.raises(InvalidInput):
                fn(spec, n, 1.0)
    assert issubclass(InvalidInput, PSQError) and issubclass(InvalidInput, ValueError)


def test_evaluators_accept_infinite_time_and_numpy_index() -> None:
    _, spec = _spec(8, 1.0)
    assert conditional_density_exact(spec, 3, math.inf) == 0.0
    assert conditional_density_exact_log(spec, 3, math.inf) == (0, -math.inf)
    assert unconditional_density_exact(spec, math.inf) == 0.0
    assert unconditional_density_exact_log(spec, math.inf) == -math.inf
    assert conditional_density_exact_log(spec, np.int64(3), 1.5) == (
        conditional_density_exact_log(spec, 3, 1.5)
    )


def test_decompose_rejects_dimension_mismatch() -> None:
    with pytest.raises(InvalidInput):
        spectral_decompose(build_generator(ModelParams(40, 0.5)), ModelParams(50, 0.5))


# ---------------------------------------------------------------------------
# reporting basis
# ---------------------------------------------------------------------------

def test_no_square_field_but_sym_vectors() -> None:
    _, spec = _spec(16, 0.5)
    square = [
        f.name
        for f in dataclasses.fields(spec)
        if isinstance(getattr(spec, f.name), np.ndarray) and getattr(spec, f.name).ndim == 2
    ]
    assert square == ["sym_vectors"]


@pytest.mark.parametrize("rho, n_fallback, first", [(0.25, 336, 36), (1.5, 0, None)])
def test_reporting_basis_definition(rho: float, n_fallback: int, first: int | None) -> None:
    population = 600
    _, spec = _spec(population, rho)
    phi, c, fallbacks = spec.reporting_basis()
    assert phi.shape == (population, population) and c.shape == (population,)
    assert len(fallbacks) == n_fallback
    assert (fallbacks[0] if fallbacks else None) == first
    assert list(fallbacks) == sorted(set(fallbacks))
    head_rows = np.setdiff1d(np.arange(population), fallbacks)
    assert (phi[head_rows, 0] == 1.0).all()
    for j in fallbacks:
        assert np.linalg.norm(phi[j]) == pytest.approx(1.0, abs=1e-14)
    assert np.isfinite(c).all()
    # c_j phi_j(n) = beta_j v_j(n) / D_n wherever the right side is finite;
    # a unit-norm fallback row spans up to 1e+307, so its subnormal entries
    # carry fewer digits and are left out
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        want = spec.sym_coeffs[:, None] * (spec.sym_vectors.T / spec.scale[None, :])
        got = c[:, None] * phi
    mask = np.isfinite(want) & (np.abs(phi) >= np.finfo(float).tiny)
    assert mask.any()
    assert np.allclose(got[mask], want[mask], rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# extended-precision oracle
# ---------------------------------------------------------------------------

def test_oracle_matches_double_solver() -> None:
    params, spec = _spec(8, 0.5)
    dec = oracle_decompose(params, digits=30)
    nu_mp = np.array([float(v) for v in dec.eigenvalues])
    assert np.abs(nu_mp - spec.eigenvalues).max() < 1e-12
    _, c, _ = spec.reporting_basis()
    c_mp = np.array([float(v) for v in dec.cond_coeffs])
    assert np.abs((c_mp - c) / c_mp).max() < 1e-10
    d_mp = np.array([float(v) for v in dec.uncond_coeffs])
    assert np.abs((d_mp - spec.uncond_coeffs) / d_mp).max() < 1e-10


def test_oracle_resolves_edge_state_tail() -> None:
    # Edge state n = 15: the double path keeps ~10 good digits through the
    # weighted basis; the oracle confirms the log density.
    params, spec = _spec(16, 0.5)
    dec = oracle_decompose(params, digits=40)
    for t in (0.5, 2.0, 10.0):
        sgn, lg = conditional_density_exact_log(spec, 15, t)
        assert sgn == 1
        want = float(oracle_conditional_log(dec, 15, t))
        assert lg == pytest.approx(want, abs=1e-6)


def test_oracle_unit_mass() -> None:
    params = ModelParams(12, 2.0)
    dec = oracle_decompose(params, digits=30)
    with mp.workdps(40):
        total = mp.fsum(
            dec.uncond_coeffs[j] / dec.eigenvalues[j] for j in range(12)
        )
        assert abs(float(total) - 1.0) < 1e-25


def test_oracle_guards() -> None:
    with pytest.raises(UnsupportedN):
        oracle_decompose(ModelParams(65, 0.5))
    with pytest.raises(InvalidInput):
        oracle_decompose(ModelParams(8, 0.5), digits=10)
