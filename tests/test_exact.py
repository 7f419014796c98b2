"""Unit tests for the exact finite-population solver."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from psq.errors import InvalidInput, NegativeDensity, PSQError, StepTooLarge, UnsupportedN
from psq.exact import (
    DBL_MIN,
    EXP_SUBNORMAL,
    EXP_UNDERFLOW,
    Generator,
    ModelParams,
    Regime,
    build_generator,
    closed_form_small_N,
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
    time_integral_residual,
    unconditional_density_exact_log,
    unit_mass_residual,
    _shifted_mode_sum,
)


ORACLE_TABLE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "oracle_n48.json"


def _spec(population: int, rho: float):
    params = ModelParams(population, rho)
    return params, spectral_decompose(build_generator(params), params)


def _density(spec, n: int, t: float) -> float:
    sign, log_p = conditional_density_exact_log(spec, n, t)
    return sign * math.exp(log_p)


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
    w = np.exp(steady_state_log_weights(ModelParams(4, 2.0)))
    want = np.array([4.0, 6.0, 6.0, 3.0]) / 19.0
    assert np.abs(w - want).max() < 1e-15


def test_steady_state_weights_normalized_and_log() -> None:
    for population, rho in ((8, 0.25), (512, 0.25), (512, 4.0)):
        logw = steady_state_log_weights(ModelParams(population, rho))
        assert np.isfinite(logw).all()
        assert np.exp(logw).sum() == pytest.approx(1.0, abs=1e-12)


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
                b = _density(spec, n, t)
                assert abs(a - b) < 1e-12


def test_closed_form_matches_spectral_N3() -> None:
    for rho in (0.5, 2.0, 4.0):
        params, spec = _spec(3, rho)
        assert np.abs(spec.eigenvalues - small_n_rates(params)).max() < 1e-10
        for n in (0, 1, 2):
            for t in (0.0, 0.1, 1.0, 5.0):
                a = closed_form_small_N(params, n, t)
                b = _density(spec, n, t)
                assert abs(a - b) < 1e-10


def test_initial_values() -> None:
    # Absolute error of the balanced evaluation is of order eps / D_n.
    for population, rho in ((2, 2.0), (3, 0.7), (16, 0.5)):
        params, spec = _spec(population, rho)
        for n in range(population):
            tol = 1e-13 + 1e-14 / spec.scale[n]
            assert _density(spec, n, 0.0) == pytest.approx(1.0 / (n + 1.0), abs=tol)


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
    params, spec = _spec(12, 3.0)
    weights = np.exp(steady_state_log_weights(params))
    for t in (0.0, 0.7, 2.5):
        mix = sum(weights[n] * _density(spec, n, t) for n in range(12))
        assert math.exp(unconditional_density_exact_log(spec, t)) == pytest.approx(
            mix, rel=1e-12
        )


def test_uncond_coeffs_positive_and_sum() -> None:
    params, spec = _spec(24, 0.6)
    assert (spec.uncond_coeffs >= 0.0).all()
    # p(0) = sum_n pi_n/(n+1) = sum_j d_j
    want = (np.exp(steady_state_log_weights(params)) / (np.arange(24) + 1.0)).sum()
    assert spec.uncond_coeffs.sum() == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_ode_vs_spectral_weighted() -> None:
    params, spec = _spec(16, 0.5)
    gen = build_generator(params)
    step = 0.04 / spec.eigenvalues[-1]
    # one output time per step, so every RK4 step is compared
    times = np.linspace(0.0, 10.0, math.ceil(10.0 / step) + 1)
    traj = integrate_ode(gen, times, step=step)
    st = spectral_trajectory(spec, traj.times)
    wdiff = np.abs(spec.scale[:, None] * (traj.values - st.values)).max()
    assert wdiff < 1e-8


def test_ode_lands_on_irregular_times() -> None:
    # every output time is stepped to exactly: reaching the last one through
    # the others gives what one run straight to it gives
    params, spec = _spec(16, 0.5)
    gen = build_generator(params)
    step = 0.04 / spec.eigenvalues[-1]
    times = np.array([0.0, 0.3, 1.7, 5.0, 10.0])
    traj = integrate_ode(gen, times, step=step)
    st = spectral_trajectory(spec, traj.times)
    wdiff = np.abs(spec.scale[:, None] * (traj.values - st.values)).max()
    assert wdiff < 1e-8
    alone = integrate_ode(gen, times[-1:], step=step)
    assert np.abs(alone.values[:, 0] - traj.values[:, -1]).max() < 1e-12


def test_ode_step_guard() -> None:
    params, _ = _spec(16, 4.0)
    gen = build_generator(params)
    with pytest.raises(StepTooLarge):
        integrate_ode(gen, np.array([10.0]), step=1.0)
    with pytest.raises(StepTooLarge):
        integrate_ode(gen, np.array([100.0]), step=100.0 / 3.0)
    for t_max in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidInput):
            integrate_ode(gen, np.array([t_max]))
    for times in ([], [[1.0]], [2.0, 1.0], [0.5, math.nan]):
        with pytest.raises(InvalidInput):
            integrate_ode(gen, np.array(times))
    for step in (0.0, -0.01, math.nan):
        with pytest.raises(InvalidInput):
            integrate_ode(gen, np.array([1.0]), step=step)


def test_trajectory_shapes_and_method_tags() -> None:
    params, spec = _spec(8, 1.5)
    gen = build_generator(params)
    traj = integrate_ode(gen, np.array([0.0, 1.0, 1.0, 2.0]))
    assert traj.method == "ode"
    assert traj.values.shape == (8, 4)
    assert (traj.values[:, 0] == 1.0 / (np.arange(8) + 1.0)).all()
    assert (traj.values[:, 1] == traj.values[:, 2]).all()
    st = spectral_trajectory(spec, np.array([0.0, 1.0, 2.0]))
    assert st.method == "spectral"
    assert st.values.shape == (8, 3)
    assert (st.values >= 0.0).all()


def test_ode_memory_is_per_output_time() -> None:
    params, spec = _spec(100, 0.5)
    gen = build_generator(params)
    times = np.array([70.0, 140.0])
    every_step = 8 * 100 * math.ceil(times[-1] * spec.eigenvalues[-1] / 0.1)
    tracemalloc.start()
    try:
        traj = integrate_ode(gen, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.values.shape == (100, 2)
    assert every_step > 2_000_000
    assert peak < every_step / 20


# p' = A p with this 3-state generator dips to about -0.004 between t = 1.4
# and 2.4 and is positive in every state again at t = 2.82
_DIPPING_GENERATOR = Generator(
    dimension=3,
    sub=np.array([-1.0, 0.1]),
    diag=np.array([-1.4, -1.6, -1.1]),
    sup=np.array([-0.1, 1.5]),
)


def test_ode_negative_check_covers_unstored_steps() -> None:
    from scipy.linalg import expm

    a = _DIPPING_GENERATOR.to_dense()
    p0 = 1.0 / np.arange(1.0, 4.0)
    assert min((expm(a * t) @ p0).min() for t in np.linspace(1.4, 2.4, 11)) < -1e-3
    assert (expm(a * 2.82) @ p0).min() > 1e-4
    with pytest.raises(NegativeDensity):
        integrate_ode(_DIPPING_GENERATOR, np.array([2.82]))
    early = integrate_ode(_DIPPING_GENERATOR, np.array([1.0]))
    assert early.values.min() > 0.0


# ---------------------------------------------------------------------------
# log-scale evaluation
# ---------------------------------------------------------------------------

def test_log_tail_beyond_double_underflow() -> None:
    # At t = 10^4 (nu_0 t ~ 860) the density underflows doubles but the log
    # stays finite and is governed by the slowest mode: log p ~ log d_0 - nu_0 t.
    _, spec = _spec(32, 0.5)
    t = 10000.0
    lg = unconditional_density_exact_log(spec, t)
    assert math.exp(lg) == 0.0
    want = math.log(spec.uncond_coeffs[0]) - spec.eigenvalues[0] * t
    assert lg == pytest.approx(want, rel=1e-12)
    sgn, lgc = conditional_density_exact_log(spec, 5, t)
    assert sgn == 1
    assert math.isfinite(lgc)


def test_state_index_guard() -> None:
    _, spec = _spec(8, 1.0)
    with pytest.raises(ValueError):
        conditional_density_exact_log(spec, 8, 1.0)
    with pytest.raises(ValueError):
        conditional_density_exact_log(spec, -1, 1.0)


def test_evaluators_reject_bad_time_and_state() -> None:
    _, spec = _spec(8, 1.0)
    for t in (math.nan, -1.0, -1e-300, -math.inf):
        with pytest.raises(InvalidInput):
            conditional_density_exact_log(spec, 3, t)
        with pytest.raises(InvalidInput):
            unconditional_density_exact_log(spec, t)
    for n in (3.5, 2.0, -1, 8, "3", None):
        with pytest.raises(InvalidInput):
            conditional_density_exact_log(spec, n, 1.0)
    assert issubclass(InvalidInput, PSQError) and issubclass(InvalidInput, ValueError)


def test_evaluators_accept_infinite_time_and_numpy_index() -> None:
    _, spec = _spec(8, 1.0)
    assert conditional_density_exact_log(spec, 3, math.inf) == (0, -math.inf)
    assert unconditional_density_exact_log(spec, math.inf) == -math.inf
    assert conditional_density_exact_log(spec, np.int64(3), 1.5) == (
        conditional_density_exact_log(spec, 3, 1.5)
    )


def test_decompose_rejects_dimension_mismatch() -> None:
    with pytest.raises(InvalidInput):
        spectral_decompose(build_generator(ModelParams(40, 0.5)), ModelParams(50, 0.5))


# ---------------------------------------------------------------------------
# the linear-space mode sum at N = 1000 and 4000
# ---------------------------------------------------------------------------

EPS = float(np.finfo(float).eps)
LARGE = [(1000, 0.25), (1000, 1.5), (4000, 0.25), (4000, 1.5)]


@pytest.fixture(scope="module", params=LARGE, ids=[f"N{n}-rho{r}" for n, r in LARGE])
def large_spec(request):
    return _spec(*request.param)[1]


def _grid(population: int) -> list:
    """17 x 17 (n, t) points: n/N over [0, 1], t/N log-spaced over [1e-3, 4]."""
    states = [round(xi * (population - 1)) for xi in np.linspace(0.0, 1.0, 17)]
    taus = np.geomspace(1e-3, 4.0, 17)
    return [(n, float(tau * population)) for n in states for tau in taus]


def _log_space_reference(spec, n: int, t: float) -> tuple:
    """The former log-space evaluation: (sign, log|p_n(t)|, largest log term)."""
    terms = spec.weighted_vectors[n]
    with np.errstate(divide="ignore"):
        log_mags = np.log(np.abs(terms)) - spec.eigenvalues * t
    top = float(log_mags.max())
    acc = float((np.sign(terms) * np.exp(log_mags - top)).sum())
    if acc == 0.0:
        return 0, -math.inf, top
    return (1 if acc > 0 else -1), top + math.log(abs(acc)) - float(spec.log_scale[n]), top


def _log_space_reference_uncond(spec, t: float) -> float:
    with np.errstate(divide="ignore"):
        log_terms = np.log(spec.uncond_coeffs) - spec.eigenvalues * t
    top = float(log_terms.max())
    return top + math.log(float(np.exp(log_terms - top).sum()))


def _log_density_40_digits(spec, n: int, t: float) -> float:
    """log|p_n(t)| from the same double terms, summed in 40 digits."""
    terms = spec.weighted_vectors[n]
    with mp.workdps(40):
        total = mp.fsum(
            mp.mpf(float(c)) * mp.exp(-mp.mpf(float(nu)) * mp.mpf(t))
            for c, nu in zip(terms, spec.eigenvalues)
            if c != 0.0
        )
        return float(mp.log(abs(total))) - float(spec.log_scale[n])


def test_mode_sum_matches_log_space_formula(large_spec) -> None:
    # Where the largest term exceeds |D_n p_n(t)| by under 5 nats the result
    # is resolved in doubles, and the two evaluations agree to 1e-11.  The
    # log-space formula rounds log|term| - nu_j t, of order nu_j t, before the
    # cancellation amplifies it; where the two differ by more, the linear sum
    # must match a 40-digit sum of the same terms.
    spec = large_spec
    population = spec.params.population
    shallow = refereed = 0
    for n, t in _grid(population):
        sign_ref, log_ref, top = _log_space_reference(spec, n, t)
        if sign_ref == 0 or top - (log_ref + float(spec.log_scale[n])) >= 5.0:
            continue
        shallow += 1
        sign, log_p = conditional_density_exact_log(spec, n, t)
        assert sign == sign_ref
        if abs(log_p - log_ref) > 1e-11:
            refereed += 1
            assert abs(log_p - _log_density_40_digits(spec, n, t)) <= 1e-12
    assert shallow >= 90
    assert refereed <= 2
    for tau in np.geomspace(1e-3, 4.0, 17):
        t = float(tau * population)
        got = unconditional_density_exact_log(spec, t)
        assert abs(got - _log_space_reference_uncond(spec, t)) <= 1e-12


def _underflow_cut_sum(coeffs, nu, k: int, t: float) -> tuple:
    """The former mode sum: cut only where the factor rounds to exactly 0.0,
    past (nu_j - nu_k) t > EXP_UNDERFLOW, and 0.0 only for an exact 0.0."""
    if t == math.inf or coeffs[k] == 0.0:
        return 0.0, math.inf
    nu_k = float(nu[k])
    stop = nu.size
    if t * (float(nu[-1]) - nu_k) > EXP_UNDERFLOW:
        stop = int(np.searchsorted(nu, nu_k + EXP_UNDERFLOW / t, side="right"))
    factors = np.exp(np.subtract(nu_k, nu[k:stop]) * t)
    return float(np.dot(coeffs[k:stop], factors)), nu_k * t


def test_mode_sum_keeps_the_underflow_cut_bits(large_spec) -> None:
    # The subnormal terms the sum now drops change no sign and no bit of any
    # grid query against the former cut at EXP_UNDERFLOW.
    spec = large_spec
    population = spec.params.population
    nu = spec.eigenvalues
    for n, t in _grid(population):
        acc, shift = _underflow_cut_sum(spec.weighted_vectors[n], nu, int(spec.first_mode[n]), t)
        want = (0, -math.inf) if acc == 0.0 else (
            1 if acc > 0.0 else -1,
            math.log(abs(acc)) - shift - float(spec.log_scale[n]),
        )
        assert conditional_density_exact_log(spec, n, t) == want
    coeffs = spec.uncond_coeffs
    for tau in np.geomspace(1e-3, 4.0, 17):
        t = float(tau * population)
        acc, shift = _underflow_cut_sum(coeffs, nu, spec.first_uncond_mode, t)
        assert unconditional_density_exact_log(spec, t) == math.log(acc) - shift


def test_queries_stay_out_of_the_subnormal_range(large_spec) -> None:
    # exp and the dot product are slow on subnormal numbers; the former cut
    # at EXP_UNDERFLOW made 85-170 of the 289 conditional and 5-10 of the 17
    # unconditional grid queries of each configuration raise here
    spec = large_spec
    population = spec.params.population
    with np.errstate(all="raise"):
        for n, t in _grid(population):
            conditional_density_exact_log(spec, n, t)
        for tau in np.geomspace(1e-3, 4.0, 17):
            unconditional_density_exact_log(spec, float(tau * population))


def test_mode_sum_cut_drops_only_subnormal_terms(large_spec) -> None:
    # Modes past (nu_j - nu_k) t > EXP_SUBNORMAL add less than DBL_MIN each,
    # so the cut sum equals the whole sum from the same first mode k, up to
    # the order in which the dot product adds its terms.
    spec = large_spec
    nu = spec.eigenvalues
    cut = 0
    for n, t in _grid(spec.params.population):
        terms = spec.weighted_vectors[n]
        k = int(np.flatnonzero(terms)[0])
        acc, shift = _shifted_mode_sum(terms, nu, k, t)
        assert shift == float(nu[k]) * t
        whole = float(np.dot(terms[k:], np.exp((float(nu[k]) - nu[k:]) * t)))
        assert abs(acc - whole) <= 2.0 * math.ulp(whole)
        cut += (float(nu[-1]) - float(nu[k])) * t > EXP_SUBNORMAL
    assert cut > 0


def test_sum_within_the_dropped_terms_reads_sign_zero() -> None:
    # At this point the modes kept before the cut at EXP_SUBNORMAL sum to
    # less than the dropped modes could add, so the sum's sign is not known
    # and the query says so; read as is, the kept sum gives +1, log -674.96.
    _, spec = _spec(2000, 0.25)
    n, t = 327, 758.3541665732632
    nu, terms, k = spec.eigenvalues, spec.weighted_vectors[n], int(spec.first_mode[n])
    stop = int(np.searchsorted(nu, float(nu[k]) + EXP_SUBNORMAL / t, side="right"))
    kept = float(np.dot(terms[k:stop], np.exp((float(nu[k]) - nu[k:stop]) * t)))
    assert 0.0 < kept <= (nu.size - stop) * DBL_MIN
    assert _shifted_mode_sum(terms, nu, k, t) == (0.0, float(nu[k]) * t)
    assert conditional_density_exact_log(spec, n, t) == (0, -math.inf)
    # every dropped term lies below DBL_MIN in the shifted scale
    assert (np.abs(terms) < 1.0).all()
    assert math.exp(-EXP_SUBNORMAL) >= DBL_MIN > math.exp(-math.nextafter(EXP_SUBNORMAL, 800.0))


def test_deflated_rows_keep_their_tail(large_spec) -> None:
    # LAPACK's divide and conquer leaves exact zeros in some rows of V, so
    # their first nonzero term sits at a mode k > 0.  At N = 4000, rho = 0.25
    # exp(-(nu_k - nu_0) t) underflows there at t = 4N: a sum shifted by
    # nu_0 would read 0.
    spec = large_spec
    population = spec.params.population
    nu = spec.eigenvalues
    t = 4.0 * population
    first = spec.first_mode
    deflated = np.flatnonzero(first > 0)
    for n in deflated:
        sign, log_p = conditional_density_exact_log(spec, int(n), t)
        assert sign != 0 and math.isfinite(log_p)
    if (population, spec.params.rho) == (4000, 0.25):
        assert ((nu[first[deflated]] - nu[0]) * t > EXP_UNDERFLOW).any()


def test_initial_values_at_large_population(large_spec) -> None:
    # p_n(0) = 1/(n+1); the balanced sum's absolute error is of order
    # eps / D_n, so rows with D_n within 1e-3 of the largest scale are exact
    # to that in log
    spec = large_spec
    scale = spec.scale
    for n in np.flatnonzero(scale > 1e-3 * scale.max()):
        sign, log_p = conditional_density_exact_log(spec, int(n), 0.0)
        assert sign == 1
        assert abs(log_p + math.log(n + 1.0)) <= 16.0 * EPS * (n + 1.0) / scale[n]


def test_queries_raise_no_floating_point_error() -> None:
    _, spec = _spec(1000, 0.25)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for t in (0.0, 1e-300, 1e300, math.inf):
            for n in range(1000):
                conditional_density_exact_log(spec, n, t)
            unconditional_density_exact_log(spec, t)
    assert conditional_density_exact_log(spec, 7, 1e-300) == pytest.approx(
        conditional_density_exact_log(spec, 7, 0.0), abs=1e-13
    )
    assert conditional_density_exact_log(spec, 7, math.inf) == (0, -math.inf)


# ---------------------------------------------------------------------------
# stored fields
# ---------------------------------------------------------------------------

def test_no_square_field_but_weighted_vectors() -> None:
    _, spec = _spec(16, 0.5)
    square = [
        f.name
        for f in dataclasses.fields(spec)
        if isinstance(getattr(spec, f.name), np.ndarray) and getattr(spec, f.name).ndim == 2
    ]
    assert square == ["weighted_vectors"]


def _unweighted_reference(population: int, rho: float) -> tuple:
    """(nu, V, beta, log D) with V the orthonormal eigenvectors from a direct
    eigh_tridiagonal call, reversed to ascending nu and C-ordered, and beta
    taken from that V: the data the queries once weighted on every call."""
    from scipy.linalg import eigh_tridiagonal

    params = ModelParams(population, rho)
    gen = build_generator(params)
    lam, vec = eigh_tridiagonal(gen.diag, np.sqrt(gen.sup * gen.sub))
    vec = np.ascontiguousarray(vec[:, ::-1])
    states = np.arange(population) + 1.0
    log_d = 0.5 * (np.log(states) + steady_state_log_weights(params))
    beta = vec.T @ np.exp(log_d - np.log(states))
    return -lam[::-1], vec, beta, log_d


def _reference_log(ref: tuple, n: int, t: float) -> tuple:
    """conditional_density_exact_log with row n weighted by beta per call."""
    nu, vec, beta, log_d = ref
    terms = beta * vec[n]
    acc, shift = _shifted_mode_sum(terms, nu, int(np.argmax(terms != 0.0)), t)
    if acc == 0.0:
        return 0, -math.inf
    return (1 if acc > 0.0 else -1), math.log(abs(acc)) - shift - float(log_d[n])


STORED = [(48, 0.25), (48, 1.5), (1000, 0.25), (1000, 1.5)]


@pytest.mark.parametrize("population, rho", STORED)
def test_weighted_storage_keeps_every_bit(population: int, rho: float) -> None:
    ref = _unweighted_reference(population, rho)
    nu, vec, beta, log_d = ref
    _, spec = _spec(population, rho)
    assert (spec.eigenvalues == nu).all() and (spec.sym_coeffs == beta).all()
    weighted = spec.weighted_vectors
    assert (weighted == beta * vec).all() and weighted.flags.c_contiguous
    assert (spec.first_mode == np.argmax(weighted != 0.0, axis=1)).all()
    assert (weighted[np.arange(population), spec.first_mode] != 0.0).all()
    for n, t in _grid(population):
        assert conditional_density_exact_log(spec, n, t) == _reference_log(ref, n, t)
    coeffs = beta * beta
    k = int(np.argmax(coeffs != 0.0))
    assert spec.first_uncond_mode == k and coeffs[k] != 0.0
    for tau in np.geomspace(1e-3, 4.0, 17):
        acc, shift = _shifted_mode_sum(coeffs, nu, k, float(tau * population))
        assert unconditional_density_exact_log(spec, float(tau * population)) == (
            math.log(acc) - shift
        )


def test_weighted_storage_on_the_oracle_table() -> None:
    table = json.loads(ORACLE_TABLE.read_text())
    assert table["population"] == 48
    refs, specs = {}, {}
    for rho, n, t, _, _ in table["points"]:
        if rho not in refs:
            refs[rho] = _unweighted_reference(48, rho)
            specs[rho] = _spec(48, rho)[1]
        assert conditional_density_exact_log(specs[rho], n, t) == _reference_log(refs[rho], n, t)
    assert len(table["points"]) == 384


def test_decomposition_peak_is_lapacks_own() -> None:
    # stevd's eigenvector matrix z and its workspace hold about 2 N^2
    # doubles; the weighted copy is made after the workspace is freed, so a
    # further N x N buffer would raise the peak by half
    population = 2000
    params = ModelParams(population, 0.25)
    gen = build_generator(params)
    _spec(8, 0.25)  # imports scipy.linalg outside the traced window
    tracemalloc.start()
    try:
        spectral_decompose(gen, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 2 * population**2 * 8


def test_trajectory_is_one_product_without_square_temporaries() -> None:
    population = 2000
    nu, vec, beta, log_d = _unweighted_reference(population, 0.25)
    _, spec = _spec(population, 0.25)
    times = np.array([0.0, 0.5 * population, 4.0 * population])
    tracemalloc.start()
    try:
        traj = spectral_trajectory(spec, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    # the former formula, with its N x N product of V and beta
    weighted = (vec * beta) @ np.exp(-np.outer(nu, times))
    np.clip(weighted, 0.0, None, out=weighted)
    scale = np.exp(log_d)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = weighted / scale[:, None]
    want[scale == 0.0] = 0.0
    assert (traj.values == want).all()
    assert (np.outer(nu, times) > EXP_UNDERFLOW).any()


# ---------------------------------------------------------------------------
# extended-precision oracle
# ---------------------------------------------------------------------------

def test_oracle_matches_double_solver() -> None:
    params, spec = _spec(8, 0.5)
    dec = oracle_decompose(params, digits=30)
    nu_mp = np.array([float(v) for v in dec.eigenvalues])
    assert np.abs(nu_mp - spec.eigenvalues).max() < 1e-12
    # c_j = beta_j v_j(0) / D_0 in the basis scaled to phi_j(0) = 1
    c = spec.weighted_vectors[0] / spec.scale[0]
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
