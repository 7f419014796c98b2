"""Bad caller input to the model parameters, the exact layer, the rho > 1
catalogue and the special functions, and the numerical checks that once
raised a raw ValueError.

Each bad input raises InvalidInput, which is a PSQError (and still a
ValueError, so callers that caught the raw ValueError these checks once
raised keep working).  The rho < 1 module's own cases are in
test_subcritical.py; a hypothesis test hands a float index to every public
function that takes an index.  The numerical checks raise NegativeDensity or
SearchExhausted, PSQErrors that are ValueErrors for the same reason, and
the tail-truncation time raises NoTruncationTime where it has no finite
double value, instead of a raw ZeroDivisionError or OverflowError.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psq import infinite, subcritical
from psq.core import LogDensityApprox
from psq.errors import (
    InvalidInput,
    NegativeDensity,
    NoTruncationTime,
    PSQError,
    SearchExhausted,
)
from psq.exact import (
    Generator,
    ModelParams,
    build_generator,
    closed_form_small_N,
    conditional_density_exact_log,
    integrate_ode,
    oracle_conditional_log,
    oracle_decompose,
    spectral_decompose,
    spectral_trajectory,
)
from psq.specfun import (
    cut_integral,
    harmonic,
    hermite_He,
    loop_series_Q_log,
    parabolic_cylinder_H,
)
from psq.supercritical import (
    XiTauPoint,
    algebraic_tail_log_constant,
    eigen_asym_super,
    large_rho_spectrum,
    small_n_scale_super,
    uncond_correction_kernel,
    unconditional_super,
)

SUPER = ModelParams(200, 2.0)
SUB = ModelParams(10**6, 0.25)


@functools.cache
def _small_spec():
    params = ModelParams(8, 0.5)
    return spectral_decompose(build_generator(params), params)


@functools.cache
def _small_oracle():
    return oracle_decompose(ModelParams(4, 0.5), digits=20)


BAD_INPUT = {
    "model-rho-inf": lambda: ModelParams(10, math.inf),
    "spectral-trajectory-negative": lambda: spectral_trajectory(_small_spec(), np.array([-1.0])),
    "spectral-trajectory-nan": lambda: spectral_trajectory(_small_spec(), np.array([0.5, math.nan])),
    "spectral-trajectory-2d": lambda: spectral_trajectory(_small_spec(), np.ones((2, 2))),
    "spectral-trajectory-empty": lambda: spectral_trajectory(_small_spec(), np.array([])),
    "log-density-coeff-nan": lambda: LogDensityApprox(math.nan),
    "log-density-coeff-inf": lambda: LogDensityApprox(-1.0, coeff_O1=math.inf),
    "closed-form-t-negative": lambda: closed_form_small_N(ModelParams(2, 0.5), 0, -1.0),
    "closed-form-t-nan": lambda: closed_form_small_N(ModelParams(3, 0.5), 1, math.nan),
    "closed-form-n-float": lambda: closed_form_small_N(ModelParams(3, 0.5), 1.0, 1.0),
    "oracle-n-high": lambda: oracle_conditional_log(_small_oracle(), 4, 0.5),
    "oracle-t-negative": lambda: oracle_conditional_log(_small_oracle(), 1, -1.0),
    "cut-integral-negative": lambda: cut_integral(-1, 0.5, 0.5, 1.0),
    "cut-integral-fraction": lambda: cut_integral(2.5, 0.5, 0.5, 1.0),
    "xi-tau-point-xi": lambda: XiTauPoint(0.0, 1.0),
    "xi-tau-point-tau": lambda: XiTauPoint(0.5, -1.0),
    "xi-tau-point-tau-nan": lambda: XiTauPoint(0.3, math.nan),
    "xi-tau-point-tau-inf": lambda: XiTauPoint(0.3, math.inf),
    "small-n-tau": lambda: small_n_scale_super(1, 0.0, SUPER),
    "small-n-tau-nan": lambda: small_n_scale_super(1, math.nan, SUPER),
    "unconditional-tau": lambda: unconditional_super(-1.0, SUPER),
    "unconditional-tau-nan": lambda: unconditional_super(math.nan, SUPER),
    "unconditional-tau-inf": lambda: unconditional_super(math.inf, SUPER),
    "correction-kernel-tau-nan": lambda: uncond_correction_kernel(math.nan, 2.0),
    "correction-kernel-tau-inf": lambda: uncond_correction_kernel(math.inf, 2.0),
    "eigen-index": lambda: eigen_asym_super(-1, SUPER),
    "eigen-index-fraction": lambda: eigen_asym_super(2.5, SUPER),
    "eigen-index-nan": lambda: eigen_asym_super(math.nan, SUPER),
    "large-rho-state": lambda: large_rho_spectrum(SUPER).phi0_correction(200),
    "large-rho-state-none": lambda: large_rho_spectrum(SUPER).phi0_correction(None),
    "large-rho-nu-fraction": lambda: large_rho_spectrum(SUPER).nu_j_approx(2.5),
    "large-rho-phi-fraction": lambda: large_rho_spectrum(SUPER).phi_j_leading(1.5, 0),
    "large-rho-phi-nan": lambda: large_rho_spectrum(SUPER).phi_j_leading(math.nan, 0),
    "large-rho-phi-state-fraction": lambda: large_rho_spectrum(SUPER).phi_j_leading(0, 2.5),
    "large-rho-series-fraction": lambda: large_rho_spectrum(SUPER).phi_j_leading_series(2.5, 0),
    "hermite-index": lambda: hermite_He(201, 0.0),
    "hermite-index-fraction": lambda: hermite_He(2.5, 0.0),
    "loop-series-index": lambda: loop_series_Q_log(-1),
    "loop-series-log-index": lambda: loop_series_Q_log(501),
    "loop-series-index-fraction": lambda: loop_series_Q_log(2.5),
    "harmonic-index": lambda: harmonic(-1),
    "harmonic-index-fraction": lambda: harmonic(2.5),
    "parabolic-cylinder-rho": lambda: parabolic_cylinder_H(0.0, 1.0),
    "parabolic-cylinder-delta1-inf": lambda: parabolic_cylinder_H(math.inf, 0.5),
    "parabolic-cylinder-delta1-nan": lambda: parabolic_cylinder_H(math.nan, 0.5),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_raises_invalid_input(case: str) -> None:
    with pytest.raises(InvalidInput):
        BAD_INPUT[case]()


def test_params_take_a_numpy_population_as_int() -> None:
    params = ModelParams(np.int64(10), 0.5)
    assert type(params.population) is int and params == ModelParams(10, 0.5)


# every public function that takes an index, called with `index` there
INDEX_TAKERS = {
    "ModelParams": lambda j: ModelParams(j, 0.5),
    "conditional_density_exact_log": lambda j: conditional_density_exact_log(_small_spec(), j, 1.0),
    "closed_form_small_N": lambda j: closed_form_small_N(ModelParams(3, 0.5), j, 1.0),
    "oracle_conditional_log": lambda j: oracle_conditional_log(_small_oracle(), j, 0.5),
    "transform_phat": lambda j: infinite.transform_phat(j, 1.0, 0.5),
    "invert_density": lambda j: infinite.invert_density(j, 1.0, 0.5),
    "tail_asym_infinite": lambda j: infinite.tail_asym_infinite(j, 20.0, 0.5),
    "tail_truncation_time": lambda j: infinite.tail_truncation_time(j, 2.0, 1e-6),
    "hermite_He": lambda j: hermite_He(j, 0.5),
    "loop_series_Q_log": loop_series_Q_log,
    "cut_integral": lambda j: cut_integral(j, 0.5, 0.5, 1.0),
    "harmonic": harmonic,
    "classify": lambda j: subcritical.classify(j, 1.0, SUB),
    "bl_nsigma_evaluate": lambda j: subcritical.bl_nsigma_evaluate(j, 1.0, SUB),
    "bl_ntau_evaluate": lambda j: subcritical.bl_ntau_evaluate(j, 1.0, SUB),
    "eigen_asym_sub": lambda j: subcritical.eigen_asym_sub(j, SUB),
    "spectral_coeff_asym_sub": lambda j: subcritical.spectral_coeff_asym_sub(j, SUB),
    "eigvec_shape_g": lambda j: subcritical.eigvec_shape_g(j, 1.0, 0.25),
    "eigvec_asym_sub-j": lambda j: subcritical.eigvec_asym_sub(j, 5, SUB),
    "eigvec_asym_sub-n": lambda j: subcritical.eigvec_asym_sub(0, j, SUB),
    "small_n_scale_super": lambda j: small_n_scale_super(j, 1.0, SUPER),
    "algebraic_tail_log_constant": lambda j: algebraic_tail_log_constant(j, 2.0),
    "eigen_asym_super": lambda j: eigen_asym_super(j, SUPER),
    "nu_j_approx": lambda j: large_rho_spectrum(SUPER).nu_j_approx(j),
    "phi0_correction": lambda j: large_rho_spectrum(SUPER).phi0_correction(j),
    "phi_j_leading-j": lambda j: large_rho_spectrum(SUPER).phi_j_leading(j, 0),
    "phi_j_leading-n": lambda j: large_rho_spectrum(SUPER).phi_j_leading(0, j),
    "phi_j_leading_series-j": lambda j: large_rho_spectrum(SUPER).phi_j_leading_series(j, 0),
    "phi_j_leading_series-n": lambda j: large_rho_spectrum(SUPER).phi_j_leading_series(0, j),
}


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(
    name=st.sampled_from(sorted(INDEX_TAKERS)),
    index=st.sampled_from([2.5, math.nan, math.inf, np.float64(2.0)]) | st.floats(),
)
def test_float_index_raises_invalid_input(name: str, index: float) -> None:
    with pytest.raises(InvalidInput):
        INDEX_TAKERS[name](index)


def _flipped_spec():
    # every mode weight negated: the balanced mode sums come out negative
    params = ModelParams(12, 0.5)
    spec = spectral_decompose(build_generator(params), params)
    return dataclasses.replace(spec, weighted_vectors=-spec.weighted_vectors)


def _flipped_oracle():
    dec = oracle_decompose(ModelParams(4, 0.5), digits=20)
    return dataclasses.replace(dec, cond_coeffs=[-c for c in dec.cond_coeffs])


# p0' = -p0 - 5 p1, p1' = -p0/2 - p1: not a sojourn generator, and p0 turns
# negative within a few time units
_BAD_GENERATOR = Generator(
    dimension=2,
    sub=np.array([-0.5]),
    diag=np.array([-1.0, -1.0]),
    sup=np.array([-5.0]),
)


def _no_decay(n, t, rho):
    return LogDensityApprox(coeff_N=0.0)


NEGATIVE = {
    "spectral-trajectory-dip": lambda: spectral_trajectory(_flipped_spec(), np.arange(2.0)),
    "ode-dip": lambda: integrate_ode(_BAD_GENERATOR, np.array([5.0])),
    "oracle-nonpositive": lambda: oracle_conditional_log(_flipped_oracle(), 1, 0.5),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE))
def test_negative_density_is_a_psq_error(case: str) -> None:
    with pytest.raises(NegativeDensity) as info:
        NEGATIVE[case]()
    assert isinstance(info.value, PSQError) and isinstance(info.value, ValueError)


def test_truncation_search_exhausted(monkeypatch) -> None:
    # a tail that never decays: the search runs out of steps
    monkeypatch.setattr(infinite, "tail_asym_infinite", _no_decay)
    with pytest.raises(SearchExhausted, match="rho=0.5") as info:
        infinite.tail_truncation_time(2, 0.5, 1e-6)
    assert isinstance(info.value, PSQError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "n, rho, message",
    [
        # rho / (rho - 1) divided by zero at the parent
        (2, 1.0, "rho = 1"),
        # the truncation time exp(1362.6) overflowed a float power at the parent
        (0, 100.0, "leaves double range"),
        (16, 1e300, "leaves double range"),
    ],
)
def test_truncation_time_without_a_double_answer(n, rho, message) -> None:
    with pytest.raises(NoTruncationTime, match=message) as info:
        infinite.tail_truncation_time(n, rho, 1e-6)
    assert isinstance(info.value, PSQError)
    assert f"(n={n}, rho={rho}, mass_bound=1e-06)" in str(info.value)
