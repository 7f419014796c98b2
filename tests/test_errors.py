"""Bad caller input to the model parameters, the rho > 1 catalogue and the
special functions, and the numerical checks that once raised a raw
ValueError.

Each bad input raises InvalidInput, which is a PSQError (and still a
ValueError, so callers that caught the raw ValueError these checks once
raised keep working).  The rho < 1 module's own cases are in
test_subcritical.py.  The numerical checks raise NegativeDensity or
SearchExhausted, PSQErrors that are ValueErrors for the same reason, and
the tail-truncation time raises NoTruncationTime where it has no finite
double value, instead of a raw ZeroDivisionError or OverflowError.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from psq import infinite
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
    integrate_ode,
    oracle_conditional_log,
    oracle_decompose,
    spectral_decompose,
    spectral_trajectory,
)
from psq.specfun import (
    harmonic,
    hermite_He,
    loop_series_Q_log,
    parabolic_cylinder_H,
)
from psq.supercritical import (
    XiTauPoint,
    eigen_asym_super,
    large_rho_spectrum,
    small_n_scale_super,
    uncond_correction_kernel,
    unconditional_super,
)

SUPER = ModelParams(200, 2.0)

BAD_INPUT = {
    "model-rho-inf": lambda: ModelParams(10, math.inf),
    "xi-tau-point-xi": lambda: XiTauPoint(0.0, 1.0),
    "xi-tau-point-tau": lambda: XiTauPoint(0.5, -1.0),
    "xi-tau-point-tau-nan": lambda: XiTauPoint(0.3, math.nan),
    "xi-tau-point-tau-inf": lambda: XiTauPoint(0.3, math.inf),
    "small-n-tau": lambda: small_n_scale_super(1, 0.0, SUPER),
    "small-n-tau-nan": lambda: small_n_scale_super(1, math.nan, SUPER),
    "unconditional-tau": lambda: unconditional_super(-1.0, SUPER),
    "unconditional-tau-nan": lambda: unconditional_super(math.nan, SUPER),
    "correction-kernel-tau-nan": lambda: uncond_correction_kernel(math.nan, 2.0),
    "eigen-index": lambda: eigen_asym_super(-1, SUPER),
    "large-rho-state": lambda: large_rho_spectrum(SUPER).phi0_correction(200),
    "hermite-index": lambda: hermite_He(201, 0.0),
    "hermite-index-fraction": lambda: hermite_He(2.5, 0.0),
    "loop-series-index": lambda: loop_series_Q_log(-1),
    "loop-series-log-index": lambda: loop_series_Q_log(501),
    "loop-series-index-fraction": lambda: loop_series_Q_log(2.5),
    "harmonic-index": lambda: harmonic(-1),
    "harmonic-index-fraction": lambda: harmonic(2.5),
    "parabolic-cylinder-rho": lambda: parabolic_cylinder_H(0.0, 1.0),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_raises_invalid_input(case: str) -> None:
    with pytest.raises(InvalidInput):
        BAD_INPUT[case]()


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
