"""Bad caller input to the rho > 1 catalogue and the special functions.

Each check raises InvalidInput, which is a PSQError (and still a
ValueError, so callers that caught the raw ValueError these checks once
raised keep working).  The rho < 1 module's own cases are in
test_subcritical.py.
"""

from __future__ import annotations

import pytest

from psq.errors import InvalidInput
from psq.exact import ModelParams
from psq.specfun import (
    harmonic,
    hermite_He,
    loop_series_Q,
    loop_series_Q_log,
    parabolic_cylinder_H,
)
from psq.supercritical import (
    XiTauPoint,
    eigen_asym_super,
    large_rho_spectrum,
    small_n_scale_super,
    unconditional_super,
)

SUPER = ModelParams(200, 2.0)

BAD_INPUT = {
    "xi-tau-point-xi": lambda: XiTauPoint(0.0, 1.0),
    "xi-tau-point-tau": lambda: XiTauPoint(0.5, -1.0),
    "small-n-tau": lambda: small_n_scale_super(1, 0.0, SUPER),
    "unconditional-tau": lambda: unconditional_super(-1.0, SUPER),
    "eigen-index": lambda: eigen_asym_super(-1, SUPER),
    "large-rho-state": lambda: large_rho_spectrum(SUPER).phi0_correction(200),
    "hermite-index": lambda: hermite_He(201, 0.0),
    "loop-series-index": lambda: loop_series_Q(-1),
    "loop-series-log-index": lambda: loop_series_Q_log(501),
    "harmonic-index": lambda: harmonic(-1),
    "parabolic-cylinder-rho": lambda: parabolic_cylinder_H(0.0, 1.0),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_raises_invalid_input(case: str) -> None:
    with pytest.raises(InvalidInput):
        BAD_INPUT[case]()
