"""Label -> evaluator table for the rho < 1 density surface.

psq has no single entry point that maps a point (n, t) to a log density
yet: `subcritical.classify` names the regime, and each regime has its own
evaluator with its own inputs (an XiTauPoint, (xi, Delta), (x, sigma) or
(n, sigma)) and its own output (a linear float, a LogDensityApprox, or a
tuple holding one).  The adapters here put every evaluator behind one
signature, ``(n, t, params) -> (failure kind or None, log density)``, so the
benchmark can dispatch on the label and judge every output the same way.

Every call goes through the module attribute (``subcritical.t2_evaluate``,
not a name imported here), so wrappers installed on those attributes see it.
"""

from __future__ import annotations

import math

from psq import infinite, subcritical, supercritical
from psq.exact import ModelParams
from psq.supercritical import XiTauPoint

# failure kinds of a point that returned instead of raising
NONFINITE = "nonfinite"
SIGN = "sign"
NONPOSITIVE = "nonpositive"

Outcome = tuple[str | None, float]


def log_of_linear(value: float) -> Outcome:
    """Judge a linear density: it must be finite and strictly positive."""
    if not math.isfinite(value):
        return NONFINITE, math.nan
    if value <= 0.0:
        return NONPOSITIVE, math.nan
    return checked_log(math.log(value))


def checked_log(log_value: float) -> Outcome:
    """Judge a log density: it must be finite."""
    if not math.isfinite(log_value):
        return NONFINITE, log_value
    return None, log_value


def signed_log(sign: int, log_value: float) -> Outcome:
    """Judge a (sign, log|p|) pair: the sign must be +1 and the log finite."""
    if sign != 1:
        return SIGN, log_value
    return checked_log(log_value)


def _xi_tau(n: int, t: float, params: ModelParams) -> XiTauPoint:
    return XiTauPoint.from_indices(n, t, params.population)


def t2_delta(n: int, t: float, params: ModelParams) -> float:
    """Stretched T2 time Delta = (t - N tau*(xi)) / N^(3/4) at xi = n/N."""
    big_n = params.population
    tau_star = subcritical.critical_curves(params.rho).tau_star(n / big_n)
    return (t - big_n * tau_star) / big_n**0.75


def eval_r1(n: int, t: float, params: ModelParams) -> Outcome:
    return log_of_linear(supercritical.xi_tau_expansion(_xi_tau(n, t, params), params).value)


def eval_r2(n: int, t: float, params: ModelParams) -> Outcome:
    _, approx = subcritical.r2_evaluate(_xi_tau(n, t, params), params)
    return checked_log(approx.log_value(params.population))


def eval_r3(n: int, t: float, params: ModelParams) -> Outcome:
    _, approx = subcritical.r3_evaluate(_xi_tau(n, t, params), params)
    return checked_log(approx.log_value(params.population))


def eval_t1(n: int, t: float, params: ModelParams) -> Outcome:
    return log_of_linear(subcritical.t1_evaluate(_xi_tau(n, t, params), params))


def eval_t2(n: int, t: float, params: ModelParams) -> Outcome:
    big_n = params.population
    _, approx = subcritical.t2_evaluate(n / big_n, t2_delta(n, t, params), params)
    return checked_log(approx.log_value(big_n))


def eval_bl_xsigma(n: int, t: float, params: ModelParams) -> Outcome:
    big_n = params.population
    _, approx = subcritical.bl_xsigma_evaluate(
        n / math.sqrt(big_n), t / big_n**0.75, params
    )
    return checked_log(approx.log_value(big_n))


def eval_bl_nsigma(n: int, t: float, params: ModelParams) -> Outcome:
    big_n = params.population
    approx = subcritical.bl_nsigma_evaluate(n, t / big_n**0.75, params)
    return checked_log(approx.log_value(big_n))


def eval_bl_xtau(n: int, t: float, params: ModelParams) -> Outcome:
    big_n = params.population
    approx = subcritical.bl_xtau_evaluate(n / math.sqrt(big_n), t / big_n, params)
    return checked_log(approx.log_value(big_n))


def eval_bl_ntau(n: int, t: float, params: ModelParams) -> Outcome:
    big_n = params.population
    approx = subcritical.bl_ntau_evaluate(n, t / big_n, params)
    return checked_log(approx.log_value(big_n))


def eval_corner(n: int, t: float, params: ModelParams) -> Outcome:
    return log_of_linear(infinite.invert_density(n, t, params.rho))


# Keyed by `classify` label kind; BL_xsigma's D1/D2/D3 share one evaluator.
EVALUATORS = {
    "CornerO1": eval_corner,
    "R1": eval_r1,
    "R2": eval_r2,
    "R3": eval_r3,
    "T1": eval_t1,
    "T2": eval_t2,
    "BL_xsigma": eval_bl_xsigma,
    "BL_nsigma": eval_bl_nsigma,
    "BL_xtau": eval_bl_xtau,
    "BL_ntau": eval_bl_ntau,
}

# Layer each label's evaluator belongs to, as named in the per-layer metrics.
LAYER_OF_LABEL = {
    "CornerO1": "infinite.invert_density",
    "R1": "supercritical.xi_tau_expansion",
    **{
        kind: f"subcritical.{kind}"
        for kind in ("R2", "R3", "T1", "T2", "BL_xsigma", "BL_nsigma", "BL_xtau", "BL_ntau")
    },
}
