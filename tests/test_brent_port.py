"""The Brent root finder in psq.specfun against scipy.optimize.brentq.

specfun._brentq is a port of scipy's C brentq that must take the same steps
in the same double arithmetic: each case compares the root with ==, the
exception type, and the sequence of arguments f was called with.
"""

from __future__ import annotations

import math

import pytest
from scipy.optimize import brentq

from psq import specfun, subcritical
from psq.exact import ModelParams
from psq.specfun import _brentq, find_root_bracketed
from psq.subcritical import _solve_b1_direct

XTOL, RTOL, MAXITER = 1e-14, 8.9e-16, 200


def _outcome(solver, f, a: float, b: float, maxiter: int = MAXITER):
    calls: list[float] = []

    def logged(x: float) -> float:
        calls.append(x)
        return f(x)

    try:
        return "root", solver(logged, a, b, maxiter), calls
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), None, calls


def _port(f, a, b, maxiter):
    return _brentq(f, a, b, XTOL, RTOL, maxiter)


def _scipy(f, a, b, maxiter):
    return brentq(f, a, b, xtol=XTOL, rtol=RTOL, maxiter=maxiter)


def _plateau(x: float) -> float:
    # flat at -1 and +1 away from a steep ramp: successive iterates on one
    # flat side have equal f, so the step test fails and Brent bisects
    return max(-1.0, min(1.0, 5.0 * (x - 0.3)))


def _inf_sentinel(x: float) -> float:
    # the boundary-layer solvers map MaxDepthExceeded to +inf
    return math.inf if x > 0.8 else x - 0.3


def _nan_inside(x: float) -> float:
    return math.nan if abs(x - 0.4) < 0.05 else x - 0.4


CASES = {
    # interpolation and extrapolation steps both taken
    "smooth": (lambda x: math.exp(x) - 2.0, 0.0, 3.0),
    "smooth-reversed": (lambda x: math.tanh(x - 1.1), 5.0, -2.0),
    # values near 1e-170: the extrapolation divisor dblk dpre (fblk - fpre)
    # underflows to zero, where C divides by zero and bisects
    "zero-divisor": (lambda x: 1e-170 * (math.exp(x) - 2.0), 0.0, 3.0),
    "plateau": (_plateau, -2.0, 4.0),
    "inf-sentinel": (_inf_sentinel, 0.0, 4.0),
    "root-at-lo": (lambda x: x - 1.0, 1.0, 3.0),
    "root-at-hi": (lambda x: x - 3.0, 1.0, 3.0),
    "nan-value": (_nan_inside, 0.0, 1.0),
    "nan-at-lo": (lambda x: math.nan if x == 0.0 else x - 0.5, 0.0, 1.0),
    "same-sign": (lambda x: x * x + 1.0, -1.0, 2.0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_port_matches_scipy(case: str) -> None:
    f, a, b = CASES[case]
    assert _outcome(_port, f, a, b) == _outcome(_scipy, f, a, b)


def test_port_raises_as_scipy() -> None:
    assert _outcome(_port, *CASES["nan-value"])[0] is ValueError
    assert _outcome(_port, *CASES["same-sign"])[0] is ValueError
    slow = _outcome(_port, lambda x: math.exp(x) - 2.0, 0.0, 3.0, maxiter=2)
    assert slow[0] is RuntimeError
    assert slow == _outcome(_scipy, lambda x: math.exp(x) - 2.0, 0.0, 3.0, maxiter=2)


def test_find_root_bracketed_keeps_the_nan_error() -> None:
    with pytest.raises(ValueError, match="NaN"):
        find_root_bracketed(_nan_inside, 0.0, 1.0)


@pytest.mark.parametrize(
    "sigma, region, solver",
    [
        (0.05, "D1", _solve_b1_direct),
        (0.45, "D2", _solve_b1_direct),
    ],
)
def test_layer_solves_match_scipy(monkeypatch, sigma, region, solver) -> None:
    # each solve of the D1/D2 boundary-layer equation at the pinned points
    # also runs scipy's brentq on the same memoized f, and must return its
    # root (D3 is solved by Newton and runs no Brent)
    params = ModelParams(10**6, 0.25)
    c = 1.0 - math.sqrt(params.rho)
    assert subcritical._xsigma_region(0.5, sigma, params.rho) == region
    roots = []

    def compared(f, a, b, xtol, rtol, maxiter):
        mine = _brentq(f, a, b, xtol, rtol, maxiter)
        roots.append((mine, brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)))
        return mine

    monkeypatch.setattr(specfun, "_brentq", compared)
    solver(0.5, sigma, params.rho, c)
    assert len(roots) == 1
    mine, ref = roots[0]
    assert mine == ref
