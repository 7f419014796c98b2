"""Unit tests for the shared special-function and quadrature kernels."""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from psq.errors import (
    BracketFailure,
    InvalidInput,
    MaxDepthExceeded,
    ModulusOutOfRange,
    NoSignChange,
)
from psq import specfun
from psq.specfun import (
    agm,
    carlson_rf_rd,
    cut_integral,
    elliptic_KE,
    find_root_bracketed,
    find_root_newton,
    harmonic,
    hermite_He,
    loop_series_Q_log,
    parabolic_cylinder_H,
    quad_to_infinity,
    tanh_sinh,
)


# ---------------------------------------------------------------------------
# elliptic integrals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "x, y",
    [(1.0, 0.6), (0.6, 1.0), (1.0, 1e-8), (3e-9, 0.8), (2.0**400, 0.9), (0.7, 0.7)],
)
def test_agm_mean_and_gradient(x, y) -> None:
    # M against 40-digit mpmath, and q through x dM/dx = M (1/2 + q) and
    # y dM/dy = M (1/2 - q): either order, far apart and at any scale
    m, q = agm(x, y)
    with mp.workdps(40):
        xm, ym = mp.mpf(x), mp.mpf(y)
        want_m = mp.agm(xm, ym)
        want_x = mp.diff(lambda s: mp.agm(xm * mp.exp(s), ym), 0)
        want_y = mp.diff(lambda s: mp.agm(xm, ym * mp.exp(s)), 0)
    assert m == pytest.approx(float(want_m), rel=2e-15, abs=0.0)
    assert (m * (0.5 + q), m * (0.5 - q)) == pytest.approx(
        (float(want_x), float(want_y)), rel=1e-14, abs=0.0
    )


def test_elliptic_at_zero() -> None:
    pair = elliptic_KE(0.0)
    assert pair.K == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert pair.E == pytest.approx(math.pi / 2.0, abs=1e-15)


def test_elliptic_lemniscatic_point() -> None:
    # K(1/sqrt2) = Gamma(1/4)^2 / (4 sqrt(pi)), E(1/sqrt2) known to match.
    pair = elliptic_KE(1.0 / math.sqrt(2.0))
    assert pair.K == pytest.approx(1.8540746773013719, rel=1e-14)
    assert pair.E == pytest.approx(1.3506438810476755, rel=1e-14)


def test_elliptic_legendre_relation() -> None:
    # E K' + E' K - K K' = pi/2 for complementary moduli.
    for k in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        kp = math.sqrt(1.0 - k * k)
        p = elliptic_KE(k)
        q = elliptic_KE(kp)
        lhs = p.E * q.K + q.E * p.K - p.K * q.K
        assert lhs == pytest.approx(math.pi / 2.0, abs=1e-12)


@pytest.mark.parametrize("k", [1.0 - 1e-6, 1.0 - 1e-9])
def test_elliptic_near_unit_modulus(k) -> None:
    # K ~ log(4/k') there, so k' = sqrt((1 - k)(1 + k)) must keep its relative
    # accuracy; sqrt(1 - k^2) cost K 2.2e-11 relative at k = 1 - 1e-9
    pair = elliptic_KE(k)
    with mp.workdps(40):
        m = mp.mpf(k) ** 2
        want = (float(mp.ellipk(m)), float(mp.ellipe(m)))
    assert (pair.K, pair.E) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_elliptic_modulus_range() -> None:
    with pytest.raises(ModulusOutOfRange):
        elliptic_KE(1.0)
    with pytest.raises(ModulusOutOfRange):
        elliptic_KE(-0.2)


def _carlson_triples():
    rng = np.random.default_rng(19950101)
    for _ in range(12):
        yield tuple(10.0 ** rng.uniform(-8.0, 8.0, 3))
    # one argument at 1e-300, ratios up to 1e16, and x = y and x ~ y, where
    # J stands for an R_D difference that cancels
    yield from [
        (1e-300, 0.5, 2.0), (0.5, 1e-300, 2.0), (0.5, 2.0, 1e-300),
        (1e-8, 1e8, 1.0), (1e16, 1.0, 3.0), (1.0, 1.0, 1.0), (0.3, 0.3, 1.0),
        (0.3, 0.3 * (1.0 + 1e-12), 1.0), (1e-9, 1.1e-9, 1.0),
    ]


@pytest.mark.parametrize("x, y, z", list(_carlson_triples()))
def test_carlson_matches_mpmath(x, y, z) -> None:
    rf, rd, rj = carlson_rf_rd(x, y, z)
    with mp.workdps(60):
        xm, ym, zm = mp.mpf(x), mp.mpf(y), mp.mpf(z)
        want_rf, want_rd = mp.elliprf(xm, ym, zm), mp.elliprd(xm, ym, zm)
        if x == y:
            want_rj = mp.quad(lambda t: (t + xm) ** -3 / mp.sqrt(t + zm), [0, xm, zm, mp.inf])
        else:
            want_rj = 2 * (mp.elliprd(zm, ym, xm) - mp.elliprd(zm, xm, ym)) / (3 * (ym - xm))
    assert (rf, rd, rj) == pytest.approx(
        (float(want_rf), float(want_rd), float(want_rj)), rel=2e-15, abs=0.0
    )
    # R_D(x, y, z) + R_D(y, z, x) + R_D(z, x, y) = 3 / sqrt(xyz)
    rd_sum = rd + carlson_rf_rd(y, z, x)[1] + carlson_rf_rd(z, x, y)[1]
    with mp.workdps(30):
        want_sum = float(3 / mp.sqrt(mp.mpf(x) * mp.mpf(y) * mp.mpf(z)))
    assert rd_sum == pytest.approx(want_sum, rel=4e-15, abs=0.0)


@pytest.mark.parametrize(
    "args", [(0.0, 1.0, 2.0), (1.0, -1.0, 2.0), (1.0, 2.0, math.nan), (1.0, 2.0, math.inf)]
)
def test_carlson_refuses_non_positive_arguments(args) -> None:
    with pytest.raises(InvalidInput):
        carlson_rf_rd(*args)


# bits of the real-pair loop, recorded before it took conjugate pairs too
@pytest.mark.parametrize(
    "args, want",
    [
        ((0.3, 0.7, 1.0), (1.2650802817015436, 1.5238095222414108, 1.999435579633004)),
        ((1e-9, 1.1e-9, 1.0), (11.03066871051896, 30.0920061631517, 4.5428748291054234e17)),
        ((2.5, 2.5, 1.0), (0.7234789420149426, 0.5530421159701148, 0.054492980671647505)),
        ((1e-300, 0.5, 2.0), (1.524886838081896, 1.3370818171827916, 3.9999999999999985e150)),
        ((1e8, 3.0, 1.0), (0.0009591582284599642, 0.00010980760804699611, 4.2264948708213054e-13)),
    ],
)
def test_carlson_real_pair_bits(args, want) -> None:
    got = carlson_rf_rd(*args)
    assert all(type(v) is float for v in got)
    assert got == want


def _carlson_conjugate_cases():
    # x = Re + i Im with |Re| / Im from 1e-3 to 1e9, Im from 1e-6 to 1e6,
    # and z from 1e-3 to 1e3
    rng = np.random.default_rng(19950102)
    for ratio_lo, ratio_hi, sign in ((-3.0, 3.0, 1.0), (-3.0, 3.0, -1.0), (3.0, 9.0, -1.0)):
        for _ in range(8):
            im = 10.0 ** rng.uniform(-6.0, 6.0)
            re = sign * im * 10.0 ** rng.uniform(ratio_lo, ratio_hi)
            yield complex(re, im), float(10.0 ** rng.uniform(-3.0, 3.0))


@pytest.mark.parametrize("x, z", list(_carlson_conjugate_cases()))
def test_carlson_conjugate_pair_matches_mpmath(x, z) -> None:
    # R_F, R_D and J are real integrals of positive integrands on a conjugate
    # pair.  With Re x > 0 the loop keeps the real pair's accuracy; with
    # Re x < 0 it loses digits in proportion to |Re x| / Im x (measured at
    # up to 7.4e-16 times that), as a relative rounding of x itself moves
    # these integrals, whose integrands peak at t = -Re x with width Im x
    got = carlson_rf_rd(x, x.conjugate(), z)
    assert all(type(v) is float for v in got)
    with mp.workdps(50):
        xm, ym, zm = mp.mpc(x.real, x.imag), mp.mpc(x.real, -x.imag), mp.mpf(z)
        want = (
            mp.elliprf(xm, ym, zm).real,
            mp.elliprd(xm, ym, zm).real,
            (2 * (mp.elliprd(zm, ym, xm) - mp.elliprd(zm, xm, ym)) / (3 * (ym - xm))).real,
        )
    bound = 2e-15 if x.real > 0.0 else 2e-15 * max(1.0, -x.real / x.imag)
    assert got == pytest.approx(tuple(float(v) for v in want), rel=bound, abs=0.0)
    # J is symmetric in the pair, so the loop gives it in either order
    assert carlson_rf_rd(x.conjugate(), x, z)[2] == pytest.approx(got[2], rel=bound, abs=0.0)


@pytest.mark.parametrize(
    "args",
    [
        (1.0 + 1.0j, 1.0 + 1.0j, 1.0),  # not a conjugate pair
        (1.0 + 1.0j, 1.0 - 2.0j, 1.0),
        (1.0 + 1.0j, 1.0, 1.0),
        (-1.0 + 0.0j, -1.0 - 0.0j, 1.0),  # on the negative real axis
        (0.0j, 0.0j, 1.0),
        (complex(math.inf, 1.0), complex(math.inf, -1.0), 1.0),
        (1.0 + 1.0j, 1.0 - 1.0j, 0.0),  # z not positive
        (1.0 + 1.0j, 1.0 - 1.0j, -1.0 + 0.0j),
    ],
)
def test_carlson_refuses_bad_complex_arguments(args) -> None:
    with pytest.raises(InvalidInput):
        carlson_rf_rd(*args)


# ---------------------------------------------------------------------------
# Hermite polynomials
# ---------------------------------------------------------------------------

def test_hermite_low_orders() -> None:
    z = 1.7
    assert hermite_He(0, z) == 1.0
    assert hermite_He(1, z) == z
    assert hermite_He(2, z) == pytest.approx(z * z - 1.0, abs=1e-14)
    assert hermite_He(3, z) == pytest.approx(z ** 3 - 3.0 * z, abs=1e-13)
    assert hermite_He(4, z) == pytest.approx(z ** 4 - 6.0 * z * z + 3.0, abs=1e-13)
    # He_{2m}(0) = (-1)^m (2m-1)!!
    assert hermite_He(6, 0.0) == pytest.approx(-15.0, abs=1e-14)


def test_hermite_index_guard() -> None:
    with pytest.raises(ValueError):
        hermite_He(-1, 0.0)
    with pytest.raises(ValueError):
        hermite_He(201, 0.0)


# ---------------------------------------------------------------------------
# loop-integral series
# ---------------------------------------------------------------------------

def test_loop_series_small_values() -> None:
    # Q(0) = e, Q(1) = 2e, Q(2) = 7e/2 by termwise reduction.
    assert math.exp(loop_series_Q_log(0)) == pytest.approx(math.e, rel=1e-14)
    assert math.exp(loop_series_Q_log(1)) == pytest.approx(2.0 * math.e, rel=1e-14)
    assert math.exp(loop_series_Q_log(2)) == pytest.approx(3.5 * math.e, rel=1e-14)


def test_loop_series_integer_property() -> None:
    # n! Q(n) / e is a positive integer.
    for n in range(0, 12):
        x = math.factorial(n) * math.exp(loop_series_Q_log(n)) / math.e
        assert abs(x - round(x)) <= 1e-8 * max(1.0, x)


def test_loop_series_log_consistency() -> None:
    import mpmath as mp

    # Q(n) = 1F1(n + 1; 1; 1) in 40 digits; the log of the double series is
    # within 2.2e-16 of it over the whole index range
    for n in (0, 1, 2, 3, 8, 120, 422, 500):
        with mp.workdps(40):
            want = float(mp.log(mp.hyp1f1(n + 1, 1, 1)))
        assert loop_series_Q_log(n) == pytest.approx(want, rel=1e-15, abs=0.0), n


def test_loop_series_index_guard() -> None:
    with pytest.raises(ValueError):
        loop_series_Q_log(-1)
    with pytest.raises(ValueError):
        loop_series_Q_log(501)
    assert math.isfinite(loop_series_Q_log(500))


# ---------------------------------------------------------------------------
# branch-cut loop integral
# ---------------------------------------------------------------------------

def test_cut_integral_low_orders() -> None:
    a = 0.7
    zm, zp = 0.25, 1.6
    r = cut_integral(2, a, zm, zp)
    assert r.shape == (3,)
    assert r[0] == 1.0
    assert r[1] == pytest.approx((1.0 - a) * zm + a * zp, rel=1e-14)
    want2 = (
        0.5 * a * (a + 1.0) * zp ** 2
        + a * (1.0 - a) * zp * zm
        + 0.5 * (1.0 - a) * (2.0 - a) * zm ** 2
    )
    assert r[2] == pytest.approx(want2, rel=1e-13)


def test_cut_integral_homogeneity() -> None:
    a, zm, zp, lam = 1.35, 0.4, 1.2, 2.5
    base = cut_integral(5, a, zm, zp)
    scaled = cut_integral(5, a, lam * zm, lam * zp)
    assert scaled == pytest.approx(lam ** np.arange(6) * base, rel=1e-12)


def _circle_oracle(n: int, a: float, zm: float, zp: float) -> complex:
    """Trapezoid rule on a circle enclosing both branch points.

    Uses z^n (z_plus - z)^(-a) (z - z_minus)^(a-1)
       = z^(n-1) (1 - z_plus/z)^(-a) (1 - z_minus/z)^(a-1)
    with principal logs; both (1 - w) factors stay in the right half plane on
    the circle, so the parametrized integrand is smooth and the trapezoid
    converges geometrically, as 0.8^1024 on a circle 1.25 times the larger
    |z|.  A circle much wider than that would round off as radius^n, far
    above the integral at n = 16.
    """
    radius = 1.25 * max(abs(zm), abs(zp))
    m = 1024
    total = 0.0j
    for i in range(m):
        z = radius * cmath.exp(2j * math.pi * i / m)
        g = z ** (n - 1) * cmath.exp(
            -a * cmath.log(1.0 - zp / z) + (a - 1.0) * cmath.log(1.0 - zm / z)
        )
        total += g * 1j * z
    return total * 2.0 * math.pi / m


def test_cut_integral_matches_circle_quadrature() -> None:
    # every order up to 16 from one call, against the circle rule over 2 pi i
    rng = np.random.default_rng(20240814)
    for _ in range(20):
        a = float(rng.uniform(-2.0, 3.0))
        zm, zp = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        if abs(zp - zm) < 0.1:
            zp += 0.5
        got = cut_integral(16, a, zm, zp)
        for n in range(17):
            want = _circle_oracle(n, a, zm, zp) / (2j * math.pi)
            assert abs(want.imag) <= 1e-12
            assert got[n] == pytest.approx(want.real, rel=1e-9, abs=1e-12), (n, a, zm, zp)


def test_cut_integral_coincident_points() -> None:
    assert cut_integral(3, 0.5, 1.0, 1.0)[3] == 1.0
    z0 = -0.7
    got = cut_integral(9, -1.3, z0, z0)
    assert got == pytest.approx(z0 ** np.arange(10), rel=1e-13)


# ---------------------------------------------------------------------------
# transition-layer integral
# ---------------------------------------------------------------------------

def test_parabolic_cylinder_closed_form_half() -> None:
    # At rho = 1/2 the integral reduces to
    # H(D) = 4 exp(-D^2/8)/sqrt(2 pi) + 2 D Phi(D/2), Phi the normal CDF.
    def closed(delta: float) -> float:
        phi = 0.5 * (1.0 + math.erf(delta / (2.0 * math.sqrt(2.0))))
        return 4.0 * math.exp(-delta * delta / 8.0) / math.sqrt(2.0 * math.pi) \
            + 2.0 * delta * phi

    for delta in (-3.0, 0.0, 2.0, 8.0):
        assert parabolic_cylinder_H(delta, 0.5) == pytest.approx(
            closed(delta), rel=1e-9
        )


def test_parabolic_cylinder_zero_point() -> None:
    want = 4.0 / math.sqrt(2.0 * math.pi)
    assert parabolic_cylinder_H(0.0, 0.5) == pytest.approx(want, rel=1e-10)


def test_parabolic_cylinder_rho_guard() -> None:
    with pytest.raises(ValueError):
        parabolic_cylinder_H(1.0, 1.2)
    with pytest.raises(ValueError):
        parabolic_cylinder_H(1.0, 0.0)


# ---------------------------------------------------------------------------
# harmonic numbers
# ---------------------------------------------------------------------------

def test_harmonic_values() -> None:
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert harmonic(3) == pytest.approx(11.0 / 6.0, abs=1e-15)
    assert harmonic(10) == pytest.approx(7381.0 / 2520.0, abs=1e-14)
    with pytest.raises(ValueError):
        harmonic(-1)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def test_root_simple() -> None:
    root = find_root_bracketed(math.cos, 0.0, 2.0)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-13)


def test_root_endpoint_hit() -> None:
    assert find_root_bracketed(lambda x: x, 0.0, 1.0) == 0.0
    assert find_root_bracketed(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_root_no_sign_change() -> None:
    with pytest.raises(NoSignChange):
        find_root_bracketed(lambda x: 1.0 + x * x, 0.0, 1.0)


def _log_line(floor: float, root: float, calls: list):
    # f = log((x - floor) / (root - floor)), linear in log(x - floor)
    def fdf(x: float) -> tuple:
        calls.append(x)
        return math.log((x - floor) / (root - floor)), 1.0 / (x - floor), 2.0 * x

    return fdf


def test_newton_steps_in_log_of_the_distance_from_the_floor() -> None:
    # f is linear in the Newton variable, so the first step lands on the
    # root and the second finds nothing left to do; the tail comes back
    # from the evaluation at the root
    calls: list = []
    x, out = find_root_newton(
        _log_line(-2.0, 1e-3, calls), 50.0, -1.999, 1e6, floor=-2.0, rising=True
    )
    assert x == pytest.approx(1e-3, rel=1e-15)
    assert out == (pytest.approx(0.0, abs=1e-15), 1.0 / (x + 2.0), 2.0 * x)
    assert len(calls) == 2


def test_newton_bisects_when_a_step_leaves_the_bracket() -> None:
    # a slope of the wrong sign sends every Newton step out of the bracket,
    # so the solve halves the bracket in log x instead, and still converges
    calls: list = []

    def fdf(x: float) -> tuple:
        calls.append(x)
        return x - 0.3, -1.0

    x, _ = find_root_newton(fdf, 0.5, 0.01, 1.0, floor=0.0, rising=True)
    assert x == pytest.approx(0.3, abs=1e-9)
    assert all(0.01 < v < 1.0 for v in calls)


def test_newton_seed_outside_the_bracket_moves_to_its_end() -> None:
    calls: list = []
    x, _ = find_root_newton(
        _log_line(0.0, 2.0, calls), 1e9, 0.5, 8.0, floor=0.0, rising=True
    )
    assert calls[0] == 8.0
    assert x == pytest.approx(2.0, rel=1e-15)


def test_newton_residual_check() -> None:
    # a step function: the sign bracket closes on x = 0.5, but the Newton
    # step from the point returned, 1 / x in u, is far from resolving u
    def step(x: float) -> tuple:
        return (-1.0 if x < 0.5 else 1.0), 1.0

    with pytest.raises(BracketFailure, match="not resolved"):
        find_root_newton(step, 0.9, 0.01, 1.0, floor=0.0, rising=True)


def test_newton_accepts_a_root_by_its_resolution() -> None:
    # f = 1e9 log(x / 0.3) is up to 1e-7 at the doubles next to its root,
    # and they resolve u = log x to 2^-52 there: accepted.  With the floor
    # at -1 and the root 1e-9 above it, the doubles lie 1.1e-7 apart in
    # log(x - floor), too coarse: refused, however small f is there
    x, _ = find_root_newton(
        lambda x: (1e9 * math.log(x / 0.3), 1e9 / x),
        0.5,
        0.01,
        1.0,
        floor=0.0,
        rising=True,
    )
    assert x == pytest.approx(0.3, rel=1e-15)
    with pytest.raises(BracketFailure, match="not resolved"):
        find_root_newton(
            lambda x: (math.log((x + 1.0) / 1e-9), 1.0 / (x + 1.0)),
            -0.5,
            -1.0 + 1e-12,
            0.0,
            floor=-1.0,
            rising=True,
        )


def test_newton_refuses_nan() -> None:
    with pytest.raises(BracketFailure, match="nan"):
        find_root_newton(
            lambda x: (math.nan, 1.0), 0.5, 0.1, 1.0, floor=0.0, rising=True
        )


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_tanh_sinh_smooth() -> None:
    val = tanh_sinh(lambda v: 4.0 / (1.0 + v * v), 0.0, 1.0)
    assert val == pytest.approx(math.pi, rel=1e-12)


def test_tanh_sinh_orientation_and_degenerate() -> None:
    assert tanh_sinh(lambda v: v, 1.0, 0.0) == pytest.approx(-0.5, rel=1e-12)
    assert tanh_sinh(lambda v: v, 2.0, 2.0) == 0.0


def test_tanh_sinh_endpoint_singularity() -> None:
    val = tanh_sinh(lambda v: 1.0 / math.sqrt(v), 0.0, 1.0)
    assert val == pytest.approx(2.0, rel=1e-11)


def test_tanh_sinh_max_depth() -> None:
    # Random-looking non-smooth integrand cannot reach 1e-13 in two levels.
    with pytest.raises(MaxDepthExceeded):
        tanh_sinh(lambda v: math.sin(40.0 * v) ** 2, 0.0, 1.0,
                  rel_tol=1e-13, max_depth=2)


def test_quad_to_infinity() -> None:
    assert quad_to_infinity(lambda v: math.exp(-v), 0.0) \
        == pytest.approx(1.0, rel=1e-12)
    assert quad_to_infinity(lambda v: v * math.exp(-v * v), 0.0) \
        == pytest.approx(0.5, rel=1e-12)
    assert quad_to_infinity(lambda v: math.exp(-v), 2.0) \
        == pytest.approx(math.exp(-2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# scalar and array integrands
# ---------------------------------------------------------------------------

# (scalar form, array form, a, b): the array path must return the scalar
# path's float exactly, not approximately
KERNEL_CASES = {
    "smooth": (
        lambda v: 4.0 / (1.0 + v * v),
        lambda v: 4.0 / (1.0 + v * v),
        0.0,
        1.0,
    ),
    "endpoint_singular": (
        lambda v: 1.0 / math.sqrt(v),
        lambda v: 1.0 / np.sqrt(v),
        0.0,
        1.0,
    ),
    # outside the kernels' real-valued contract, but the level sums carry a
    # complex value through the same adds
    "complex": (
        lambda v: (1.0 + 2j * v) / math.sqrt(v) / (1.0 - 1j * v),
        lambda v: (1.0 + 2j * v) / np.sqrt(v) / (1.0 - 1j * v),
        0.0,
        3.0,
    ),
    # the power v^(3/2) taken as v sqrt(v), which numpy rounds as math does
    "reversed_with_pow": (
        lambda v: v * math.sqrt(v) / (1.0 + v * v),
        lambda v: v * np.sqrt(v) / (1.0 + v * v),
        5.0,
        0.5,
    ),
}


def _node_by_node_tanh_sinh(f, a, b, rel_tol=1e-12, max_depth=12):
    """The kernel's rule one node at a time, the reference for its level
    sums: each level's terms added to 0.0 in node order (the midpoint, then
    each pair's upper and lower node), skipping nodes that round onto an
    endpoint.  f returns a float or a complex."""
    if a > b:
        return -_node_by_node_tanh_sinh(f, b, a, rel_tol, max_depth)
    m, c = 0.5 * (a + b), 0.5 * (b - a)

    def level_sum(level):
        denom, weight = specfun._level_table(level)
        total = 0.0
        if level == 0:
            total = total + 1.0 * (0.5 * math.pi) * f(m)
        for d, w in zip(denom.tolist(), weight.tolist()):
            delta = c * 2.0 / d
            for x in (b - delta, a + delta):
                if a < x < b:
                    total = total + w * f(x)
        return total

    total = level_sum(0)
    prev = c * total
    for level in range(1, max_depth + 1):
        total = 0.5 * total + level_sum(level)
        cur = c * total
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise MaxDepthExceeded("reference did not converge")


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_tanh_sinh_array_path_same_bits(case: str) -> None:
    scalar_f, array_f, a, b = KERNEL_CASES[case]
    want = tanh_sinh(scalar_f, a, b)
    got = tanh_sinh(array_f, a, b, vectorized=True)
    assert type(got) is type(want)
    assert got == want
    assert want == _node_by_node_tanh_sinh(scalar_f, a, b)


def test_quad_to_infinity_array_path_same_bits() -> None:
    want = quad_to_infinity(lambda v: 1.0 / ((1.0 + v * v) * math.sqrt(v)), 0.5)
    got = quad_to_infinity(
        lambda v: 1.0 / ((1.0 + v * v) * np.sqrt(v)), 0.5, vectorized=True
    )
    assert got == want
    want = quad_to_infinity(lambda v: 1.0 / (1.0 + v * v), 0.0, rel_tol=1e-11)
    got = quad_to_infinity(
        lambda v: 1.0 / (1.0 + v * v), 0.0, rel_tol=1e-11, vectorized=True
    )
    assert got == want


def test_domain_error_raises_on_both_paths() -> None:
    # the layer kernel 2 w^2 / sqrt(Q) with Q = (c w^2 + b1) w^2 + 1 < 0
    # for w in (0.60, 2): the scalar form raises math's ValueError, the array
    # form FloatingPointError, instead of summing nan into MaxDepthExceeded
    c, b1 = 0.5, -3.0
    with pytest.raises(ValueError, match="math domain error"):
        tanh_sinh(lambda w: 2.0 * w * w / math.sqrt((c * w * w + b1) * w * w + 1.0),
                  0.0, 2.0)
    with pytest.raises(FloatingPointError):
        tanh_sinh(lambda w: 2.0 * w * w / np.sqrt((c * w * w + b1) * w * w + 1.0),
                  0.0, 2.0, vectorized=True)
    with pytest.raises(ZeroDivisionError):
        tanh_sinh(lambda v: 1.0 / (v - 0.5), 0.0, 1.0)
    with pytest.raises(FloatingPointError):
        tanh_sinh(lambda v: 1.0 / (v - 0.5), 0.0, 1.0, vectorized=True)


def test_domain_error_on_a_level_past_the_stop_is_not_raised() -> None:
    # one bad node on level 5, which an array integrand gets in its first
    # call but the scalar path, converging sooner, never evaluates (else it
    # would raise here): the array path must not raise either
    x_bad = 1.0 - 0.5 * 2.0 / specfun._level_table(5)[0][0]
    seen = []

    def f_array(v: np.ndarray) -> np.ndarray:
        seen.append(bool((v == x_bad).any()))
        return np.sqrt(np.where(v == x_bad, -1.0, 1.0 + v))

    want = tanh_sinh(lambda v: math.sqrt(-1.0 if v == x_bad else 1.0 + v), 0.0, 1.0)
    assert tanh_sinh(f_array, 0.0, 1.0, vectorized=True) == want
    assert seen[0]


@pytest.mark.parametrize("vectorized", [False, True])
def test_tanh_sinh_both_paths_give_up_alike(vectorized: bool) -> None:
    # 1/v is not integrable at 0: every level grows the sum by about the same
    for max_depth in (2, 12):
        with pytest.raises(MaxDepthExceeded):
            tanh_sinh(lambda v: 1.0 / v, 0.0, 1.0, max_depth=max_depth,
                      vectorized=vectorized)


def test_array_integrand_called_once_per_batch() -> None:
    calls = []

    def f(v: np.ndarray) -> np.ndarray:
        calls.append(v.size)
        return 1.0 / v

    with pytest.raises(MaxDepthExceeded):
        tanh_sinh(f, 0.0, 1.0, max_depth=8, vectorized=True)
    # levels 0-5 in one call, then levels 6, 7 and 8 one call each
    assert len(calls) == 4


def test_level_tables_built_once() -> None:
    specfun._level_table.cache_clear()
    specfun._node_batch.cache_clear()

    def integrate_both_ways() -> None:
        for vectorized in (False, True):
            f = KERNEL_CASES["endpoint_singular"][int(vectorized)]
            tanh_sinh(f, 0.0, 1.0, vectorized=vectorized)
            tanh_sinh(f, 2.0, 7.0, vectorized=vectorized)

    integrate_both_ways()
    built = specfun._level_table.cache_info().misses
    assert built >= 6  # the array path's first call takes levels 0-5
    integrate_both_ways()
    assert specfun._level_table.cache_info().misses == built
    for level in range(built):
        denom, weight = specfun._level_table(level)
        # ascending denominators make the pairs whose endpoint offset
        # underflows a suffix of the level, as the scalar loop's break had it
        assert (np.diff(denom) > 0.0).all()
        assert (weight > 0.0).all()


@pytest.mark.parametrize("vectorized", [False, True])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_node_memo_gives_the_same_bits(case: str, vectorized: bool) -> None:
    # a cold call builds the interval's nodes, a second reads them from the
    # memo, and the reversed interval shares them: all give the node-by-node
    # rule's bits
    f, a, b = KERNEL_CASES[case][int(vectorized)], *KERNEL_CASES[case][2:]
    want = _node_by_node_tanh_sinh(KERNEL_CASES[case][0], a, b)
    specfun._interval_nodes.cache_clear()
    first = tanh_sinh(f, a, b, vectorized=vectorized)
    built = specfun._interval_nodes.cache_info()
    assert built.misses > 0
    assert tanh_sinh(f, a, b, vectorized=vectorized) == first == want
    assert tanh_sinh(f, b, a, vectorized=vectorized) == -want
    again = specfun._interval_nodes.cache_info()
    assert again.misses == built.misses
    assert again.hits >= 2 * built.misses


def test_node_memo_is_bounded_and_read_only() -> None:
    # each interval is a new entry; the memo keeps the newest ones only, and
    # an integrand cannot write into the nodes it shares with later calls
    specfun._interval_nodes.cache_clear()
    size = specfun._INTERVAL_MEMO_SIZE
    for k in range(size + 4):
        tanh_sinh(lambda v: v, 0.0, 1.0 + k, vectorized=True)
    info = specfun._interval_nodes.cache_info()
    assert info.currsize == size
    assert info.misses >= size + 4

    def writes(v: np.ndarray) -> np.ndarray:
        v *= 2.0
        return v

    with pytest.raises(ValueError, match="read-only"):
        tanh_sinh(writes, 0.0, 1.0, vectorized=True)


def test_deep_levels_bypass_the_node_memo() -> None:
    # 1/v never converges: levels past _INTERVAL_MEMO_LAST_LEVEL are built
    # afresh, so the memo holds the first batch and the levels up to that one
    specfun._interval_nodes.cache_clear()
    with pytest.raises(MaxDepthExceeded):
        tanh_sinh(lambda v: 1.0 / v, 0.0, 1.0, vectorized=True)
    last = specfun._INTERVAL_MEMO_LAST_LEVEL
    assert specfun._interval_nodes.cache_info().currsize == last - specfun._FIRST_BATCH_LAST_LEVEL + 1
