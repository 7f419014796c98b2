"""Unit tests for the shared special-function and quadrature kernels."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from psq.errors import (
    BracketFailure,
    MaxDepthExceeded,
    ModulusOutOfRange,
    NoSignChange,
)
from psq import specfun
from psq.specfun import (
    cut_integral,
    elementwise,
    elliptic_KE,
    find_root_bracketed,
    harmonic,
    hermite_He,
    loop_series_Q,
    loop_series_Q_log,
    parabolic_cylinder_H,
    quad_to_infinity,
    tanh_sinh,
)


# ---------------------------------------------------------------------------
# elliptic integrals
# ---------------------------------------------------------------------------

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


def test_elliptic_modulus_range() -> None:
    with pytest.raises(ModulusOutOfRange):
        elliptic_KE(1.0)
    with pytest.raises(ModulusOutOfRange):
        elliptic_KE(-0.2)


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
    assert loop_series_Q(0) == pytest.approx(math.e, rel=1e-14)
    assert loop_series_Q(1) == pytest.approx(2.0 * math.e, rel=1e-14)
    assert loop_series_Q(2) == pytest.approx(3.5 * math.e, rel=1e-14)


def test_loop_series_integer_property() -> None:
    # n! Q(n) / e is a positive integer.
    for n in range(0, 12):
        x = math.factorial(n) * loop_series_Q(n) / math.e
        assert abs(x - round(x)) <= 1e-8 * max(1.0, x)


def test_loop_series_log_consistency() -> None:
    for n in (0, 3, 25, 120):
        assert loop_series_Q_log(n) == pytest.approx(
            math.log(loop_series_Q(n)), rel=1e-12
        )


def test_loop_series_index_guard() -> None:
    with pytest.raises(ValueError):
        loop_series_Q(-1)
    with pytest.raises(ValueError):
        loop_series_Q(501)
    assert math.isfinite(loop_series_Q_log(500))


# ---------------------------------------------------------------------------
# branch-cut loop integral
# ---------------------------------------------------------------------------

def test_cut_integral_low_orders() -> None:
    a = 0.7
    zm, zp = 0.25, 1.6
    assert cut_integral(0, a, zm, zp) == pytest.approx(2j * math.pi, rel=1e-14)
    want1 = 2j * math.pi * ((1.0 - a) * zm + a * zp)
    assert cut_integral(1, a, zm, zp) == pytest.approx(want1, rel=1e-14)
    want2 = 2j * math.pi * (
        0.5 * a * (a + 1.0) * zp ** 2
        + a * (1.0 - a) * zp * zm
        + 0.5 * (1.0 - a) * (2.0 - a) * zm ** 2
    )
    assert cut_integral(2, a, zm, zp) == pytest.approx(want2, rel=1e-13)


def test_cut_integral_homogeneity() -> None:
    a, zm, zp, lam = 1.35, 0.4, 1.2, 2.5
    base = cut_integral(5, a, zm, zp)
    scaled = cut_integral(5, a, lam * zm, lam * zp)
    assert scaled == pytest.approx(lam ** 5 * base, rel=1e-12)


def _circle_oracle(n: int, a: complex, zm: complex, zp: complex) -> complex:
    """Trapezoid rule on a circle enclosing both branch points.

    Uses z^n (z_plus - z)^(-a) (z - z_minus)^(a-1)
       = z^(n-1) (1 - z_plus/z)^(-a) (1 - z_minus/z)^(a-1)
    with principal logs; both (1 - w) factors stay in the right half plane on
    the circle, so the parametrized integrand is smooth and the trapezoid
    converges geometrically.
    """
    radius = 2.0 * max(abs(zm), abs(zp)) + 1.0
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
    rng = np.random.default_rng(20240814)
    for _ in range(20):
        n = int(rng.integers(0, 9))
        a = float(rng.uniform(-2.0, 3.0))
        zm = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        zp = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if abs(zp - zm) < 0.1:
            zp += 0.5
        got = cut_integral(n, a, zm, zp)
        want = _circle_oracle(n, a, zm, zp)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_cut_integral_coincident_points() -> None:
    with pytest.raises(ValueError):
        cut_integral(3, 0.5, 1.0, 1.0)


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


def test_root_residual_check() -> None:
    # A step function gives Brent a "root" where |f| stays large.
    def step(x: float) -> float:
        return -1.0 if x < 0.5 else 1.0

    with pytest.raises(BracketFailure):
        find_root_bracketed(step, 0.0, 1.0)


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


def test_tanh_sinh_columns_match_closed_forms() -> None:
    # an array integrand of shape (m, k) gives k integrals over one node set
    def f(v):
        return np.stack([4.0 / (1.0 + v * v), 1.0 / np.sqrt(v), v, np.exp(1j * v)], axis=1)

    got = tanh_sinh(f, 0.0, 1.0, vectorized=True)
    want = [math.pi, 2.0, 0.5, cmath.sin(1.0) + 1j * (1.0 - math.cos(1.0))]
    assert got.shape == (4,)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-11 * abs(w)


def test_tanh_sinh_columns_stop_only_when_all_converge() -> None:
    assert tanh_sinh(lambda v: 1.0 + v, 0.0, 1.0, vectorized=True) == pytest.approx(1.5)
    with pytest.raises(MaxDepthExceeded):
        tanh_sinh(lambda v: np.stack([1.0 + v, 1.0 / v], axis=1), 0.0, 1.0,
                  vectorized=True)


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
    "complex": (
        lambda v: (1.0 + 2j * v) / math.sqrt(v) / (1.0 - 1j * v),
        lambda v: (1.0 + 2j * v) / np.sqrt(v) / (1.0 - 1j * v),
        0.0,
        3.0,
    ),
    "reversed_with_pow": (
        lambda v: v**1.5 * math.exp(-v),
        lambda v: elementwise(pow, v, 1.5) * elementwise(math.exp, -v),
        5.0,
        0.5,
    ),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_tanh_sinh_array_path_same_bits(case: str) -> None:
    scalar_f, array_f, a, b = KERNEL_CASES[case]
    want = tanh_sinh(scalar_f, a, b)
    got = tanh_sinh(array_f, a, b, vectorized=True)
    assert type(got) is type(want)
    assert got == want


def test_quad_to_infinity_array_path_same_bits() -> None:
    want = quad_to_infinity(lambda v: v * math.exp(-v * v), 0.5)
    got = quad_to_infinity(
        lambda v: v * elementwise(math.exp, -v * v), 0.5, vectorized=True
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
