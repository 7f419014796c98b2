"""Special functions and numerical kernels shared by the asymptotic modules.

Contents
--------
elliptic_KE            complete elliptic integrals K, E by the AGM
carlson_rf_rd          Carlson's R_F and R_D, and J, a divided difference of R_D,
                       on a positive or a complex-conjugate pair
hermite_He             probabilists' Hermite polynomials
loop_series_Q_log      log of the loop integral
                       (1/2pi i) oint z^(-n-1) (1-z)^(-1) e^(1/(1-z)) dz
cut_integral           loop integrals of orders 0..n by their recurrence, for the
                       rho > 1 corner-tail constant
parabolic_cylinder_H   the transition-layer integral H(Delta_1)
harmonic               harmonic numbers
find_root_newton       safeguarded Newton in log(x - floor) for equations whose
                       value and derivative come in closed form
find_root_bracketed    Brent root finding on a sign-changing bracket, by a port
                       of scipy's C brentq that gives its roots bit for bit
tanh_sinh / quad_to_infinity   quadrature kernels, with a bounded memo of their nodes

Integrands
----------
The quadrature kernels take an integrand f of one float that returns a real
float.  Passed vectorized=True, tanh_sinh and quad_to_infinity
instead call f with a float64 array of nodes, expecting the array of values
that the scalar form would give element by element, bit for bit: the layer
integrands here use +, -, *, / and sqrt, which numpy rounds as `math` does.
The kernel adds up the same terms in the same order either way, so where f
raises at no node the keyword changes no result, only how many times f is
called (for tanh_sinh, once for levels 0-5 and once per deeper level,
against once per node).

Each level's sum is a running total from its first term in node order, the
same whichever levels were evaluated together.  The terms of one call of f
are placed in a zero-padded grid, a row per level, and one cumsum along the
rows gives every level's sum; a node dropped at an endpoint and the padding
add +0.0, which changes no sum.

The nodes of a batch depend on the interval [a, b] alone, not on f.  They
come, with their weights and grid slots, from a memo of the 16 batches last
used (`_interval_nodes`), so the quadratures of one root solve, which
integrate the same one or two intervals a dozen times, build them once.
Batches past level 8 are built afresh on every call, which bounds the memo
at 16 x 1024 nodes, under 0.4 MB.  The nodes an array f gets are that
memo's read-only array: f must not write into its argument.

An array f runs with numpy's invalid and divide errors raised, so a square
root of a negative number or a division by zero raises FloatingPointError
where the scalar form raises ValueError or ZeroDivisionError, rather than
going on with nan or inf.  Levels 0-5 that f got together are evaluated
again one at a time after such an error, so f raises only on a level the
stopping rule uses, as the scalar form does.  numpy also raises on inf - inf
and 0 * inf, which Python floats turn into nan without an error.

Root solves
-----------
An equation whose left side and its derivative come in closed form is
solved by find_root_newton: the T2 layer equation, the fixed-n boundary
layer on the sigma scale and the D2 and D3 boundary layers in
`subcritical`, the last two on Carlson forms.  Each caller starts from an
analytic seed, so a solve takes 1-12 evaluations, and the last of them also
gives the quantities the caller needs at the root.  The sign bracket and
its bisection only guard against a step that leaves it; neither end is
evaluated.  A root is accepted by how well the doubles resolve its Newton
variable log(x - floor), so each solve's reach has one edge.

Brent serves only the D1 layer equation, still integrated by quadrature:
find_root_bracketed evaluates its function once per distinct argument,
through a memo that lives for one solve and that the D1 bracket search
(one pass over a ladder of rungs in `subcritical._solve_b1_direct`) fills
first.  Brent returns once its sign bracket is narrower than BRENT_XTOL +
BRENT_RTOL |root|, and makes no residual test of its own: the caller sizes
one to how steep its equation is at the root.

The Brent iteration is a line-for-line port of scipy's C `brentq`
(scipy/optimize/Zeros/brentq.c, after Brent 1973, Algorithms for
Minimization without Derivatives, ch. 4; scipy is BSD-3-licensed).  It
takes the same steps in the same double arithmetic, so it returns
scipy.optimize.brentq's root with == and raises the same exception types,
without the cost of importing scipy.optimize.  Where C divides by zero and
goes on with inf or nan, which always fails the short-step test, the port
tests the divisor and bisects.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BracketFailure,
    InvalidInput,
    MaxDepthExceeded,
    ModulusOutOfRange,
    NoSignChange,
)

_PI_OVER_2 = math.pi / 2.0
_EPS = 2.0**-52


# ---------------------------------------------------------------------------
# elliptic integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllipticPair:
    """Complete elliptic integrals of the first and second kind at modulus k.

    tail is the AGM sum r = sum_{n>=1} 2^(n-1) c_n^2 without its n = 0 term
    k^2 / 2, so that E = K (1 - k^2/2 - r); r = O(k^4), which lets a caller
    form K - E or (1 + k^2) E - (1 - k^2) K without the cancellation.
    """

    K: float
    E: float
    tail: float


def elliptic_KE(k: float) -> EllipticPair:
    """K(k) and E(k) by the arithmetic-geometric mean, modulus convention.

    AGM iterates a <- (a+b)/2, b <- sqrt(ab) from (1, k'), k' = sqrt(1-k^2);
    K = pi/(2*AGM) and E = K*(1 - sum 2^(n-1) c_n^2) with c_n = (a_n-b_n)/2,
    c_0 = k.  Iteration stops when successive means differ by < 1e-15.
    k' is formed as sqrt((1-k)(1+k)), which keeps its relative accuracy as
    k -> 1, where K ~ log(4/k') depends on it most.
    """
    if not 0.0 <= k < 1.0:
        raise ModulusOutOfRange(f"modulus must be in [0, 1), got {k}")
    a = 1.0
    b = math.sqrt((1.0 - k) * (1.0 + k))
    c_sum = 0.5 * k * k  # 2^(-1) * c_0^2
    tail = 0.0  # the same sum from n = 1, added up on its own
    pow2 = 1.0
    while abs(a - b) >= 1e-15:
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        term = pow2 * c * c
        c_sum += term
        tail += term
        pow2 *= 2.0
    K = math.pi / (2.0 * a)
    E = K * (1.0 - c_sum)
    return EllipticPair(K=K, E=E, tail=tail)


def _r_series(a: float, e2: float, e3: float, e4: float, e5: float) -> float:
    # A^a R_-a(1/2, ..., 1/2; z) with c = a + 1 to fifth order about the mean A,
    # in the elementary symmetric functions e_k of 1 - z_j / A (DLMF 19.19)
    return 1.0 + a * (
        -e2 / (2.0 * a + 4.0) + e3 / (2.0 * a + 6.0)
        + (0.375 * e2 * e2 - 0.5 * e4) / (a + 4.0) + (0.5 * e5 - 0.75 * e2 * e3) / (a + 5.0)
    )


def carlson_rf_rd(x, y, z: float) -> tuple[float, float, float]:
    """R_F(x, y, z), R_D(x, y, z) and J = int_0^inf (t + x)^(-3/2) (t + y)^(-3/2)
    (t + z)^(-1/2) dt = (R_D(z, y, x) - R_D(z, x, y)) / (3/2 (y - x)), which
    does not cancel at x = y, for z > 0 and x, y a positive pair or a complex
    conjugate pair off the negative real axis, where all three are real.
    One duplication loop (Carlson, Numer. Algorithms 10 (1995) 13-26), with
    cmath.sqrt for a conjugate pair, maps each argument v to (v + lambda) / 4,
    lambda = sqrt(xy) + sqrt(yz) + sqrt(zx), and at step m takes 4^-m 3 /
    (sqrt(z) (z + lambda)) off R_D and, from its steps in both orders, 16^-m
    2 (lambda + x + y + sqrt(xy)) / (sqrt(xy) (sqrt(x) + sqrt(y)) (x + lambda)
    (y + lambda)) off J, until the triple lies within 1e-3 of its mean, inside
    Carlson's bound (eps/4)^(1/6); fifth-order series finish all three, whose
    real parts are returned.  A conjugate pair with Re x < 0 loses digits in
    proportion to |Re x / Im x| (within 1e-15 times it), as a relative
    rounding of x does: the integrands peak at t = -Re x with width |Im x|.
    """
    if isinstance(x, complex) or isinstance(y, complex):
        x, y, sqrt = complex(x), complex(y), cmath.sqrt
        valid = y == x.conjugate() and cmath.isfinite(x) and (x.imag != 0.0 or x.real > 0.0)
    else:
        valid, sqrt = 0.0 < x < math.inf and 0.0 < y < math.inf, math.sqrt
    if not (valid and not isinstance(z, complex) and 0.0 < z < math.inf):
        raise InvalidInput(
            f"Carlson arguments must be a positive or conjugate pair and z > 0, got {(x, y, z)}"
        )
    rd, rj, scale = 0.0, 0.0, 1.0
    while True:
        mean = (x + y + z) / 3.0
        if max(abs(x - mean), abs(y - mean), abs(z - mean)) <= 1e-3 * abs(mean):
            break
        rx, ry, rz = sqrt(x), sqrt(y), sqrt(z)
        rxy = rx * ry
        lam = rxy + ry * rz + rz * rx
        # a factor at a time, as tiny arguments would underflow their products
        rd += scale / rz / (z + lam)
        step = (lam + x + y + rxy) / (x + lam) / (y + lam) / (rx + ry) / rxy
        rj += 2.0 * scale * scale * step
        scale *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    # R_F, R_D, J are R_-a, a = 1/2, 3/2, 5/2 (J times 2/5), about (x + y + z)/3,
    # (x + y + 3z)/5, (3x + 3y + z)/7; J's e_k from (1 - 3st)(1 + st + pt^2)^3
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dz = -(dx + dy)
    rf = _r_series(0.5, dx * dy - dz * dz, dx * dy * dz, 0.0, 0.0) / sqrt(mean)
    mean = 0.2 * (x + y + 3.0 * z)
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dz = -(dx + dy) / 3.0
    xy, z2 = dx * dy, dz * dz
    rd = 3.0 * rd + scale * _r_series(
        1.5, xy - 6.0 * z2, (3.0 * xy - 8.0 * z2) * dz, 3.0 * (xy - z2) * z2, xy * z2 * dz
    ) / mean / sqrt(mean)
    mean = (3.0 * (x + y) + z) / 7.0
    s, p = 2.0 - (x + y) / mean, (1.0 - x / mean) * (1.0 - y / mean)
    s2 = s * s
    rj += 0.4 * scale * scale * _r_series(
        2.5, 3.0 * p - 6.0 * s2, -(3.0 * p + 8.0 * s2) * s,
        3.0 * p * p - 15.0 * s2 * p - 3.0 * s2 * s2, -3.0 * s * p * (2.0 * p + 3.0 * s2),
    ) / mean / mean / sqrt(mean)
    return rf.real, rd.real, rj.real


# ---------------------------------------------------------------------------
# Hermite polynomials (probabilists' convention)
# ---------------------------------------------------------------------------

def hermite_He(j: int, z: float) -> float:
    """He_j(z) with He_0 = 1, He_1 = z, He_{j+1} = z He_j - j He_{j-1}."""
    if not (isinstance(j, (int, np.integer)) and 0 <= j <= 200):
        raise InvalidInput(f"Hermite index must be an integer in [0, 200], got {j!r}")
    if j == 0:
        return 1.0
    prev, cur = 1.0, z
    for m in range(1, j):
        prev, cur = cur, z * cur - m * prev
    return cur


# ---------------------------------------------------------------------------
# loop-integral series Q(n)
# ---------------------------------------------------------------------------

def loop_series_Q_log(n: int) -> float:
    """log Q(n), Q(n) = (1/2pi i) oint z^(-n-1) (1-z)^(-1) exp(1/(1-z)) dz, |z| < 1.

    Coefficient extraction gives the convergent series
    Q(n) = sum_{j>=0} (n+j)! / (n! (j!)^2), summed until a term drops below
    1e-16 of the partial sum; Q(0) = e, and n! Q(n) / e is an integer.
    Q(500) = 2.7e18, so the sum stays in double range over the index range
    [0, 500], and its log is within 2.2e-16 relative of the true log Q(n)
    there.
    """
    if not (isinstance(n, (int, np.integer)) and 0 <= n <= 500):
        raise InvalidInput(f"series index must be an integer in [0, 500], got {n!r}")
    term = 1.0
    total = 1.0
    j = 0
    while True:
        j += 1
        term *= (n + j) / (j * j)
        total += term
        if term < 1e-16 * total:
            return math.log(total)


# ---------------------------------------------------------------------------
# branch-cut loop integral
# ---------------------------------------------------------------------------

def cut_integral(n: int, a: float, z_minus: float, z_plus: float) -> np.ndarray:
    """I_m / (2 pi i) for m = 0..n, where I_m is the loop integral
    oint z^m (z_+ - z)^(-a) (z - z_-)^(a-1) dz.

    The loop encircles the segment [z_-, z_+] counterclockwise, and the power
    factors are z^(-a) (1 - z_+/z)^(-a) and z^(a-1) (1 - z_-/z)^(a-1) on the
    principal branch of (1 - w)^c, so I_0 = 2 pi i.  Integrating the
    derivative of z^m (z_+ - z)^(1-a) (z - z_-)^a around the loop gives the
    recurrence

        (m+1) I_{m+1} = [m (z_+ + z_-) + a z_+ + (1-a) z_-] I_m
                        - m z_+ z_- I_{m-1},

    from I_1 = 2 pi i (a z_+ + (1-a) z_-).  Where |z_+| > |z_-| the loop
    integrals are its dominant solution, so the forward recursion is stable.
    a, z_minus and z_plus are real; the result holds the orders 0..n.  At
    coincident points it is z_0^m.
    """
    out = np.empty(n + 1)
    total = z_plus + z_minus
    prod = z_plus * z_minus
    first = a * z_plus + (1.0 - a) * z_minus
    out[0] = 1.0
    if n >= 1:
        out[1] = first
    for m in range(1, n):
        lifted = (m * total + first) * out[m] - m * prod * out[m - 1]
        out[m + 1] = lifted / (m + 1)
    return out


# ---------------------------------------------------------------------------
# transition-layer parabolic-cylinder-type integral
# ---------------------------------------------------------------------------

def parabolic_cylinder_H(delta1: float, rho: float) -> float:
    """H(Delta_1) = (1/sqrt(2pi)) int_0^inf u^(rho/(1-rho)) e^(-(1-rho)^2 (u-Delta_1)^2 / 2) du.

    Evaluated by tanh-sinh quadrature after shifting u = y + Delta_1; the
    Gaussian factor confines the mass to |y| = O(1/(1-rho)), so the infinite
    tail is truncated where the exponent is below -1500.
    """
    if not 0.0 < rho < 1.0:
        raise InvalidInput(f"rho must be in (0, 1), got {rho}")
    p = rho / (1.0 - rho)
    s = 1.0 - rho
    width = math.sqrt(2.0 * 1500.0) / s

    def integrand(u: np.ndarray) -> np.ndarray:
        # the nodes lie strictly inside (0, hi), so log(u) is finite
        y = u - delta1
        return np.exp(-0.5 * s * s * y * y + p * np.log(u))

    lo = 0.0
    hi = max(delta1, 0.0) + width
    val = tanh_sinh(integrand, lo, hi, rel_tol=1e-11, vectorized=True)
    return val / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# harmonic numbers
# ---------------------------------------------------------------------------

def harmonic(n: int) -> float:
    """H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0."""
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise InvalidInput(f"harmonic index must be an integer >= 0, got {n!r}")
    return math.fsum(1.0 / k for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# bracketed root finding
# ---------------------------------------------------------------------------

# find_root_bracketed's Brent tolerances (see the module docstring)
BRENT_XTOL = 1e-14
BRENT_RTOL = 8.9e-16


def find_root_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
) -> float:
    """Brent's method on [lo, hi], which requires a sign change.

    f is evaluated once per distinct argument.  The sign check at the ends
    and Brent's own first calls there read one memo that lives for this
    solve.  A caller whose bracket search evaluates f first passes it behind
    functools.cache, and that memo is used instead of a new one, so the ends
    the search found, and the root, which Brent has evaluated, cost nothing
    more.  Brent stops on the width of its sign bracket (the module
    docstring); a caller tests the residual its equation allows there.
    """
    if not hasattr(f, "cache_info"):
        f = functools.cache(f)
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NoSignChange(f"f({lo}) = {flo} and f({hi}) = {fhi} have equal sign")
    return _brentq(f, float(lo), float(hi), xtol=BRENT_XTOL, rtol=BRENT_RTOL, maxiter=200)


def _brentq(
    f: Callable[[float], float],
    xa: float,
    xb: float,
    xtol: float,
    rtol: float,
    maxiter: int,
) -> float:
    """scipy.optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol, maxiter=maxiter),
    ported from scipy's C brentq (BSD-3; see the module docstring).

    xpre is the previous iterate, xcur the current best and xblk the
    contrapoint, with f of opposite signs at xcur and xblk; spre and scur are
    the previous and current steps.  As scipy does, a NaN value of f raises
    ValueError, ends of equal sign raise ValueError and no convergence in
    maxiter iterations raises RuntimeError.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # C compares signbit(); for values that are neither zero nor NaN that is x < 0
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # a zero divisor gives C an inf or nan step, which never passes
            # the short-step test below: stay at inf and bisect
            stry = math.inf
            if xpre == xblk:  # interpolate
                den = fcur - fpre
                if den != 0.0:
                    stry = -fcur * (xcur - xpre) / den
            elif xpre != xcur and xblk != xcur:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
            # C's MIN(a, b), which gives b when b is nan where min() gives a
            far, near = abs(spre), 3 * abs(sbis) - delta
            if 2 * abs(stry) < (far if far < near else near):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


# ---------------------------------------------------------------------------
# safeguarded Newton
# ---------------------------------------------------------------------------

# an iterate that moves x by at most this many ulps of x (or of the floor,
# which sets the rounding of floor + (x - floor) e^step) ends the iteration
_NEWTON_ULPS = 4.0
# a Newton step this short in log(x - floor) lands within about C * 2^-52 of
# the root, C = |f'' / 2 f'| in that variable, so its landing point is final;
# a root is accepted where the doubles next to it lie no further apart than
# this in that variable
_NEWTON_LAST_STEP = 2.0**-26
# evaluations before a solve gives up; the layer equations take 1-12, and a
# bracket halved this many times in log(x - floor) is narrow anyway
_NEWTON_MAX_EVALUATIONS = 40


def find_root_newton(
    fdf: Callable[[float], tuple],
    x: float,
    lo: float,
    hi: float,
    *,
    floor: float,
    rising: bool,
) -> tuple[float, tuple]:
    """A root of f on (lo, hi) by Newton steps from x, kept in a sign bracket.

    fdf(x) returns a tuple (f(x), f'(x), ...) whose tail is whatever the
    caller wants back at the root.  Newton steps in u = log(x - floor), in
    which an equation with a logarithmic end at `floor`, or a power law
    above it, is nearly linear: u <- u - f / (f' (x - floor)).  f must change
    sign once on (lo, hi), floor < lo, from negative to positive if
    `rising`, else from positive to negative; the ends are the limits that
    say so and are never evaluated.  A seed x outside [lo, hi] is moved to
    the nearer end; each value narrows the bracket, and an iterate outside
    it is replaced by the bracket's midpoint in u.

    The iteration stops when an iterate would move x by at most 4 ulps of
    max(|x|, |floor|), when it lands after a step shorter than 2^-26 in u
    (quadratic convergence puts it within rounding of the root) or after
    bisecting a bracket narrower than that (where noise in f sends its steps
    out of the bracket), when no double is left strictly inside the
    bracket, or after 40 evaluations.
    It returns (x, fdf(x)) for the point with the smallest |f| evaluated.

    That point is accepted by how well it resolves u, not by the size of f,
    whose scale is the equation's: the doubles next to it must lie at most
    2^-26 apart in u, and its own Newton step must be at most 8 times that.
    The 4-ulp stop leaves a step of at most 8 spacings, since 4 * 2^-52 M is
    at most 8 ulps of M, so every converged solve meets the second test
    wherever it meets the first.  The reach of a solve thus has one edge,
    where x - floor shrinks below 2^26 ulps; BracketFailure is raised past
    it, and where f is nan or the evaluations run out first.
    """
    x = min(max(x, lo), hi)
    best_x, best = x, None
    last = False
    for _ in range(_NEWTON_MAX_EVALUATIONS):
        out = fdf(x)
        fx, dfx = out[0], out[1]
        if math.isnan(fx):
            raise BracketFailure(f"f({x}) is nan")
        if best is None or abs(fx) < abs(best[0]):
            best_x, best = x, out
        if fx == 0.0 or last:
            break
        if (fx < 0.0) == rising:
            lo = x
        else:
            hi = x
        span = x - floor
        slope = dfx * span  # df / du
        step = -fx / slope if slope else math.nan
        x_next = floor + span * math.exp(min(step, 700.0))
        if abs(x_next - x) <= _NEWTON_ULPS * _EPS * max(abs(x), abs(floor)):
            break
        last = abs(step) <= _NEWTON_LAST_STEP
        if not lo < x_next < hi:  # also a nan step
            x_next = floor + math.sqrt((lo - floor) * (hi - floor))
            last = hi - floor <= (lo - floor) * (1.0 + _NEWTON_LAST_STEP)
            if not lo < x_next < hi:
                break
        x = x_next
    span = best_x - floor
    spacing = math.ulp(max(abs(best_x), abs(floor))) / span
    slope = abs(best[1] * span)
    step = abs(best[0]) / slope if slope else (math.inf if best[0] else 0.0)
    if spacing > _NEWTON_LAST_STEP or not step <= 2.0 * _NEWTON_ULPS * _NEWTON_LAST_STEP:
        raise BracketFailure(
            f"root at {best_x} is not resolved: doubles {spacing:.3e} apart in "
            f"log(x - floor), Newton step {step:.3e} left"
        )
    return best_x, best


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# tanh(pi/2 sinh 4) is within 1e-37 of 1: no level has a node past t = 4
_T_MAX = 4.0
# an array integrand gets levels 0-5 (257 nodes) in its first call, then one
# call per deeper level; a scalar one gets one level at a time.  Of the
# 6780 calls in a seed-1 asym_surface pass (the second in its process),
# 93% stop at level 5 or below (65% below it) and 4 give up at max_depth;
# one call per level made the pass 2.5 times slower
_FIRST_BATCH_LAST_LEVEL = 5


@functools.cache
def _level_table(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Denominators exp(2 sh) + 1 and weights h pi/2 cosh t / cosh^2 sh of the
    node pairs t = k h of one level (every k >= 1 at level 0, odd k after),
    in ascending k, built once with scalar `math` like the nodes always were.

    Pairs whose weight underflows end the level.  The denominators ascend,
    so the pairs whose endpoint offset underflows in a call are a suffix.
    """
    h = math.ldexp(1.0, -level)
    k, step = (1, 1) if level == 0 else (1, 2)
    denoms: list[float] = []
    weights: list[float] = []
    while k * h <= _T_MAX:
        t = k * h
        sh = _PI_OVER_2 * math.sinh(t)
        w = h * _PI_OVER_2 * math.cosh(t) / math.cosh(sh) ** 2
        if w == 0.0:
            break
        denoms.append(math.exp(2.0 * sh) + 1.0)
        weights.append(w)
        k += step
    denom, weight = np.array(denoms), np.array(weights)
    denom.flags.writeable = weight.flags.writeable = False
    return denom, weight


@dataclass(frozen=True)
class _NodeBatch:
    """Levels first..last of the rule laid out as one node array: the
    midpoint when level 0 is in, then each pair's upper and lower node.

    slot places each node in a zero-padded (levels x width) grid, row by
    level and in node order along the row, so one cumsum along the rows
    adds up every level of the batch at once."""

    denom: np.ndarray  # per pair
    weight: np.ndarray  # per node
    slot: np.ndarray  # per node, flat index into the grid
    shape: tuple[int, int]  # (levels, width) of the grid


@functools.cache
def _node_batch(first: int, last: int) -> _NodeBatch:
    tables = [_level_table(j) for j in range(first, last + 1)]
    weight = [np.repeat(w, 2) for _, w in tables]
    if first == 0:
        weight[0] = np.concatenate(([1.0 * _PI_OVER_2], weight[0]))
    width = max(w.size for w in weight)
    batch = _NodeBatch(
        denom=np.concatenate([d for d, _ in tables]),
        weight=np.concatenate(weight),
        slot=np.concatenate(
            [row * width + np.arange(w.size) for row, w in enumerate(weight)]
        ),
        shape=(len(weight), width),
    )
    for table in (batch.denom, batch.weight, batch.slot):
        table.flags.writeable = False
    return batch


# node batches kept per interval.  A D1 layer solve makes about 13
# quadratures over the same one or two intervals, and the inner panel
# (0, c^(-1/4)) is the same for every solve at one rho: of the 4150 batches a
# seed-1 asym_surface pass integrates, 838 are distinct, and this memo builds
# each of them once a solve.  Batches past level 8 (more than 1024 nodes,
# 3% of the pass's) are built afresh on every call, so the memo holds at most
# 16 x 1024 nodes with their weights and slots, under 0.4 MB
_INTERVAL_MEMO_SIZE = 16
_INTERVAL_MEMO_LAST_LEVEL = 8


@functools.lru_cache(maxsize=_INTERVAL_MEMO_SIZE)
def _interval_nodes(
    a: float, b: float, first: int, last: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]:
    """Levels first..last of the rule on [a, b], a < b, as the integrand gets
    them: the nodes in _node_batch's order, their weights, their slots in the
    batch's grid and the grid's shape, all read-only.

    The nodes are b - delta and a + delta, with delta = c (1 - tanh sh) in
    the cancellation-free form that keeps singular-endpoint nodes exact
    instead of quantized at eps; a node that rounds onto its endpoint (delta
    underflowed or below half an ulp) is dropped with its weight and slot.
    """
    batch = _node_batch(first, last)
    m, c = 0.5 * (a + b), 0.5 * (b - a)
    delta = c * 2.0 / batch.denom
    lead = batch.weight.size - 2 * delta.size  # 1 for level 0's midpoint
    x = np.empty(batch.weight.size)
    keep = np.empty(x.size, dtype=bool)
    x[:lead] = m
    keep[:lead] = True
    np.subtract(b, delta, out=x[lead::2])
    np.add(a, delta, out=x[lead + 1 :: 2])
    np.less(x[lead::2], b, out=keep[lead::2])
    np.greater(x[lead + 1 :: 2], a, out=keep[lead + 1 :: 2])
    kept = (x[keep], batch.weight[keep], batch.slot[keep])
    for table in kept:
        table.flags.writeable = False
    return (*kept, batch.shape)


def tanh_sinh(
    f: Callable,
    a: float,
    b: float,
    rel_tol: float = 1e-12,
    max_depth: int = 12,
    *,
    vectorized: bool = False,
) -> float:
    """Level-doubling tanh-sinh rule on [a, b].

    Nodes x = m + c*tanh(pi/2 sinh(t)) on a dyadically refined t-mesh; stops
    when two successive levels agree to rel_tol, else raises
    MaxDepthExceeded after max_depth refinements.  Integrable endpoint
    singularities are handled by the double-exponential node clustering: f
    is never evaluated at a or b.

    f takes one float and returns a float.  With
    vectorized=True it instead takes a float64 array of nodes and returns
    an array of their values; it is called once for levels 0-5 and once
    per deeper level, with numpy's invalid and divide errors raised.  Each
    level's terms are summed in the same order either way, so the result is
    the same where f raises at no node the rule uses (the module docstring
    gives the cases where the two forms raise differently).

    The nodes of levels up to 8 on [a, b] (on [b, a] if reversed) come from
    a memo of the 16 batches last used, and deeper ones are built afresh;
    the array f gets is read-only.  Either way the nodes, and so the
    result, are the same bits.
    """
    if a == b:
        return 0.0
    if a > b:
        return -tanh_sinh(f, b, a, rel_tol, max_depth, vectorized=vectorized)
    c = 0.5 * (b - a)

    def level_sums(first: int, last: int) -> list:
        build = _interval_nodes
        if last > _INTERVAL_MEMO_LAST_LEVEL:
            build = _interval_nodes.__wrapped__
        nodes, weight, slot, shape = build(float(a), float(b), first, last)
        if vectorized:
            # fail where the scalar form's math.sqrt and / would, not go on
            # with nan or inf into the stopping rule
            with np.errstate(invalid="raise", divide="raise"):
                values = f(nodes)
        else:
            values = np.array([f(v) for v in nodes.tolist()])
        # each level's running total through its terms in node order, one
        # grid row per level: cumsum adds in that sequence, where np.sum
        # would pair terms up and move the last bits.  A dropped node's slot
        # and the padding hold +0.0, which leaves every sum as it was
        grid = np.zeros(shape[0] * shape[1], dtype=np.result_type(weight, values))
        grid[slot] = weight * values
        rows = grid.reshape(shape)
        sums = rows.cumsum(axis=1, out=rows)[:, -1]
        return (0.0 + sums).tolist()  # a level of -0.0 terms sums to +0.0

    def all_level_sums():
        batched = []
        if vectorized:
            try:
                last = min(_FIRST_BATCH_LAST_LEVEL, max_depth)
                batched = level_sums(0, last)
            except FloatingPointError:
                # the failing node may lie on a level the stopping rule never
                # reaches, which the scalar path would not evaluate: go level
                # by level as it does, so the error comes only from a level used
                pass
        yield from batched
        for level in range(len(batched), max_depth + 1):
            yield from level_sums(level, level)

    sums = all_level_sums()
    total = next(sums)
    prev = c * total
    for _ in range(max_depth):
        total = 0.5 * total + next(sums)
        cur = c * total
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise MaxDepthExceeded(
        f"tanh-sinh did not reach rel_tol={rel_tol} within {max_depth} levels"
    )


def quad_to_infinity(
    f: Callable,
    a: float,
    rel_tol: float = 1e-12,
    max_depth: int = 12,
    *,
    vectorized: bool = False,
) -> float:
    """Integrate f over [a, inf) via v = a + w/(1-w) and tanh-sinh on [0, 1).

    f and vectorized follow the tanh_sinh contract.
    """

    def g(w):
        r = 1.0 - w
        return f(a + w / r) / (r * r)

    return tanh_sinh(g, 0.0, 1.0, rel_tol, max_depth, vectorized=vectorized)

