"""Special functions and numerical kernels shared by the asymptotic modules.

Contents
--------
elliptic_KE            complete elliptic integrals K, E by the AGM
hermite_He             probabilists' Hermite polynomials
loop_series_Q          the loop integral (1/2pi i) oint z^(-n-1) (1-z)^(-1) e^(1/(1-z)) dz
cut_integral           branch-cut loop integral by residue-at-infinity extraction
parabolic_cylinder_H   the transition-layer integral H(Delta_1)
harmonic               harmonic numbers
find_root_bracketed    Brent root finding on a sign-changing bracket
tanh_sinh / quad_to_infinity   quadrature kernels
elementwise            a scalar function over an array, with the scalar bits

Integrands
----------
The quadrature kernels take an integrand f of one float that returns a float
or a complex.  Passed vectorized=True, tanh_sinh and quad_to_infinity
instead call f with a float64 array of nodes, expecting the array of values
that the scalar form would give element by element, bit for bit: the array
integrands here use +, -, *, / and sqrt, which numpy rounds as `math` does,
and take pow, exp and log through `elementwise`.  The kernel adds up the
same terms in the same order either way, so where f raises at no node the
keyword changes no result, only how many times f is called (for tanh_sinh,
once for levels 0-5 and once per deeper level, against once per node).

An array f runs with numpy's invalid and divide errors raised, so a square
root of a negative number or a division by zero raises FloatingPointError
where the scalar form raises ValueError or ZeroDivisionError, rather than
going on with nan or inf.  Levels 0-5 that f got together are evaluated
again one at a time after such an error, so f raises only on a level the
stopping rule uses, as the scalar form does.  numpy also raises on inf - inf
and 0 * inf, which Python floats turn into nan without an error.

An array f may also return shape (m, k) for its m nodes, a trailing axis of
k integrands that share the nodes, such as one per transform argument; the
kernel then returns the k integrals as an array, each column added up in
node order, and refines until every column meets the tolerance.  Such an f
has no scalar form to match, so it may use numpy's pow, exp and log.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .errors import (
    BracketFailure,
    MaxDepthExceeded,
    ModulusOutOfRange,
    NoSignChange,
)

_PI_OVER_2 = math.pi / 2.0


# ---------------------------------------------------------------------------
# elliptic integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllipticPair:
    """Complete elliptic integrals of the first and second kind at modulus k."""

    K: float
    E: float


def elliptic_KE(k: float) -> EllipticPair:
    """K(k) and E(k) by the arithmetic-geometric mean, modulus convention.

    AGM iterates a <- (a+b)/2, b <- sqrt(ab) from (1, sqrt(1-k^2));
    K = pi/(2*AGM) and E = K*(1 - sum 2^(n-1) c_n^2) with c_n = (a_n-b_n)/2,
    c_0 = k.  Iteration stops when successive means differ by < 1e-15.
    """
    if not 0.0 <= k < 1.0:
        raise ModulusOutOfRange(f"modulus must be in [0, 1), got {k}")
    a = 1.0
    b = math.sqrt(1.0 - k * k)
    c_sum = 0.5 * k * k  # 2^(-1) * c_0^2
    pow2 = 1.0
    while abs(a - b) >= 1e-15:
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        c_sum += pow2 * c * c
        pow2 *= 2.0
    K = math.pi / (2.0 * a)
    E = K * (1.0 - c_sum)
    return EllipticPair(K=K, E=E)


# ---------------------------------------------------------------------------
# Hermite polynomials (probabilists' convention)
# ---------------------------------------------------------------------------

def hermite_He(j: int, z: float) -> float:
    """He_j(z) with He_0 = 1, He_1 = z, He_{j+1} = z He_j - j He_{j-1}."""
    if j < 0 or j > 200:
        raise ValueError(f"Hermite index must be in [0, 200], got {j}")
    if j == 0:
        return 1.0
    prev, cur = 1.0, z
    for m in range(1, j):
        prev, cur = cur, z * cur - m * prev
    return cur


# ---------------------------------------------------------------------------
# loop-integral series Q(n)
# ---------------------------------------------------------------------------

def loop_series_Q(n: int) -> float:
    """Q(n) = (1/2pi i) oint z^(-n-1) (1-z)^(-1) exp(1/(1-z)) dz, |z| < 1.

    Coefficient extraction gives the convergent series
    Q(n) = sum_{j>=0} (n+j)! / (n! (j!)^2), summed until a term drops below
    1e-16 of the partial sum.  n! Q(n) is an integer multiple of e's partial
    structure: n! Q(n) / e is an integer.
    """
    if n < 0 or n > 500:
        raise ValueError(f"series index must be in [0, 500], got {n}")
    term = 1.0
    total = 1.0
    j = 0
    while True:
        j += 1
        term *= (n + j) / (j * j)
        total += term
        if term < 1e-16 * total:
            return total


def loop_series_Q_log(n: int) -> float:
    """log Q(n), stable for indices where Q would lose range in doubles."""
    if n < 0 or n > 500:
        raise ValueError(f"series index must be in [0, 500], got {n}")
    # log of term_j = lgamma(n+j+1) - lgamma(n+1) - 2 lgamma(j+1); running
    # max-shifted accumulation keeps the sum in range.
    log_terms = []
    lg_n = math.lgamma(n + 1)
    j = 0
    best = -math.inf
    while True:
        lt = math.lgamma(n + j + 1) - lg_n - 2.0 * math.lgamma(j + 1)
        log_terms.append(lt)
        best = max(best, lt)
        if j > 2 and lt < best - 40.0:
            break
        j += 1
    return best + math.log(math.fsum(math.exp(lt - best) for lt in log_terms))


# ---------------------------------------------------------------------------
# branch-cut loop integral
# ---------------------------------------------------------------------------

def cut_integral(n: int, a: complex, z_minus: complex, z_plus: complex) -> complex:
    """oint z^n (z_plus - z)^(-a) (z - z_minus)^(a-1) dz around the cut.

    The loop encircles the segment [z_minus, z_plus] counterclockwise and the
    integrand is analytic exterior to the cut, so the value equals 2*pi*i
    times the z^(-1) coefficient of the expansion at infinity.  The branch is
    fixed by writing the two power factors as
        z^(-a) (1 - z_plus/z)^(-a) * z^(a-1) (1 - z_minus/z)^(a-1)
    with principal branches of (1 - w)^c; any residual phase prefactor from
    the application is supplied by the caller.  The z^(-1) coefficient is the
    finite convolution over i + k = n of the two binomial series, computed
    with ratio-recursive coefficients.
    """
    if z_minus == z_plus:
        raise ValueError("branch points coincide")
    # (1 - z_plus/z)^(-a) = sum_i  rising(a, i)/i!      * (z_plus/z)^i
    # (1 - z_minus/z)^(a-1) = sum_k rising(1-a, k)/k!   * (z_minus/z)^k
    up = [complex(1.0)]
    vp = [complex(1.0)]
    for i in range(n):
        up.append(up[-1] * (a + i) / (i + 1))
        vp.append(vp[-1] * (1.0 - a + i) / (i + 1))
    total = complex(0.0)
    zp_pow = complex(1.0)
    zm_pows = [complex(1.0)]
    for _ in range(n):
        zm_pows.append(zm_pows[-1] * z_minus)
    for i in range(n + 1):
        total += up[i] * zp_pow * vp[n - i] * zm_pows[n - i]
        zp_pow *= z_plus
    return 2j * math.pi * total


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
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    p = rho / (1.0 - rho)
    s = 1.0 - rho
    width = math.sqrt(2.0 * 1500.0) / s

    def integrand(u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        pos = np.flatnonzero(u > 0.0)
        y = u[pos] - delta1
        expo = -0.5 * s * s * y * y + p * elementwise(math.log, u[pos])
        live = expo > -745.0
        out[pos[live]] = elementwise(math.exp, expo[live])
        return out

    lo = 0.0
    hi = max(delta1, 0.0) + width
    val = tanh_sinh(integrand, lo, hi, rel_tol=1e-11, vectorized=True)
    return val / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# harmonic numbers
# ---------------------------------------------------------------------------

def harmonic(n: int) -> float:
    """H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0."""
    if n < 0:
        raise ValueError(f"harmonic index must be >= 0, got {n}")
    return math.fsum(1.0 / k for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# bracketed root finding
# ---------------------------------------------------------------------------

def find_root_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Brent's method on [lo, hi]; requires a sign change and |f(root)| <= tol."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NoSignChange(f"f({lo}) = {flo} and f({hi}) = {fhi} have equal sign")
    root = brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    if abs(f(root)) > tol:
        raise BracketFailure(
            f"root at {root} leaves |f| = {abs(f(root)):.3e} > tol = {tol:.3e}"
        )
    return float(root)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# tanh(pi/2 sinh 4) is within 1e-37 of 1: no level has a node past t = 4
_T_MAX = 4.0
# an array integrand gets levels 0-5 (257 nodes) in its first call, then one
# call per deeper level; a scalar one gets one level at a time.  On an
# asym_surface pass 89% of the calls stop at level 5 or below (51% below
# it), and one call per level made the pass 2.5 times slower
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
    midpoint when level 0 is in, then each pair's upper and lower node."""

    denom: np.ndarray  # per pair
    weight: np.ndarray  # per node
    ends: np.ndarray  # per level, one past its last node


@functools.cache
def _node_batch(first: int, last: int) -> _NodeBatch:
    tables = [_level_table(j) for j in range(first, last + 1)]
    weight = [np.repeat(w, 2) for _, w in tables]
    if first == 0:
        weight[0] = np.concatenate(([1.0 * _PI_OVER_2], weight[0]))
    batch = _NodeBatch(
        denom=np.concatenate([d for d, _ in tables]),
        weight=np.concatenate(weight),
        ends=np.cumsum([w.size for w in weight]),
    )
    for table in (batch.denom, batch.weight, batch.ends):
        table.flags.writeable = False
    return batch


def tanh_sinh(
    f: Callable,
    a: float,
    b: float,
    rel_tol: float = 1e-12,
    max_depth: int = 12,
    *,
    vectorized: bool = False,
) -> float | np.ndarray:
    """Level-doubling tanh-sinh rule on [a, b].

    Nodes x = m + c*tanh(pi/2 sinh(t)) on a dyadically refined t-mesh; stops
    when two successive levels agree to rel_tol, else raises
    MaxDepthExceeded after max_depth refinements.  Integrable endpoint
    singularities are handled by the double-exponential node clustering: f
    is never evaluated at a or b.

    f takes one float and returns a float or complex.  With
    vectorized=True it instead takes a float64 array of nodes and returns
    an array of their values; it is called once for levels 0-5 and once
    per deeper level, with numpy's invalid and divide errors raised.  Each
    level's terms are summed in the same order either way, so the result is
    the same where f raises at no node the rule uses (the module docstring
    gives the cases where the two forms raise differently).

    An array f may return shape (m, k) for its m nodes: k integrals over
    the same nodes, returned as a length-k array, each column summed in node
    order.  The rule then stops only when every column meets rel_tol.
    """
    if a == b:
        return 0.0
    if a > b:
        return -tanh_sinh(f, b, a, rel_tol, max_depth, vectorized=vectorized)
    m = 0.5 * (a + b)
    c = 0.5 * (b - a)

    def level_sums(batch: _NodeBatch) -> list:
        # nodes b - delta and a + delta, with delta = c (1 - tanh sh) in the
        # cancellation-free form that keeps singular-endpoint nodes exact
        # instead of quantized at eps; a node that rounds onto its endpoint
        # (delta underflowed or below half an ulp) is dropped
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
        nodes = x[keep]
        if vectorized:
            # fail where the scalar form's math.sqrt and / would, not go on
            # with nan or inf into the stopping rule
            with np.errstate(invalid="raise", divide="raise"):
                values = f(nodes)
        else:
            values = np.array([f(v) for v in nodes.tolist()])
        weight = batch.weight[keep]
        ends = np.cumsum(keep)[batch.ends - 1].tolist()
        levels = zip([0] + ends[:-1], ends)
        # a running total from 0.0 through each level's terms in node order:
        # cumsum adds in that sequence, where np.sum would pair terms up and
        # move the last bits
        if values.ndim == 2:  # one column per integral
            terms = weight[:, None] * values
            return [
                terms[lo:hi].cumsum(axis=0)[-1] if hi > lo else 0.0 for lo, hi in levels
            ]
        terms = weight * values
        return [
            0.0 + terms[lo:hi].cumsum()[-1].item() if hi > lo else 0.0
            for lo, hi in levels
        ]

    def all_level_sums():
        batched = []
        if vectorized:
            try:
                last = min(_FIRST_BATCH_LAST_LEVEL, max_depth)
                batched = level_sums(_node_batch(0, last))
            except FloatingPointError:
                # the failing node may lie on a level the stopping rule never
                # reaches, which the scalar path would not evaluate: go level
                # by level as it does, so the error comes only from a level used
                pass
        yield from batched
        for level in range(len(batched), max_depth + 1):
            yield from level_sums(_node_batch(level, level))

    sums = all_level_sums()
    total = next(sums)
    prev = c * total
    for _ in range(max_depth):
        total = 0.5 * total + next(sums)
        cur = c * total
        if isinstance(cur, np.ndarray):
            # k integrals: stop only when every one of them has converged
            if np.all(np.abs(cur - prev) <= rel_tol * np.maximum(np.abs(cur), 1e-300)):
                return cur
        elif abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
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


def elementwise(fn: Callable[..., float], x: np.ndarray, *args: float) -> np.ndarray:
    """fn(v, *args) for each element v of the float64 array x, through Python floats.

    Array integrands take pow, exp and log through here: numpy's SIMD loops
    for them can round an ulp away from the C library behind `math` and float
    `**`, and an array integrand must give the bits of its scalar form.
    """
    return np.fromiter(
        map(fn, x.tolist(), *(itertools.repeat(v) for v in args)), float, x.size
    )
