"""Exact finite-population machinery for the tagged-customer sojourn density.

The conditional density vector p(t) = (p_0, ..., p_{N-1}) solves the linear
system p' = A p with the tridiagonal generator A and initial state
p_n(0) = 1/(n+1); n counts the other customers present when the tagged
customer arrives.  Everything here is exact (up to floating point): generator
construction, steady-state arrival weights, spectral decomposition, the
spectral and Runge-Kutta density evaluations, closed forms for N = 2 and
N = 3, and an extended-precision oracle for tail validation.

LAPACK (scipy.linalg) and mpmath load on first use, inside the functions
that need them: importing this module, which every asymptotic module does
for ModelParams, costs neither import.  spectral_decompose and integrate_ode
import scipy.linalg, about 0.3 s the first time; the oracle imports mpmath.

On scipy 1.17 the 'auto' driver of eigh_tridiagonal is LAPACK stevd
(divide and conquer), not stemr.  Its eigenvector matrix z and its workspace
of order N^2 doubles, about 2 N^2 doubles together, set the peak memory of a
decomposition.  The one N x N array kept is the weighted matrix
W[n, j] = beta_j v_j(n): spectral_decompose copies z into it (columns
reversed to ascending nu, C order) once LAPACK has freed its workspace and
scales it in place, so no third N x N buffer is ever live.

The exact queries sum the modes in linear space, shifted by the first live
mode k so that every factor exp(-(nu_j - nu_k) t) is at most one.  The sum
stops where that factor would leave the normal range of doubles, past
(nu_j - nu_k) t = EXP_SUBNORMAL: exp and the dot product are slow on
subnormal numbers, and every dropped term lies below DBL_MIN: it is a
subnormal factor times |W[n, j]| <= |beta_j| <= ||D p(0)|| < 1, or times
d_j = beta_j^2 < 1.  A sum within what the dropped terms could add,
|acc| <= (number dropped) * DBL_MIN, has no known sign and reads as sign 0,
the same answer as a sum that cancels to exactly 0.0.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import check_index, check_real
from .errors import (
    DegenerateSpectrum,
    InvalidInput,
    NegativeDensity,
    StepTooLarge,
    UnsupportedN,
)

NEGATIVE_CLAMP = -1e-12
ORACLE_MAX_N = 64
DEFAULT_ORACLE_DIGITS = 50
# exp(-x) rounds to exactly 0.0 in doubles for every x above this; the cut
# of spectral_trajectory, whose unshifted terms are divided by D_n afterwards
EXP_UNDERFLOW = 746.0
# exp(-x) is subnormal, below the least normal double DBL_MIN, for every x
# above this (-log DBL_MIN); the cut of the shifted mode sum
EXP_SUBNORMAL = 708.3964185322641
DBL_MIN = sys.float_info.min
# rows and columns per tile of the eigenvector copy and of the weighting pass
_BLOCK = 128


class Regime(enum.Enum):
    SUBCRITICAL = "subcritical"
    SUPERCRITICAL = "supercritical"
    CRITICAL = "critical"


@dataclass(frozen=True)
class ModelParams:
    """Population size N >= 2, stored as an int, and traffic intensity rho,
    positive and finite (time unit: mean service)."""

    population: int
    rho: float

    def __post_init__(self) -> None:
        check_index("population", self.population, 2)
        check_real("rho", self.rho, 0.0, math.inf, "()")
        object.__setattr__(self, "population", int(self.population))

    @property
    def regime(self) -> Regime:
        if abs(self.rho - 1.0) < 1e-9:
            return Regime.CRITICAL
        return Regime.SUBCRITICAL if self.rho < 1.0 else Regime.SUPERCRITICAL


@dataclass(frozen=True)
class Generator:
    """Tridiagonal rate matrix of the conditional-density ODE system.

    Row n reads  rho(N-n-1)/N * [p_{n+1} - p_n] + n/(n+1) * p_{n-1} - p_n,
    so sub[n-1] = n/(n+1), diag[n] = -1 - rho(N-n-1)/N, sup[n] = rho(N-n-1)/N.
    """

    dimension: int
    sub: np.ndarray  # length N-1, entries n = 1 .. N-1
    diag: np.ndarray  # length N
    sup: np.ndarray  # length N-1, entries n = 0 .. N-2

    def to_dense(self) -> np.ndarray:
        out = np.diag(self.diag)
        out += np.diag(self.sub, -1)
        out += np.diag(self.sup, 1)
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.sup * v[1:]
        out[1:] += self.sub * v[:-1]
        return out


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen data of -A in the balanced form.

    eigenvalues nu_j are ascending and positive.  Let v_j be the orthonormal
    eigenvectors of the symmetrized generator, sym_coeffs beta_j = <v_j, D p(0)>
    the projections of the scaled initial state and scale the diagonal
    D_n = sqrt((n+1) pi_n).  weighted_vectors holds the terms
    W[n, j] = beta_j v_j(n), each of order one, in C order (row n is state
    n's term vector), and first_mode[n] is the first j with W[n, j] != 0
    (0 for a row of zeros; LAPACK's divide and conquer leaves exact zeros at
    the head of some rows).  Then p_n(t) = (1/D_n) sum_j W[n, j] exp(-nu_j t)
    and p(t) = sum_j d_j exp(-nu_j t) with uncond_coeffs d_j = beta_j^2;
    first_uncond_mode is the first j with d_j != 0.

    W is the only N x N field; v_j is not kept, and where beta_j != 0 it is
    W[:, j] / beta_j.  The classical basis phi_j (scaled so phi_j(0) = 1)
    and coefficients c_j with c_j phi_j(n) = W[n, j] / D_n are not formed:
    their terms span enormous magnitude ranges (the exact expansion of the
    edge states cancels across 20+ decades) and no density is evaluated from
    them.  Where a caller needs c_j, it is W[0, j] / D_0.
    """

    params: ModelParams
    eigenvalues: np.ndarray
    uncond_coeffs: np.ndarray
    weighted_vectors: np.ndarray  # W[n, j] = beta_j v_j(n)
    first_mode: np.ndarray  # first j with W[n, j] != 0
    first_uncond_mode: int  # first j with d_j != 0
    sym_coeffs: np.ndarray  # beta_j = <v_j, D p(0)>
    scale: np.ndarray  # D_n
    log_scale: np.ndarray  # log D_n, finite even where D_n underflows


@dataclass(frozen=True)
class DensityTrajectory:
    """Tabulated p_n(t) over a time grid; method is 'spectral' or 'ode'."""

    times: np.ndarray
    values: np.ndarray  # values[n, i] = p_n(times[i])
    method: str


def build_generator(params: ModelParams) -> Generator:
    n_all = np.arange(params.population, dtype=float)
    up = params.rho * (params.population - n_all - 1.0) / params.population
    sub = (n_all[1:]) / (n_all[1:] + 1.0)
    diag = -1.0 - up
    sup = up[:-1]
    return Generator(dimension=params.population, sub=sub, diag=diag, sup=sup)


def steady_state_log_weights(params: ModelParams) -> np.ndarray:
    """log pi_n for pi_n = [(N-1)!/(N-n-1)!] (rho/N)^n, normalized.

    Built from cumulative log ratios; the log form stays finite at edge
    states where pi_n itself underflows double range.
    """
    n = params.population
    ratios = np.log(params.rho * (n - np.arange(1, n, dtype=float)) / n)
    logw = np.concatenate(([0.0], np.cumsum(ratios)))
    m = logw.max()
    return logw - (m + math.log(np.exp(logw - m).sum()))


def _reversed_c_order(vec: np.ndarray) -> np.ndarray:
    """vec[:, ::-1] as a new C-ordered array, copied in square tiles.

    LAPACK returns Fortran order, so the copy transposes the layout; tile by
    tile, source and target stay in cache.  The result equals
    np.ascontiguousarray(vec[:, ::-1]) bit for bit.
    """
    rows, cols = vec.shape
    out = np.empty((rows, cols))
    src = vec[:, ::-1]
    for i in range(0, rows, _BLOCK):
        for j in range(0, cols, _BLOCK):
            out[i:i + _BLOCK, j:j + _BLOCK] = src[i:i + _BLOCK, j:j + _BLOCK]
    return out


def spectral_decompose(gen: Generator, params: ModelParams) -> SpectralDecomposition:
    """All eigenpairs of -A via the symmetrizing similarity transform.

    With D_n = sqrt((n+1) pi_n), D A D^{-1} is symmetric tridiagonal with the
    same diagonal and off-diagonal sqrt(sup[n] * sub[n]); its eigenvectors map
    back by D^{-1}.  They are stored weighted, W[n, j] = beta_j v_j(n), with
    each row's first nonzero mode and that of the unconditional sum.  Raises
    InvalidInput when gen and params disagree on N.
    """
    from scipy.linalg import eigh_tridiagonal

    n = gen.dimension
    if n != params.population:
        raise InvalidInput(
            f"generator dimension {n} does not match population {params.population}"
        )
    logw = steady_state_log_weights(params)
    off = np.sqrt(gen.sup * gen.sub)
    lam, vec = eigh_tridiagonal(gen.diag, off)
    # lam ascending (most negative first); nu_j = -lam reversed to ascending.
    nu = -lam[::-1]
    gaps = np.diff(nu)
    if np.any(gaps < 1e-13 * nu[-1]):
        raise DegenerateSpectrum(
            f"minimum eigenvalue gap {gaps.min():.3e} below 1e-13 * nu_max"
        )
    weighted = _reversed_c_order(vec)
    del vec
    log_d = 0.5 * (np.log(np.arange(n) + 1.0) + logw)
    d = np.exp(log_d)
    # beta_j = <v_j, D p(0)> with (D p(0))_n = D_n / (n + 1), taken from the
    # C-ordered copy (the Fortran-ordered one gives other bits).
    beta = weighted.T @ np.exp(log_d - np.log(np.arange(n) + 1.0))
    first_mode = np.empty(n, dtype=np.intp)
    for lo in range(0, n, _BLOCK):
        rows = weighted[lo:lo + _BLOCK]
        rows *= beta
        first_mode[lo:lo + _BLOCK] = np.argmax(rows != 0.0, axis=1)
    uncond = beta * beta
    return SpectralDecomposition(
        params=params,
        eigenvalues=nu,
        uncond_coeffs=uncond,
        weighted_vectors=weighted,
        first_mode=first_mode,
        first_uncond_mode=int(np.argmax(uncond != 0.0)),
        sym_coeffs=beta,
        scale=d,
        log_scale=log_d,
    )


def _shifted_mode_sum(
    coeffs: np.ndarray, nu: np.ndarray, k: int, t: float
) -> tuple[float, float]:
    """(acc, shift) with sum_j coeffs_j exp(-nu_j t) = acc exp(-shift).

    nu is ascending, t >= 0, every |coeffs_j| is below one, and k is the
    first nonzero coefficient (any index when every coefficient is zero).
    The shift is nu_k t, so every factor exp((nu_k - nu_j) t) lies in (0, 1]
    and the sum is one dot product in linear space.  Modes with
    (nu_j - nu_k) t > EXP_SUBNORMAL, whose factor is subnormal, are not
    summed; each would add less than DBL_MIN.  acc is 0.0 when t = +inf,
    when every coefficient is zero, and when |acc| is within the dropped
    modes' count times DBL_MIN (with none dropped: when the terms cancel to
    exactly 0.0), where the sum's sign is not resolved.
    """
    if t == math.inf or coeffs[k] == 0.0:
        return 0.0, math.inf
    nu_k = float(nu[k])
    stop = nu.size
    if t * (float(nu[-1]) - nu_k) > EXP_SUBNORMAL:
        stop = int(np.searchsorted(nu, nu_k + EXP_SUBNORMAL / t, side="right"))
    factors = np.subtract(nu_k, nu[k:stop])
    factors *= t
    np.exp(factors, out=factors)
    acc = float(np.dot(coeffs[k:stop], factors))
    if abs(acc) <= (nu.size - stop) * DBL_MIN:
        acc = 0.0
    return acc, nu_k * t


def conditional_density_exact_log(
    spec: SpectralDecomposition, n: int, t: float
) -> tuple[int, float]:
    """(sign, log|p_n(t)|) for tail studies.

    Sign 0, with log -inf, means the mode sum is not resolved: every term
    underflowed, the terms cancelled to 0.0, or the sum lies within what
    the dropped subnormal terms could add (see _shifted_mode_sum).  The sum
    over row n of the weighted vectors is shifted by its first nonzero mode,
    so large-t tails keep relative accuracy even when exp(-nu_0 t) or D_n
    underflow double range.  t = +inf gives (0, -inf); a NaN or negative t
    or a state n outside 0..N-1 raises InvalidInput.
    """
    check_index("n", n, 0, spec.params.population - 1)
    check_real("t", t, 0.0, math.inf, "[]")
    acc, shift = _shifted_mode_sum(
        spec.weighted_vectors[n], spec.eigenvalues, int(spec.first_mode[n]), t
    )
    if acc == 0.0:
        return 0, -math.inf
    log_p = math.log(abs(acc)) - shift - float(spec.log_scale[n])
    return (1 if acc > 0.0 else -1), log_p


def unconditional_density_exact_log(spec: SpectralDecomposition, t: float) -> float:
    """log p(t), finite far beyond the underflow point of p itself.

    The nonnegative mode sum is shifted by its first nonzero mode, as in
    conditional_density_exact_log; -inf where that sum is not resolved.
    Raises InvalidInput for a NaN or negative t."""
    check_real("t", t, 0.0, math.inf, "[]")
    acc, shift = _shifted_mode_sum(
        spec.uncond_coeffs, spec.eigenvalues, spec.first_uncond_mode, t
    )
    if acc == 0.0:
        return -math.inf
    return math.log(acc) - shift


def reconstruction_residual(spec: SpectralDecomposition) -> float:
    """max_n |sum_j beta_j v_j(n) - D_n/(n+1)|: the t = 0 identity measured in
    the scaled basis where every expansion term is order one.

    The raw identity sum_j c_j phi_j(n) = 1/(n+1) is not testable in doubles:
    at the high-n edge its terms grow past 1e+20 while cancelling to 1/(n+1).
    """
    n = spec.params.population
    target = spec.scale / (np.arange(n) + 1.0)
    got = spec.weighted_vectors.sum(axis=1)
    return float(np.abs(got - target).max())


def time_integral_residual(spec: SpectralDecomposition) -> float:
    """max_n |sum_j beta_j v_j(n)/nu_j - D_n|: integral of p_n over all t is
    one for every n (row n of A sums to -1/(n+1)), measured in the scaled
    basis."""
    got = spec.weighted_vectors @ (1.0 / spec.eigenvalues)
    return float(np.abs(got - spec.scale).max())


def orthogonality_residual(spec: SpectralDecomposition) -> float:
    """max |V^T V - I| over the symmetrized eigenvectors; equivalent to the
    weighted orthogonality sum_n (n+1) pi_n phi_j(n) phi_k(n) = 0.

    V is not stored: column j is taken back as W[:, j] / beta_j, and the
    columns with beta_j = 0, which W does not determine, are left out.  The
    check forms N x N temporaries and is meant for small N."""
    beta = spec.sym_coeffs
    live = beta != 0.0
    vec = spec.weighted_vectors[:, live] / beta[live]
    g = vec.T @ vec
    return float(np.abs(g - np.eye(g.shape[0])).max())


def unit_mass_residual(spec: SpectralDecomposition) -> float:
    """|sum_j d_j / nu_j - 1|; the unconditional density integrates to one."""
    return float(abs((spec.uncond_coeffs / spec.eigenvalues).sum() - 1.0))


def _time_grid(times: np.ndarray) -> np.ndarray:
    """times as a float array; InvalidInput unless it is a nonempty 1-D
    array of finite values >= 0."""
    grid = np.asarray(times, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidInput(f"times must be a nonempty 1-D array, got shape {grid.shape}")
    if not (np.isfinite(grid).all() and grid.min() >= 0.0):
        raise InvalidInput("times must be finite and >= 0")
    return grid


def integrate_ode(
    gen: Generator,
    times: np.ndarray,
    step: float | None = None,
) -> DensityTrajectory:
    """Classical RK4 integration of p' = A p from p_n(0) = 1/(n+1).

    Only p at the output times is stored, so memory is O(N len(times)).
    times is a 1-D array, finite, >= 0 and nondecreasing; each gap between
    output times (and from 0 to the first) is cut into equal steps no longer
    than `step`, so a step ends exactly on every output time.  The default
    step honors step * nu_max <= 0.1 where nu_max is the largest decay rate;
    a caller-forced larger step raises StepTooLarge.  A trajectory that dips
    below -1e-12 at any step, stored or not, raises NegativeDensity.
    """
    from scipy.linalg import eigh_tridiagonal

    grid = _time_grid(times)
    if not (np.diff(grid) >= 0.0).all():
        raise InvalidInput("times must be nondecreasing")
    nu_max = float(-eigh_tridiagonal(
        gen.diag, np.sqrt(gen.sup * gen.sub), eigvals_only=True
    )[0])
    if step is None:
        step = 0.1 / nu_max
    check_real("step", step, 0.0, math.inf, "()")
    if step * nu_max > 0.1:
        raise StepTooLarge(
            f"step {step} violates step * nu_max = {step * nu_max:.3f} <= 0.1"
        )
    n = gen.dimension
    p = 1.0 / (np.arange(n) + 1.0)
    low = float(p.min())
    out = np.empty((n, grid.size))
    now = 0.0
    for i, end in enumerate(grid.tolist()):
        n_steps = math.ceil((end - now) / step)
        h = (end - now) / max(1, n_steps)
        for _ in range(n_steps):
            k1 = gen.matvec(p)
            k2 = gen.matvec(p + 0.5 * h * k1)
            k3 = gen.matvec(p + 0.5 * h * k2)
            k4 = gen.matvec(p + h * k3)
            p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            low = min(low, float(p.min()))
        out[:, i] = p
        now = end
    if low < NEGATIVE_CLAMP:
        raise NegativeDensity(f"trajectory dipped to {low:.3e}, beyond round-off")
    np.clip(out, 0.0, None, out=out)
    return DensityTrajectory(times=grid, values=out, method="ode")


def spectral_trajectory(
    spec: SpectralDecomposition, times: np.ndarray
) -> DensityTrajectory:
    """Tabulate the balanced spectral representation on a time grid.

    One product W @ E with E[j, i] = exp(-nu_j t_i), so the memory beyond
    the decomposition is O(N len(times)).  E is 0.0, the value exp rounds
    to, wherever nu_j t_i > EXP_UNDERFLOW, without calling exp there.
    times is a nonempty 1-D array, finite and >= 0.  Raises NegativeDensity
    where a weighted value dips below -1e-12."""
    grid = _time_grid(times)
    decay = np.multiply.outer(spec.eigenvalues, grid)
    expo = np.zeros_like(decay)
    np.exp(-decay, out=expo, where=decay <= EXP_UNDERFLOW)
    weighted = spec.weighted_vectors @ expo
    if weighted.min() < NEGATIVE_CLAMP:
        raise NegativeDensity(
            f"weighted trajectory dipped to {weighted.min():.3e}, beyond round-off"
        )
    np.clip(weighted, 0.0, None, out=weighted)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = weighted / spec.scale[:, None]
    values[spec.scale == 0.0] = 0.0
    return DensityTrajectory(times=grid, values=values, method="spectral")


# ---------------------------------------------------------------------------
# closed forms for N = 2 and N = 3
# ---------------------------------------------------------------------------

def small_n_rates(params: ModelParams) -> np.ndarray:
    """Decay rates nu_j for N in {2, 3} from the printed closed forms."""
    rho = params.rho
    if params.population == 2:
        disc = 0.25 * math.sqrt(rho * (rho + 4.0))
        return np.array([1.0 + rho / 4.0 - disc, 1.0 + rho / 4.0 + disc])
    if params.population == 3:
        # (nu-1-2rho/3) [ (nu-1-rho/3)(nu-1) - 2rho/9 ] = rho (nu-1)/3
        # expanded in u = nu - 1:  u^3 - rho u^2 ... use companion roots.
        r = rho
        # (u - 2r/3)[(u - r/3) u - 2r/9] - r u/3 = 0, u = nu - 1
        # = u^3 - r u^2 + (2r^2/9 - 2r/9 - r/3) u + 4r^2/27
        coeffs = [1.0, -r, 2.0 * r * r / 9.0 - 2.0 * r / 9.0 - r / 3.0, 4.0 * r * r / 27.0]
        roots = np.roots(coeffs)
        nu = np.sort(roots.real + 1.0)
        return nu
    raise UnsupportedN(f"closed forms exist for N in {{2, 3}}, got {params.population}")


def closed_form_small_N(params: ModelParams, n: int, t: float) -> float:
    """p_n(t) from the printed N = 2 and N = 3 solutions, for a state n in
    0..N-1 and a finite t >= 0."""
    nu = small_n_rates(params)
    check_index("n", n, 0, params.population - 1)
    check_real("t", t, 0.0, math.inf, "[)")
    rho = params.rho
    if params.population == 2:
        nu0, nu1 = nu
        root = math.sqrt((rho + 4.0) / rho)
        if n == 0:
            return 0.5 * root * (
                (1.0 - nu0) / nu0 * math.exp(-nu0 * t)
                - (1.0 - nu1) / nu1 * math.exp(-nu1 * t)
            )
        return 0.25 * root * (
            math.exp(-nu0 * t) / nu0 - math.exp(-nu1 * t) / nu1
        )
    # Solve the 3x3 system fixing the t = 0 values (1, 1/2, 1/3).
    a = np.vstack([
        rho / (nu - 1.0 - 2.0 * rho / 3.0),
        -1.5 * np.ones(3),
        1.0 / (nu - 1.0),
    ])
    rhs = np.array([1.0, 0.5, 1.0 / 3.0])
    coeff = np.linalg.solve(a, rhs)
    decay = np.exp(-nu * t)
    if n == 0:
        return float((rho * coeff / (nu - 1.0 - 2.0 * rho / 3.0) * decay).sum())
    if n == 1:
        return float((-1.5 * coeff * decay).sum())
    return float((coeff / (nu - 1.0) * decay).sum())


# ---------------------------------------------------------------------------
# extended-precision oracle (software arithmetic)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleDecomposition:
    """mpmath spectral data for N <= 64; all entries are mpf at `digits`."""

    params: ModelParams
    digits: int
    eigenvalues: list
    eigenvectors: list  # eigenvectors[j][n]
    cond_coeffs: list
    uncond_coeffs: list
    weights: list


def oracle_decompose(
    params: ModelParams, digits: int = DEFAULT_ORACLE_DIGITS
) -> OracleDecomposition:
    """Spectral decomposition in software arithmetic, for tail validation.

    Guarded to N <= 64: the dense symmetric eigensolve is O(N^3) multi-
    precision operations and the oracle exists to resolve densities of size
    exp(-O(N)) that cancel catastrophically in doubles.
    """
    import mpmath as mp

    n = params.population
    if n > ORACLE_MAX_N:
        raise UnsupportedN(f"oracle limited to N <= {ORACLE_MAX_N}, got {n}")
    if not 15 <= digits <= 200:
        raise InvalidInput(f"digits must be in [15, 200], got {digits}")
    with mp.workdps(digits + 10):
        rho = mp.mpf(repr(params.rho))
        nn = mp.mpf(n)
        up = [rho * (nn - k - 1) / nn for k in range(n)]
        diag = [-1 - up[k] for k in range(n)]
        off = [mp.sqrt(up[k] * mp.mpf(k + 1) / mp.mpf(k + 2)) for k in range(n - 1)]
        s = mp.zeros(n)
        for k in range(n):
            s[k, k] = diag[k]
            if k + 1 < n:
                s[k, k + 1] = off[k]
                s[k + 1, k] = off[k]
        lam, vec = mp.eigsy(s)
        order = sorted(range(n), key=lambda j: -lam[j])
        nu = [-lam[j] for j in order]
        # weights pi_n via cumulative ratios (exact in mp arithmetic)
        w = [mp.mpf(1)]
        for k in range(1, n):
            w.append(w[-1] * rho * (nn - k) / nn)
        total = mp.fsum(w)
        w = [x / total for x in w]
        d = [mp.sqrt((k + 1) * w[k]) for k in range(n)]
        phi = []
        for j in order:
            col = [vec[k, j] / d[k] for k in range(n)]
            head = col[0]
            phi.append([x / head for x in col])
        c = []
        dcoef = []
        for j in range(n):
            num = mp.fsum(w[k] * phi[j][k] for k in range(n))
            den = mp.fsum((k + 1) * w[k] * phi[j][k] ** 2 for k in range(n))
            cj = num / den
            c.append(cj)
            dcoef.append(cj * num)
        return OracleDecomposition(
            params=params,
            digits=digits,
            eigenvalues=nu,
            eigenvectors=phi,
            cond_coeffs=c,
            uncond_coeffs=dcoef,
            weights=w,
        )


def oracle_conditional_log(dec: OracleDecomposition, n: int, t: float):
    """ln p_n(t) as an mpf for a state n in 0..N-1 and a finite t >= 0,
    resolving exponentially small tails; raises NegativeDensity where the
    mode sum is not positive."""
    import mpmath as mp

    check_index("n", n, 0, dec.params.population - 1)
    check_real("t", t, 0.0, math.inf, "[)")

    with mp.workdps(dec.digits + 10):
        tt = mp.mpf(repr(t))
        val = mp.fsum(
            dec.cond_coeffs[j] * dec.eigenvectors[j][n] * mp.e ** (-dec.eigenvalues[j] * tt)
            for j in range(dec.params.population)
        )
        if val <= 0:
            raise NegativeDensity(f"oracle density non-positive at (n={n}, t={t})")
        return mp.log(val)

