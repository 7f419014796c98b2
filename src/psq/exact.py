"""Exact finite-population machinery for the tagged-customer sojourn density.

The conditional density vector p(t) = (p_0, ..., p_{N-1}) solves the linear
system p' = A p with the tridiagonal generator A and initial state
p_n(0) = 1/(n+1); n counts the other customers present when the tagged
customer arrives.  Everything here is exact (up to floating point): generator
construction, steady-state arrival weights, spectral decomposition, the
spectral and Runge-Kutta density evaluations, closed forms for N = 2 and
N = 3, and an extended-precision oracle for tail validation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import DegenerateSpectrum, InvalidInput, StepTooLarge, UnsupportedN

NEGATIVE_CLAMP = -1e-12
ORACLE_MAX_N = 64
DEFAULT_ORACLE_DIGITS = 50


class Regime(enum.Enum):
    SUBCRITICAL = "subcritical"
    SUPERCRITICAL = "supercritical"
    CRITICAL = "critical"


@dataclass(frozen=True)
class ModelParams:
    """Population size N and traffic intensity rho (time unit: mean service)."""

    population: int
    rho: float

    def __post_init__(self) -> None:
        if not isinstance(self.population, int) or self.population < 2:
            raise InvalidInput(f"population must be an integer >= 2, got {self.population}")
        if not self.rho > 0.0:
            raise InvalidInput(f"rho must be positive, got {self.rho}")

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
    """Eigen data of -A in the balanced form, plus arrival weights.

    eigenvalues nu_j are ascending and positive.  Densities are evaluated
    through the balanced fields: sym_vectors holds the orthonormal
    eigenvectors v_j of the symmetrized generator (row n is v(n) over all
    modes), sym_coeffs the projections beta_j of the scaled initial state,
    and scale the diagonal D_n = sqrt((n+1) pi_n).  Then
    p_n(t) = (1/D_n) sum_j beta_j v_j(n) exp(-nu_j t) with every
    beta_j v_j(n) of order one, and p(t) = sum_j d_j exp(-nu_j t) with
    uncond_coeffs d_j = beta_j^2.

    The classical basis phi_j (scaled so phi_j(0) = 1) and coefficients c_j
    with c_j phi_j(n) = beta_j v_j(n) / D_n are not stored: their terms span
    enormous magnitude ranges (the exact expansion of the edge states
    cancels across 20+ decades) and no density is evaluated from them.
    reporting_basis() builds them on demand.
    """

    params: ModelParams
    eigenvalues: np.ndarray
    uncond_coeffs: np.ndarray
    weights: np.ndarray
    sym_vectors: np.ndarray  # v[n, j], orthonormal columns
    sym_coeffs: np.ndarray  # beta_j = <v_j, D p(0)>
    scale: np.ndarray  # D_n
    log_scale: np.ndarray  # log D_n, finite even where D_n underflows

    def reporting_basis(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """(phi, c, fallbacks): the classical eigenvectors phi[j, n] and
        coefficients c_j, so that in exact algebra c_j phi_j(n) =
        beta_j v_j(n) / D_n.

        Row j is scaled so phi_j(0) = 1 where v_j(0) / D_0 is not negligible
        against the row's largest finite entry (such a row keeps inf or nan
        where D_n underflows to 0); otherwise (mode j listed in fallbacks)
        the row's finite entries are scaled to unit norm and the others set
        to 0.  For display and small-N checks only: it costs O(N^2) memory
        and a Python loop over the N modes, so it is meant for small N.
        """
        n = self.params.population
        vec, d, beta = self.sym_vectors, self.scale, self.sym_coeffs
        phi = np.empty((n, n))
        c = np.empty(n)
        fallbacks = []
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for j in range(n):
                col = vec[:, j] / d
                head = col[0]
                big = np.abs(col[np.isfinite(col)]).max() if np.isfinite(col).any() else math.inf
                if abs(head) > big * 1e-292 and np.isfinite(big):
                    phi[j] = col / head
                    c[j] = beta[j] * head
                else:
                    # divide by big first: the norm of entries near 1e+290
                    # would overflow and leave a zero row with c_j = inf
                    fin = np.where(np.isfinite(col), col, 0.0) / big
                    s = float(np.linalg.norm(fin))
                    phi[j] = fin / s
                    c[j] = beta[j] * big * s
                    fallbacks.append(j)
        return phi, c, tuple(fallbacks)


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


def steady_state_weights(params: ModelParams) -> np.ndarray:
    """Arrival-state weights pi_n; edge entries may underflow to zero."""
    return np.exp(steady_state_log_weights(params))


def spectral_decompose(gen: Generator, params: ModelParams) -> SpectralDecomposition:
    """All eigenpairs of -A via the symmetrizing similarity transform.

    With D_n = sqrt((n+1) pi_n), D A D^{-1} is symmetric tridiagonal with the
    same diagonal and off-diagonal sqrt(sup[n] * sub[n]); its eigenvectors map
    back by D^{-1}.  Raises InvalidInput when gen and params disagree on N.
    """
    n = gen.dimension
    if n != params.population:
        raise InvalidInput(
            f"generator dimension {n} does not match population {params.population}"
        )
    logw = steady_state_log_weights(params)
    weights = np.exp(logw)
    off = np.sqrt(gen.sup * gen.sub)
    lam, vec = eigh_tridiagonal(gen.diag, off)
    # lam ascending (most negative first); nu_j = -lam reversed to ascending.
    nu = -lam[::-1]
    vec = np.ascontiguousarray(vec[:, ::-1])
    gaps = np.diff(nu)
    if np.any(gaps < 1e-13 * nu[-1]):
        raise DegenerateSpectrum(
            f"minimum eigenvalue gap {gaps.min():.3e} below 1e-13 * nu_max"
        )
    log_d = 0.5 * (np.log(np.arange(n) + 1.0) + logw)
    d = np.exp(log_d)
    # beta_j = <v_j, D p(0)> with (D p(0))_n = D_n / (n + 1).
    beta = vec.T @ np.exp(log_d - np.log(np.arange(n) + 1.0))
    d_coeff = beta * beta
    return SpectralDecomposition(
        params=params,
        eigenvalues=nu,
        uncond_coeffs=d_coeff,
        weights=weights,
        sym_vectors=vec,
        sym_coeffs=beta,
        scale=d,
        log_scale=log_d,
    )


def _check_time(t: float) -> None:
    """Raise InvalidInput unless t >= 0 (+inf allowed)."""
    if not t >= 0.0:
        raise InvalidInput(f"time must be >= 0, got {t}")


def _check_state(spec: SpectralDecomposition, n: int) -> None:
    """Raise InvalidInput unless n is an integer state index in 0..N-1."""
    if not (isinstance(n, (int, np.integer)) and 0 <= n < spec.params.population):
        raise InvalidInput(
            f"state index {n!r} is not an integer in 0..{spec.params.population - 1}"
        )


def conditional_density_exact(spec: SpectralDecomposition, n: int, t: float) -> float:
    """p_n(t) via the balanced sum  (1/D_n) sum_j beta_j v_j(n) exp(-nu_j t).

    Absolute error is of order eps / D_n: machine accurate for bulk states,
    while edge states with exponentially small D_n sit below the double
    round-off floor (use the log variant or the oracle there).  Raises
    InvalidInput for a NaN or negative t or a state n outside 0..N-1.
    """
    _check_state(spec, n)
    _check_time(t)
    w = float(
        (spec.sym_coeffs * spec.sym_vectors[n, :] * np.exp(-spec.eigenvalues * t)).sum()
    )
    if w < NEGATIVE_CLAMP:
        raise ValueError(f"weighted density {w} below round-off clamp at (n={n}, t={t})")
    if spec.scale[n] == 0.0:
        return 0.0
    return max(w, 0.0) / spec.scale[n]


def conditional_density_exact_log(
    spec: SpectralDecomposition, n: int, t: float
) -> tuple[int, float]:
    """(sign, log|p_n(t)|) for tail studies; sign 0 means every term underflowed.

    Runs in log space so large-t tails keep relative accuracy even when
    exp(-nu_0 t) or D_n underflow double range.  t = +inf gives (0, -inf);
    a NaN or negative t or a state n outside 0..N-1 raises InvalidInput.
    """
    _check_state(spec, n)
    _check_time(t)
    terms = spec.sym_coeffs * spec.sym_vectors[n, :]
    with np.errstate(divide="ignore"):
        log_mags = np.log(np.abs(terms)) - spec.eigenvalues * t
    m = float(log_mags.max())
    if m == -math.inf:
        return 0, -math.inf
    acc = float((np.sign(terms) * np.exp(log_mags - m)).sum())
    if acc == 0.0:
        return 0, -math.inf
    return (1 if acc > 0 else -1), m + math.log(abs(acc)) - float(spec.log_scale[n])


def unconditional_density_exact(spec: SpectralDecomposition, t: float) -> float:
    """p(t) = sum_j beta_j^2 exp(-nu_j t); every term is nonnegative.

    Raises InvalidInput for a NaN or negative t."""
    _check_time(t)
    return float((spec.uncond_coeffs * np.exp(-spec.eigenvalues * t)).sum())


def unconditional_density_exact_log(spec: SpectralDecomposition, t: float) -> float:
    """log p(t), finite far beyond the underflow point of p itself.

    Raises InvalidInput for a NaN or negative t."""
    _check_time(t)
    with np.errstate(divide="ignore"):
        log_terms = np.log(spec.uncond_coeffs) - spec.eigenvalues * t
    m = float(log_terms.max())
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.exp(log_terms - m).sum()))


def reconstruction_residual(spec: SpectralDecomposition) -> float:
    """max_n |sum_j beta_j v_j(n) - D_n/(n+1)|: the t = 0 identity measured in
    the scaled basis where every expansion term is order one.

    The raw identity sum_j c_j phi_j(n) = 1/(n+1) is not testable in doubles:
    at the high-n edge its terms grow past 1e+20 while cancelling to 1/(n+1).
    """
    n = spec.params.population
    target = spec.scale / (np.arange(n) + 1.0)
    got = spec.sym_vectors @ spec.sym_coeffs
    return float(np.abs(got - target).max())


def time_integral_residual(spec: SpectralDecomposition) -> float:
    """max_n |sum_j beta_j v_j(n)/nu_j - D_n|: integral of p_n over all t is
    one for every n (row n of A sums to -1/(n+1)), measured in the scaled
    basis."""
    got = spec.sym_vectors @ (spec.sym_coeffs / spec.eigenvalues)
    return float(np.abs(got - spec.scale).max())


def orthogonality_residual(spec: SpectralDecomposition) -> float:
    """max |V^T V - I| over the symmetrized eigenvector matrix; equivalent to
    the weighted orthogonality sum_n (n+1) pi_n phi_j(n) phi_k(n) = 0."""
    n = spec.params.population
    g = spec.sym_vectors.T @ spec.sym_vectors
    return float(np.abs(g - np.eye(n)).max())


def unit_mass_residual(spec: SpectralDecomposition) -> float:
    """|sum_j d_j / nu_j - 1|; the unconditional density integrates to one."""
    return float(abs((spec.uncond_coeffs / spec.eigenvalues).sum() - 1.0))


def integrate_ode(
    gen: Generator,
    t_max: float,
    steps: int | None = None,
    step: float | None = None,
) -> DensityTrajectory:
    """Classical RK4 integration of p' = A p from p_n(0) = 1/(n+1).

    The step honors step * nu_max <= 0.1 where nu_max is the largest decay
    rate; a caller-forced larger step raises StepTooLarge.
    """
    if not 0.0 < t_max < math.inf:
        raise InvalidInput(f"t_max must be positive and finite, got {t_max}")
    nu_max = float(-eigh_tridiagonal(
        gen.diag, np.sqrt(gen.sup * gen.sub), eigvals_only=True
    )[0])
    if step is not None:
        if step * nu_max > 0.1:
            raise StepTooLarge(
                f"step {step} violates step * nu_max = {step * nu_max:.3f} <= 0.1"
            )
        n_steps = max(1, math.ceil(t_max / step))
    elif steps is not None:
        n_steps = steps
        if (t_max / n_steps) * nu_max > 0.1:
            raise StepTooLarge(
                f"{n_steps} steps over {t_max} violates the stability bound"
            )
    else:
        n_steps = max(1, math.ceil(t_max * nu_max / 0.1))
    h = t_max / n_steps
    n = gen.dimension
    p = 1.0 / (np.arange(n) + 1.0)
    times = np.linspace(0.0, t_max, n_steps + 1)
    out = np.empty((n, n_steps + 1))
    out[:, 0] = p
    for i in range(n_steps):
        k1 = gen.matvec(p)
        k2 = gen.matvec(p + 0.5 * h * k1)
        k3 = gen.matvec(p + 0.5 * h * k2)
        k4 = gen.matvec(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[:, i + 1] = p
    if out.min() < NEGATIVE_CLAMP:
        raise ValueError(f"trajectory dipped to {out.min():.3e}, beyond round-off")
    np.clip(out, 0.0, None, out=out)
    return DensityTrajectory(times=times, values=out, method="ode")


def spectral_trajectory(
    spec: SpectralDecomposition, times: np.ndarray
) -> DensityTrajectory:
    """Tabulate the balanced spectral representation on a time grid."""
    grid = np.asarray(times, dtype=float)
    expo = np.exp(-np.outer(spec.eigenvalues, grid))
    weighted = (spec.sym_vectors * spec.sym_coeffs) @ expo
    if weighted.min() < NEGATIVE_CLAMP:
        raise ValueError(
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
    """p_n(t) from the printed N = 2 and N = 3 solutions."""
    rho = params.rho
    if params.population == 2:
        if n not in (0, 1):
            raise InvalidInput(f"state index {n} outside 0..1")
        nu0, nu1 = small_n_rates(params)
        root = math.sqrt((rho + 4.0) / rho)
        if n == 0:
            return 0.5 * root * (
                (1.0 - nu0) / nu0 * math.exp(-nu0 * t)
                - (1.0 - nu1) / nu1 * math.exp(-nu1 * t)
            )
        return 0.25 * root * (
            math.exp(-nu0 * t) / nu0 - math.exp(-nu1 * t) / nu1
        )
    if params.population == 3:
        if n not in (0, 1, 2):
            raise InvalidInput(f"state index {n} outside 0..2")
        nu = small_n_rates(params)
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
    raise UnsupportedN(f"closed forms exist for N in {{2, 3}}, got {params.population}")


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
    """ln p_n(t) as an mpf, resolving exponentially small tails."""
    with mp.workdps(dec.digits + 10):
        tt = mp.mpf(repr(t))
        val = mp.fsum(
            dec.cond_coeffs[j] * dec.eigenvectors[j][n] * mp.e ** (-dec.eigenvalues[j] * tt)
            for j in range(dec.params.population)
        )
        if val <= 0:
            raise ValueError(f"oracle density non-positive at (n={n}, t={t})")
        return mp.log(val)

