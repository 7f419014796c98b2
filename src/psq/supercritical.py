"""Large-population asymptotics for the overloaded regime (rho > 1).

Three space/time ranges get distinct expansions: n and t both of order N
(the (xi, tau) scale, two terms), n of order one with t of order N (a
loop-integral formula with algebraic prefactor), and the corner n, t = O(1),
which belongs to the infinite-population module.  Alongside the conditional
density this module houses the unconditional density with its zero-mass
O(N^-2) correction, the eigenvalue law nu_j ~ (rho j + rho/(rho-1))/N, the
fixed-N spectrum of the rho -> infinity limit, and the Gaussian-scale
spectral-coefficient facts.

The (xi, tau) expansion doubles as the region-R1 formula when rho < 1; the
subcritical module delegates here and the leading term stays real only while
xi + Delta_*(tau) > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import check_index, check_real
from .errors import (
    IndexTooLarge,
    NotSupercritical,
    OutOfRegion,
)
from .exact import ModelParams, Regime, build_generator, spectral_decompose
from .specfun import cut_integral, harmonic


def _require_supercritical(params: ModelParams) -> None:
    if params.regime is not Regime.SUPERCRITICAL:
        raise NotSupercritical(f"rho = {params.rho} is not supercritical")


# ---------------------------------------------------------------------------
# scaled coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XiTauPoint:
    """Scaled space/time coordinates xi = n/N in (0, 1], tau = t/N >= 0."""

    xi: float
    tau: float

    def __post_init__(self) -> None:
        check_real("xi", self.xi, 0.0, 1.0, "(]")
        check_real("tau", self.tau, 0.0, math.inf, "[)")

    @classmethod
    def from_indices(cls, n: int, t: float, population: int) -> XiTauPoint:
        return cls(xi=n / population, tau=t / population)


@dataclass(frozen=True)
class SuperExpansion:
    """Two-term density expansion p_n(t) = leading/N + correction/N^2 + O(N^-3).

    kernel is the logarithmic-derivative correction C(xi, tau) with C(xi, 0) = 0;
    delta_star is the time-only shift (rho-1)(e^{rho tau} - 1)/rho; correction
    equals P_xi + P*C.
    """

    population: int
    leading: float
    correction: float
    kernel: float
    delta_star: float
    value: float


def xi_tau_expansion(pt: XiTauPoint, params: ModelParams) -> SuperExpansion:
    """Density expansion on the scale n = N xi, t = N tau.

    Exact for tau = 0 through order N^-2: the value reduces to
    1/(N xi) - 1/(N xi)^2, the start of the expansion of 1/(n+1).  For
    rho < 1 (region-R1 reuse) the formula loses meaning once
    xi + Delta_*(tau) <= 0, i.e. past the first critical curve, and raises
    OutOfRegion there.  It raises OutOfRegion too where a factor of the
    linear form overflows double range: for rho > 1 from about
    rho tau = 355 on, where (xi + Delta_*)^2 does.
    """
    rho = params.rho
    if params.regime is Regime.CRITICAL:
        raise OutOfRegion("the (xi, tau) expansion is undefined at rho = 1")
    xi, tau = pt.xi, pt.tau
    big_n = params.population

    exponent = 1.0 / (rho - 1.0)
    alpha0 = rho / (rho - 1.0)
    # math.expm1 and the powers raise OverflowError past double range.  For
    # rho < 1 expm1 does so only beyond xi + Delta_*(tau) <= 0; otherwise a
    # factor of the linear form has left double range, as a log form would not
    try:
        decay = math.exp(-rho * tau)
        growth = math.expm1(rho * tau)
        delta_star = (rho - 1.0) / rho * growth
        shifted = xi + delta_star
        if rho < 1.0 and shifted <= 0.0:
            raise OutOfRegion(
                f"xi + Delta_*(tau) = {shifted:.6e} <= 0: point lies beyond the "
                "validity curve of the leading term"
            )

        bracket = (xi - (rho - 1.0) / rho) * decay + (rho - 1.0) / rho
        leading = xi**exponent * math.exp(-alpha0 * tau) * bracket**-alpha0
        lead_xi = leading * (exponent / xi - alpha0 * decay / bracket)

        # correction kernel, vanishing identically at tau = 0
        ep = growth + 1.0
        kernel = (
            (2.0 * rho - 1.0)
            / (2.0 * (rho - 1.0) ** 2)
            * growth
            / shifted**2
            * (ep + rho - rho * xi)
            - rho * (rho + 1.0) / (rho - 1.0) ** 3 * growth / shifted
            + rho * (3.0 - rho) / (2.0 * (rho - 1.0) ** 3) * (1.0 / xi - ep / shifted)
            + rho
            / (rho - 1.0) ** 4
            * (1.0 + 2.0 * rho * rho * (xi - 1.0 + 1.0 / rho) / shifted)
            * math.log(shifted / xi)
        )
    except OverflowError:
        raise OutOfRegion(
            f"the (xi, tau) expansion leaves double range at xi={xi}, tau={tau}"
        ) from None

    correction = lead_xi + leading * kernel
    return SuperExpansion(
        population=big_n,
        leading=leading,
        correction=correction,
        kernel=kernel,
        delta_star=delta_star,
        value=leading / big_n + correction / (big_n * big_n),
    )


# ---------------------------------------------------------------------------
# few customers, long times
# ---------------------------------------------------------------------------


def small_n_scale_super(n: int, tau: float, params: ModelParams) -> float:
    """log of the density for n = O(1) customers at t = N tau, rho > 1.

    The density is C (N (1 - e^(-rho tau)) / rho)^(-alpha0) e^(-alpha0 tau),
    alpha0 = rho / (rho - 1), where C is the N-free algebraic tail constant
    of `algebraic_tail_log_constant`; both are formed in log, so the value
    stays finite as rho falls to 1, where alpha0 grows without bound.
    """
    _require_supercritical(params)
    check_real("tau", tau, 0.0, math.inf, "()")
    rho = params.rho
    alpha0 = rho / (rho - 1.0)
    spread = params.population * -math.expm1(-rho * tau) / rho
    return algebraic_tail_log_constant(n, rho) - alpha0 * (math.log(spread) + tau)


def algebraic_tail_log_constant(n: int, rho: float) -> float:
    """log C of the N-free algebraic tail p_n(t) ~ C t^(-alpha0).

    Small-tau limit of `small_n_scale_super`: the population cancels
    against (rho tau)^(-alpha0), leaving the infinite-model tail that the
    corner module quotes for rho > 1.  With alpha0 = rho / (rho - 1),

        log C = (2 alpha0 - 1) log alpha0 + lgamma(alpha0)
                - alpha0 log rho + log loop,

    where loop is the order-n loop integral of `cut_integral`.  In this form
    it stays finite as rho falls to 1, where alpha0 grows without bound and
    C itself leaves double range.
    """
    check_index("n", n)
    check_real("rho", rho, -math.inf, math.inf, "()")
    if rho <= 1.0:
        raise NotSupercritical(f"algebraic tail requires rho > 1, got {rho}")
    alpha0 = rho / (rho - 1.0)
    loop = float(cut_integral(n, alpha0, 1.0 / rho, 1.0)[n])
    return (
        (2.0 * alpha0 - 1.0) * math.log(alpha0)
        + math.lgamma(alpha0)
        - alpha0 * math.log(rho)
        + math.log(loop)
    )


# ---------------------------------------------------------------------------
# unconditional density
# ---------------------------------------------------------------------------


def uncond_correction_kernel(tau: float, rho: float) -> float:
    """O(N^-2) unconditional correction at a finite tau >= 0; integrates to
    zero over tau."""
    if rho <= 1.0:
        raise NotSupercritical(f"correction kernel requires rho > 1, got {rho}")
    check_real("tau", tau, 0.0, math.inf, "[)")
    gap = rho - 1.0
    return rho**3 / gap**5 * (tau + (1.0 - 2.0 * rho) / rho) * math.exp(
        -rho * tau / gap
    ) + rho**4 / gap**5 * math.exp(-rho * rho * tau / gap)


def unconditional_super(
    tau: float, params: ModelParams, renormalized: bool = False
) -> float:
    """Unconditional sojourn density at t = N tau, tau finite and >= 0, for
    rho > 1.

    Two-term form by default.  The renormalized variant moves the secular
    tau/N part of the correction into the exponent of the leading term,
    extending validity to tau = O(N); the remaining correction pieces are
    kept as is.
    """
    _require_supercritical(params)
    check_real("tau", tau, 0.0, math.inf, "[)")
    rho = params.rho
    big_n = params.population
    gap = rho - 1.0
    alpha0 = rho / gap
    if not renormalized:
        return alpha0 * math.exp(-alpha0 * tau) / big_n + uncond_correction_kernel(
            tau, rho
        ) / big_n**2
    leading = alpha0 * math.exp(-alpha0 * tau * (1.0 - rho / (gap**3 * big_n)))
    residual = rho**3 / gap**5 * ((1.0 - 2.0 * rho) / rho) * math.exp(
        -alpha0 * tau
    ) + rho**4 / gap**5 * math.exp(-rho * rho * tau / gap)
    return leading / big_n + residual / big_n**2


# ---------------------------------------------------------------------------
# spectrum, rho > 1
# ---------------------------------------------------------------------------


def eigen_asym_super(j: int, params: ModelParams) -> float:
    """Eigenvalue approximation nu_j ~ (rho j + rho/(rho-1))/N for j = O(1)."""
    _require_supercritical(params)
    check_index("j", j)
    if j > params.population / 10:
        raise IndexTooLarge(
            f"j = {j} outside the j = O(1) window for N = {params.population}"
        )
    rho = params.rho
    return (rho * j + rho / (rho - 1.0)) / params.population


@dataclass(frozen=True)
class GaussianScaleFacts:
    """Spectral-coefficient facts on the central Gaussian scale, rho > 1.

    c0_phi0_ratio is the exact c_0 phi_0(n*) times N(rho-1)/rho, which tends
    to one; the product is normalization-free.  center is n* = N(1 - 1/rho).
    """

    c0_approx: float
    center: float
    center_index: int
    c0_phi0_ratio: float


def gaussian_scale_facts_super(params: ModelParams) -> GaussianScaleFacts:
    _require_supercritical(params)
    big_n = params.population
    rho = params.rho
    center = big_n * (1.0 - 1.0 / rho)
    n_star = min(max(int(round(center)), 0), big_n - 1)
    spec = spectral_decompose(build_generator(params), params)
    product = spec.weighted_vectors[n_star, 0] / spec.scale[n_star]
    return GaussianScaleFacts(
        c0_approx=rho / ((rho - 1.0) * big_n),
        center=center,
        center_index=n_star,
        c0_phi0_ratio=float(product) * big_n * (rho - 1.0) / rho,
    )


# ---------------------------------------------------------------------------
# rho -> infinity, N fixed
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LargeRhoSpectrum:
    """Leading spectral structure for rho -> infinity at fixed N.

    nu_0 ~ 1/N with eigenvector 1 + H_n/rho; nu_j ~ rho j/N for j >= 1 with
    eigenvectors supported on the first N-j components.
    """

    params: ModelParams

    @property
    def nu0_approx(self) -> float:
        return 1.0 / self.params.population

    def nu_j_approx(self, j: int) -> float:
        check_index("j", j)
        if not 1 <= j <= self.params.population - 1:
            raise IndexTooLarge(f"j must be in [1, N-1], got {j}")
        return self.params.rho * j / self.params.population

    def phi0_correction(self, n: int) -> float:
        """Zeroth eigenvector through order 1/rho: 1 + H_n/rho."""
        check_index("n", n, 0, self.params.population - 1)
        return 1.0 + harmonic(n) / self.params.rho

    def phi_j_leading(self, j: int, n: int) -> float:
        """Leading eigenvector, falling-factorial form; zero for n >= N-j."""
        big_n = self.params.population
        check_index("j", j)
        check_index("n", n, 0, big_n - 1)
        if j > big_n - 1:
            raise IndexTooLarge(f"j must be in [0, N-1], got {j}")
        if n >= big_n - j:
            return 0.0
        num = 1.0
        den = 1.0
        for i in range(j):
            num *= big_n - n - 1 - i
            den *= big_n - 1 - i
        return num / den

    def phi_j_leading_series(self, j: int, n: int) -> float:
        """Same eigenvector by coefficient extraction (alternating sum)."""
        big_n = self.params.population
        check_index("j", j)
        check_index("n", n, 0, big_n - 1)
        if j > big_n - 1:
            raise IndexTooLarge(f"j must be in [0, N-1], got {j}")
        total = 0.0
        for r in range(max(n - j, 0), n + 1):
            term = (
                big_n
                * math.factorial(j + r)
                * (-1.0) ** (n - r)
                / (
                    (big_n + r - n)
                    * math.factorial(r)
                    * math.factorial(n - r)
                    * math.factorial(j - n + r)
                )
            )
            total += term
        return total


def large_rho_spectrum(params: ModelParams) -> LargeRhoSpectrum:
    """Fixed-N spectral limit; meaningful once rho dominates every rate."""
    return LargeRhoSpectrum(params=params)
