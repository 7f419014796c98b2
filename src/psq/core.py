"""Result types and the input rule shared by every psq module.

The input rule.  An index (a population, state, mode or series index) is
an int or a numpy integer within its range; a float is refused even where
it holds a whole number.  A real argument lies in its interval, and NaN
lies in none; +inf or -inf is accepted only where the interval's end is
closed there, as for the exact queries' t = +inf.  Every refusal is an
InvalidInput that names the argument and the value, raised by
`check_index` or `check_real`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidInput


def check_index(name: str, value: object, lo: int = 0, hi: float = math.inf) -> None:
    """Raise InvalidInput unless value is an int or numpy integer in [lo, hi]."""
    if not (isinstance(value, (int, np.integer)) and lo <= value <= hi):
        span = f"in [{lo}, {hi}]" if hi < math.inf else f">= {lo}"
        raise InvalidInput(f"{name} must be an integer {span}, got {value!r}")


def check_real(name: str, value: float, lo: float, hi: float, ends: str) -> None:
    """Raise InvalidInput unless value lies in the interval from lo to hi.

    ends is "()", "(]", "[)" or "[]": each end open or closed.  NaN and
    values that do not compare with floats lie in no interval.
    """
    try:
        inside = (lo < value if ends[0] == "(" else lo <= value) and (
            value < hi if ends[1] == ")" else value <= hi
        )
    except (TypeError, ValueError):
        inside = False
    if not inside:
        raise InvalidInput(f"{name} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {value!r}")


@dataclass(frozen=True)
class LogDensityApprox:
    """Asymptotic density in log form, split by order of the scale parameter.

    The represented value is

        exp(S*cN + S^(3/4)*cN34 + sqrt(S)*cSqrt + S^(1/3)*cCbrt
            + S^(1/4)*cQuarter + cLog*log(S) + c1)

    where S is the large parameter (the population N for the finite-model
    regions; the time t for the infinite-model corner tail, whose stretched
    exponential carries the cube-root slot that the N-expansions leave zero).
    The S^(3/4) slot carries the time decay of the sigma = t/N^(3/4) layers.
    Every coefficient is finite.
    """

    coeff_N: float
    coeff_sqrtN: float = 0.0
    coeff_N14: float = 0.0
    coeff_logN: float = 0.0
    coeff_O1: float = 0.0
    coeff_cbrt: float = 0.0
    coeff_N34: float = 0.0

    def __post_init__(self) -> None:
        # a sum of finite coefficients that overflows names none and passes
        if math.isfinite(
            self.coeff_N + self.coeff_sqrtN + self.coeff_N14 + self.coeff_logN
            + self.coeff_O1 + self.coeff_cbrt + self.coeff_N34
        ):
            return
        for field in fields(self):
            check_real(field.name, getattr(self, field.name), -math.inf, math.inf, "()")

    def log_value(self, scale: float) -> float:
        """Log of the represented density at a positive, finite scale parameter."""
        check_real("scale", scale, 0.0, math.inf, "()")
        return (
            scale * self.coeff_N
            + scale**0.75 * self.coeff_N34
            + math.sqrt(scale) * self.coeff_sqrtN
            + scale ** (1.0 / 3.0) * self.coeff_cbrt
            + scale**0.25 * self.coeff_N14
            + self.coeff_logN * math.log(scale)
            + self.coeff_O1
        )
