"""Result types shared by the asymptotic and infinite-population modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInput


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
    """

    coeff_N: float
    coeff_sqrtN: float = 0.0
    coeff_N14: float = 0.0
    coeff_logN: float = 0.0
    coeff_O1: float = 0.0
    coeff_cbrt: float = 0.0
    coeff_N34: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "coeff_N",
            "coeff_sqrtN",
            "coeff_N14",
            "coeff_logN",
            "coeff_O1",
            "coeff_cbrt",
            "coeff_N34",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def log_value(self, scale: float) -> float:
        """Log of the represented density at the given scale parameter."""
        if scale <= 0.0:
            raise InvalidInput(f"scale must be positive, got {scale}")
        return (
            scale * self.coeff_N
            + scale**0.75 * self.coeff_N34
            + math.sqrt(scale) * self.coeff_sqrtN
            + scale ** (1.0 / 3.0) * self.coeff_cbrt
            + scale**0.25 * self.coeff_N14
            + self.coeff_logN * math.log(scale)
            + self.coeff_O1
        )
