"""Signed log-Gamma evaluation and symbolic Gamma-factor products."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Mapping, Tuple

from .errors import PoleError
from .params import ParamLinear

_INT_TOL = 1e-9


def as_nonpositive_int(x: float) -> int | None:
    """Round x to an integer if it sits (numerically) on a nonpositive one."""
    n = round(x)
    if n <= 0 and abs(x - n) < _INT_TOL:
        return n
    return None


def log_gamma_signed(x: float) -> Tuple[float, float]:
    """Return (log|Gamma(x)|, sign(Gamma(x))).

    Gamma alternates sign between consecutive nonpositive integers, so the
    sign on (-k-1, -k) is (-1)^(k+1), i.e. (+1)^floor(x) read off the floor.
    Raises PoleError at the poles x = 0, -1, -2, ...
    """
    if as_nonpositive_int(x) is not None:
        raise PoleError(f"Gamma pole at {x}")
    if x > 0:
        return math.lgamma(x), 1.0
    sign = 1.0 if math.floor(x) % 2 == 0 else -1.0
    return math.lgamma(x), sign


@dataclass
class GammaFactor:
    """A product  prod Gamma(num_i) / prod Gamma(den_j)  with symbolic
    ParamLinear arguments."""

    numerator: List[ParamLinear] = field(default_factory=list)
    denominator: List[ParamLinear] = field(default_factory=list)

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        log_total = 0.0
        sign = 1.0
        for arg in self.numerator:
            lg, s = log_gamma_signed(arg.evaluate(assignment))
            log_total += lg
            sign *= s
        for arg in self.denominator:
            x = arg.evaluate(assignment)
            if as_nonpositive_int(x) is not None:
                return 0.0  # 1/Gamma vanishes at the poles
            lg, s = log_gamma_signed(x)
            log_total -= lg
            sign *= s
        return sign * math.exp(log_total)

    def __str__(self) -> str:
        num = "*".join(f"Gamma({a})" for a in self.numerator) or "1"
        den = "*".join(f"Gamma({a})" for a in self.denominator)
        return num if not den else f"{num}/({den})"
