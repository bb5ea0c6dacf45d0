"""Symbolic Pochhammer products and their stable numeric evaluation.

The rising factorial (a)_m = a(a+1)...(a+m-1) is the basic building block of
every series coefficient in this package.  Falling factorials are folded into
rising ones via

    g(g-1)...(g-m+1) = (-1)^m * (-g)_m,

and negative lengths via (a)_{-m} = (-1)^m / (1-a)_m = 1 / (a-m)_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Tuple

from .errors import PoleError
from .gammafn import as_nonpositive_int, log_gamma_signed
from .params import ParamLinear

Factor = Tuple[ParamLinear, int]


def log_poch(a: float, m: int) -> Tuple[float, float]:
    """(log|(a)_m|, sign of (a)_m) for integer m of either sign; a vanishing
    product gives (-inf, 0.0)."""
    if m < 0:
        log_denom, sign = log_poch(a + m, -m)
        if sign == 0.0:
            raise PoleError(f"({a})_{m} hits a pole")
        return -log_denom, sign
    k = as_nonpositive_int(a)
    if k is not None:
        # base on a nonpositive integer: the product terminates or vanishes
        if m >= 1 - k:
            return -math.inf, 0.0
        # |k (k+1) ... (k+m-1)| = (-k)! / (-k-m)!
        return math.lgamma(1 - k) - math.lgamma(1 - k - m), (-1.0) ** m
    lg_top, s_top = log_gamma_signed(a + m)
    lg_bot, s_bot = log_gamma_signed(a)
    return lg_top - lg_bot, s_top * s_bot


def poch_numeric(a: float, m: int) -> float:
    """(a)_m for integer m of either sign."""
    log_size, sign = log_poch(a, m)
    return sign * math.exp(log_size)


def _factor_is_zero(base: ParamLinear, length: int) -> bool:
    """Symbolic test: (base)_length == 0 identically."""
    if length <= 0 or not base.is_constant():
        return False
    return base.den == 1 and 1 - length <= base.num0 <= 0


@dataclass(frozen=True)
class PochhammerProduct:
    """sign * prod (num_i)_{m_i} / prod (den_j)_{k_j}, or exact zero (sign 0)."""

    sign: int = 1
    numerator: Tuple[Factor, ...] = ()
    denominator: Tuple[Factor, ...] = ()

    @classmethod
    def make(cls, sign: int, numerator: List[Factor],
             denominator: List[Factor]) -> "PochhammerProduct":
        # a vanishing numerator drops the term before a pole can raise,
        # as in CanonicalSeries.evaluate
        if sign == 0 or any(_factor_is_zero(b, m) for b, m in numerator):
            return cls(0, (), ())
        for base, length in denominator:
            if _factor_is_zero(base, length):
                raise PoleError(f"vanishing denominator factor ({base})_{length}")
        return cls(sign, tuple(numerator), tuple(denominator))

    @classmethod
    def zero(cls) -> "PochhammerProduct":
        return cls(0, (), ())

    @classmethod
    def falling(cls, base: ParamLinear, length: int) -> "PochhammerProduct":
        """base*(base-1)*...*(base-length+1), length >= 0."""
        if length < 0:
            raise ValueError("falling factorial needs length >= 0")
        return cls.make((-1) ** length, [(-base, length)], [])

    def is_zero(self) -> bool:
        return self.sign == 0

    def __mul__(self, other: "PochhammerProduct") -> "PochhammerProduct":
        if self.sign == 0 or other.sign == 0:
            return PochhammerProduct.zero()
        return PochhammerProduct.make(
            self.sign * other.sign,
            list(self.numerator) + list(other.numerator),
            list(self.denominator) + list(other.denominator))

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        """Sums the factors' logs and exponentiates once, so a ratio of
        products that each overflow a float stays finite."""
        log_total, sign = 0.0, float(self.sign)
        for base, length in self.numerator:
            log_size, factor_sign = log_poch(base.evaluate(assignment), length)
            log_total += log_size
            sign *= factor_sign
        if sign == 0.0:
            return 0.0
        for base, length in self.denominator:
            log_size, factor_sign = log_poch(base.evaluate(assignment), length)
            if factor_sign == 0.0:
                raise PoleError(f"({base})_{length} vanishes numerically")
            log_total -= log_size
            sign *= factor_sign
        return sign * math.exp(log_total)

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        num = "*".join(f"poch({b}, {m})" for b, m in self.numerator) or "1"
        den = "*".join(f"poch({b}, {m})" for b, m in self.denominator)
        text = num if not den else f"{num}/({den})"
        return text if self.sign > 0 else f"-{text}"
