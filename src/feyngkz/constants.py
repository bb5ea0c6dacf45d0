"""Integration constants for a basis of canonical series.

Two routes: the closed Gamma-product prescription read off the zero component
of each exponent vector, and an over-determined least-squares fit against the
quadrature oracle at several coefficient points.  Both are exposed; solve
pipelines use the prescription and cross-check it numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Sequence

import numpy as np

from .errors import IllConditioned, NoZeroComponent
from .gammafn import GammaFactor
from .gkz import FakeExponent
from .params import ParamLinear
from .series import CanonicalSeries

_COND_LIMIT = 1e8


def gamma_constant(gamma: FakeExponent) -> GammaFactor:
    """K = Gamma(beta)^-1 * prod over nonzero components Gamma(-gamma_i).

    Requires at least one vanishing component (the series whose limit sits at
    a coordinate coefficient being switched off)."""
    if not any(g.is_zero() for g in gamma.components):
        raise NoZeroComponent(f"no vanishing component in {gamma}")
    numerator = [-g for g in gamma.components if not g.is_zero()]
    return GammaFactor(numerator=numerator,
                       denominator=[ParamLinear.param("beta")])


def numeric_constants(series: Sequence[CanonicalSeries],
                      assignment: Mapping[str, float],
                      coefficient_samples: Sequence[Sequence[float]],
                      oracle: Callable[[Sequence[float]], float],
                      order: int = 40):
    """Least-squares fit of sum K_i phi_i(c) = oracle(c) over sample points.

    Returns (constants, residual, condition_number)."""
    rows = len(coefficient_samples)
    cols = len(series)
    if rows < cols:
        raise ValueError("need at least as many samples as series")
    design = np.zeros((rows, cols))
    target = np.zeros(rows)
    for r, coeffs in enumerate(coefficient_samples):
        for c, phi in enumerate(series):
            design[r, c] = phi.evaluate(assignment, coeffs, order)[0]
        target[r] = oracle(coeffs)
    condition = float(np.linalg.cond(design))
    if condition > _COND_LIMIT:
        raise IllConditioned(f"design matrix condition {condition:.3g}")
    solution, *_ = np.linalg.lstsq(design, target, rcond=None)
    residual = float(np.max(np.abs(design @ solution - target)))
    return [float(k) for k in solution], residual, condition


@dataclass
class SolutionBundle:
    """A basis of canonical series with their integration constants."""

    series: List[CanonicalSeries]
    constants: List[GammaFactor]                  # symbolic prescription

    def constant_values(self, assignment: Mapping[str, float]) -> List[float]:
        return [k.evaluate(assignment) for k in self.constants]

    def evaluate(self, assignment: Mapping[str, float],
                 coeffs: Sequence[float], order: int = 40) -> float:
        total = 0.0
        for phi, value in zip(self.series, self.constant_values(assignment)):
            total += value * phi.evaluate(assignment, coeffs, order)[0]
        return total


@dataclass
class ProbeReport:
    epsilons: List[float]
    values: List[float]
    target: float
    deviations: List[float] = field(init=False)

    def __post_init__(self):
        self.deviations = [abs(v - self.target) / abs(self.target)
                           for v in self.values]

    @property
    def final_deviation(self) -> float:
        return self.deviations[-1]

    @property
    def monotone(self) -> bool:
        return all(a >= b for a, b in zip(self.deviations, self.deviations[1:]))


def deformation_limit_probe(bundle: SolutionBundle,
                            assignment: Mapping[str, float],
                            base_coeffs: Sequence[float],
                            deformed_index: int,
                            epsilons: Sequence[float],
                            target: float,
                            order: int = 60) -> ProbeReport:
    """Drive the deformation coefficient through the given epsilons and
    compare the combined series against a closed-form/oracle target."""
    values = []
    for eps in epsilons:
        coeffs = list(base_coeffs)
        coeffs[deformed_index] = eps
        values.append(bundle.evaluate(assignment, coeffs, order))
    return ProbeReport(list(epsilons), values, target)
