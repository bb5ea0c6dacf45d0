"""Integration constants for a basis of canonical series.

Each constant is a closed Gamma-product prescription read off the zero
component of its exponent vector.  The constants are never fitted to the
quadrature oracle: pipelines cross-check the weighted sum of series against
that oracle, and a fitted constant could not be checked against it.

A bundle (``series.SolutionBundle``, re-exported here) is evaluated as one
sum, at one coefficient point (``evaluate``) or at many
(``evaluate_points``, as in the deformation-limit probe): the constants are
evaluated once per call, and all the series' terms are stacked, so one
factor table per call serves every series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence

from ._lazy import np
from .errors import NoZeroComponent
from .gammafn import GammaFactor
from .gkz import FakeExponent
from .params import ParamLinear
from .series import SolutionBundle


def gamma_constant(gamma: FakeExponent) -> GammaFactor:
    """K = Gamma(beta)^-1 * prod over nonzero components Gamma(-gamma_i).

    Requires at least one vanishing component (the series whose limit sits at
    a coordinate coefficient being switched off)."""
    if not any(g.is_zero() for g in gamma.components):
        raise NoZeroComponent(f"no vanishing component in {gamma}")
    numerator = [-g for g in gamma.components if not g.is_zero()]
    return GammaFactor(numerator=numerator,
                       denominator=[ParamLinear.param("beta")])


@dataclass
class ProbeReport:
    epsilons: List[float]
    values: List[float]
    target: float

    @property
    def deviations(self) -> List[float]:
        return [abs(v - self.target) / abs(self.target) for v in self.values]

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
    compare the combined series against a closed-form/oracle target.  All
    epsilons are evaluated in one ``evaluate_points`` call."""
    points = np.tile(np.asarray(base_coeffs, dtype=float), (len(epsilons), 1))
    points[:, deformed_index] = epsilons
    values = bundle.evaluate_points(assignment, points, order)
    return ProbeReport(list(epsilons), values.tolist(), target)
