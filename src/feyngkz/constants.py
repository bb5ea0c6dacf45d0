"""Integration constants for a basis of canonical series.

Each constant is the Gamma-series prescription of a regular triangulation
(SST, ch. 3), read off its exponent's pair (a, sigma), |det C_sigma| and
beta.  Constants are never fitted to the quadrature oracle: pipelines
cross-check the weighted sum of series against it, which a fitted one would
defeat.

A bundle (``series.SolutionBundle``, re-exported here) is evaluated as one
sum, ``evaluate_points``, giving (values, tails) at many coefficient points,
as in the deformation-limit probe; ``evaluate`` is its value at one point.
The constants are evaluated once per call, and all the series' terms are
stacked, so one factor table per call serves every series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Sequence

from ._lazy import np
from .gammafn import GammaFactor
from .gkz import FakeExponent
from .series import SolutionBundle


def gamma_constant(gamma: FakeExponent, volume: int = 1) -> GammaFactor:
    """K = prod_{j in sigma} Gamma(-gamma_j) * prod_{j not in sigma}
    (-1)^{a_j} / a_j!  /  (volume * Gamma(-sum_j gamma_j)) for the exponent
    of the top-dimensional pair (a, sigma), off sigma the root's a_j, where
    volume is |det C_sigma| = vol(sigma) * iota: the integral is written in
    C's coordinates, and vol(sigma), the pairs the walk finds on sigma, is
    relative to A's column lattice, of index iota in C's terms
    (``AMatrix.index``).  On a unimodular facet (volume 1, root 0) the
    factor is int 1."""
    face, root = gamma.pair.face, gamma.pair.root
    factor = 1 if volume == 1 and not any(root) else Fraction(
        (-1) ** sum(root), volume * math.prod(map(math.factorial, root)))
    return GammaFactor(numerator=[-gamma.components[j] for j in face],
                       denominator=[gamma.beta], factor=factor)


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
    values, _ = bundle.evaluate_points(assignment, points, order)
    return ProbeReport(list(epsilons), values.tolist(), target)
