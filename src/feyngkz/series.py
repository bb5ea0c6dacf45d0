"""Canonical series solutions attached to exponent vectors.

For an exponent vector gamma and kernel lattice L of A, the log-free series

    phi = c^gamma * sum_{u in L} [gamma]_{u-} / [gamma + u]_{u+} * c^u

has falling-factorial numerators over the negative support of u and rising
ones in the denominator over the positive support.  Terms with w.u < 0 are
dropped: the weight that selected the initial ideal also selects the support
half-space, and the remaining coefficients vanish exactly where the falling
factorials hit nonpositive integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (DimensionMismatch, DivergentArgument,
                     NonPositiveCoefficient, PoleError)
from .gammafn import _INT_TOL
from .gkz import FakeExponent
from .params import FloatMap, ParamLinear
from .pochhammer import PochhammerProduct


def term_coefficient(gamma: Sequence[ParamLinear], u: Sequence[int],
                     weight: Sequence[int]) -> PochhammerProduct:
    """[gamma]_{u-} / [gamma+u]_{u+}, or exact zero off the support.  The
    falling factorial [g]_m is written as (-1)^m (-g)_m."""
    if sum(w * x for w, x in zip(weight, u)) < 0:
        return PochhammerProduct.zero()
    return PochhammerProduct.make(
        (-1) ** sum(-x for x in u if x < 0),
        [(-g, -x) for g, x in zip(gamma, u) if x < 0],
        [(g + 1, x) for g, x in zip(gamma, u) if x > 0])


def _factor_table(gamma: np.ndarray, lo: int,
                  hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """log|f_i(x)| and sign f_i(x), one row per component and one column per
    x = lo..hi (lo <= 0 <= hi), where f_i(x) = [g_i]_{-x} for x <= 0 and
    1 / (g_i+1)_x for x > 0: the coefficient-free factor of c_i^x.  Since
    f_i(x)/f_i(x-1) = 1/(g_i+x), each row is a cumulative sum of log|g_i+k|
    outward from f_i(0) = 1; a factor that vanishes makes every entry beyond
    it -inf/+inf with sign 0."""
    factors = np.asarray(gamma, dtype=float)[:, None] + np.arange(lo + 1, hi + 1)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(factors))
    sign = np.sign(factors)
    logs = np.zeros((len(factors), hi - lo + 1))
    signs = np.ones(logs.shape)
    m = -lo                                    # factors[:, :m] is k = lo+1..0
    logs[:, :m] = log_abs[:, :m][:, ::-1].cumsum(axis=1)[:, ::-1]
    signs[:, :m] = sign[:, :m][:, ::-1].cumprod(axis=1)[:, ::-1]
    logs[:, m + 1:] = -log_abs[:, m:].cumsum(axis=1)
    signs[:, m + 1:] = sign[:, m:].cumprod(axis=1)
    return logs, signs


def _gather(shifts: np.ndarray, shell: np.ndarray, floor: np.ndarray):
    """The points u >= floor as floats, their shell mask, lo, hi and each
    factor's flat index into the raveled factor table over x = lo..hi."""
    keep = (shifts >= floor).all(axis=1)
    shifts, shell = shifts[keep], shell[keep]
    lo, hi = int(shifts.min(initial=0)), int(shifts.max(initial=0))
    rows = np.arange(-lo, shifts.shape[1] * (hi - lo + 1) - lo, hi - lo + 1)
    return shifts.astype(float), shell, lo, hi, (shifts + rows).astype(np.intp)


@dataclass
class SeriesTerm:
    shift: Tuple[int, ...]            # lattice point u
    indices: Tuple[int, ...]          # coordinates in the lattice basis
    coefficient: PochhammerProduct


@dataclass
class HypergeometricForm:
    kind: str                          # "2F1", "3F2", "AppellF4", "RawSeries"
    upper: List[ParamLinear] = field(default_factory=list)
    lower: List[ParamLinear] = field(default_factory=list)
    arguments: List[str] = field(default_factory=list)
    argument_signs: List[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "upper": [str(p) for p in self.upper],
            "lower": [str(p) for p in self.lower],
            "argument": self.arguments[0] if len(self.arguments) == 1
            else self.arguments,
            "argument_signs": self.argument_signs,
        }


def _argument_monomial(u: Sequence[int]) -> str:
    num = "*".join(f"c{i + 1}" + (f"^{x}" if x > 1 else "")
                   for i, x in enumerate(u) if x > 0) or "1"
    den = "*".join(f"c{i + 1}" + (f"^{-x}" if x < -1 else "")
                   for i, x in enumerate(u) if x < 0)
    return f"{num}/({den})" if den else num


class CanonicalSeries:
    """One canonical series: exponent vector + oriented lattice + weight."""

    def __init__(self, gamma: FakeExponent, lattice: Sequence[Sequence[int]],
                 weight: Sequence[int]):
        self.gamma = gamma
        self.weight = tuple(weight)
        self.lattice = [self._orient(tuple(v)) for v in lattice]
        self.nvars = len(gamma.components)
        self._plans = {}              # order -> terms, see ``_terms``
        if self.rank == 1:
            self.form = self._classify_rank1()
        elif self.rank == 2 and (f4 := self._classify_f4()) is not None:
            # prefer the Appell-shaped basis for enumeration and display
            self.form, self.lattice = f4
        else:
            self.form = HypergeometricForm(kind="RawSeries")

    def _orient(self, vector: Tuple[int, ...]) -> Tuple[int, ...]:
        wdot = sum(w * x for w, x in zip(self.weight, vector))
        return tuple(-x for x in vector) if wdot < 0 else vector

    @property
    def rank(self) -> int:
        return len(self.lattice)

    # -- term enumeration --------------------------------------------------

    def _basis(self) -> np.ndarray:
        return np.array(self.lattice, dtype=np.int64).reshape(self.rank,
                                                              self.nvars)

    def _box(self, order: int) -> Tuple[np.ndarray, np.ndarray]:
        """Lattice coordinates in [-order, order]^rank, enumerated in
        lexicographic order as one index grid, and their points u, kept
        where w.u >= 0 (tested on the coordinates, before any u is
        formed)."""
        side = 2 * order + 1
        grid = np.indices((side,) * self.rank).reshape(
            self.rank, side ** self.rank) - order
        basis = self._basis()
        grid = grid[:, basis @ np.array(self.weight, dtype=np.int64) @ grid >= 0]
        return grid.T, grid.T @ basis

    def enumerate_terms(self, order: int) -> List[SeriesTerm]:
        """All nonzero terms with lattice coordinates in [-order, order],
        sorted by max-norm shell: the exact symbolic reference for
        ``evaluate``."""
        terms = []
        indices, shifts = self._box(order)
        for k, u in zip(indices.tolist(), shifts.tolist()):
            coeff = term_coefficient(self.gamma.components, u, self.weight)
            if not coeff.is_zero():
                terms.append(SeriesTerm(tuple(u), tuple(k), coeff))
        terms.sort(key=lambda t: (max((abs(k) for k in t.indices), default=0),
                                  t.indices))
        return terms

    # -- classification ----------------------------------------------------

    def classify(self) -> HypergeometricForm:
        """The named form, found once at construction; its arguments are
        the monomials of ``lattice``, in order."""
        return self.form

    def _classify_rank1(self) -> HypergeometricForm:
        gen = self.lattice[0]
        if any(abs(x) > 1 for x in gen):
            return HypergeometricForm(kind="RawSeries")
        gamma = self.gamma.components
        upper = [-gamma[i] for i, x in enumerate(gen) if x < 0]
        lower = [gamma[i] + ParamLinear.const(1)
                 for i, x in enumerate(gen) if x > 0]
        one = ParamLinear.const(1)
        if one not in lower:
            return HypergeometricForm(kind="RawSeries")
        lower.remove(one)  # the (1)_n slot is the factorial
        sign = -1 if sum(1 for x in gen if x < 0) % 2 else 1
        return HypergeometricForm(
            kind=f"{len(upper)}F{len(lower)}", upper=upper, lower=lower,
            arguments=[_argument_monomial(gen)], argument_signs=[sign])

    def _classify_f4(self) -> Optional[Tuple[HypergeometricForm,
                                             List[Tuple[int, ...]]]]:
        gamma = self.gamma.components
        one = ParamLinear.const(1)
        for v1, v2 in self._f4_candidates():
            shared = [i for i, x in enumerate(v1) if x < 0]
            lower = []
            for v in (v1, v2):
                params = [gamma[i] + one for i, x in enumerate(v) if x > 0]
                if one not in params:
                    break
                params.remove(one)
                lower.append(params[0])
            if len(lower) != 2:
                continue
            return HypergeometricForm(
                kind="AppellF4", upper=[-gamma[i] for i in shared],
                lower=lower,
                arguments=[_argument_monomial(v1), _argument_monomial(v2)],
                argument_signs=[1, 1]), [v1, v2]
        return None

    def _f4_candidates(self):
        """Small unimodular basis changes with the Appell F4 shape: two
        generators sharing a 2-element negative support, disjoint 2-element
        positive supports, all entries in {-1, 0, 1}."""
        l1, l2 = self.lattice

        def shaped(v):
            return (all(abs(x) <= 1 for x in v)
                    and sum(1 for x in v if x < 0) == 2
                    and sum(1 for x in v if x > 0) == 2)

        candidates = []
        for p, q in itertools.product(range(-2, 3), repeat=2):
            v = tuple(p * a + q * b for a, b in zip(l1, l2))
            if any(v) and shaped(v):
                candidates.append(((p, q), v))
        for (pq1, v1), (pq2, v2) in itertools.permutations(candidates, 2):
            if abs(pq1[0] * pq2[1] - pq1[1] * pq2[0]) != 1:
                continue
            neg1 = {i for i, x in enumerate(v1) if x < 0}
            neg2 = {i for i, x in enumerate(v2) if x < 0}
            pos1 = {i for i, x in enumerate(v1) if x > 0}
            pos2 = {i for i, x in enumerate(v2) if x > 0}
            if neg1 == neg2 and not pos1 & pos2:
                yield v1, v2

    # -- numeric evaluation ------------------------------------------------

    def _terms(self, order: int):
        """The plan at this order, built on first use: the box less the terms
        past the zero (x < -g) of [g]_{-x} for each constant integer g >= 0.
        The first call also builds gamma's float map, that floor and the
        float basis."""
        if not self._plans:
            self._gamma_map = FloatMap(self.gamma.components)
            self._floor = np.array(
                [-c if not pairs and c >= 0 and c == int(c) else -np.inf
                 for c, pairs in self._gamma_map.rows])
            self._float_basis = self._basis().astype(float)
        if order not in self._plans:
            indices, shifts = self._box(order)
            shell = np.abs(indices).max(axis=1, initial=0) == order
            self._plans[order] = _gather(shifts, shell, self._floor)
        return self._plans[order]

    def _check_region(self, log_points: np.ndarray):
        """Raise DivergentArgument if any coefficient point, given as log c,
        puts the lattice arguments outside the convergence region: |x| < 1
        in rank 1, sqrt|x| + sqrt|y| < 1 for Appell F4."""
        args = np.exp(log_points @ self._float_basis.T)
        if self.rank == 1:
            worst = float(args.max(initial=0))
            if worst >= 1:
                raise DivergentArgument(f"|argument| = {worst:.4g} >= 1")
        elif self.form.kind == "AppellF4":
            if np.any(np.sqrt(args).sum(axis=1) >= 1):
                raise DivergentArgument("sqrt|x| + sqrt|y| >= 1")

    def evaluate(self, assignment: Mapping[str, float],
                 coeffs: Sequence[float], order: int) -> Tuple[float, float]:
        """(value, tail_estimate) of the truncated series at one point of
        positive coefficients: ``evaluate_points`` at that point alone."""
        values, tails = self.evaluate_points(assignment, [coeffs], order)
        return float(values[0]), float(tails[0])

    def evaluate_points(self, assignment: Mapping[str, float],
                        points: Sequence[Sequence[float]],
                        order: int) -> Tuple[np.ndarray, np.ndarray]:
        """(values, tail_estimates), one entry per point of positive
        coefficients; raises DimensionMismatch unless each point has one
        coefficient per component, NonPositiveCoefficient for a coefficient
        <= 0 or not finite, DivergentArgument if any point lies outside the
        convergence region, then UnassignedParameter and PoleError.  The
        terms come from the plan and gamma's factor table is built once per
        call: each term is a product of one factor per component, gathered
        from that table, and the points enter only through
        log c . (u + gamma), summed in log space with one exp per term."""
        points = np.array(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.nvars:
            raise DimensionMismatch(f"need points of {self.nvars} "
                                    f"coefficients, got shape {points.shape}")
        if not 0 < points.min(initial=1) <= points.max(initial=1) < np.inf:
            raise NonPositiveCoefficient("coefficients must be positive and "
                                         f"finite, got {points.tolist()}")
        shifts, shell, lo, hi, flat = self._terms(order)
        log_points = np.log(points)
        self._check_region(log_points)
        gamma = np.array(self._gamma_map(assignment))
        rounded = np.rint(gamma)
        integer = np.abs(gamma - rounded) < _INT_TOL
        if (integer & (self._floor == -np.inf)).any():   # not in the plan
            # the falling factorial [g]_{-x} passes through 0 once x < -g
            floor = np.where(integer & (rounded >= 0), -rounded, -np.inf)
            shifts, shell, lo, hi, flat = _gather(shifts, shell, floor)
            # the rising factorial (g+1)_x passes through 0 once x >= -g
            reach = shifts.max(axis=0, initial=0)
            if (integer & (rounded < 0) & (reach >= -rounded)).any():
                raise PoleError(f"vanishing denominator factor in {self.gamma}")
        logs, signs = _factor_table(gamma, lo, hi)
        # log c^(u + gamma) for every point and term, prefactor included
        exponents = log_points @ shifts.T + (log_points @ gamma)[:, None]
        values = (signs.take(flat).prod(axis=1)
                  * np.exp(logs.take(flat).sum(axis=1) + exponents))
        return values.sum(axis=1), np.abs(values[:, shell]).sum(axis=1)
