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
from functools import cached_property
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


def _gather(parts, floor: np.ndarray):
    """Each series' part (points u, shell mask) cut to u >= its floor row:
    the kept points as floats, shell mask and owning series, lo, hi and each
    factor's flat index into the raveled factor table over x = lo..hi, whose
    rows are the series' components in turn.  Each part is cut and indexed
    alone, so no temporary spans every series' terms."""
    parts = [(u[keep], shell[keep]) for (u, shell), row in zip(parts, floor)
             for keep in [(u >= row).all(axis=1)]]
    lo = min(int(u.min(initial=0)) for u, _ in parts)
    hi = max(int(u.max(initial=0)) for u, _ in parts)
    rows = np.arange(floor.size).reshape(floor.shape) * (hi - lo + 1) - lo
    return (np.concatenate([u.astype(float) for u, _ in parts]),
            np.concatenate([shell for _, shell in parts]),
            np.concatenate([np.full(len(u), i)
                            for i, (u, _) in enumerate(parts)]),
            lo, hi, np.concatenate([(u + r).astype(np.intp)
                                    for (u, _), r in zip(parts, rows)]))


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
        args = self.arguments
        return {"kind": self.kind, "upper": [str(p) for p in self.upper],
                "lower": [str(p) for p in self.lower],
                "argument": args[0] if len(args) == 1 else args,
                "argument_signs": self.argument_signs}


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
        gamma, one = self.gamma.components, ParamLinear.const(1)
        upper = [-gamma[i] for i, x in enumerate(gen) if x < 0]
        lower = [gamma[i] + one for i, x in enumerate(gen) if x > 0]
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
            lower = []
            for v in (v1, v2):
                params = [gamma[i] + one for i, x in enumerate(v) if x > 0]
                if one in params:
                    params.remove(one)
                    lower.append(params[0])
            if len(lower) == 2:
                return HypergeometricForm(
                    kind="AppellF4", lower=lower,
                    upper=[-gamma[i] for i, x in enumerate(v1) if x < 0],
                    arguments=[_argument_monomial(v1), _argument_monomial(v2)],
                    argument_signs=[1, 1]), [v1, v2]
        return None

    def _f4_candidates(self):
        """Small unimodular basis changes with the Appell F4 shape: two
        generators sharing a 2-element negative support, disjoint 2-element
        positive supports, all entries in {-1, 0, 1}."""
        l1, l2 = self.lattice
        candidates = []
        for p, q in itertools.product(range(-2, 3), repeat=2):
            v = tuple(p * a + q * b for a, b in zip(l1, l2))
            if all(abs(x) <= 1 for x in v):
                neg = {i for i, x in enumerate(v) if x < 0}
                pos = {i for i, x in enumerate(v) if x > 0}
                if len(neg) == len(pos) == 2:
                    candidates.append(((p, q), v, neg, pos))
        pairs = itertools.permutations(candidates, 2)
        for (pq1, v1, neg1, pos1), (pq2, v2, neg2, pos2) in pairs:
            if (abs(pq1[0] * pq2[1] - pq1[1] * pq2[0]) == 1
                    and neg1 == neg2 and not pos1 & pos2):
                yield v1, v2

    # -- numeric evaluation ------------------------------------------------

    @cached_property
    def _sum(self) -> "SeriesSum":
        return SeriesSum([self])

    def evaluate(self, assignment: Mapping[str, float],
                 coeffs: Sequence[float], order: int) -> Tuple[float, float]:
        """(value, tail_estimate) of the truncated series at one point of
        positive coefficients: ``evaluate_points`` at that point alone."""
        values, tails = self.evaluate_points(assignment, [coeffs], order)
        return float(values[0]), float(tails[0])

    def evaluate_points(self, assignment: Mapping[str, float],
                        points: Sequence[Sequence[float]],
                        order: int) -> Tuple[np.ndarray, np.ndarray]:
        """(values, tail_estimates), one per point: ``SeriesSum`` of this
        series alone, with constant 1."""
        return self._sum.evaluate_points(assignment, points, order, [1.0])


class SeriesSum:
    """sum_i K_i phi_i over series with one number of coefficients, summed as
    one set of terms.  The plan per order, built on first use, holds each
    series' terms after its own floor prune, in turn, with their series and
    their factors' flat indices into one table stacking every series' rows."""

    def __init__(self, series: Sequence[CanonicalSeries]):
        self.series = list(series)
        self.nvars = self.series[0].nvars
        self._gamma_map = FloatMap([g for phi in self.series
                                    for g in phi.gamma.components])
        # [g]_{-x} vanishes past x = -g for each constant integer g >= 0
        self._floor = np.array(
            [-c if not pairs and c >= 0 and c == int(c) else -np.inf
             for c, pairs in self._gamma_map.rows]).reshape(len(series), -1)
        self._regions = {(tuple(phi.lattice), phi.form.kind):
                         phi._basis().astype(float) for phi in self.series}
        self._plans = {}              # order -> terms, see ``_terms``

    def _terms(self, order: int):
        """The plan at this order, from one box per distinct lattice."""
        if order not in self._plans:
            boxes = {tuple(phi.lattice): phi for phi in self.series}
            for key, phi in boxes.items():
                indices, points = phi._box(order)
                shell = np.abs(indices).max(axis=1, initial=0) == order
                boxes[key] = points, shell
            self._plans[order] = _gather(
                [boxes[tuple(phi.lattice)] for phi in self.series], self._floor)
        return self._plans[order]

    def evaluate_points(self, assignment: Mapping[str, float],
                        points: Sequence[Sequence[float]], order: int,
                        constants: Sequence[float]
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """(values, tail_estimates) of sum_i K_i phi_i, K = constants, one per
        point of positive coefficients; raises DimensionMismatch unless each
        point has one coefficient per component, NonPositiveCoefficient for
        a coefficient <= 0 or not finite, DivergentArgument if any point lies
        outside some series' region, then UnassignedParameter and PoleError.
        One factor table per call serves every term, one exp per term."""
        points = np.array(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.nvars:
            raise DimensionMismatch(f"need points of {self.nvars} "
                                    f"coefficients, got shape {points.shape}")
        if not 0 < points.min(initial=1) <= points.max(initial=1) < np.inf:
            raise NonPositiveCoefficient("coefficients must be positive and "
                                         f"finite, got {points.tolist()}")
        shifts, shell, owner, lo, hi, flat = self._terms(order)
        log_points = np.log(points)
        for (_, kind), basis in self._regions.items():
            # |x| < 1 in rank 1, sqrt|x| + sqrt|y| < 1 for Appell F4
            args = np.exp(log_points @ basis.T)
            if len(basis) == 1 and (worst := float(args.max(initial=0))) >= 1:
                raise DivergentArgument(f"|argument| = {worst:.4g} >= 1")
            if kind == "AppellF4" and np.any(np.sqrt(args).sum(axis=1) >= 1):
                raise DivergentArgument("sqrt|x| + sqrt|y| >= 1")
        gamma = np.array(self._gamma_map(assignment)).reshape(self._floor.shape)
        rounded = np.rint(gamma)
        integer = np.abs(gamma - rounded) < _INT_TOL
        if (integer & (self._floor == -np.inf)).any():   # not in the plan
            # the falling factorial [g]_{-x} passes through 0 once x < -g
            floor = np.where(integer & (rounded >= 0), -rounded, -np.inf)
            cuts = np.cumsum(np.bincount(owner, minlength=len(floor)))[:-1]
            shifts, shell, owner, lo, hi, flat = _gather(
                zip(np.split(shifts, cuts), np.split(shell, cuts)), floor)
            # the rising factorial (g+1)_x passes through 0 once x >= -g
            pole = np.where(integer & (rounded < 0), -rounded, np.inf)
            if (hit := (shifts >= pole[owner]).any(axis=1)).any():
                raise PoleError("vanishing denominator factor in "
                                f"{self.series[owner[hit][0]].gamma}")
        logs, signs = _factor_table(gamma.ravel(), lo, hi)
        with np.errstate(divide="ignore"):
            log_k = np.log(np.abs(constants))
        # log K_i c^(u + gamma_i) for every point and term
        exponents = (log_points @ shifts.T
                     + (log_points @ gamma.T + log_k)[:, owner])
        values = (signs.take(flat).prod(axis=1) * np.sign(constants)[owner]
                  * np.exp(logs.take(flat).sum(axis=1) + exponents))
        return values.sum(axis=1), np.abs(values[:, shell]).sum(axis=1)
