"""Canonical series solutions attached to exponent vectors.

For an exponent vector gamma and kernel lattice L of A, the log-free series

    phi = c^gamma * sum_{u in L} [gamma]_{u-} / [gamma + u]_{u+} * c^u

has falling-factorial numerators over the negative support of u and rising
ones in the denominator over the positive support; its support N_v is where
no falling factorial hits a nonpositive integer (Saito-Sturmfels-Takayama,
ch. 3).  The term order that selected the initial ideal, w refined by
grevlex, orients each lattice vector.  A series is named (pFq, Appell F4 or
raw) from the shapes of its lattice, which ``LatticeShapes`` searches once
for every series on that lattice; each exponent picks its shape by which of
its components are zero.

``SolutionBundle`` is the one evaluator of sum_i K_i phi_i; a single series
is evaluated as a bundle of one, with K = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import List, Mapping, Optional, Sequence, Tuple

from ._lazy import np
from .errors import (DimensionMismatch, DivergentArgument, NonFiniteValue,
                     NonPositiveCoefficient, PoleError)
from .gammafn import _INT_TOL, GammaFactor
from .gkz import FakeExponent
from .groebner import TermOrder
from .params import FloatMap, ParamLinear
from .pochhammer import PochhammerProduct

_BOX_POINT_LIMIT = 1 << 22    # ~320 MB, 0.5 s at rank 5 (21^5 points)


def term_coefficient(gamma: Sequence[ParamLinear],
                     u: Sequence[int]) -> PochhammerProduct:
    """[gamma]_{u-} / [gamma+u]_{u+}, exact zero off N_v, where a falling
    factorial [g]_m, written as (-1)^m (-g)_m, vanishes."""
    return PochhammerProduct.make(
        (-1) ** sum(-x for x in u if x < 0),
        [(-g, -x) for g, x in zip(gamma, u) if x < 0],
        [(g + 1, x) for g, x in zip(gamma, u) if x > 0])


def _factor_table(gamma: np.ndarray, rows: np.ndarray, steps: np.ndarray,
                  left: int) -> Tuple[np.ndarray, np.ndarray]:
    """log|f(x)| and sign f(x), f(x) = [g]_{-x} for x <= 0 and 1 / (g+1)_x
    for x > 0 (the coefficient-free factor of c^x), g = gamma[rows[h]] on
    half-row h, whose column c is x = -c on the first ``left`` half-rows and
    x = c on the rest.  Since f(x)/f(x-1) = 1/(g+x), a half-row sums log|g+k|
    over k = 0, -1, ... or -log|g+k| over k = 1, 2, ... outward from f(0) =
    1; a vanishing factor makes every entry beyond it -inf/+inf, sign 0."""
    factors = np.ones((len(rows) or 1, steps.shape[1] + 1))
    np.add(gamma.take(rows)[:, None], steps, out=factors[:len(rows), 1:])
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(factors))
    right = logs[left:, 1:]
    np.negative(right, out=right)
    return logs.cumsum(axis=1), np.sign(factors).cumprod(axis=1)


def _half_rows(lows: Sequence[int], highs: Sequence[int]):
    """The layout for table rows r read over x = lows[r]..highs[r]: a
    half-row per side read, left ones first, as wide as the farthest read;
    and the flat index of x = 0 in row r's left and right half-row, or of
    f(0) in half-row 0 (or alone) where it has none, to which |x| adds."""
    halves = [(r, -x) for r, x in enumerate(lows) if x]
    left = len(halves)
    halves += [(r, x) for r, x in enumerate(highs) if x]
    width = max((x for _, x in halves), default=0)
    bases = [0] * (2 * len(lows))
    for h, (r, _) in enumerate(halves):
        bases[r + len(lows) * (h >= left)] = h * (width + 1)
    c = np.arange(1.0, width + 1)
    steps = np.empty((len(halves), width))
    steps[:left], steps[left:] = 1 - c, c
    return ((np.array([r for r, _ in halves], dtype=np.intp), steps, left),
            np.array(bases, dtype=np.intp).reshape(2, -1))


@lru_cache(maxsize=128)
def _cone(lattice: Tuple[Tuple[int, ...], ...], face: Tuple[int, ...]):
    """l = s.K, s >= 0, sum s = 1, on a grid of spacing 1/n (finest n <= 63
    of <= 1024 points), K = B_off^-1 B (1 at one off-face column, else 0);
    Phi(l); and the floor: the spacing, or 0 at rank 1 (one exact point).
    Rank 0 (one term) has nothing to converge: no l, so the margin is +inf."""
    if not (r := len(lattice)):
        return np.empty((0, len(face))), np.empty(0), 0.0
    off = [j for j in range(len(lattice[0])) if j not in face]
    n = next(n for n in range(63, 0, -1) if math.comb(n + r - 1, n) <= 1024)
    cuts = itertools.combinations(range(1, n + r), r - 1)  # stars and bars
    lines = ((np.diff([(0, *c, n + r) for c in cuts]) - 1) / n
             @ np.linalg.solve(np.array(lattice, float)[:, off], lattice))
    phis = (lines * np.log(abs(lines) + (lines == 0))).sum(1)
    return lines, phis, (r > 1) / n


def _gather(boxes, which: Sequence[int], floor: np.ndarray, order: int):
    """The distinct lattices' boxes (indices, points u) cut by one mask to
    each series' box ``which`` and u >= its floor row: in series order, the
    kept u as floats, shell mask, owning series, the layout of the table
    rows (series' components in turn) they read, and each factor's index,
    a row per component and a column per term, so sums run along the terms."""
    indices, points = map(np.concatenate, zip(*boxes))
    # reduced across columns: over a short last axis it is ~5x slower
    keep = (np.ascontiguousarray(points.T) >= floor[:, :, None]).all(axis=1)
    norm = np.abs(np.ascontiguousarray(indices.T)).max(axis=0, initial=0)
    if len(boxes) > 1:
        keep &= np.repeat(np.arange(len(boxes)), [len(k) for k, _ in boxes]
                          ) == np.array(which)[:, None]
    owner, index = keep.nonzero()
    u = points[index]
    starts = np.searchsorted(owner, np.arange(len(floor)))  # each keeps u = 0
    layout, bases = _half_rows(np.minimum.reduceat(u, starts).ravel().tolist(),
                               np.maximum.reduceat(u, starts).ravel().tolist())
    lefts, rights = bases.reshape(2, *floor.shape)
    flat = np.where(u > 0, rights.take(owner, 0), lefts.take(owner, 0))
    return (u.astype(float), norm[index] == order, owner, layout,
            np.ascontiguousarray((flat + np.abs(u)).T))


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


class LatticeShapes:
    """The shapes of the series on one lattice and weight, searched once for
    all of them: the basis oriented by in_w's term order (v or -v, whichever
    is bigger; the key is linear, so x^{v+} leads) and, in search order, the
    candidate bases with each vector's positive support.  A rank-1 basis of
    {-1, 0, 1} entries is the pFq candidate; rank 2 has its Appell F4 bases."""

    def __init__(self, lattice: Sequence[Sequence[int]],
                 weight: Sequence[int]):
        self.lattice = [max(tuple(v), tuple(-x for x in v),
                            key=TermOrder(weight)) for v in lattice]
        self.candidates = []
        if len(self.lattice) == 2:
            self.candidates = list(f4_bases(self.lattice))
        elif len(self.lattice) == 1 and max(map(abs, self.lattice[0])) <= 1:
            pos = [i for i, x in enumerate(self.lattice[0]) if x > 0]
            self.candidates = [(self.lattice, [pos])]

    def classify(self, gamma: Sequence[ParamLinear]
                 ) -> Tuple[HypergeometricForm, List[Tuple[int, ...]]]:
        """(form, basis) of the series of exponent gamma: the first candidate
        with a zero component on each positive support, that zero's (1)_n
        being the factorial; else RawSeries on the oriented basis."""
        zero = {i for i, g in enumerate(gamma) if g.is_zero()}
        for basis, supports in self.candidates:
            if all(zero.intersection(pos) for pos in supports):
                break
        else:
            return HypergeometricForm(kind="RawSeries"), list(self.lattice)
        one, lower = ParamLinear.const(1), []
        for pos in supports:
            slot = min(zero.intersection(pos))
            lower += [gamma[i] + one for i in pos if i != slot]
        upper = [-gamma[i] for i, x in enumerate(basis[0]) if x < 0]
        f4 = len(basis) == 2
        return HypergeometricForm(
            kind="AppellF4" if f4 else f"{len(upper)}F{len(lower)}",
            upper=upper, lower=lower,
            arguments=[_argument_monomial(v) for v in basis],
            argument_signs=[1, 1] if f4 else [(-1) ** len(upper)]
        ), list(basis)


def f4_bases(lattice: Sequence[Tuple[int, ...]]):
    """Small unimodular basis changes of a rank-2 lattice with the Appell
    F4 shape, in search order, each with its positive supports: two
    generators sharing a 2-element negative support, disjoint 2-element
    positive supports, all entries in {-1, 0, 1}."""
    l1, l2 = lattice
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
            yield [v1, v2], [sorted(pos1), sorted(pos2)]


class CanonicalSeries:
    """One canonical series: exponent vector + oriented lattice + weight.
    ``shapes`` is the search of this lattice and weight when series share
    it, as ``pipeline.run``'s do; a series built alone searches its own."""

    def __init__(self, gamma: FakeExponent, lattice: Sequence[Sequence[int]],
                 weight: Sequence[int],
                 shapes: Optional[LatticeShapes] = None):
        self.gamma = gamma
        self.weight = tuple(weight)
        self.nvars = len(gamma.components)
        # an Appell-shaped basis is preferred for enumeration and display
        self.form, self.lattice = (shapes or LatticeShapes(
            lattice, weight)).classify(gamma.components)

    @property
    def rank(self) -> int:
        return len(self.lattice)

    # -- term enumeration --------------------------------------------------

    def _box(self, order: int) -> Tuple[np.ndarray, np.ndarray]:
        """Lattice coordinates in [-order, order]^rank, enumerated in
        lexicographic order as one index grid, and their points u, kept
        where w.u >= 0: a cut that only saves work, since x^a times any
        monomial on sigma is standard, so least in its fibre, and so a
        top-dimensional pair's N_v lies in it (Hosten-Thomas)."""
        if (side := 2 * order + 1) ** self.rank > _BOX_POINT_LIMIT:
            raise DimensionMismatch(f"order {order} needs {side}^{self.rank} "
                                    f"box points, over {_BOX_POINT_LIMIT}")
        grid = np.indices((side,) * self.rank).reshape(
            self.rank, side ** self.rank) - order
        basis = np.array(self.lattice, np.int64).reshape(self.rank, self.nvars)
        grid = grid[:, basis @ np.array(self.weight, dtype=np.int64) @ grid >= 0]
        return grid.T, grid.T @ basis

    def enumerate_terms(self, order: int) -> List[SeriesTerm]:
        """All nonzero terms with lattice coordinates in [-order, order],
        sorted by max-norm shell: the exact symbolic reference for
        ``evaluate``."""
        indices, shifts = self._box(order)
        terms = [SeriesTerm(tuple(u), tuple(k), coeff)
                 for k, u in zip(indices.tolist(), shifts.tolist())
                 for coeff in [term_coefficient(self.gamma.components, u)]
                 if not coeff.is_zero()]
        terms.sort(key=lambda t: (max((abs(k) for k in t.indices), default=0),
                                  t.indices))
        return terms

    # -- classification ----------------------------------------------------

    def classify(self) -> HypergeometricForm:
        """The named form, found once at construction; its arguments are
        the monomials of ``lattice``, in order."""
        return self.form

    # -- numeric evaluation ------------------------------------------------

    @cached_property
    def _bundle(self) -> "SolutionBundle":
        return SolutionBundle([self], [GammaFactor()])

    def evaluate(self, assignment: Mapping[str, float],
                 coeffs: Sequence[float], order: int) -> Tuple[float, float]:
        """(value, tail_estimate) of the truncated series at one point of
        positive coefficients: ``evaluate_points`` at that point alone."""
        values, tails = self.evaluate_points(assignment, [coeffs], order)
        return float(values[0]), float(tails[0])

    def evaluate_points(self, assignment: Mapping[str, float],
                        points: Sequence[Sequence[float]],
                        order: int) -> Tuple[np.ndarray, np.ndarray]:
        """(values, tail_estimates), one per point: this series as a bundle
        of one, whose constant is the empty Gamma product 1."""
        return self._bundle._sum(assignment, points, order)


@dataclass
class SolutionBundle:
    """A basis of canonical series with their integration constants, summed
    as sum_i K_i phi_i over one set of terms.  The plan per order, built on
    first use like the gammas' floats and the region grids, holds each
    series' terms u >= its exact floor row, in turn, with their series and
    their factors' indices, factor-major, into one table of the half-rows."""

    series: List[CanonicalSeries]
    constants: List[GammaFactor]                  # symbolic prescription
    _plans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)           # order -> terms

    def constant_values(self, assignment: Mapping[str, float]) -> List[float]:
        return [k.evaluate(assignment) for k in self.constants]

    def evaluate(self, assignment: Mapping[str, float],
                 coeffs: Sequence[float], order: int = 40) -> float:
        return float(self.evaluate_points(assignment, [coeffs], order)[0])

    def evaluate_points(self, assignment: Mapping[str, float],
                        points: Sequence[Sequence[float]],
                        order: int = 40) -> np.ndarray:
        """Sum K_i phi_i at every coefficient point: the constants first,
        then every series' terms in one sum."""
        return self._sum(assignment, points, order)[0]

    @cached_property
    def _gamma_map(self) -> FloatMap:
        return FloatMap([g for phi in self.series for g in phi.gamma.components])

    @cached_property
    def _regions(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """The ``_cone`` of each distinct (lattice, face), all of one rank."""
        lines, phis, floors = zip(*(_cone(*key) for key in {
            (tuple(p.lattice), p.gamma.pair.face) for p in self.series}))
        return np.concatenate(lines), np.concatenate(phis), max(floors)

    def _terms(self, order: int):
        """The plan at this order, from one box per distinct lattice, each
        series' terms cut to u_j >= -g where gamma_j is an integer constant
        g >= 0, past which [g]_{-u_j} vanishes at every assignment."""
        if (plan := self._plans.get(order)) is None:
            boxes = {tuple(phi.lattice): phi for phi in self.series}
            floor = [-g if not pairs and g >= 0 and g.is_integer() else -np.inf
                     for g, pairs in self._gamma_map.rows]
            plan = self._plans[order] = _gather(
                [phi._box(order) for phi in boxes.values()],
                [list(boxes).index(tuple(phi.lattice)) for phi in self.series],
                np.array(floor).reshape(len(self.series), -1), order)
        return plan

    def _sum(self, assignment: Mapping[str, float],
             points: Sequence[Sequence[float]],
             order: int) -> Tuple[np.ndarray, np.ndarray]:
        """(values, tail_estimates) of sum_i K_i phi_i, one per point of
        positive coefficients; a term's factors, a plan row each, are summed
        in order along the terms.  Raises DimensionMismatch for a parameter
        not finite, the constants' errors, DimensionMismatch unless a point
        has one coefficient per component, NonPositiveCoefficient for one <= 0
        or not finite, UnassignedParameter, DimensionMismatch for a term box
        of more than _BOX_POINT_LIMIT points, DivergentArgument where a
        point's margin -max psi is at most the floor, then PoleError for a
        term whose log is +inf in the factor table, gammas near integers
        snapped to them; a -inf (a vanishing falling factorial) zeroes a
        term, pole or not; NonFiniteValue when a point's sum overflows or
        comes out nan."""
        for name, value in assignment.items():
            if not -np.inf < value < np.inf:
                raise DimensionMismatch(f"parameter {name!r} is {value}, "
                                        "not finite")
        constants = self.constant_values(assignment)
        nvars = self.series[0].nvars
        points = np.array(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != nvars:
            raise DimensionMismatch(f"need points of {nvars} "
                                    f"coefficients, got shape {points.shape}")
        if not 0 < points.min(initial=1) <= points.max(initial=1) < np.inf:
            raise NonPositiveCoefficient("coefficients must be positive and "
                                         f"finite, got {points.tolist()}")
        gamma = np.array(self._gamma_map(assignment)).reshape(
            len(self.series), -1)
        shifts, shell, owner, layout, flat = self._terms(order)
        log_points = np.log(points)
        lines, phis, floor = self._regions
        psi = log_points @ lines.T - phis   # log|term| ~ psi; Phi = l.log|l|
        if (margin := 0.0 - psi.max(initial=-np.inf)) <= floor:     # no -0
            x, r = np.exp(phis[k := psi.argmax() % len(lines)] - [margin, 0])
            raise DivergentArgument(
                f"margin {margin:.4g} <= {floor:.4g} along l = "
                f"({', '.join(f'{v + 0:.4g}' for v in lines[k])}): "
                f"|argument| = {x:.4g} " + (f">= {r:.4g}" if margin <= 0 else
                f"is within the grid floor of the boundary {r:.4g}"))
        rounded = np.rint(gamma)
        snapped = np.where(np.abs(gamma - rounded) < _INT_TOL, rounded, gamma)
        logs, signs = _factor_table(snapped.ravel(), *layout)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_k = np.log(np.abs(constants))
            sizes = logs.take(flat).sum(axis=0)
            if not np.isfinite(sizes).all():
                if (hit := sizes == np.inf).any():
                    raise PoleError("vanishing denominator factor in "
                                    f"{self.series[owner[hit][0]].gamma}")
                sizes[np.isnan(sizes)] = -np.inf
            # log K_i c^(u + gamma_i) for every point and term
            exponents = (log_points @ shifts.T
                         + (log_points @ gamma.T + log_k)[:, owner])
            values = (signs.take(flat).prod(axis=0) * np.sign(constants)[owner]
                      * np.exp(sizes + exponents))
            totals = values.sum(axis=1)
        if not all(-np.inf < total < np.inf for total in totals.tolist()):
            raise NonFiniteValue(f"series sum {totals.tolist()} is not finite")
        return totals, np.abs(values[:, shell]).sum(axis=1)
