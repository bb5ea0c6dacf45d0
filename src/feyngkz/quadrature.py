"""Direct numeric evaluation of  I = int_{R_+^N} z^alpha g(z)^-beta dz/z.

On the integrand exp(c) z^alpha prod_k g_k^-beta_k, each variable found in
one factor only, with degree 1 there, is integrated out: int_0^inf x^a
(x P + Q)^-b dx/x = B(a, b-a) P^-a Q^(a-b), which converges iff 0 < a < b.
Convergence of what is left is then decided exactly (alpha in the interior
of sum_k beta_k Newt(g_k)): in closed form for one variable, by a small
linear program solved exactly in rational arithmetic for two or more.  The
integrand is positive, so by Tonelli I converges iff every Beta step and the
remainder do; no other check decides divergence.  The remainder is summed on
the chart z = e^x with a sinh substitution per axis, by one tensor trapezoid
rule for 1-4 variables whose passes sum at most _PASS_NODE_LIMIT nodes each,
over a box that a decay probe sizes.  Nothing left means a closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, NonConvergent, NonPositiveCoefficient
from .intlinalg import integer_rank, lp_maximum

_DECAY_DROP = 45.0          # required drop of log f along each axis
_PROBE_LIMIT = 2000.0       # how far out to look for the drop
# probe radii 1, 1.5, 1.5^2, ... up to the first one past _PROBE_LIMIT
_PROBE_RADII = 1.5 ** np.arange(math.ceil(math.log(_PROBE_LIMIT, 1.5)) + 1)
_NODE_BUDGET = 1 << 17      # tensor nodes summed per vectorised chunk
_PASS_NODE_LIMIT = 1 << 24  # most nodes one tensor pass may sum


@dataclass
class QuadratureSpec:
    exponents: List[Tuple[int, ...]]
    coefficients: List[float]
    alpha: List[float]
    beta: float
    target_tolerance: float = 1e-8

    def __post_init__(self):
        self.ndim = len(self.alpha)
        if any(len(e) != self.ndim for e in self.exponents):
            raise DimensionMismatch("exponent/alpha dimension mismatch")
        if len(self.exponents) != len(self.coefficients):
            raise DimensionMismatch("one coefficient per exponent required")
        if not all(0 < c < math.inf for c in self.coefficients):
            raise NonPositiveCoefficient(
                "coefficients must be positive and finite")


@dataclass
class QuadratureResult:
    value: float
    error: float
    method: str
    nodes: int
    target_met: bool        # error <= target_tolerance * |value|, box sized
    dims: int               # variables integrated numerically
    margin: float           # convergence_margin of the reduced integrand

    def to_dict(self) -> dict:
        return dict(vars(self))


class Factor(NamedTuple):
    """sum_t exp(logc_t) z^expmat_t, raised to the power -beta."""
    expmat: np.ndarray
    logc: np.ndarray
    beta: float


@dataclass
class Integrand:
    """exp(log_prefactor) z^alpha prod_k g_k^-beta_k; step_margin is the
    least min(a, b - a)/b over the Beta steps that produced it (1 before
    any)."""
    alpha: np.ndarray
    factors: List[Factor]
    log_prefactor: float = 0.0
    step_margin: float = 1.0

    @classmethod
    def from_spec(cls, spec: QuadratureSpec) -> "Integrand":
        return cls(np.asarray(spec.alpha, dtype=float), []).times(
            np.reshape(spec.exponents, (-1, spec.ndim)),
            np.log(spec.coefficients), spec.beta)

    @property
    def ndim(self) -> int:
        return len(self.alpha)

    def log(self, points: np.ndarray) -> np.ndarray:
        """log f at an (..., N) array of chart points x (z = e^x)."""
        out = points @ self.alpha + self.log_prefactor
        for expmat, logc, beta in self.factors:
            terms = points @ expmat.T + logc
            top = terms.max(axis=-1)
            out = out - beta * (top + np.log(
                np.exp(terms - top[..., None]).sum(axis=-1)))
        return out

    def times(self, expmat: np.ndarray, logc: np.ndarray,
              beta: float) -> "Integrand":
        """This integrand times g^-beta, g divided by its monomial content;
        a single-term g only moves alpha and the prefactor."""
        content = expmat.min(axis=0)
        alpha = self.alpha - beta * content
        if len(logc) == 1:
            return replace(self, alpha=alpha, log_prefactor=self.log_prefactor
                           - beta * float(logc[0]))
        return replace(self, alpha=alpha, factors=self.factors + [
            Factor(expmat - content, logc, beta)])


def reduce_linear(f: Integrand) -> Integrand:
    """Integrate out a variable that appears in exactly one factor g, with
    degree 1 there, and repeat until there is none."""
    for i in range(f.ndim):
        holders = [g for g in f.factors if g.expmat[:, i].any()]
        if len(holders) != 1 or holders[0].expmat[:, i].max() > 1:
            continue
        g, a = holders[0], float(f.alpha[i])
        if not 0.0 < a < g.beta:
            raise NonConvergent(f"the Beta integral B({a:.6g}, "
                                f"{g.beta - a:.6g}) over z{i + 1} diverges")
        keep, x = np.arange(f.ndim) != i, g.expmat[:, i] == 1
        rest = Integrand(f.alpha[keep],
                         [Factor(h.expmat[:, keep], h.logc, h.beta)
                          for h in f.factors if h is not g],
                         f.log_prefactor + math.lgamma(a)
                         + math.lgamma(g.beta - a) - math.lgamma(g.beta),
                         min(f.step_margin, a / g.beta, 1.0 - a / g.beta))
        return reduce_linear(
            rest.times(g.expmat[x][:, keep], g.logc[x], a).times(
                g.expmat[~x][:, keep], g.logc[~x], g.beta - a))
    return f


def convergence_margin(f: Integrand) -> float:
    """How far the integral of f is from diverging; positive exactly when it
    converges.  It is the smaller of f.step_margin and the margin of alpha
    inside sum_k beta_k Newt(g_k) on the variables left:
      none: nothing to add;
      one: min(alpha, D - alpha)/D with D = sum_k beta_k deg g_k (every g_k
        has lowest degree 0);
      two or more: the largest delta with alpha = sum_k beta_k sum_t
        lambda_kt a_kt, sum_t lambda_kt = 1 for each k and every
        lambda_kt >= delta, from one linear program solved exactly in
        rational arithmetic on the exact values of alpha and beta_k and
        returned as the float of its optimum (for a single factor, the
        margin of alpha/beta inside Newt(g)); -1 when no lambda fits or the
        sum of the Newton polytopes is not full-dimensional.
    Also -1 when some beta_k <= 0: the oracle meets such a factor only alone,
    where it bounds the integrand below by a monomial, never integrable."""
    if any(g.beta <= 0 for g in f.factors):
        return -1.0
    if f.ndim == 0:
        return f.step_margin
    if f.ndim == 1:
        top = sum(g.beta * float(g.expmat.max()) for g in f.factors)
        a = float(f.alpha[0])
        return min(f.step_margin, a / top, 1.0 - a / top) if top > 0 else -1.0
    if not f.factors or integer_rank(np.vstack(
            [g.expmat - g.expmat[0] for g in f.factors]).tolist()) < f.ndim:
        return -1.0
    # lambda_kt = mu_kt + delta with every mu_kt >= 0, and the free delta
    # split as delta_plus - delta_minus; each entry is its float's exact value
    owner = [k for k, g in enumerate(f.factors) for _ in g.logc]
    scaled = [[Fraction(float(g.beta)) * e for e in row]
              for g in f.factors for row in g.expmat.tolist()]
    rows = [list(col) for col in zip(*scaled)]
    rows += [[int(j == k) for j in owner] for k in range(len(f.factors))]
    delta = lp_maximum([0] * len(owner) + [1, -1],
                       [row + [sum(row), -sum(row)] for row in rows],
                       [Fraction(float(a)) for a in f.alpha]
                       + [1] * len(f.factors))
    if delta is None:
        return -1.0
    return min(f.step_margin, float(delta))


def _check_convergent(f: Integrand) -> float:
    margin = convergence_margin(f)
    if margin <= 1e-9:
        raise NonConvergent(
            "alpha lies outside the interior of sum_k beta_k Newt(g_k), or a "
            f"beta_k <= 0 (margin {margin:.3g}); the integral diverges")
    return margin


def _axis_truncations(f: Integrand) -> Tuple[List[float], bool]:
    """Half-width per axis of the sinh-substituted box, from the first probe
    radius at which log f has dropped _DECAY_DROP below log f(0), both ways,
    and whether the box is sized.  Past the gate log f is concave on the
    chart, so a ray that has not dropped reaches to where its last secant
    does, else to the last radius, unsized.  One call evaluates all rays."""
    rays = list(itertools.product(range(f.ndim), (1.0, -1.0)))
    points = np.zeros((len(rays), len(_PROBE_RADII), f.ndim))
    for row, (axis, direction) in enumerate(rays):
        points[row, :, axis] = direction * _PROBE_RADII
    values = f.log(np.concatenate([np.zeros((1, f.ndim)),
                                   points.reshape(-1, f.ndim)]))
    log_f0, values = values[0], values[1:].reshape(len(rays), -1)
    radii, sized, (r0, r1) = [0.0] * f.ndim, True, _PROBE_RADII[-2:]
    for (axis, _), row in zip(rays, values):
        dropped = np.flatnonzero(row <= log_f0 - _DECAY_DROP)
        if len(dropped):
            radius = _PROBE_RADII[dropped[0]]
        elif row[-1] < row[-2]:
            radius = r1 + (r1 - r0) * (row[-1] - log_f0 + _DECAY_DROP) / (
                row[-2] - row[-1])
        else:
            radius, sized = r1, False
        radii[axis] = max(radii[axis], float(radius))
    return [math.asinh(r) + 0.4 for r in radii], sized


def _pass_nodes(vmaxes: Sequence[float], step: float) -> int:
    """Nodes of the _tensor_pass grid at this step."""
    return math.prod(len(np.arange(-v, v + 0.5 * step, step)) for v in vmaxes)


def _tensor_pass(f: Integrand, vmaxes: Sequence[float],
                 step: float) -> Tuple[float, int]:
    """Trapezoid sum over the whole grid, in chunks of whole first-axis
    slices: about _NODE_BUDGET nodes, and never less than one slice."""
    axes = [np.arange(-v, v + 0.5 * step, step) for v in vmaxes]
    x, logw = [np.sinh(u) for u in axes], [np.log(np.cosh(u)) for u in axes]
    nodes = math.prod(map(len, axes))
    rows, total = max(1, _NODE_BUDGET * len(axes[0]) // nodes), 0.0
    for s in range(0, len(axes[0]), rows):
        points = np.stack(np.meshgrid(x[0][s:s + rows], *x[1:], indexing="ij"),
                          axis=-1)
        total += float(np.exp(f.log(points) + sum(np.meshgrid(
            logw[0][s:s + rows], *logw[1:], indexing="ij", sparse=True))).sum())
    return total * step ** f.ndim, nodes


def tanh_sinh_tensor(f: Integrand, target: float,
                     margin: float) -> QuadratureResult:
    """Tensor-product double-exponential rule, halving the step until two
    passes agree to the relative target, the step falls below 0.02, or the
    next pass would sum more than _PASS_NODE_LIMIT nodes; target_met then
    says whether the box was sized and the last two passes agreed.  The first
    step is 0.2, doubled while its half would not fit (in 4-D, or in 3-D
    with a box extended past the probe radii)."""
    vmaxes, sized = _axis_truncations(f)
    step = 0.2
    while _pass_nodes(vmaxes, step / 2) > _PASS_NODE_LIMIT:
        step *= 2
    value = _tensor_pass(f, vmaxes, step)[0]
    while step > 0.02 and _pass_nodes(vmaxes, step / 2) <= _PASS_NODE_LIMIT:
        step /= 2
        refined, nodes = _tensor_pass(f, vmaxes, step)
        error, value = abs(refined - value), refined
        if error <= target * abs(value):
            break
    return QuadratureResult(value, error, "tanh-sinh-tensor", nodes, sized
                            and error <= target * abs(value), f.ndim, margin)


def quadrature(spec: QuadratureSpec) -> QuadratureResult:
    if spec.ndim > 4:
        raise DimensionMismatch("quadrature oracle supports up to 4 variables")
    f = reduce_linear(Integrand.from_spec(spec))
    margin = _check_convergent(f)   # exact, on what the reduction left
    if f.ndim == 0:
        return QuadratureResult(math.exp(f.log_prefactor), 0.0,
                                "closed-form", 0, True, 0, margin)
    return tanh_sinh_tensor(f, spec.target_tolerance, margin)
