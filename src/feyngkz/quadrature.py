"""Direct numeric evaluation of  I = int_{R_+^N} z^alpha g(z)^-beta dz/z.

A linear program decides exactly whether I converges (alpha/beta in the
interior of the Newton polytope of g).  On the integrand exp(c) z^alpha
prod_k g_k^-beta_k, each variable found in one factor only, with degree 1
there, is integrated out: int_0^inf x^a (x P + Q)^-b dx/x = B(a, b-a) P^-a
Q^(a-b).  What is left is summed on the chart z = e^x with a sinh
substitution per axis: a tensor trapezoid rule for 1-3 variables, a
scrambled Sobol rule for 4.  Nothing left means a closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.stats import qmc

from .errors import DimensionMismatch, NonConvergent

_DECAY_DROP = 45.0          # required drop of log f along each axis
_PROBE_LIMIT = 2000.0       # how far out to look for the drop
_NODE_BUDGET = 1 << 17      # tensor nodes summed per vectorised chunk


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
        if any(c <= 0 for c in self.coefficients):
            raise ValueError("coefficients must be positive")


@dataclass
class QuadratureResult:
    value: float
    error: float
    method: str
    nodes: int
    target_met: bool        # error <= target_tolerance * |value|
    dims: int               # variables integrated numerically

    def to_dict(self) -> dict:
        return dict(vars(self))


class Factor(NamedTuple):
    """sum_t exp(logc_t) z^expmat_t, raised to the power -beta."""
    expmat: np.ndarray
    logc: np.ndarray
    beta: float


@dataclass
class Integrand:
    """exp(log_prefactor) z^alpha prod_k g_k^-beta_k."""
    alpha: np.ndarray
    factors: List[Factor]
    log_prefactor: float = 0.0

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
            return Integrand(alpha, self.factors,
                             self.log_prefactor - beta * float(logc[0]))
        return Integrand(alpha, self.factors + [
            Factor(expmat - content, logc, beta)], self.log_prefactor)


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
                         + math.lgamma(g.beta - a) - math.lgamma(g.beta))
        return reduce_linear(
            rest.times(g.expmat[x][:, keep], g.logc[x], a).times(
                g.expmat[~x][:, keep], g.logc[~x], g.beta - a))
    return f


def convergence_margin(spec: QuadratureSpec) -> float:
    """Largest delta such that alpha/beta = sum_t lambda_t a_t with all
    lambda_t >= delta; positive exactly when alpha/beta lies in the interior
    of the Newton polytope of g, i.e. when the integral converges."""
    expmat = np.asarray(spec.exponents, dtype=float)
    nterms = expmat.shape[0]
    # variables: (lambda_1..lambda_T, delta); maximize delta
    cost = np.zeros(nterms + 1)
    cost[-1] = -1.0
    a_eq = np.zeros((spec.ndim + 1, nterms + 1))
    a_eq[:spec.ndim, :nterms] = expmat.T
    a_eq[spec.ndim, :nterms] = 1.0
    b_eq = np.append(np.asarray(spec.alpha, dtype=float) / spec.beta, 1.0)
    a_ub = np.hstack([-np.eye(nterms), np.ones((nterms, 1))])
    result = linprog(cost, A_ub=a_ub, b_ub=np.zeros(nterms),
                     A_eq=a_eq, b_eq=b_eq,
                     bounds=[(None, None)] * (nterms + 1))
    if not result.success:
        return -1.0
    return float(result.x[-1])


def _check_convergent(spec: QuadratureSpec):
    margin = convergence_margin(spec)
    if margin <= 1e-9:
        raise NonConvergent(
            "alpha/beta lies outside the interior of the Newton polytope "
            f"of g (margin {margin:.3g}); the integral diverges")


def _axis_truncations(f: Integrand) -> List[float]:
    """Half-width per axis of the sinh-substituted box, from the radius at
    which log f has dropped _DECAY_DROP below log f(0) both ways; raises
    NonConvergent when the integrand fails to decay."""
    log_f0 = float(f.log(np.zeros(f.ndim)))
    radii = [0.0] * f.ndim
    for axis, direction in itertools.product(range(f.ndim), (1.0, -1.0)):
        r, previous = 1.0, log_f0
        while True:
            value = float(f.log(direction * r * np.eye(f.ndim)[axis]))
            if value <= log_f0 - _DECAY_DROP:
                break
            if r >= _PROBE_LIMIT:
                raise NonConvergent(
                    f"integrand does not decay along axis {axis + 1} "
                    f"(direction {direction:+.0f})")
            if value > previous + 1e-12 and r > 32:
                raise NonConvergent(f"integrand grows along axis {axis + 1}")
            previous, r = value, r * 1.5
        radii[axis] = max(radii[axis], r)
    return [math.asinh(r) + 0.4 for r in radii]


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


def tanh_sinh_tensor(f: Integrand, target: float) -> QuadratureResult:
    """Tensor-product double-exponential rule, halving the step until two
    passes agree to the relative target or the step falls below 0.02."""
    vmaxes = _axis_truncations(f)
    value = _tensor_pass(f, vmaxes, 0.2)[0]
    for step in (0.1, 0.05, 0.025, 0.0125):
        refined, nodes = _tensor_pass(f, vmaxes, step)
        error, value = abs(refined - value), refined
        if error <= target * abs(value):
            break
    return QuadratureResult(value, error, "tanh-sinh-tensor", nodes,
                            error <= target * abs(value), f.ndim)


def qmc_sobol(spec: QuadratureSpec, log2_points: int = 18,
              replicates: int = 8, seed: int = 20240) -> QuadratureResult:
    """Scrambled Sobol rule on the sinh-transformed box (quadrature uses it
    when the reduction leaves 4 variables)."""
    _check_convergent(spec)
    f = Integrand.from_spec(spec)
    vmaxes = np.array(_axis_truncations(f))
    estimates = []
    for rep in range(replicates):
        sampler = qmc.Sobol(d=f.ndim, scramble=True, seed=seed + rep)
        v = (2.0 * sampler.random_base2(m=log2_points) - 1.0) * vmaxes
        logw = np.sum(np.log(2.0 * vmaxes) + np.log(np.cosh(v)), axis=1)
        estimates.append(float(np.mean(np.exp(f.log(np.sinh(v)) + logw))))
    value = float(np.mean(estimates))
    error = 2.0 * float(np.std(estimates, ddof=1)) / math.sqrt(replicates)
    return QuadratureResult(value, error, "qmc-sobol",
                            replicates * 2 ** log2_points,
                            error <= spec.target_tolerance * abs(value), f.ndim)


def quadrature(spec: QuadratureSpec) -> QuadratureResult:
    if spec.ndim > 4:
        raise DimensionMismatch("quadrature oracle supports up to 4 variables")
    _check_convergent(spec)         # exact, on the original g
    f = reduce_linear(Integrand.from_spec(spec))
    if f.ndim == 0:
        return QuadratureResult(math.exp(f.log_prefactor), 0.0,
                                "closed-form", 0, True, 0)
    if f.ndim <= 3:
        return tanh_sinh_tensor(f, spec.target_tolerance)
    result = qmc_sobol(spec)
    return result if result.target_met else qmc_sobol(spec, log2_points=20)
