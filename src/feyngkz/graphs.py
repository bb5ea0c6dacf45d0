"""Lee-Pomeransky data from a momentum-space graph description.

A graph is given propagator-by-propagator: D_i = k.M_i.k + 2 Q_i.(k|p) + J_i
with M_i a symmetric L x L bilinear form in the loop momenta, Q_i an L x E
coupling to the external momenta (zero when omitted) and J_i a kinematic
scalar.  From the z-weighted sums M, Q, J the two Symanzik polynomials are

    U = det(M),   F = U J + sum_{s,t} (p_s.p_t) det[[M, Q_t], [Q_s^T, 0]]

with Q_t column t of Q; each bordered determinant is -Q_s^T adj(M) Q_t.
The integrand polynomial is g = U + F.  Scalar products p_s.p_t are
expanded over a user-supplied table of invariant symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Mapping

from .errors import DimensionMismatch, SingularM
from .gammafn import GammaFactor
from .kpoly import (Coeff, KPoly, coeff_const, coeff_from, coeff_to_dict,
                    det, rational_json)
from .params import ParamLinear


@dataclass
class Propagator:
    M: List[List[Fraction]]          # L x L, symmetric
    Q: List[List[Fraction]]          # L x E
    J: Coeff                         # kinematic scalar


@dataclass
class GraphSpec:
    L: int
    E: int
    propagators: List[Propagator]
    invariants: List[str]
    # p_s . p_t expansions, symmetric E x E table of invariant combinations
    momentum_products: List[List[Coeff]] = field(default_factory=list)

    def __post_init__(self):
        for prop in self.propagators:
            if len(prop.M) != self.L or any(len(r) != self.L for r in prop.M):
                raise DimensionMismatch("M block must be L x L")
            if list(map(list, zip(*prop.M))) != list(map(list, prop.M)):
                raise DimensionMismatch("M block must be symmetric")
            if len(prop.Q) != self.L or any(len(r) != self.E for r in prop.Q):
                raise DimensionMismatch("Q block must be L x E")
        if not self.momentum_products:
            self.momentum_products = [[{} for _ in range(self.E)]
                                      for _ in range(self.E)]

    @property
    def n(self) -> int:
        return len(self.propagators)

    @classmethod
    def from_dict(cls, data: Mapping) -> "GraphSpec":
        L, E = data["L"], data["E"]
        props = [Propagator(
            M=[[Fraction(x) for x in row] for row in p["M"]],
            Q=[[Fraction(x) for x in row] for row in p.get("Q", [[0] * E] * L)],
            J=coeff_from(p.get("J", {})),
        ) for p in data["propagators"]]
        mp = [[{} for _ in range(E)] for _ in range(E)]
        for key, expr in data.get("momentum_products", {}).items():
            s_name, t_name = key.split(".")
            s, t = int(s_name.lstrip("p")) - 1, int(t_name.lstrip("p")) - 1
            mp[s][t] = coeff_from(expr)
            mp[t][s] = coeff_from(expr)
        return cls(L=L, E=E, propagators=props,
                   invariants=list(data.get("invariants", [])),
                   momentum_products=mp)

    def to_dict(self) -> dict:
        """Inverse of from_dict."""
        def rows(block):
            return [[rational_json(x) for x in row] for row in block]
        mp = self.momentum_products
        products = {f"p{s + 1}.p{t + 1}": coeff_to_dict(mp[s][t])
                    for s in range(self.E) for t in range(s, self.E)
                    if mp[s][t]}
        return {"L": self.L, "E": self.E,
                "propagators": [{"M": rows(p.M), "Q": rows(p.Q),
                                 "J": coeff_to_dict(p.J)}
                                for p in self.propagators],
                "invariants": list(self.invariants),
                "momentum_products": products}


def assemble_mqj(spec: GraphSpec):
    """z-weighted sums (M, Q, J) as polynomial matrices in z1..zn: each
    entry is sum_i z_i x_i over its per-propagator entries x_i."""
    n, props = spec.n, spec.propagators
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]

    def linear(entries) -> KPoly:
        return KPoly(n, dict(zip(units, entries)))

    M = [[linear(coeff_const(p.M[r][c]) for p in props)
          for c in range(spec.L)] for r in range(spec.L)]
    Q = [[linear(coeff_const(p.Q[r][s]) for p in props)
          for s in range(spec.E)] for r in range(spec.L)]
    return M, Q, linear(p.J for p in props)


def symanzik(spec: GraphSpec):
    """Return (U, F, g) with g = U + F."""
    M, Q, J = assemble_mqj(spec)
    U = det(M)
    if U.is_zero():
        raise SingularM("det(M) vanishes identically")
    F = U * J
    for s, products in enumerate(spec.momentum_products):
        for t, product in enumerate(products):
            if product:
                bordered = ([m + [q[t]] for m, q in zip(M, Q)]
                            + [[q[s] for q in Q] + [KPoly.zero(spec.n)]])
                F = F + det(bordered).scale(product)
    return U, F, U + F


def prefactor(L: int, nprop: int) -> GammaFactor:
    """Gamma(d/2) / [Gamma((L+1)d/2 - sum(alpha)) * prod Gamma(alpha_i)]
    written with beta = d/2."""
    beta = ParamLinear.param("beta")
    alphas = [ParamLinear.param(f"a{i + 1}") for i in range(nprop)]
    total = ParamLinear()
    for a in alphas:
        total = total + a
    return GammaFactor(numerator=[beta],
                       denominator=[beta * (L + 1) - total] + alphas)
