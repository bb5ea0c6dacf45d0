"""Lee-Pomeransky data from a momentum-space graph description.

A graph is given propagator-by-propagator: D_i = k.M_i.k + 2 Q_i.(k|p) + J_i
with M_i a symmetric L x L bilinear form in the loop momenta, Q_i an L x E
coupling to the external momenta (zero when omitted) and J_i a kinematic
scalar.  From the z-weighted sums M, Q, J the two Symanzik polynomials are

    U = det(M),   F = U J + sum_{s<=t} c_st det[[M, Q_t], [Q_s^T, 0]]

with Q_t column t of Q, c_ss = p_s.p_s and c_st = p_s.p_t + p_t.p_s: M is
symmetric, so the bordered determinants for (s, t) and (t, s) are equal
and each is taken once.  The integrand polynomial is g = U + F.  Scalar
products p_s.p_t are expanded over a user-supplied table of invariant
symbols.  M and Q hold no invariants, so the determinants run on rational
polynomials in z, and the invariants enter linearly once, through J and
the c_st, when the terms of F are summed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping

from .errors import DimensionMismatch, SingularM
from .gammafn import GammaFactor
from .kpoly import (Coeff, KPoly, RPoly, coeff_add, coeff_from,
                    coeff_to_dict, det, exact, rational_json)
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
        """Inverse of to_dict; DimensionMismatch for a momentum product not
        keyed p<s>.p<t> with 1 <= s, t <= E, or a symbol in J or a momentum
        product that is neither "1" nor one of the declared invariants."""
        L, E = data["L"], data["E"]
        declared = {"1", *data.get("invariants", [])}

        def coeff(expr: Mapping) -> Coeff:
            if undeclared := sorted(set(expr) - declared):
                raise DimensionMismatch("undeclared invariant "
                                        + ", ".join(map(repr, undeclared)))
            return coeff_from(expr)

        props = [Propagator(
            M=[[Fraction(x) for x in row] for row in p["M"]],
            Q=[[Fraction(x) for x in row] for row in p.get("Q", [[0] * E] * L)],
            J=coeff(p.get("J", {})),
        ) for p in data["propagators"]]
        mp, given = [[{} for _ in range(E)] for _ in range(E)], {}
        for key, expr in data.get("momentum_products", {}).items():
            if not (match := re.fullmatch(r"p(\d+)\.p(\d+)", key)):
                raise DimensionMismatch(f"momentum product {key!r} is not "
                                        "written p<s>.p<t>")
            s, t = (int(index) - 1 for index in match.groups())
            if not (0 <= s < E and 0 <= t < E):
                raise DimensionMismatch(f"momentum product {key!r} names a "
                                        f"momentum outside p1..p{E}")
            product = coeff(expr)
            if given.setdefault((min(s, t), max(s, t)), product) != product:
                raise DimensionMismatch(f"momentum product {key!r} differs "
                                        "from its mirror")
            mp[s][t] = mp[t][s] = product
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


def symanzik(spec: GraphSpec):
    """Return (U, F, g) with g = U + F."""
    n, props = spec.n, spec.propagators
    # a monomial in z1..zn is one int, width bits per exponent, so that
    # monomials multiply by adding; no exponent in U or F exceeds L + 1
    width = (spec.L + 1).bit_length()
    units, mask = [1 << width * i for i in range(n)], (1 << width) - 1

    def linear(entries) -> RPoly:
        return {unit: exact(x) for unit, x in zip(units, entries) if x}

    M = [[linear(p.M[r][c] for p in props) for c in range(spec.L)]
         for r in range(spec.L)]
    Q = [[linear(p.Q[r][s] for p in props) for s in range(spec.E)]
         for r in range(spec.L)]
    U = det(M)
    if not U:
        raise SingularM("det(M) vanishes identically")
    F: Dict[int, Coeff] = {}

    def add(poly: RPoly, coeff: Coeff, shift: int = 0):
        for expo, q in poly.items():
            term = F.setdefault(expo + shift, {})
            for mono, c in coeff.items():
                term[mono] = term.get(mono, 0) + q * c

    for unit, prop in zip(units, props):
        if prop.J:
            add(U, prop.J, unit)
    products = spec.momentum_products
    for s in range(spec.E):
        for t in range(s, spec.E):
            # D_st = D_ts as M is symmetric: one determinant per pair
            pair = (products[s][s] if s == t
                    else coeff_add(products[s][t], products[t][s]))
            if pair:
                add(det([m + [q[t]] for m, q in zip(M, Q)]
                        + [[q[s] for q in Q] + [{}]]), pair)

    def unpacked(terms) -> KPoly:
        return KPoly(n, {tuple(key >> width * i & mask for i in range(n)):
                         {mono: exact(q) for mono, q in coeff.items() if q}
                         for key, coeff in terms.items()})

    U, F = unpacked({key: {(): q} for key, q in U.items()}), unpacked(F)
    return U, F, U + F


def prefactor(L: int, nprop: int) -> GammaFactor:
    """Gamma(d/2) / [Gamma((L+1)d/2 - sum(alpha)) * prod Gamma(alpha_i)]
    written with beta = d/2."""
    names = [f"a{i + 1}" for i in range(nprop)]
    exponent = ParamLinear.from_integers(
        {"beta": L + 1, **dict.fromkeys(names, -1)}, 0)
    return GammaFactor(numerator=[ParamLinear.param("beta")],
                       denominator=[exponent] + list(map(ParamLinear.param,
                                                         names)))
