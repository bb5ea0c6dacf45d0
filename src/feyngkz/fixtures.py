"""Built-in worked examples, from the simplest Gauss system to the box.

Weight vectors are chosen so each system is solvable.  The stated kinematic
points are not all inside the region where the series and the integral
converge: massless-bubble, triangle-1scale and cantaloupe-2 sit at |x| = 1,
one-mass-bubble at |x| = 1.5, and party-hat, sunset-1mass (both also at
|x| = 1), box and triangle-3scale are stated at exponents where the integral
diverges.  The acceptance tests and perfbench pick interior points of their
own.  ``fixtures()`` returns fresh ProblemSpec objects keyed by name.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from .graphs import GraphSpec, Propagator
from .kpoly import coeff_const, coeff_from
from .pipeline import ProblemSpec

HALF = Fraction(1, 2)


def _graph(L, E, props, invariants, products):
    return GraphSpec(
        L=L, E=E,
        propagators=[Propagator(M=[[Fraction(x) for x in row] for row in M],
                                Q=[[Fraction(x) for x in row] for row in Q],
                                J=coeff_from(J))
                     for M, Q, J in props],
        invariants=invariants,
        momentum_products=[[coeff_from(products.get((min(s, t), max(s, t)), {}))
                            for t in range(E)] for s in range(E)])


def two_f1_double() -> ProblemSpec:
    """(c1 + c2 z1 + c3 z2 + c4 z1 z2)^(-beta): the double-integral Gauss
    system."""
    return ProblemSpec(
        name="2f1-double",
        terms=[((0, 0), coeff_const(1)), ((1, 0), coeff_const(1)),
               ((0, 1), coeff_const(1)), ((1, 1), coeff_const(1))],
        weight=(0, 1, 1, 1), deformation="none",
        alpha=[0.3, 0.7], d=3.8, coefficients=[1.0, 1.0, 1.0, 2.0],
        order=40)


def two_f1_single() -> ProblemSpec:
    """(c1 + c2 z)^(-b1) (c3 + c4 z)^(-b2): same kernel, block A matrix."""
    spec = ProblemSpec(name="2f1-single", weight=(0, 1, 1, 1))
    from .gkz import AMatrix
    spec.amatrix = AMatrix([[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]])
    spec.kappa_names = ["beta1", "beta2", "alpha"]
    spec.parameters = {"beta1": 0.8, "beta2": 0.7, "alpha": 0.55}
    return spec


def massless_bubble() -> ProblemSpec:
    graph = _graph(
        L=1, E=1,
        props=[([[1]], [[0]], {}),
               ([[1]], [[-1]], {"s": 1})],
        invariants=["s"],
        products={(0, 0): {"s": 1}})
    return ProblemSpec(name="massless-bubble", graph=graph,
                       weight=(1, 0, 0, 0), alpha=[1.3, 1.3], d=3.8,
                       kinematics={"s": 1.0}, order=60)


def one_mass_bubble() -> ProblemSpec:
    graph = _graph(
        L=1, E=1,
        props=[([[1]], [[0]], {}),
               ([[1]], [[-1]], {"s": 1, "m2": 1})],
        invariants=["s", "m2"],
        products={(0, 0): {"s": 1}})
    return ProblemSpec(name="one-mass-bubble", graph=graph,
                       weight=(0, 1, 1, 1), alpha=[0.3, 0.4], d=3.8,
                       kinematics={"s": 0.5, "m2": 1.0}, order=60)


def triangle_1scale() -> ProblemSpec:
    graph = _graph(
        L=1, E=2,
        props=[([[1]], [[-1, 0]], {}),
               ([[1]], [[0, 1]], {}),
               ([[1]], [[0, 0]], {})],
        invariants=["s"],
        products={(0, 1): {"s": HALF}})
    return ProblemSpec(name="triangle-1scale", graph=graph,
                       weight=(1, 0, 0, 0, 0), alpha=[0.9, 0.9, 0.7], d=3.8,
                       kinematics={"s": 1.0}, order=60)


def triangle_3scale() -> ProblemSpec:
    graph = _graph(
        L=1, E=2,
        props=[([[1]], [[-1, 0]], {"s1": 1}),
               ([[1]], [[0, 1]], {"s2": 1}),
               ([[1]], [[0, 0]], {})],
        invariants=["s1", "s2", "s3"],
        products={(0, 0): {"s1": 1}, (1, 1): {"s2": 1},
                  (0, 1): {"s3": HALF, "s1": -HALF, "s2": -HALF}})
    return ProblemSpec(name="triangle-3scale", graph=graph,
                       weight=(0, 0, 1, 0, 0, 0), alpha=[0.3, 0.35, 0.4],
                       d=3.8, kinematics={"s1": 0.02, "s2": 1.0, "s3": 0.03},
                       order=30)


def cantaloupe_2() -> ProblemSpec:
    """Two-loop chain of three propagators: codim 0, cantaloupe-shaped."""
    graph = _graph(
        L=2, E=1,
        props=[([[1, 0], [0, 0]], [[-1], [0]], {"s": 1}),
               ([[1, -1], [-1, 1]], [[0], [0]], {}),
               ([[0, 0], [0, 1]], [[0], [0]], {})],
        invariants=["s"],
        products={(0, 0): {"s": 1}})
    return ProblemSpec(name="cantaloupe-2", graph=graph,
                       weight=(1, 0, 0, 0, 0), alpha=[1.3, 1.3, 1.4], d=3.8,
                       kinematics={"s": 1.0}, order=60)


def sunset_1mass() -> ProblemSpec:
    """Two-loop sunset with one massive line, on the slice s = m^2 (the
    middle Symanzik term cancels there, leaving a five-term polynomial)."""
    graph = _graph(
        L=2, E=1,
        props=[([[1, 0], [0, 0]], [[-1], [0]], {"m2": -1}),
               ([[1, -1], [-1, 1]], [[0], [0]], {"m2": 1}),
               ([[0, 0], [0, 1]], [[0], [0]], {})],
        invariants=["m2"],
        products={(0, 0): {"m2": -1}})
    return ProblemSpec(name="sunset-1mass", graph=graph,
                       weight=(0, 1, 1, 1, 1), alpha=[0.3, 0.35, 0.4], d=3.8,
                       kinematics={"m2": 1.0}, order=60)


def party_hat() -> ProblemSpec:
    """Two-loop three-point graph with one off-shell leg."""
    graph = _graph(
        L=2, E=2,
        props=[([[0, 0], [0, 1]], [[0, 0], [0, 0]], {}),
               ([[0, 0], [0, 1]], [[0, 0], [0, -1]], {}),
               ([[1, -1], [-1, 1]], [[0, 0], [0, 0]], {}),
               ([[1, 0], [0, 0]], [[-1, 0], [0, 0]], {})],
        invariants=["s"],
        products={(0, 1): {"s": -HALF}})
    return ProblemSpec(name="party-hat", graph=graph,
                       weight=(0, 1, 1, 1, 1, 1),
                       alpha=[0.3, 0.35, 0.4, 0.45], d=3.8,
                       kinematics={"s": 0.5}, order=60)


def box() -> ProblemSpec:
    """One-loop massless box with on-shell legs."""
    graph = _graph(
        L=1, E=3,
        props=[([[1]], [[-1, 0, 0]], {}),
               ([[1]], [[0, 1, 1]], {"t": 1}),
               ([[1]], [[0, 1, 0]], {}),
               ([[1]], [[0, 0, 0]], {})],
        invariants=["s", "t"],
        products={(0, 1): {"s": HALF}, (1, 2): {"t": HALF},
                  (0, 2): {"s": -HALF, "t": -HALF}})
    return ProblemSpec(name="box", graph=graph, weight=(0, 1, 0, 0, 0, 0),
                       alpha=[0.31, 0.27, 0.29, 0.33], d=3.8,
                       kinematics={"s": 0.3, "t": 1.0}, order=60,
                       tolerance=1e-3)


def fixtures() -> Dict[str, ProblemSpec]:
    builders = [two_f1_double, two_f1_single, massless_bubble,
                triangle_1scale, cantaloupe_2, one_mass_bubble, sunset_1mass,
                party_hat, box, triangle_3scale]
    return {spec.name: spec for spec in (build() for build in builders)}
