"""Built-in worked examples, from the simplest Gauss system to the box.

Each example is a problem-spec document, written exactly as
``ProblemSpec.from_dict`` reads it and as ``feyngkz fixtures --name X
--json`` prints it (keys left at their defaults are omitted), so every
fixture passes the checks that a user's spec passes.

Weight vectors are chosen so each system is solvable.  Only 2f1-double's
and 2f1-single's stated points (2f1-single is an A matrix, the integral of
its Cayley polynomial) lie where the series and the integral converge:
massless-bubble, triangle-1scale and cantaloupe-2 sit at |x| = 1,
one-mass-bubble at |x| = 1.5, and party-hat, sunset-1mass (both also at
|x| = 1), box and triangle-3scale are stated at exponents where the integral
diverges.  The acceptance tests and perfbench pick interior points of their
own.  ``fixtures()`` returns fresh ProblemSpec objects keyed by name.
"""

from __future__ import annotations

from typing import Dict, Optional

from .pipeline import ProblemSpec

DOCUMENTS = {doc["name"]: doc for doc in [
    # (c1 + c2 z1 + c3 z2 + c4 z1 z2)^(-beta): the double-integral Gauss
    # system.
    {"name": "2f1-double", "deformation": "none",
     "polynomial": [{"exponents": [0, 0]}, {"exponents": [1, 0]},
                    {"exponents": [0, 1]}, {"exponents": [1, 1]}],
     "weight": [0, 1, 1, 1], "alpha": [0.3, 0.7], "d": 3.8,
     "coefficients": [1.0, 1.0, 1.0, 2.0]},
    # (c1 + c2 z)^(-b1) (c3 + c4 z)^(-b2) times G(b1) G(b2) / G(b1 + b2): the
    # integral of c1 + c2 z + c3 x + c4 x z, x a Cayley variable.
    {"name": "2f1-single",
     "amatrix": [[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]],
     "kappa": ["beta1", "beta2", "alpha"],
     "weight": [0, 1, 1, 1],
     "parameters": {"beta1": 0.8, "beta2": 0.7, "alpha": 0.55},
     "coefficients": [1.0, 1.0, 1.0, 2.0]},
    {"name": "massless-bubble",
     "graph": {"L": 1, "E": 1,
               "propagators": [{"M": [[1]], "Q": [[0]]},
                               {"M": [[1]], "Q": [[-1]], "J": {"s": 1}}],
               "invariants": ["s"],
               "momentum_products": {"p1.p1": {"s": 1}}},
     "weight": [1, 0, 0, 0], "alpha": [1.3, 1.3], "d": 3.8,
     "kinematics": {"s": 1.0}, "order": 60},
    {"name": "triangle-1scale",
     "graph": {"L": 1, "E": 2,
               "propagators": [{"M": [[1]], "Q": [[-1, 0]]},
                               {"M": [[1]], "Q": [[0, 1]]},
                               {"M": [[1]], "Q": [[0, 0]]}],
               "invariants": ["s"],
               "momentum_products": {"p1.p2": {"s": "1/2"}}},
     "weight": [1, 0, 0, 0, 0], "alpha": [0.9, 0.9, 0.7], "d": 3.8,
     "kinematics": {"s": 1.0}, "order": 60},
    # Two-loop chain of three propagators: codim 0, cantaloupe-shaped.
    {"name": "cantaloupe-2",
     "graph": {"L": 2, "E": 1,
               "propagators": [
                   {"M": [[1, 0], [0, 0]], "Q": [[-1], [0]], "J": {"s": 1}},
                   {"M": [[1, -1], [-1, 1]], "Q": [[0], [0]]},
                   {"M": [[0, 0], [0, 1]], "Q": [[0], [0]]}],
               "invariants": ["s"],
               "momentum_products": {"p1.p1": {"s": 1}}},
     "weight": [1, 0, 0, 0, 0], "alpha": [1.3, 1.3, 1.4], "d": 3.8,
     "kinematics": {"s": 1.0}, "order": 60},
    {"name": "one-mass-bubble",
     "graph": {"L": 1, "E": 1,
               "propagators": [{"M": [[1]], "Q": [[0]]},
                               {"M": [[1]], "Q": [[-1]],
                                "J": {"s": 1, "m2": 1}}],
               "invariants": ["s", "m2"],
               "momentum_products": {"p1.p1": {"s": 1}}},
     "weight": [0, 1, 1, 1], "alpha": [0.3, 0.4], "d": 3.8,
     "kinematics": {"s": 0.5, "m2": 1.0}, "order": 60},
    # Two-loop sunset with one massive line, on the slice s = m^2 (the
    # middle Symanzik term cancels there, leaving a five-term polynomial).
    {"name": "sunset-1mass",
     "graph": {"L": 2, "E": 1,
               "propagators": [
                   {"M": [[1, 0], [0, 0]], "Q": [[-1], [0]], "J": {"m2": -1}},
                   {"M": [[1, -1], [-1, 1]], "Q": [[0], [0]], "J": {"m2": 1}},
                   {"M": [[0, 0], [0, 1]], "Q": [[0], [0]]}],
               "invariants": ["m2"],
               "momentum_products": {"p1.p1": {"m2": -1}}},
     "weight": [0, 1, 1, 1, 1], "alpha": [0.3, 0.35, 0.4], "d": 3.8,
     "kinematics": {"m2": 1.0}, "order": 60},
    # Two-loop three-point graph with one off-shell leg.
    {"name": "party-hat",
     "graph": {"L": 2, "E": 2,
               "propagators": [
                   {"M": [[0, 0], [0, 1]], "Q": [[0, 0], [0, 0]]},
                   {"M": [[0, 0], [0, 1]], "Q": [[0, 0], [0, -1]]},
                   {"M": [[1, -1], [-1, 1]], "Q": [[0, 0], [0, 0]]},
                   {"M": [[1, 0], [0, 0]], "Q": [[-1, 0], [0, 0]]}],
               "invariants": ["s"],
               "momentum_products": {"p1.p2": {"s": "-1/2"}}},
     "weight": [0, 1, 1, 1, 1, 1], "alpha": [0.3, 0.35, 0.4, 0.45],
     "d": 3.8, "kinematics": {"s": 0.5}, "order": 60},
    # One-loop massless box with on-shell legs.
    {"name": "box",
     "graph": {"L": 1, "E": 3,
               "propagators": [{"M": [[1]], "Q": [[-1, 0, 0]]},
                               {"M": [[1]], "Q": [[0, 1, 1]], "J": {"t": 1}},
                               {"M": [[1]], "Q": [[0, 1, 0]]},
                               {"M": [[1]], "Q": [[0, 0, 0]]}],
               "invariants": ["s", "t"],
               "momentum_products": {"p1.p2": {"s": "1/2"},
                                     "p1.p3": {"s": "-1/2", "t": "-1/2"},
                                     "p2.p3": {"t": "1/2"}}},
     "weight": [0, 1, 0, 0, 0, 0], "alpha": [0.31, 0.27, 0.29, 0.33],
     "d": 3.8, "kinematics": {"s": 0.3, "t": 1.0}, "order": 60,
     "tolerance": 1e-3},
    {"name": "triangle-3scale",
     "graph": {"L": 1, "E": 2,
               "propagators": [{"M": [[1]], "Q": [[-1, 0]], "J": {"s1": 1}},
                               {"M": [[1]], "Q": [[0, 1]], "J": {"s2": 1}},
                               {"M": [[1]], "Q": [[0, 0]]}],
               "invariants": ["s1", "s2", "s3"],
               "momentum_products": {"p1.p1": {"s1": 1}, "p2.p2": {"s2": 1},
                                     "p1.p2": {"s3": "1/2", "s1": "-1/2",
                                               "s2": "-1/2"}}},
     "weight": [0, 0, 1, 0, 0, 0], "alpha": [0.3, 0.35, 0.4], "d": 3.8,
     "kinematics": {"s1": 0.02, "s2": 1.0, "s3": 0.03}, "order": 30},
]}


def fixture(name: str) -> Optional[ProblemSpec]:
    """The named fixture alone, None for an unknown name."""
    return ProblemSpec.from_dict(DOCUMENTS[name]) if name in DOCUMENTS else None


def fixtures() -> Dict[str, ProblemSpec]:
    return {name: ProblemSpec.from_dict(doc) for name, doc in DOCUMENTS.items()}
