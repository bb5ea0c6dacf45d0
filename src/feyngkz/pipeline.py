"""End-to-end driver: problem description -> series solution -> verification.

A ProblemSpec describes the input either as a momentum-space graph, as an
explicit polynomial, or (for product-type systems) as a raw configuration
matrix with named row parameters.  ``run`` walks the whole chain and returns
a ResultReport whose ``to_dict`` is JSON-ready.
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple

from . import gkz, graphs
from .constants import SolutionBundle, gamma_constant
from .errors import DimensionMismatch, NonFiniteValue
from .gammafn import GammaFactor
from .gkz import AMatrix, Deformation, FakeExponent, StandardPair
from .graphs import GraphSpec
from .kpoly import Coeff, KPoly, coeff_evaluate, coeff_from, coeff_to_dict
from .params import FloatMap, ParamLinear
from .quadrature import QuadratureResult, QuadratureSpec, quadrature
from .series import CanonicalSeries, HypergeometricForm, LatticeShapes


def series_order(value) -> int:
    """A spec's or --order's series order, an integer or its text:
    ValueError unless it is an integer >= 0 (2.5 and true are refused)."""
    order = int(value)
    if (isinstance(value, bool) or order < 0
            or not isinstance(value, str) and order != value):
        raise ValueError(f"order {value!r} is not an integer >= 0")
    return order


def spec_integers(values, what: str) -> Tuple[int, ...]:
    """Each entry as an int; DimensionMismatch for a bool, 1.5 or a string."""
    if not all(type(x) in (int, float) and x == int(x) for x in values):
        raise DimensionMismatch(f"{what} {values!r} is not integral")
    return tuple(map(int, values))


def relative_tolerance(value) -> float:
    """A spec's or --tolerance's tolerance: ValueError unless finite, > 0."""
    tolerance = float(value)
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance {value!r} is not finite and > 0")
    return tolerance


_KEYS = {"": "name graph polynomial amatrix kappa weight deformation alpha d "
             "parameters kinematics coefficients order tolerance",
         "graph": "L E propagators invariants momentum_products",
         "propagator": "M Q J", "term": "exponents coeff"}


def unread_keys(data: Mapping) -> List[str]:
    """The keys of a spec document that from_dict does not read, placed as
    in 'weigth' or 'graph.propagators[0].K'; kappa is read beside amatrix."""
    graph = data["graph"] if isinstance(data.get("graph"), Mapping) else {}
    parts = [("", data, ""), ("graph.", graph, "graph")]
    parts += [(f"graph.propagators[{i}].", p, "propagator")
              for i, p in enumerate(graph.get("propagators") or ())]
    parts += [(f"polynomial[{i}].", t, "term")
              for i, t in enumerate(data.get("polynomial") or ())]
    return [f"{place}{key}" for place, part, kind in parts
            if isinstance(part, Mapping) for key in part
            if key not in _KEYS[kind].split()
            or (kind, key) == ("", "kappa") and "amatrix" not in data]


@dataclass
class ProblemSpec:
    name: str = ""
    graph: Optional[GraphSpec] = None
    terms: Optional[List[Tuple[Tuple[int, ...], Coeff]]] = None
    amatrix: Optional[AMatrix] = None
    kappa_names: Optional[List[str]] = None
    weight: Optional[Tuple[int, ...]] = None
    deformation: str = "auto"              # "auto" or "none"
    alpha: Optional[List[float]] = None
    d: Optional[float] = None
    parameters: Optional[Dict[str, float]] = None
    kinematics: Dict[str, float] = field(default_factory=dict)
    coefficients: Optional[List[float]] = None
    order: int = 40
    tolerance: float = 1e-6

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping) -> "ProblemSpec":
        """Inverse of to_dict; DimensionMismatch for a malformed spec."""
        try:
            if unread := unread_keys(data):
                raise DimensionMismatch("unknown spec keys "
                                        + ", ".join(map(repr, unread)))
            spec = cls(name=data.get("name", ""))
            if (("graph" in data) + bool(data.get("polynomial"))
                    + ("amatrix" in data)) > 1:
                raise DimensionMismatch("a spec gives at most one of graph, "
                                        "polynomial and amatrix")
            if "graph" in data:
                spec.graph = GraphSpec.from_dict(data["graph"])
            if data.get("polynomial"):
                spec.terms = [(spec_integers(t["exponents"], "exponents"), coeff_from(
                    t.get("coeff", {"1": 1}))) for t in data["polynomial"]]
                if len({len(e) for e, _ in spec.terms}) != 1:
                    raise DimensionMismatch("polynomial exponent vectors "
                                            "differ in length")
            if "amatrix" in data:
                spec.amatrix = AMatrix([list(spec_integers(r, "amatrix row"))
                                        for r in data["amatrix"]])
                spec.kappa_names = list(data["kappa"])
                if len(spec.kappa_names) != spec.amatrix.nrows:
                    raise DimensionMismatch("kappa needs one name per row of A")
            if "weight" in data:
                spec.weight = spec_integers(data["weight"], "weight")
            spec.deformation = data.get("deformation", "auto")
            if spec.deformation not in ("auto", "none"):
                raise DimensionMismatch(f"deformation {spec.deformation!r} "
                                        "is not 'auto' or 'none'")
            if "alpha" in data:
                spec.alpha = [float(a) for a in data["alpha"]]
            if "d" in data:
                spec.d = float(data["d"])
            if "parameters" in data:
                spec.parameters = {k: float(v) for k, v in data["parameters"].items()}
            spec.kinematics = {k: float(v)
                               for k, v in data.get("kinematics", {}).items()}
            if "coefficients" in data:
                spec.coefficients = [float(c) for c in data["coefficients"]]
            spec.order = series_order(data.get("order", 40))
            spec.tolerance = relative_tolerance(data.get("tolerance", 1e-6))
        except (AttributeError, LookupError, OverflowError, TypeError,
                ValueError) as err:
            raise DimensionMismatch(f"malformed spec: {err!r}") from None
        return spec

    def to_dict(self) -> dict:
        """Inverse of from_dict, JSON-ready."""
        out = {"name": self.name, "deformation": self.deformation,
               "kinematics": dict(self.kinematics), "order": self.order,
               "tolerance": self.tolerance}
        if self.graph is not None:
            out["graph"] = self.graph.to_dict()
        if self.terms is not None:
            out["polynomial"] = [{"exponents": list(e),
                                  "coeff": coeff_to_dict(c)}
                                 for e, c in self.terms]
        if self.amatrix is not None:
            out["amatrix"], out["kappa"] = self.amatrix.rows, self.kappa_names
        optional = {"weight": self.weight, "alpha": self.alpha, "d": self.d,
                    "parameters": self.parameters,
                    "coefficients": self.coefficients}
        out.update((k, v) for k, v in optional.items() if v is not None)
        return copy.deepcopy(out)   # shares nothing with the spec

    # -- derived quantities ------------------------------------------------

    def polynomial(self) -> Optional[KPoly]:
        if self.graph is not None:
            return graphs.symanzik(self.graph)[2]
        if self.terms is not None:
            nvars = len(self.terms[0][0])
            return sum((KPoly.monomial(nvars, expo, coeff)
                        for expo, coeff in self.terms), KPoly.zero(nvars))
        return None

    def assignment(self) -> Dict[str, float]:
        """The named parameters (beta = -sum_j gamma_j is a form in them),
        else beta = d/2 and a1, a2, ... from alpha."""
        if self.parameters is not None:
            return dict(self.parameters)
        values = {} if self.d is None else {"beta": self.d / 2.0}
        values.update((f"a{i + 1}", float(a))
                      for i, a in enumerate(self.alpha or ()))
        return values


@dataclass
class ResultReport:
    """What run found; toric_basis and initial_gens are built when read."""

    spec: ProblemSpec
    polynomial: Optional[KPoly]
    symanzik_u: Optional[KPoly]
    symanzik_f: Optional[KPoly]
    prefactor: Optional[GammaFactor]
    deformation: Deformation
    amatrix: AMatrix
    column_exponents: Optional[List[Tuple[int, ...]]]
    codim: int
    weight: Tuple[int, ...]
    lattice: List[Tuple[int, ...]]
    pairs: List[StandardPair]
    exponents: List[FakeExponent]
    series: List[CanonicalSeries]
    forms: List[HypergeometricForm]
    bundle: SolutionBundle
    coefficient_values: Optional[List[float]] = None
    series_value: Optional[float] = None
    series_error: Optional[float] = None   # the last shell's tail
    oracle: Optional[QuadratureResult] = None
    relative_deviation: Optional[float] = None

    @cached_property
    def toric_basis(self) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        return gkz.binomial_exponents(gkz.toric_ideal(self.amatrix))

    @cached_property
    def initial_gens(self) -> List[Tuple[int, ...]]:
        return gkz.initial_ideal(self.toric_basis, self.weight)

    def to_dict(self, *keys: str) -> dict:
        """JSON-ready: every entry (optional ones where set), or only the
        named ones, None where unset; I_A is built only if they include it."""
        entries = {
            "name": lambda: self.spec.name,
            "polynomial": lambda: self.polynomial and str(self.polynomial),
            "U": lambda: self.symanzik_u and str(self.symanzik_u),
            "F": lambda: self.symanzik_f and str(self.symanzik_f),
            "prefactor": lambda: self.prefactor and str(self.prefactor),
            "deformation": lambda: {"applied": self.deformation.applied,
                                    "exponent": self.deformation.exponent},
            "amatrix": lambda: self.amatrix.rows,
            "codim": lambda: self.codim,
            "weight": lambda: list(self.weight),
            "lattice": lambda: [list(v) for v in self.lattice],
            "toric_basis": lambda: [{"plus": list(p), "minus": list(m)}
                                    for p, m in self.toric_basis],
            "initial_ideal": lambda: [list(m) for m in self.initial_gens],
            "standard_pairs": lambda: [str(p) for p in self.pairs],
            "exponents": lambda: [[str(c) for c in e.components]
                                  for e in self.exponents],
            "forms": lambda: [f.to_dict() for f in self.forms],
            "constants": lambda: [str(k) for k in self.bundle.constants]}
        optional = {
            "coefficients": lambda: self.coefficient_values,
            "series_value": lambda: self.series_value,
            "series_error": lambda: self.series_error,
            "oracle": lambda: self.oracle and self.oracle.to_dict(),
            "relative_deviation": lambda: self.relative_deviation}
        if keys:
            return {key: {**entries, **optional}[key]() for key in keys}
        out = {key: entry() for key, entry in entries.items()}
        out.update((key, value) for key, entry in optional.items()
                   if (value := entry()) is not None)
        return out


def default_weight(ncols: int, deformed: bool) -> Tuple[int, ...]:
    if deformed:
        return (1,) + (0,) * (ncols - 1)
    return (0,) + (1,) * (ncols - 1)


def coefficient_values(spec: ProblemSpec, report_columns, poly: KPoly) -> List[float]:
    if spec.coefficients is not None:
        return list(spec.coefficients)
    if report_columns is None:
        raise DimensionMismatch(f"spec {spec.name!r} has no polynomial: give "
                                "'coefficients', one per column of A")
    return [coeff_evaluate(poly.terms[expo], spec.kinematics)
            for expo in report_columns]


def run(spec: ProblemSpec, verify: bool = False) -> ResultReport:
    symanzik_u = symanzik_f = pref = poly = columns = None
    deformation = Deformation(False)

    if spec.amatrix is not None:
        amat = spec.amatrix
        kappa = [-ParamLinear.param(n) for n in spec.kappa_names]
    else:
        if spec.graph is not None:
            symanzik_u, symanzik_f, poly = graphs.symanzik(spec.graph)
            pref = graphs.prefactor(spec.graph.L, spec.graph.n)
        else:
            poly = spec.polynomial()
        if poly is None:
            raise DimensionMismatch(f"spec {spec.name!r} has no polynomial, "
                                    "graph or A matrix")
        if spec.alpha is not None and len(spec.alpha) != poly.nvars:
            raise DimensionMismatch(f"alpha needs {poly.nvars} entries, got {spec.alpha}")
        if spec.deformation == "auto":
            poly, deformation = gkz.deform(poly)
        amat, columns = deformation.toric or gkz.toric_matrix(poly)
        kappa = gkz.standard_kappa(poly.nvars)

    weight = (default_weight(amat.ncols, deformation.applied)
              if spec.weight is None else spec.weight)
    if len(weight) != amat.ncols:
        raise DimensionMismatch(f"weight {list(weight)} needs one entry per column of A")
    if amat.rank < amat.nrows:
        raise DimensionMismatch(f"A has rank {amat.rank} < {amat.nrows} rows, so "
                                "A.theta = kappa has no generic solution")
    lattice = gkz.kernel_lattice(amat)
    pairs = gkz.facet_walk(amat, weight)
    exponents = gkz.fake_exponents(amat, kappa, pairs)
    shapes = LatticeShapes(lattice, weight)
    series = [CanonicalSeries(e, lattice, weight, shapes) for e in exponents]
    forms = [s.classify() for s in series]
    volumes = Counter(p.face for p in pairs)
    bundle = SolutionBundle(series, [
        gamma_constant(e, volumes[e.pair.face] * amat.index)
        for e in exponents])

    report = ResultReport(
        spec=spec, polynomial=poly, symanzik_u=symanzik_u,
        symanzik_f=symanzik_f, prefactor=pref, deformation=deformation,
        amatrix=amat, column_exponents=columns, codim=amat.codim(),
        weight=weight, lattice=lattice, pairs=pairs, exponents=exponents,
        series=series, forms=forms, bundle=bundle)

    if verify:
        assignment = spec.assignment()
        coeffs = coefficient_values(spec, columns, poly)
        report.coefficient_values = coeffs
        (value,), (tail,) = bundle.evaluate_points(assignment, [coeffs],
                                                   spec.order)
        report.series_value, report.series_error = float(value), float(tail)
        *alpha, beta = FloatMap([-k for k in kappa[1:]]
                                + [exponents[0].beta])(assignment)
        qspec = QuadratureSpec(exponents=list(zip(*amat.rows[1:])),
                               coefficients=coeffs, alpha=alpha, beta=beta,
                               target_tolerance=spec.tolerance * 1e-2)
        report.oracle = quadrature(qspec)
        if (not all(map(math.isfinite, (report.series_value, report.oracle.value)))
                or report.oracle.value == 0):
            raise NonFiniteValue(f"series value {report.series_value}, "
                                 f"oracle value {report.oracle.value}")
        report.relative_deviation = float(
            abs(report.series_value - report.oracle.value) / abs(report.oracle.value))
    return report
