"""End-to-end driver: problem description -> series solution -> verification.

A ProblemSpec describes the input either as a momentum-space graph, as an
explicit polynomial, or (for product-type systems) as a raw configuration
matrix with named row parameters.  ``run`` walks the whole chain and returns
a ResultReport whose ``to_dict`` is JSON-ready.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from . import gkz, graphs
from .constants import SolutionBundle, gamma_constant
from .errors import DimensionMismatch, NonFiniteValue, NoZeroComponent
from .gammafn import GammaFactor
from .gkz import AMatrix, Deformation, FakeExponent, StandardPair
from .graphs import GraphSpec
from .kpoly import Coeff, KPoly, coeff_evaluate, coeff_from, coeff_to_dict
from .params import ParamLinear
from .quadrature import QuadratureResult, QuadratureSpec, quadrature
from .series import CanonicalSeries, HypergeometricForm


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
        """Inverse of to_dict; a malformed spec raises DimensionMismatch."""
        try:
            spec = cls(name=data.get("name", ""))
            if "graph" in data:
                spec.graph = GraphSpec.from_dict(data["graph"])
            if data.get("polynomial"):
                spec.terms = [(tuple(t["exponents"]), coeff_from(
                    t.get("coeff", {"1": 1}))) for t in data["polynomial"]]
            if "amatrix" in data:
                spec.amatrix = AMatrix([list(map(int, r)) for r in data["amatrix"]])
                spec.kappa_names = list(data["kappa"])
            if "weight" in data:
                spec.weight = tuple(map(int, data["weight"]))
                if list(spec.weight) != list(data["weight"]):
                    raise DimensionMismatch(f"weight {data['weight']} is not integral")
            spec.deformation = data.get("deformation", "auto")
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
            spec.order = int(data.get("order", 40))
            spec.tolerance = float(data.get("tolerance", 1e-6))
        except (AttributeError, LookupError, TypeError, ValueError) as err:
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
        return out

    # -- derived quantities ------------------------------------------------

    def polynomial(self) -> Optional[KPoly]:
        if self.graph is not None:
            _, _, g = graphs.symanzik(self.graph)
            return g
        if self.terms is not None:
            nvars = len(self.terms[0][0])
            poly = KPoly.zero(nvars)
            for expo, coeff in self.terms:
                poly = poly + KPoly.monomial(nvars, expo, coeff)
            return poly
        return None

    def assignment(self) -> Dict[str, float]:
        if self.parameters is not None:
            return dict(self.parameters)
        values: Dict[str, float] = {}
        if self.d is not None:
            values["beta"] = self.d / 2.0
        if self.alpha is not None:
            for i, a in enumerate(self.alpha):
                values[f"a{i + 1}"] = float(a)
        return values


@dataclass
class ResultReport:
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
    toric_basis: List[Tuple[Tuple[int, ...], Tuple[int, ...]]]
    initial_gens: List[Tuple[int, ...]]
    pairs: List[StandardPair]
    exponents: List[FakeExponent]
    series: List[CanonicalSeries]
    forms: List[HypergeometricForm]
    bundle: Optional[SolutionBundle] = None
    coefficient_values: Optional[List[float]] = None
    series_value: Optional[float] = None
    oracle: Optional[QuadratureResult] = None
    relative_deviation: Optional[float] = None

    def to_dict(self) -> dict:
        out = {
            "name": self.spec.name,
            "polynomial": str(self.polynomial) if self.polynomial else None,
            "U": str(self.symanzik_u) if self.symanzik_u else None,
            "F": str(self.symanzik_f) if self.symanzik_f else None,
            "prefactor": str(self.prefactor) if self.prefactor else None,
            "deformation": {"applied": self.deformation.applied,
                            "exponent": self.deformation.exponent},
            "amatrix": self.amatrix.rows,
            "codim": self.codim,
            "weight": list(self.weight),
            "lattice": [list(v) for v in self.lattice],
            "toric_basis": [{"plus": list(p), "minus": list(m)}
                            for p, m in self.toric_basis],
            "initial_ideal": [list(m) for m in self.initial_gens],
            "standard_pairs": [str(p) for p in self.pairs],
            "exponents": [[str(c) for c in e.components]
                          for e in self.exponents],
            "forms": [f.to_dict() for f in self.forms],
        }
        if self.bundle is not None:
            out["constants"] = [str(k) for k in self.bundle.constants]
        if self.coefficient_values is not None:
            out["coefficients"] = self.coefficient_values
        if self.series_value is not None:
            out["series_value"] = self.series_value
        if self.oracle is not None:
            out["oracle"] = self.oracle.to_dict()
        if self.relative_deviation is not None:
            out["relative_deviation"] = self.relative_deviation
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
    symanzik_u = symanzik_f = None
    pref = None
    deformation = Deformation(False)
    poly = None
    columns = None

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
        if spec.deformation == "auto":
            poly, deformation = gkz.deform(poly)
        amat, columns = gkz.toric_matrix(poly)
        kappa = gkz.standard_kappa(poly.nvars)

    codim = amat.codim()
    weight = spec.weight or default_weight(amat.ncols, deformation.applied)
    if len(weight) != amat.ncols:
        raise DimensionMismatch(f"weight {list(weight)} needs one entry per column of A")
    lattice = gkz.kernel_lattice(amat)
    toric = gkz.toric_ideal(amat)
    initial = gkz.initial_ideal(toric, weight)
    pairs = gkz.standard_pairs(initial, amat.ncols)
    exponents = gkz.fake_exponents(amat, kappa, pairs)
    series = [CanonicalSeries(e, lattice, weight) for e in exponents]
    forms = [s.classify() for s in series]

    report = ResultReport(
        spec=spec, polynomial=poly, symanzik_u=symanzik_u,
        symanzik_f=symanzik_f, prefactor=pref, deformation=deformation,
        amatrix=amat, column_exponents=columns, codim=codim, weight=weight,
        lattice=lattice, toric_basis=gkz.binomial_exponents(toric),
        initial_gens=initial, pairs=pairs, exponents=exponents,
        series=series, forms=forms)

    try:
        constants = [gamma_constant(e) for e in exponents]
        report.bundle = SolutionBundle(series, constants)
    except NoZeroComponent:
        report.bundle = None

    if verify and report.bundle is not None and poly is not None:
        assignment = spec.assignment()
        coeffs = coefficient_values(spec, columns, poly)
        report.coefficient_values = coeffs
        report.series_value = float(report.bundle.evaluate(
            assignment, coeffs, spec.order))
        alpha = [assignment[f"a{i + 1}"] for i in range(poly.nvars)]
        qspec = QuadratureSpec(exponents=list(columns), coefficients=coeffs,
                               alpha=alpha, beta=assignment["beta"],
                               target_tolerance=spec.tolerance * 1e-2)
        report.oracle = quadrature(qspec)
        if not all(map(math.isfinite, (report.series_value, report.oracle.value))):
            raise NonFiniteValue(f"series value {report.series_value}, "
                                 f"oracle value {report.oracle.value}")
        report.relative_deviation = float(
            abs(report.series_value - report.oracle.value) / abs(report.oracle.value))
    return report
