"""The exact chain called stage by stage, as pipeline.run calls it.

Each stage's public function gets the previous stage's output; the result
must equal pipeline.run's report.  This shows that the per-layer spans of the
traced run time the same program that the end-to-end run measures.
"""

from __future__ import annotations

from typing import List, Tuple

from feyngkz import gkz, graphs, pipeline
from feyngkz.constants import gamma_constant
from feyngkz.fixtures import fixtures
from feyngkz.params import ParamLinear
from feyngkz.series import CanonicalSeries


def replay(spec) -> dict:
    out = {}
    if spec.amatrix is not None:
        amat = spec.amatrix
        kappa = [-ParamLinear.param(n) for n in spec.kappa_names]
        deformed = False
    else:
        if spec.graph is not None:
            _, _, poly = graphs.symanzik(spec.graph)
        else:
            poly = spec.polynomial()
        deformation = gkz.Deformation(False)
        if spec.deformation == "auto":
            poly, deformation = gkz.deform(poly)
        deformed = deformation.applied
        amat, columns = gkz.toric_matrix(poly)
        kappa = gkz.standard_kappa(poly.nvars)
        out["polynomial"] = str(poly)
        out["columns"] = columns
    weight = spec.weight or pipeline.default_weight(amat.ncols, deformed)
    lattice = gkz.kernel_lattice(amat)
    toric = gkz.toric_ideal(amat)
    initial = gkz.initial_ideal(toric, weight)
    pairs = gkz.standard_pairs(initial, amat.ncols)
    exponents = gkz.fake_exponents(amat, kappa, pairs)
    series = [CanonicalSeries(e, lattice, weight) for e in exponents]
    out.update(
        amatrix=amat.rows, weight=tuple(weight), lattice=lattice,
        toric_basis=gkz.binomial_exponents(toric), initial=initial,
        pairs=[str(p) for p in pairs],
        exponents=[[str(c) for c in e.components] for e in exponents],
        series_lattice=[s.lattice for s in series],
        forms=[s.classify().to_dict() for s in series],
        constants=[str(gamma_constant(e)) for e in exponents])
    return out


def from_report(report) -> dict:
    out = {}
    if report.polynomial is not None:
        out["polynomial"] = str(report.polynomial)
        out["columns"] = report.column_exponents
    out.update(
        amatrix=report.amatrix.rows, weight=tuple(report.weight),
        lattice=report.lattice, toric_basis=report.toric_basis,
        initial=report.initial_gens, pairs=[str(p) for p in report.pairs],
        exponents=[[str(c) for c in e.components] for e in report.exponents],
        series_lattice=[s.lattice for s in report.series],
        forms=[f.to_dict() for f in report.forms],
        constants=[str(k) for k in report.bundle.constants])
    return out


def replay_all() -> List[Tuple[str, str]]:
    """(fixture, differing keys) for every fixture whose replay differs."""
    mismatches = []
    for name, spec in fixtures().items():
        staged, whole = replay(spec), from_report(pipeline.run(spec))
        differ = sorted(k for k in whole if staged.get(k) != whole[k])
        if differ or set(staged) != set(whole):
            mismatches.append((name, f"differs in {differ or sorted(set(staged) ^ set(whole))}"))
    return mismatches
