"""pipeline.run(verify=True): live oracle checks and typed failures."""

import json
import math
import os

import pytest

from feyngkz import gkz, pipeline
from feyngkz.constants import SolutionBundle
from feyngkz.errors import (DimensionMismatch, NonConvergent,
                            NonFiniteValue, UnassignedParameter)
from feyngkz.fixtures import fixtures
from feyngkz.gkz import initial_ideal, toric_ideal
from feyngkz.groebner import TermOrder, buchberger


def test_sunset_interior_verify():
    """Criterion 6's interior point, now reduced to one dimension."""
    spec = fixtures()["sunset-1mass"]
    spec.alpha = [1.23, 2.11, 1.37]
    spec.coefficients = [1.6, 1.0, 1.0, 1.0, 1.0]
    report = pipeline.run(spec, verify=True)
    assert report.relative_deviation <= 1e-8
    frozen = 10.242082356613563
    assert abs(report.oracle.value - frozen) / frozen <= 1e-6
    assert report.oracle.target_met


def test_box_interior_verify_meets_target():
    spec = fixtures()["box"]
    spec.alpha = [0.7, 0.6, 0.65, 0.75]
    report = pipeline.run(spec, verify=True)
    assert report.oracle.target_met
    assert report.oracle.dims == 2
    assert report.to_dict()["oracle"]["target_met"] is True


def test_triangle_interior_verify_appell_f4():
    """The rank-2 Appell F4 series against the oracle.  The fixture's weight
    leaves a toric basis element w-balanced, and run tie-breaks it by
    grevlex."""
    spec = fixtures()["triangle-3scale"]
    spec.alpha = [0.8, 0.9, 1.0]
    report = pipeline.run(spec, verify=True)
    assert [f.kind for f in report.forms] == ["AppellF4"] * 4
    assert report.oracle.target_met
    assert report.oracle.dims == 2
    assert report.relative_deviation <= 1e-8
    basis = buchberger(toric_ideal(report.amatrix), TermOrder(weight=spec.weight))
    assert any(sum(w * (a - b) for w, a, b in zip(spec.weight, lead, trail)) == 0
               for lead, trail in basis)


def test_deformed_spec_without_a_weight_gets_the_first_unit_vector():
    spec = fixtures()["massless-bubble"]
    spec.weight = None
    report = pipeline.run(spec)
    assert report.deformation.applied
    assert report.weight == (1, 0, 0, 0)


@pytest.mark.parametrize("s, d, nu, inside", [
    (1.0, 3.8, (1.3, 1.3), True), (2.5, 3.8, (1.3, 1.3), True),
    (0.7, 3.3, (1.1, 0.9), True), (1.0, 3.8, (0.5, 0.5), False),
    (1.0, 2.0, (1.3, 1.3), False), (1.0, 3.8, (2.2, 0.4), False)])
def test_undeformed_massless_bubble_is_the_textbook_gamma_product(s, d, nu,
                                                                  inside):
    """The massless bubble with "deformation": "none" is a rank-0 bundle,
    which verifies inside the Newton polytope; prefactor x value is Gamma(n1+n2-d/2) Gamma(d/2-n1) Gamma(d/2-n2) /
    (Gamma(n1) Gamma(n2) Gamma(d-n1-n2)) s^(d/2-n1-n2), also at points
    outside the Newton polytope, where the oracle's Beta integral
    diverges and it refuses."""
    spec = fixtures()["massless-bubble"]
    spec.deformation, spec.weight = "none", None
    spec.alpha, spec.d, spec.kinematics = list(nu), d, {"s": s}
    report = pipeline.run(spec)
    assignment = spec.assignment()
    coeffs = pipeline.coefficient_values(spec, report.column_exponents,
                                         report.polynomial)
    got = (report.prefactor.evaluate(assignment)
           * report.bundle.evaluate(assignment, coeffs, spec.order))
    n1, n2 = nu
    want = (math.gamma(n1 + n2 - d / 2) * math.gamma(d / 2 - n1)
            * math.gamma(d / 2 - n2) / (math.gamma(n1) * math.gamma(n2)
                                        * math.gamma(d - n1 - n2))
            * s ** (d / 2 - n1 - n2))
    assert got == pytest.approx(want, rel=1e-14)
    if inside:
        assert pipeline.run(spec, verify=True).relative_deviation <= 1e-12
    else:
        with pytest.raises(NonConvergent, match="Beta integral"):
            pipeline.run(spec, verify=True)


def test_a_square_amatrix_spec_verifies_as_its_rank0_bundle():
    """A invertible: g = c1 + c2 z1 + c3 z2 and the integral is the
    multinomial Beta Gamma(a1) Gamma(a2) Gamma(beta - a1 - a2) / Gamma(beta)
    c1^(a1 + a2 - beta) c2^-a1 c3^-a2, the one term of a rank-0 bundle."""
    spec = pipeline.ProblemSpec.from_dict({
        "amatrix": [[1, 1, 1], [0, 1, 0], [0, 0, 1]],
        "kappa": ["beta", "a1", "a2"],
        "parameters": {"beta": 1.9, "a1": 0.6, "a2": 0.7},
        "coefficients": [1.0, 0.7, 1.3]})
    report = pipeline.run(spec, verify=True)
    assert report.lattice == [] and report.relative_deviation <= 1e-12
    want = (math.gamma(0.6) * math.gamma(0.7) * math.gamma(0.6)
            / math.gamma(1.9) * 0.7 ** -0.6 * 1.3 ** -0.7)
    assert report.series_value == pytest.approx(want, rel=1e-14)


def test_missing_coefficients_is_typed():
    spec = fixtures()["2f1-single"]
    spec.coefficients = None
    report = pipeline.run(spec)
    with pytest.raises(DimensionMismatch, match="'coefficients'"):
        pipeline.coefficient_values(spec, report.column_exponents,
                                    report.polynomial)


CAYLEY3 = os.path.join(os.path.dirname(__file__), "cayley3_spec.json")


def _cayley3():
    with open(CAYLEY3) as handle:
        return pipeline.ProblemSpec.from_dict(json.load(handle))


def _denominators(report):
    return {str(d) for k in report.bundle.constants for d in k.denominator}


def test_three_factor_amatrix_spec_verifies_as_its_cayley_integral():
    """A's three leading rows sum to (1, ..., 1), so it configures g = c1 +
    c2 z + x1 (c3 + c4 z) + x2 (c5 + c6 z), whose integral with alpha =
    (b2, b3, alpha) and beta = -sum(gamma) = b1 + b2 + b3 the series sum
    matches."""
    spec = _cayley3()
    report = pipeline.run(spec, verify=True)
    assert _denominators(report) == {"b1 + b2 + b3"}
    assert report.oracle.target_met and report.relative_deviation <= 1e-12


def test_three_factor_amatrix_spec_is_the_product_form_times_gammas():
    """That integral is int z^alpha prod_k g_k^-b_k dz/z times Gamma(b1)
    Gamma(b2) Gamma(b3) / Gamma(b1 + b2 + b3), here by mpmath."""
    mpmath = pytest.importorskip("mpmath")
    spec = _cayley3()
    report = pipeline.run(spec, verify=True)
    assignment = spec.assignment()
    b1, b2, b3, a = (assignment[n] for n in spec.kappa_names)
    c = spec.coefficients
    product = mpmath.quad(lambda z: z ** (a - 1) * (c[0] + c[1] * z) ** -b1
                          * (c[2] + c[3] * z) ** -b2
                          * (c[4] + c[5] * z) ** -b3, [0, 1, mpmath.inf])
    want = float(product * mpmath.gamma(b1) * mpmath.gamma(b2)
                 * mpmath.gamma(b3) / mpmath.gamma(b1 + b2 + b3))
    assert abs(report.series_value - want) <= 1e-12 * want


def test_2f1_double_as_an_amatrix_verifies_bit_for_bit():
    """The polynomial spec's A, with kappa (beta, a1, a2) and its values,
    gives the same series value, oracle result and deviation."""
    spec = fixtures()["2f1-double"]
    want = pipeline.run(spec, verify=True)
    amatrix = pipeline.ProblemSpec.from_dict({
        "amatrix": want.amatrix.rows, "kappa": ["beta", "a1", "a2"],
        "weight": list(spec.weight), "parameters": spec.assignment(),
        "coefficients": spec.coefficients})
    got = pipeline.run(amatrix, verify=True)
    assert got.series_value.hex() == want.series_value.hex()
    assert got.oracle == want.oracle
    assert got.relative_deviation == want.relative_deviation


_2F1_SINGLE_A = [[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]]
_2F1_DOUBLE_A = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]


@pytest.mark.parametrize("amatrix, kappa, denominator", [
    (_2F1_SINGLE_A, ["beta", "beta2", "alpha"], "beta + beta2"),
    (_2F1_SINGLE_A, ["beta1", "beta", "alpha"], "beta + beta1"),
    (_2F1_SINGLE_A, ["beta1", "beta2", "beta"], "beta1 + beta2"),
    (_2F1_DOUBLE_A, ["a1", "beta", "a2"], "a1")],
    ids=["2f1-single-row-0", "2f1-single-row-1", "2f1-single-row-2",
         "2f1-double-row-1"])
def test_kappa_may_name_beta_in_any_row(amatrix, kappa, denominator):
    """beta is -sum(gamma), a form in kappa's names, so a kappa name beta is
    one name among the others, wherever its row."""
    spec = pipeline.ProblemSpec.from_dict({"amatrix": amatrix, "kappa": kappa})
    assert _denominators(pipeline.run(spec)) == {denominator}


def test_the_single_leading_row_may_be_named_beta():
    spec = pipeline.ProblemSpec.from_dict({
        "amatrix": _2F1_DOUBLE_A, "kappa": ["beta", "a1", "a2"],
        "parameters": {"beta": 1.9, "a1": 0.3, "a2": 0.7}})
    assert spec.assignment() == {"beta": 1.9, "a1": 0.3, "a2": 0.7}
    assert _denominators(pipeline.run(spec)) == {"beta"}


def test_amatrix_spec_missing_a_parameter_is_typed():
    spec = fixtures()["2f1-single"]
    del spec.parameters["beta2"]
    with pytest.raises(UnassignedParameter, match="'beta2'"):
        pipeline.run(spec, verify=True)


DOUBLED_ROWS = os.path.join(os.path.dirname(__file__),
                            "doubled_rows_amatrix_spec.json")


def test_an_amatrix_without_a_ones_row_verifies_as_its_polynomial():
    """A = [[2, 1, 0], [0, 1, 2]] has (1, 1, 1) = (1/2, 1/2) A but no row of
    ones, so beta = -sum(gamma) = (p + q)/2: the spec is the integral of g =
    c1 + c2 z + c3 z^2 at alpha = q and d = p + q."""
    with open(DOUBLED_ROWS) as handle:
        spec = pipeline.ProblemSpec.from_dict(json.load(handle))
    report = pipeline.run(spec, verify=True)
    assert _denominators(report) == {"1/2*p + 1/2*q"}
    assert report.oracle.target_met and report.relative_deviation <= 1e-12
    polynomial = pipeline.ProblemSpec.from_dict({
        "polynomial": [{"exponents": [0]}, {"exponents": [1]},
                       {"exponents": [2]}],
        "deformation": "none", "weight": spec.weight, "alpha": [0.7],
        "d": 3.8, "coefficients": spec.coefficients})
    want = pipeline.run(polynomial, verify=True).series_value
    assert report.series_value == pytest.approx(want, rel=1e-14)


def test_non_finite_series_value_raises(monkeypatch):
    monkeypatch.setattr(SolutionBundle, "evaluate",
                        lambda self, *args: math.nan)
    with pytest.raises(NonFiniteValue, match="series"):
        pipeline.run(fixtures()["2f1-double"], verify=True)


def test_spec_dict_round_trip_every_fixture():
    """to_dict -> JSON -> from_dict gives back the spec and its report."""
    for name, spec in fixtures().items():
        loaded = pipeline.ProblemSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert loaded == spec, name
        assert (pipeline.run(loaded).to_dict()
                == pipeline.run(spec).to_dict()), name


MISSPELT = os.path.join(os.path.dirname(__file__), "misspelt_spec.json")


def test_misspelt_spec_keys_are_refused():
    """A key that from_dict does not read is an error, not a default:
    "weigth" and "tolerence" are both named."""
    with open(MISSPELT) as handle:
        data = json.load(handle)
    with pytest.raises(DimensionMismatch) as info:
        pipeline.ProblemSpec.from_dict(data)
    assert str(info.value) == "unknown spec keys 'weigth', 'tolerence'"
    data["weight"] = data.pop("weigth")
    data["tolerance"] = data.pop("tolerence")
    spec = pipeline.ProblemSpec.from_dict(data)
    assert spec.weight == (0, 1, 1, 1) and spec.tolerance == 1e-3


def test_unknown_keys_are_refused_in_graphs_propagators_and_terms():
    data = fixtures()["box"].to_dict()
    data["graph"]["l"] = 1
    data["graph"]["propagators"][2]["q"] = [[0]]
    data["Weight"] = [0, 1]
    with pytest.raises(DimensionMismatch, match=(
            r"^unknown spec keys 'Weight', 'graph.l', "
            r"'graph.propagators\[2\].q'$")):
        pipeline.ProblemSpec.from_dict(data)
    data = fixtures()["2f1-double"].to_dict()
    data["kappa"] = ["beta", "a1", "a2"]
    data["polynomial"][1]["coef"] = {"1": 2}
    with pytest.raises(DimensionMismatch,
                       match=r"^unknown spec keys 'kappa', "
                             r"'polynomial\[1\].coef'$"):
        pipeline.ProblemSpec.from_dict(data)


def test_to_dict_writes_exactly_the_keys_from_dict_reads():
    """Across the fixtures, to_dict writes every key that from_dict reads,
    at each level, and no other."""
    written = {"": set(), "graph": set(), "propagator": set(), "term": set()}
    for spec in fixtures().values():
        data = spec.to_dict()
        written[""].update(data)
        written["graph"].update(data.get("graph", {}))
        for prop in data.get("graph", {}).get("propagators", []):
            written["propagator"].update(prop)
        for term in data.get("polynomial", []):
            written["term"].update(term)
    assert written == {kind: set(keys.split())
                       for kind, keys in pipeline._KEYS.items()}


def test_the_spec_that_perfbench_writes_still_loads():
    """The keys of the spec file behind perfbench's CLI verify operation."""
    spec = fixtures()["2f1-double"]
    data = {"name": spec.name,
            "polynomial": [{"exponents": list(e), "coeff": {"1": 1}}
                           for e, _ in spec.terms],
            "weight": [0, 1, 1, 1], "deformation": spec.deformation,
            "alpha": [0.3, 0.4], "d": 1.4,
            "coefficients": [1.0, 0.5, 0.6, 0.2], "order": spec.order,
            "tolerance": spec.tolerance}
    loaded = pipeline.ProblemSpec.from_dict(json.loads(json.dumps(data)))
    assert loaded.weight == (0, 1, 1, 1) and loaded.d == 1.4


def test_toric_basis_and_initial_gens_are_built_once_when_read(monkeypatch):
    """run builds no I_A; the first read builds it once for both fields."""
    calls = []
    real = gkz.toric_ideal
    monkeypatch.setattr(gkz, "toric_ideal",
                        lambda amat: calls.append(amat) or real(amat))
    report = pipeline.run(fixtures()["triangle-3scale"])
    assert not calls
    assert report.initial_gens == initial_ideal(real(report.amatrix),
                                                report.weight)
    assert report.toric_basis == real(report.amatrix)
    assert len(calls) == 1
