"""pipeline.run(verify=True): live oracle checks and typed failures."""

import json
import math

import pytest

from feyngkz import pipeline
from feyngkz.constants import SolutionBundle
from feyngkz.errors import DimensionMismatch, NonFiniteValue
from feyngkz.fixtures import fixtures
from feyngkz.gkz import toric_ideal
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


def test_missing_coefficients_is_typed():
    spec = fixtures()["2f1-single"]
    report = pipeline.run(spec)
    with pytest.raises(DimensionMismatch, match="'coefficients'"):
        pipeline.coefficient_values(spec, report.column_exponents,
                                    report.polynomial)


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
