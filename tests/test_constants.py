"""Integration constants: the Gamma prescription and the deformation probe."""

import math

import pytest

from feyngkz import pipeline, series as series_module
from feyngkz.constants import deformation_limit_probe, gamma_constant
from feyngkz.errors import NoZeroComponent, UnassignedParameter
from feyngkz.fixtures import fixtures


def test_gamma_constant_requires_zero_component():
    rep = pipeline.run(fixtures()["2f1-double"])
    # the Gauss system roots all contain a zero component
    for exponent in rep.exponents:
        factor = gamma_constant(exponent)
        assert len(factor.numerator) == sum(
            1 for g in exponent.components if not g.is_zero())


def test_gamma_constant_rejects_nowhere_zero():
    from fractions import Fraction
    from feyngkz.gkz import FakeExponent, StandardPair
    from feyngkz.params import ParamLinear
    pair = StandardPair((1, 1), (0, 1))
    gamma = FakeExponent((ParamLinear.const(1),
                          ParamLinear.param("beta")), pair)
    with pytest.raises(NoZeroComponent):
        gamma_constant(gamma)


def test_unassigned_gamma_parameter_raises_typed_error():
    """The constants divide by Gamma(beta), which an A-matrix spec such as
    2f1-single does not assign (it names beta1 and beta2)."""
    spec = fixtures()["2f1-single"]
    bundle = pipeline.run(spec).bundle
    with pytest.raises(UnassignedParameter, match="'beta'"):
        bundle.constant_values(spec.assignment())


def test_prescription_reproduces_oracle_gauss():
    """Full check of sum K_i phi_i = integral on the Gauss system."""
    spec = fixtures()["2f1-double"]
    rep = pipeline.run(spec, verify=True)
    assert rep.relative_deviation < 1e-9


def test_deformation_probe_bubble():
    spec = fixtures()["massless-bubble"]
    rep = pipeline.run(spec)
    beta = spec.d / 2
    a1, a2 = spec.alpha
    total = a1 + a2
    target = (math.gamma(beta - a1) * math.gamma(beta - a2)
              * math.gamma(total - beta) / math.gamma(beta)
              * spec.kinematics["s"] ** (beta - total))
    coeffs = pipeline.coefficient_values(spec, rep.column_exponents,
                                         rep.polynomial)
    probe = deformation_limit_probe(rep.bundle, spec.assignment(), coeffs,
                                    0, [1e-1, 1e-2, 1e-3], target)
    assert probe.monotone
    assert probe.final_deviation < 0.01


def test_probe_report_bookkeeping():
    from feyngkz.constants import ProbeReport
    report = ProbeReport([0.1, 0.01], [1.5, 1.05], 1.0)
    assert report.deviations == pytest.approx([0.5, 0.05])
    assert report.monotone
    assert report.final_deviation == pytest.approx(0.05)


def test_probe_matches_per_epsilon_evaluate():
    epsilons = [1e-1, 1e-2, 1e-3]
    for name in ("massless-bubble", "triangle-1scale", "cantaloupe-2"):
        spec = fixtures()[name]
        rep = pipeline.run(spec)
        coeffs = pipeline.coefficient_values(spec, rep.column_exponents,
                                             rep.polynomial)
        index = rep.column_exponents.index(rep.deformation.exponent)
        probe = deformation_limit_probe(rep.bundle, spec.assignment(), coeffs,
                                        index, epsilons, 1.0, spec.order)
        for eps, value in zip(epsilons, probe.values):
            point = list(coeffs)
            point[index] = eps
            want = rep.bundle.evaluate(spec.assignment(), point, spec.order)
            assert value == pytest.approx(want, rel=1e-13), (name, eps)


def test_probe_builds_one_factor_table_per_series(monkeypatch):
    """The probe evaluates all epsilons from one factor table per series,
    not one per series and epsilon."""
    spec = fixtures()["triangle-1scale"]
    rep = pipeline.run(spec)
    coeffs = pipeline.coefficient_values(spec, rep.column_exponents,
                                         rep.polynomial)
    calls = []
    real = series_module._factor_table

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(series_module, "_factor_table", counted)
    deformation_limit_probe(rep.bundle, spec.assignment(), coeffs, 0,
                            [1e-1, 1e-2, 1e-3], 1.0, spec.order)
    assert len(calls) == len(rep.bundle.series) == 2
