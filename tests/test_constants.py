"""Integration constants: the Gamma prescription and the deformation probe."""

import math
import random
from fractions import Fraction

import pytest

import helpers
from feyngkz import pipeline, series as series_module
from feyngkz.constants import (SolutionBundle, deformation_limit_probe,
                               gamma_constant)
from feyngkz.errors import (DimensionMismatch, DivergentArgument,
                            FeynGKZError, NonPositiveCoefficient,
                            NoZeroComponent, PoleError, UnassignedParameter)
from feyngkz.fixtures import fixtures
from feyngkz.gammafn import GammaFactor, log_gamma_signed
from feyngkz.params import ParamLinear


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


def test_log_gamma_signed_raises_at_a_pole():
    with pytest.raises(PoleError, match="Gamma pole at -2"):
        log_gamma_signed(-2.0)


def test_gamma_factor_vanishes_where_a_denominator_has_a_pole():
    x, y = ParamLinear.param("x"), ParamLinear.param("y")
    factor = GammaFactor(numerator=[x], denominator=[y])
    for pole in (0.0, -1.0):
        assert factor.evaluate({"x": 0.5, "y": pole}) == 0.0
    assert factor.evaluate({"x": 0.5, "y": 1.0}) == pytest.approx(
        math.sqrt(math.pi), rel=1e-15)
    assert GammaFactor().evaluate({}) == 1.0    # the empty product, exactly


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


def test_probe_builds_one_factor_table_per_bundle_call(monkeypatch):
    """The probe evaluates all epsilons of all series from one factor
    table, not one per series or per epsilon."""
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
    assert len(rep.bundle.series) == 2 and len(calls) == 1


# -- the fused bundle kernel against the per-series sum ----------------------

def _inside(series, rng, count=4):
    """Points c = exp(-t * sum of the lattice generators), t in [0.3, 0.6],
    jittered: inside every fixture series' convergence region."""
    total = [sum(v[i] for v in series.lattice) for i in range(series.nvars)]
    return [[math.exp(-rng.uniform(0.3, 0.6) * x + rng.uniform(-0.05, 0.05))
             for x in total] for _ in range(count)]


def _signed_bundle(series):
    """The series with constants of both signs that stay finite where the
    Gamma prescription has poles: Gamma(-1/2) < 0, then 1, 1, ..."""
    half = GammaFactor(numerator=[ParamLinear.const(Fraction(-1, 2))])
    return SolutionBundle(series, [half] + [GammaFactor()] * (len(series) - 1))


def _same_outcome(bundle, assignment, points, order):
    """The bundle's values agree with the per-series sum to 1e-13, or both
    raise the same error with the same message."""
    try:
        want = helpers.bundle_reference(bundle, assignment, points, order)
    except FeynGKZError as err:
        with pytest.raises(type(err)) as got:
            bundle.evaluate_points(assignment, points, order)
        assert str(got.value) == str(err)
        return err
    values = bundle.evaluate_points(assignment, points, order)
    assert values.tolist() == pytest.approx(want, rel=1e-13)
    assert bundle.evaluate(assignment, points[0], order) == pytest.approx(
        want[0], rel=1e-13)
    return None


def test_bundle_matches_per_series_sum():
    """Every bundle fixture at orders 40 and 80 on seeded points, the
    Gamma prescription's constants and a mixed-sign set."""
    rng = random.Random(18)
    for name, spec in fixtures().items():
        rep = pipeline.run(spec)
        if rep.bundle is None or spec.amatrix is not None:
            continue        # 2f1-single's constants need Gamma(beta)
        for order in (40, 80):
            points = _inside(rep.series[0], rng)
            for bundle in (rep.bundle, _signed_bundle(rep.series)):
                assert _same_outcome(bundle, spec.assignment(), points,
                                     order) is None, (name, order)


def test_bundle_prunes_and_raises_poles_like_its_series():
    """gamma_1 = 2 in the first 2f1-double series ends its sum early (a
    prune for that call only); a1 = 1.5, a2 = 0.5 reaches a vanishing
    denominator, which raises PoleError naming that series."""
    spec = fixtures()["2f1-double"]
    rep = pipeline.run(spec)
    bundle = _signed_bundle(rep.series)
    generic = spec.assignment()
    points = [[1.0, 1.0, 1.0, 2.0], [1.0, 1.2, 0.9, 2.5]]
    for order in (spec.order, 80):
        pruned = dict(generic, a1=generic["beta"] + 2)
        assert _same_outcome(bundle, pruned, points, order) is None
        pole = dict(generic, a1=1.5, a2=0.5)
        assert isinstance(_same_outcome(bundle, pole, points, order),
                          PoleError)
        assert _same_outcome(bundle, generic, points, order) is None


def test_bundle_evaluates_its_constants_before_checking_the_points():
    spec = fixtures()["2f1-double"]
    series = pipeline.run(spec).series
    pole = GammaFactor(numerator=[ParamLinear.const(-1)])
    bundle = SolutionBundle(series, [pole] * len(series))
    with pytest.raises(PoleError, match="Gamma pole at -1"):
        bundle.evaluate_points(spec.assignment(), [[1.0, 0.0, 1.0, 2.0]], 10)


def test_bundle_raises_like_its_series():
    """DimensionMismatch, NonPositiveCoefficient, UnassignedParameter and a
    DivergentArgument from either one of two series: the same error and
    message as the per-series sum."""
    spec = fixtures()["2f1-double"]
    rep = pipeline.run(spec)
    spec.weight = (0, 0, 0, 1)          # the opposite lattice orientation
    flipped = pipeline.run(spec).series[0]
    assert flipped.lattice[0] == tuple(-x for x in rep.series[0].lattice[0])
    assignment = spec.assignment()
    # the first series' argument c2 c3 / (c1 c4) is 1/2 at small, 4 at large
    small, large = [1.0, 1.0, 1.0, 2.0], [1.0, 2.0, 2.0, 1.0]
    cases = [
        (rep.bundle, assignment, [[1.0, 1.0], [1.0, 2.0]], DimensionMismatch),
        (rep.bundle, assignment, [small, [1.0, 0.0, 1.0, 2.0]],
         NonPositiveCoefficient),
        (rep.bundle, assignment, [small, [1.0, math.inf, 1.0, 2.0]],
         NonPositiveCoefficient),
        (rep.bundle, {"beta": 1.9, "a2": 0.7}, [small], UnassignedParameter),
        (pipeline.run(fixtures()["2f1-single"]).bundle,
         fixtures()["2f1-single"].assignment(), [small], UnassignedParameter)]
    for first, second in ((rep.series[0], flipped), (flipped, rep.series[0])):
        bundle = _signed_bundle([first, second])
        cases += [(bundle, assignment, [small], DivergentArgument),
                  (bundle, assignment, [large], DivergentArgument)]
    for bundle, assignment, points, kind in cases:
        assert isinstance(_same_outcome(bundle, assignment, points, 10), kind)
