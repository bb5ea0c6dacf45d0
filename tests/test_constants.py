"""Integration constants: the Gamma prescription and the deformation probe."""

import json
import math
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

import helpers
from feyngkz import pipeline, series as series_module
from feyngkz.constants import (SolutionBundle, deformation_limit_probe,
                               gamma_constant)
from feyngkz.errors import (DimensionMismatch, DivergentArgument,
                            FeynGKZError, NonConvergent,
                            NonPositiveCoefficient, PoleError,
                            UnassignedParameter)
from feyngkz.fixtures import fixtures
from feyngkz.gammafn import GammaFactor, log_gamma_signed
from feyngkz.gkz import AMatrix
from feyngkz.params import ParamLinear


def test_unimodular_constants_are_the_zero_component_rule():
    """On every fixture's facets (vol 1, root 0) the face columns are the
    nonzero components, and the rational factor is the int 1, so the
    values are the zero-component rule's bit for bit."""
    for name, spec in fixtures().items():
        rep = pipeline.run(spec)
        assert set(Counter(p.face for p in rep.pairs).values()) == {1}, name
        for exponent, factor in zip(rep.exponents, rep.bundle.constants):
            assert factor.numerator == [-g for g in exponent.components
                                        if not g.is_zero()], name
            assert type(factor.factor) is int and factor.factor == 1
            assert gamma_constant(exponent) == factor   # volume defaults to 1


def _trinomial(**changes):
    with open(os.path.join(os.path.dirname(__file__),
                           "trinomial_spec.json")) as handle:
        return pipeline.ProblemSpec.from_dict({**json.load(handle), **changes})


def _cubic(weight, coefficients):
    return pipeline.ProblemSpec.from_dict({
        "polynomial": [{"exponents": [k]} for k in range(4)],
        "weight": weight, "alpha": [0.4], "d": 3, "order": 80,
        "coefficients": coefficients, "deformation": "none"})


@pytest.mark.parametrize("spec", [
    _trinomial(), _trinomial(coefficients=[1, 0.1, 1]),
    _trinomial(weight=[0, 0, 1], coefficients=[1, 2, 1]),
    _cubic([0, 0, 0, 0], [1, 1.04, 0.11, 1]),
    _cubic([1, 0, 0, 0], [1, 6.24, 0.15, 1]),
    _cubic([0, 0, 0, 1], [1, 0.14, 19.16, 1]),
    _cubic([0, 1, 1, 0], [1, 0.3, 0.3, 1])],
    ids=["trinomial-vol3-0.3", "trinomial-vol3-0.1", "trinomial-vol1,2",
         "cubic-0000", "cubic-1000", "cubic-0001", "cubic-0110"])
def test_non_unimodular_constants_meet_the_oracle(spec):
    """Facets of volume 2 and 3, where some exponent has no zero component
    or a root entry 1 (the zero-component rule built no bundle or took
    Gamma(-1)): sum K_i phi_i meets the oracle to <= 1e-12 relative.  The
    first case is tests/trinomial_spec.json, which CI also runs."""
    rep = pipeline.run(spec, verify=True)
    assert max(Counter(p.face for p in rep.pairs).values()) > 1
    assert rep.oracle.target_met and rep.relative_deviation <= 1e-12


def test_vol3_constants_carry_one_signed_rational_factor():
    """The trinomial at weight (0,1,0) has one facet {1, z^3} of volume 3,
    with roots 1, d2, d2^2: factors 1/3, -1/3 and 1/(3*2!)."""
    rep = pipeline.run(_trinomial())
    assert Counter(p.face for p in rep.pairs) == {(0, 2): 3}
    assert [str(k) for k in rep.bundle.constants] == [
        "1/3*Gamma(beta - 1/3*a1)*Gamma(1/3*a1)/(Gamma(beta))",
        "-1/3*Gamma(beta - 1/3*a1 + 2/3)*Gamma(1/3*a1 + 1/3)/(Gamma(beta))",
        "1/6*Gamma(beta - 1/3*a1 + 4/3)*Gamma(1/3*a1 + 2/3)/(Gamma(beta))"]


def test_massive_triangle_constants_evaluate_on_volumes_1_2_and_4():
    """Weight 0 on z1, z2, z3 and 1 on the quadratic monomials: the roots
    off the vol-2 and vol-4 facets have entries 1, once Gamma(-1) poles."""
    spec = pipeline.ProblemSpec(
        terms=list(helpers.massive_ngon(3).terms.items()),
        weight=(0, 0, 0, 1, 1, 1, 1, 1, 1), alpha=[0.3, 0.4, 0.5], d=4,
        deformation="none")
    rep = pipeline.run(spec)
    assert sorted(Counter(p.face for p in rep.pairs).values()) == [1, 2, 4]
    assert [k.factor for k in rep.bundle.constants] == [
        1, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4), Fraction(-1, 4),
        Fraction(-1, 4), Fraction(1, 4)]
    values = rep.bundle.constant_values(spec.assignment())
    assert all(map(math.isfinite, values)) and all(values)


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


def test_reordered_rows_keep_the_bundle_value():
    """2f1-single with A's rows reordered (2, 0, 1) is the same system, and
    beta = -sum(gamma) = beta1 + beta2 in any row order, so the bundle sums
    to 2f1-single's value bit for bit.  The oracle reads its integrand from
    rows 1.., g = (c1 + c2) z1 + (c3 + c4) z2: those rows and (1, ..., 1)
    do not span A's row (0, 1, 0, 1).  g's Newton polytope is a segment, so
    the integral diverges and verify refuses."""
    spec = fixtures()["2f1-single"]
    want = pipeline.run(spec, verify=True).series_value
    spec.amatrix = AMatrix([spec.amatrix.rows[i] for i in (2, 0, 1)])
    spec.kappa_names = [spec.kappa_names[i] for i in (2, 0, 1)]
    bundle = pipeline.run(spec).bundle
    got = bundle.evaluate(spec.assignment(), spec.coefficients, spec.order)
    assert float(got).hex() == want.hex()
    with pytest.raises(NonConvergent, match="diverges"):
        pipeline.run(spec, verify=True)


EVEN_POWERS = os.path.join(os.path.dirname(__file__), "even_powers_spec.json")


def _even_powers(**changes):
    with open(EVEN_POWERS) as handle:
        return pipeline.ProblemSpec.from_dict({**json.load(handle), **changes})


def _substituted(spec, k):
    """The spec with z1 -> z1^k: each monomial's z1 power and alpha_1 times
    k.  From w = z1^k, its integral is the spec's over k."""
    data = spec.to_dict()
    for term in data["polynomial"]:
        term["exponents"][0] *= k
    data["alpha"] = [k * data["alpha"][0], *data["alpha"][1:]]
    return pipeline.ProblemSpec.from_dict(data)


_QUADRATIC = _even_powers(polynomial=[{"exponents": [k]} for k in range(3)],
                          alpha=[0.7])


@pytest.mark.parametrize("spec, k", [
    (_QUADRATIC, 2), (_QUADRATIC, 3), (fixtures()["2f1-double"], 2)],
    ids=["z^2", "z^3", "2f1-double-z1^2"])
def test_substitution_divides_the_series_value_by_k(spec, k):
    """I(z1 -> z1^k) = I / k, with no oracle call: the exponents span a
    sublattice of index k, which enters each constant's |det C_sigma| =
    vol(sigma) * iota; with vol(sigma) alone the value was I, k times too
    large.  The z^2 case is tests/even_powers_spec.json."""
    want = pipeline.run(spec).bundle.evaluate(
        spec.assignment(), spec.coefficients, spec.order)
    scaled = _substituted(spec, k)
    rep = pipeline.run(scaled)
    assert rep.amatrix.index == k
    got = rep.bundle.evaluate(scaled.assignment(), scaled.coefficients,
                              scaled.order)
    assert got * k == pytest.approx(want, rel=1e-14)
    if spec is _QUADRATIC and k == 2:
        assert scaled == _even_powers()


@pytest.mark.parametrize("spec", [
    _even_powers(), _substituted(_QUADRATIC, 3),
    _substituted(fixtures()["2f1-double"], 2),
    pipeline.ProblemSpec.from_dict({
        "amatrix": [[1, 1, 1], [0, 2, 4]], "kappa": ["beta", "a1"],
        "parameters": {"beta": 1.9, "a1": 1.4}, "weight": [0, 0, 1],
        "coefficients": [1.0, 3.0, 0.5]})],
    ids=["even-powers", "z^3", "2f1-double-z1^2", "amatrix-0,2,4"])
def test_a_sublattice_spec_meets_the_oracle(spec):
    """Exponents of lattice index 2 or 3, as polynomials and as the A-matrix
    spec [[1, 1, 1], [0, 2, 4]]: sum K_i phi_i meets the oracle to 1e-12."""
    rep = pipeline.run(spec, verify=True)
    assert rep.amatrix.index > 1
    assert rep.oracle.target_met and rep.relative_deviation <= 1e-12


def test_every_fixture_spans_its_whole_lattice():
    """iota = 1 on all 10 fixtures, on the doubled-rows spec (A's own index
    is 2, C's is 1) and on 2f1-single with its rows reordered (C has rank
    < m, and A's index is 1), so none of their constants changed."""
    amatrices = [pipeline.run(spec).amatrix for spec in fixtures().values()]
    rows = fixtures()["2f1-single"].amatrix.rows
    amatrices += [AMatrix([[2, 1, 0], [0, 1, 2]]),
                  AMatrix([rows[i] for i in (2, 0, 1)])]
    assert [amat.index for amat in amatrices] == [1] * 12


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
    values, _ = bundle.evaluate_points(assignment, points, order)
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


def test_bundle_constants_equal_each_constants_own_value():
    """One map of every constant's Gamma arguments gives each K_i bit for
    bit as the constant alone does, on every fixture, and keeps the pole
    rules: a denominator at a pole zeroes its constant only, a numerator at
    one raises."""
    for name, spec in fixtures().items():
        bundle, assignment = pipeline.run(spec).bundle, spec.assignment()
        assert bundle.constant_values(assignment) == [
            k.evaluate(assignment) for k in bundle.constants], name
    x, y = ParamLinear.param("x"), ParamLinear.param("y")
    series = pipeline.run(fixtures()["2f1-double"]).series
    bundle = SolutionBundle(series, [GammaFactor([x], [y]),
                                     GammaFactor([x + y], [x], 2)])
    assert bundle.constant_values({"x": 0.5, "y": -1.0}) == [
        0.0, 2 * math.exp(math.lgamma(-0.5) - math.lgamma(0.5)) * -1.0]
    with pytest.raises(PoleError, match="Gamma pole at 0"):
        bundle.constant_values({"x": 0.5, "y": -0.5})

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
        (rep.bundle, {"beta": 1.9, "a2": 0.7}, [small], UnassignedParameter)]
    for first, second in ((rep.series[0], flipped), (flipped, rep.series[0])):
        bundle = _signed_bundle([first, second])
        cases += [(bundle, assignment, [small], DivergentArgument),
                  (bundle, assignment, [large], DivergentArgument)]
    for bundle, assignment, points, kind in cases:
        assert isinstance(_same_outcome(bundle, assignment, points, 10), kind)
