"""Canonical series: term coefficients, classification, evaluation."""

import functools
import itertools
import json
import math
import operator
import os
import random
import re
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import helpers
from feyngkz import gammafn, pipeline, pochhammer, series as series_module
from feyngkz.constants import SolutionBundle, deformation_limit_probe
from feyngkz.errors import (DimensionMismatch, DivergentArgument,
                            NonFiniteValue, NonPositiveCoefficient,
                            PoleError, UnassignedParameter)
from feyngkz.fixtures import fixtures
from feyngkz.gammafn import GammaFactor
from feyngkz.gkz import FakeExponent, StandardPair
from feyngkz.params import ParamLinear
from feyngkz.pochhammer import log_poch
from feyngkz.series import (_argument_monomial, _factor_table, _half_rows,
                            term_coefficient)


def test_term_coefficient_vanishes_exactly_off_n_v():
    """No weight cut: (1, -1, 0, 0) lies in N_v with w.u < 0 for w = (0, 1,
    0, 0) and its term is nonzero; over a box, a term is zero exactly where
    a falling factorial [g]_{-x} vanishes, an integer g >= 0 with -x > g."""
    gamma = (ParamLinear.param("g1"), ParamLinear.const(1),
             ParamLinear.const(0), ParamLinear.const(Fraction(1, 2)))
    coeff = term_coefficient(gamma, (1, -1, 0, 0))
    assert not coeff.is_zero()
    assert coeff.evaluate({"g1": 0.3}) == pytest.approx(1 / 1.3)
    zeros = 0
    for u in itertools.product(range(-3, 4), repeat=4):
        vanishes = u[1] < -1 or u[2] < 0
        assert term_coefficient(gamma, u).is_zero() == vanishes, u
        zeros += vanishes
    assert 0 < zeros < 7 ** 4


def test_term_coefficient_matches_direct_product():
    """[gamma]_{u-}/[gamma+u]_{u+} against a direct numeric product."""
    rng = random.Random(11)
    names = ["g1", "g2", "g3"]
    gamma = tuple(ParamLinear.param(n) for n in names)
    for _ in range(300):
        u = tuple(rng.randrange(-4, 5) for _ in range(3))
        values = {n: rng.uniform(-3, 3) for n in names}
        coeff = term_coefficient(gamma, u)
        direct = 1.0
        ok = True
        for n, x in zip(names, u):
            g = values[n]
            if x < 0:
                for k in range(-x):
                    direct *= g - k          # falling factorial
            elif x > 0:
                denom = 1.0
                for k in range(x):
                    denom *= g + 1 + k       # rising factorial of gamma + 1
                if denom == 0.0:
                    ok = False
                    break
                direct /= denom
        if not ok:
            continue
        assert coeff.evaluate(values) == pytest.approx(direct, rel=1e-10,
                                                       abs=1e-12), (u, values)


def test_symbolic_zero_for_integer_gamma():
    # gamma component 1 with a falling factorial of length 2: 1*0 = 0
    gamma = (ParamLinear.const(1), ParamLinear.param("g2"))
    coeff = term_coefficient(gamma, (-2, 2))
    assert coeff.is_zero()


def test_gauss_series_is_2f1():
    rep = pipeline.run(fixtures()["2f1-double"])
    kinds = sorted(f.kind for f in rep.forms)
    assert kinds == ["2F1", "2F1"]
    for form in rep.forms:
        assert form.arguments == ["c2*c3/(c1*c4)"]
        assert form.argument_signs == [1]


def test_box_series_are_3f2_with_sign():
    rep = pipeline.run(fixtures()["box"])
    assert [f.kind for f in rep.forms] == ["3F2", "3F2", "3F2"]
    for form in rep.forms:
        assert form.arguments == ["c2*c4*c5/(c1*c3*c6)"]
        assert form.argument_signs == [-1]


def test_triangle_series_are_appell_f4():
    rep = pipeline.run(fixtures()["triangle-3scale"])
    assert [f.kind for f in rep.forms] == ["AppellF4"] * 4
    for form in rep.forms:
        assert form.arguments == ["c2*c5/(c1*c6)", "c3*c4/(c1*c6)"]
    for series, form in zip(rep.series, rep.forms):
        assert form.arguments == [_argument_monomial(v) for v in series.lattice]


def _classified_vs_raw(name, order=40, terms=120, spec=None):
    if spec is None:
        spec = fixtures()[name]
    rep = pipeline.run(spec)
    coeffs = pipeline.coefficient_values(spec, rep.column_exponents,
                                         rep.polynomial)
    kin = {f"c{i + 1}": c for i, c in enumerate(coeffs)}
    assignment = spec.assignment()
    for series, form in zip(rep.series, rep.forms):
        raw, _ = series.evaluate(assignment, coeffs, order)
        prefactor = 1.0
        for c, g in zip(coeffs,
                        (g.evaluate(assignment)
                         for g in series.gamma.components)):
            prefactor *= c ** g
        independent = helpers.form_value(form, assignment, kin, terms=terms)
        assert raw / prefactor == pytest.approx(independent, rel=1e-10), name


def test_classification_consistent_with_raw_series_gauss():
    _classified_vs_raw("2f1-double")


def test_classification_consistent_with_raw_series_box():
    _classified_vs_raw("box", terms=200)


def test_classification_consistent_with_raw_series_triangle():
    _classified_vs_raw("triangle-3scale", terms=60)


def test_classification_consistent_with_raw_series_sunset():
    spec = fixtures()["sunset-1mass"]
    spec.coefficients = [1.6, 1.0, 1.0, 1.0, 1.0]   # pull |x| below 1
    _classified_vs_raw("sunset-1mass", order=90, terms=300, spec=spec)


def test_divergent_argument_raises():
    spec = fixtures()["one-mass-bubble"]
    rep = pipeline.run(spec)      # default orientation: argument 3/2 > 1
    coeffs = pipeline.coefficient_values(spec, rep.column_exponents,
                                         rep.polynomial)
    with pytest.raises(DivergentArgument):
        rep.series[0].evaluate(spec.assignment(), coeffs, 10)


def _rank1_runs():
    """Each fixture of rank 1 at its own weight, 12 seeded weights in
    {-1, ..., 2}^n and the zero weight, as reports."""
    rng = random.Random(2611)
    for spec in fixtures().values():
        rep = pipeline.run(spec)
        if len(rep.lattice) != 1:
            continue
        ncols = rep.amatrix.ncols
        yield rep
        for weight in [tuple(rng.randint(-1, 2) for _ in range(ncols))
                       for _ in range(12)] + [(0,) * ncols]:
            spec.weight = weight
            yield pipeline.run(spec)


def test_rank1_generator_is_positive_off_each_facet():
    """The lattice is oriented by in_w's own term order, ties broken by
    grevlex, so each series' generator grows its off-face column, whose
    root 0 bounds N_v from below; many of the weights tie w.v = 0."""
    ties = count = 0
    for rep in _rank1_runs():
        ties += sum(map(operator.mul, rep.weight, rep.lattice[0])) == 0
        for phi, exponent in zip(rep.series, rep.exponents):
            (off,) = set(range(rep.amatrix.ncols)) - set(exponent.pair.face)
            assert phi.lattice[0][off] > 0, (rep.spec.name, rep.weight)
            count += 1
    assert count > 200 and ties > 20


def test_box_prune_drops_no_term_of_n_v():
    """The w.u >= 0 cut of CanonicalSeries._box is lossless: every u on the
    line of a rank-1 series with a nonzero term has w.u >= 0, and the
    enumerated terms are exactly those."""
    order = 8
    for rep in _rank1_runs():
        for phi in rep.series:
            line = [tuple(k * x for x in phi.lattice[0])
                    for k in range(-order, order + 1)]
            support = [u for u in line if not term_coefficient(
                phi.gamma.components, u).is_zero()]
            assert all(sum(map(operator.mul, rep.weight, u)) >= 0
                       for u in support), (rep.spec.name, rep.weight)
            assert sorted(support) == sorted(
                t.shift for t in phi.enumerate_terms(order))


def test_tied_weight_series_is_oriented_by_grevlex():
    """one-mass-bubble at w = 0: in_w is grevlex's, and so is the series'
    side, whose argument 3/2 diverges; the other side, which the sign of
    w.v alone cannot rule out, sums to a wrong number."""
    spec = fixtures()["one-mass-bubble"]
    spec.alpha, spec.weight = [1.2, 1.3], (0, 0, 0, 0)
    with pytest.raises(DivergentArgument, match=r"\|argument\| = 1\.5 "):
        pipeline.run(spec, verify=True)


@pytest.mark.parametrize("c2, x", [(1.6, "0.3906"), (2, "0.25")],
                         ids=["outside", "boundary"])
def test_rank1_radius_is_the_generators_own(c2, x):
    """A rank-1 generator v with entries beyond {-1, 0, 1} converges for
    |x| < prod_j |v_j|^v_j, here 1/4: x = 0.39 passes |x| < 1 but diverges
    (its sum was 3.5e8 against the integral's 1.68), and x = 1/4 is on the
    boundary; the series and the bundle refuse both (test_cli checks that
    verify exits 6 at both and verifies at c2 = 3)."""
    path = os.path.join(os.path.dirname(__file__), "quadratic_spec.json")
    with open(path) as handle:
        spec = pipeline.ProblemSpec.from_dict(json.load(handle))
    spec.coefficients[1] = c2       # c = (1, c2, 1): x = 1 / c2^2
    rep = pipeline.run(spec)
    assert rep.lattice == [(1, -2, 1)]
    message = rf"\|argument\| = {x} >= 0\.25$"
    with pytest.raises(DivergentArgument, match=message):
        rep.series[0].evaluate(spec.assignment(), spec.coefficients, 40)
    with pytest.raises(DivergentArgument, match=message):
        rep.bundle.evaluate(spec.assignment(), spec.coefficients, 40)


def _refuses(bundle, assignment, coeffs) -> bool:
    try:
        bundle.evaluate(assignment, coeffs, 0)
    except DivergentArgument:
        return True
    return False


def test_horn_margin_replays_the_closed_form_region_rules():
    """2400 seeded points, 400 per fixture (one-mass-bubble at weight
    (0,0,0,1)), about each closed-form boundary (every pFq argument is 1 at
    c = 1, and F4's x = y = 1/4 at c4 = c5 = 1/4): the bundle refuses a point
    exactly where some rank-1 series has |x| >= R(v) or some Appell F4
    series sqrt|x| + sqrt|y| >= 1, save where the least closed-form margin
    lies in the grid's floor band (0, floor], which only rank 2 has."""
    rng = random.Random(22)
    cases = refused = banded = 0
    for name in ("2f1-double", "one-mass-bubble", "box", "sunset-1mass",
                 "triangle-1scale", "triangle-3scale"):
        spec = fixtures()[name]
        if name == "one-mass-bubble":
            spec.weight = (0, 0, 0, 1)
        rep = pipeline.run(spec)
        base = [1.0] * rep.series[0].nvars
        if name == "triangle-3scale":
            base[3] = base[4] = 0.25
        floor = rep.bundle._regions[2]
        assert floor == (0 if rep.series[0].rank == 1 else 1 / 63)
        for _ in range(400):
            coeffs = [c * math.exp(rng.uniform(-1, 1)) for c in base]
            least = min(helpers.closed_form_margins(rep.series, coeffs))
            cases += 1
            if 0 < least <= floor:
                banded += 1
                continue
            refused += least <= 0
            assert _refuses(rep.bundle, spec.assignment(), coeffs) == (
                least <= 0), (name, coeffs, least)
    assert cases == 2400 and banded < 24
    assert 0.4 < refused / cases < 0.6


def _sampled_margins(bundle, points):
    """Each point's least sampled Horn margin over the bundle's cones, and
    the grid's floor."""
    lines, phis, floor = bundle._regions
    return -(np.log(np.array(points)) @ lines.T - phis).max(axis=1), floor


@pytest.mark.parametrize("degree, weight, steps", [
    (3, (3, 1, 0, 1), 63 * 64), (4, (4, 1, 0, 1, 4), 43 * 7)],
    ids=["cubic-rank-2", "quartic-rank-3"])
def test_sampled_horn_margin_falls_short_by_at_most_the_floor(degree, weight,
                                                              steps):
    """sum_{k <= d} c_k z^k at 200 seeded points: a grid of spacing
    1/steps, which holds the bundle's own (1/63 at rank 2, 1/43 at rank 3),
    gives a margin no greater than the sampled one, and no more than the
    floor (the spacing) below it."""
    spec = pipeline.ProblemSpec.from_dict({
        "polynomial": [{"exponents": [k]} for k in range(degree + 1)],
        "weight": list(weight), "alpha": [0.4], "deformation": "none"})
    rep = pipeline.run(spec)
    assert {phi.rank for phi in rep.series} == {degree - 1}
    rng = random.Random(degree)
    points = []          # about the boundary: the inner c_k lifted by k(d-k)
    for _ in range(200):
        lift = rng.uniform(0, 1.5)
        points.append([math.exp(lift * k * (degree - k) + rng.uniform(-1, 1))
                       for k in range(degree + 1)])
    sampled, floor = _sampled_margins(rep.bundle, points)
    fine = np.min([helpers.fine_horn_margin(phi.lattice, phi.gamma.pair.face,
                                            points, steps)
                   for phi in rep.series], axis=0)
    assert floor == pytest.approx(1 / (63 if degree == 3 else 43))
    assert (fine <= sampled + 1e-9).all()
    assert (sampled - floor <= fine).all()


def test_massive_triangle_on_its_domain_boundary_is_refused():
    """The massive triangle at c = t^w, w = (7,4,9,9,5,2,5,2,5) on columns
    z1, z2, z3, z1^2, z1z2, z1z3, z2^2, z2z3, z3^2: along l =
    (0,0,0,0,-1,1,1,-1,0), w.l = 0, so c^l = 1 and psi = 0 at every t; the
    point is on the boundary of the series' domain (outside it at t = 0.3)
    and the rank-5 bundle refuses it.  Its grids take under 0.1 s."""
    w = (7, 4, 9, 9, 5, 2, 5, 2, 5)
    spec = pipeline.ProblemSpec(
        terms=list(helpers.massive_ngon(3).terms.items()), weight=w,
        alpha=[0.3, 0.4, 0.5], d=4, deformation="none")
    rep = pipeline.run(spec)
    assert rep.column_exponents[3:6] == [(2, 0, 0), (1, 1, 0), (1, 0, 1)]
    start = time.perf_counter()
    lines, _, floor = rep.bundle._regions
    assert time.perf_counter() - start < 0.1
    assert floor == 0.1 and lines.shape[1] == 9
    for t in (0.03, 0.1, 0.3):
        with pytest.raises(DivergentArgument, match="margin "):
            rep.bundle.evaluate(spec.assignment(), [t ** x for x in w], 4)


def test_term_box_over_its_point_limit_is_a_typed_error():
    """The massive triangle's rank-5 box: order 8 (17^5 points) is built,
    order 30 (61^5 points, 31.5 GiB of grid) is refused before any array
    is allocated, both for the series and when the bundle plans its sum."""
    w = (7, 4, 9, 9, 5, 2, 5, 2, 5)
    spec = pipeline.ProblemSpec(
        terms=list(helpers.massive_ngon(3).terms.items()), weight=w,
        alpha=[0.3, 0.4, 0.5], d=4, deformation="none")
    rep = pipeline.run(spec)
    phi = rep.series[0]
    assert phi.rank == 5 and 17 ** 5 <= series_module._BOX_POINT_LIMIT
    indices, points = phi._box(8)
    assert len(indices) == len(points) > 0
    assert 23 ** 5 > series_module._BOX_POINT_LIMIT
    for call in (lambda: phi._box(30), lambda: phi.enumerate_terms(11),
                 lambda: rep.bundle.evaluate(spec.assignment(),
                                             [0.5 ** x for x in w], 30)):
        start = time.perf_counter()
        with pytest.raises(DimensionMismatch, match=r"\^5 box points"):
            call()
        assert time.perf_counter() - start < 0.1


def test_refusal_within_the_grid_floor_names_no_false_comparison():
    """The cubic at weight 0 and c = (1, 1, 1, 1) has margin 1.1e-4 inside
    its rank-2 floor 1/63: |argument| rounds to the boundary 1, so the
    message says the point is within the floor, not that 1 < 1."""
    path = os.path.join(os.path.dirname(__file__), "cubic_spec.json")
    with open(path) as handle:
        spec = pipeline.ProblemSpec.from_dict(json.load(handle))
    spec.weight, spec.alpha, spec.d = (0, 0, 0, 0), [0.4], 3
    spec.coefficients = [1.0, 1.0, 1.0, 1.0]
    with pytest.raises(DivergentArgument) as info:
        pipeline.run(spec, verify=True)
    message = str(info.value)
    assert message.startswith("margin 0.000112 <= 0.01587 along l = ")
    assert message.endswith(
        "|argument| = 1 is within the grid floor of the boundary 1")


def test_region_tables_are_built_once_per_lattice_and_face():
    """A cone's table depends on its lattice and face alone: a new bundle of
    the same system, as each run(verify=True) builds, tabulates nothing."""
    spec = fixtures()["triangle-3scale"]
    spec.weight = (1, 0, 1, 0, 1, 1)            # a weight no other test uses
    misses = series_module._cone.cache_info().misses
    first = pipeline.run(spec).bundle._regions
    built = series_module._cone.cache_info().misses - misses
    assert built == len(first[0]) // 64 > 1
    again = pipeline.run(spec).bundle._regions
    assert series_module._cone.cache_info().misses - misses == built
    assert sorted(map(tuple, first[0])) == sorted(map(tuple, again[0]))


def test_a_missing_parameter_is_reported_before_a_divergent_point():
    """gamma is read before the region check, so a call with both faults
    raises UnassignedParameter."""
    spec = fixtures()["one-mass-bubble"]
    rep = pipeline.run(spec)      # default orientation: argument 3/2 > 1
    coeffs = pipeline.coefficient_values(spec, rep.column_exponents,
                                         rep.polynomial)
    lacking = {k: v for k, v in spec.assignment().items() if k != "a1"}
    with pytest.raises(UnassignedParameter, match="'a1'"):
        rep.series[0].evaluate(lacking, coeffs, 10)


def test_flipped_weight_inverts_argument():
    spec = fixtures()["one-mass-bubble"]
    spec.weight = (0, 0, 0, 1)
    rep = pipeline.run(spec)
    coeffs = pipeline.coefficient_values(spec, rep.column_exponents,
                                         rep.polynomial)
    value, tail = rep.series[0].evaluate(spec.assignment(), coeffs, 40)
    assert math.isfinite(value)
    assert tail < 1e-6 * abs(value)


def test_truncation_tail_reported():
    spec = fixtures()["2f1-double"]
    rep = pipeline.run(spec)
    coeffs = [1.0, 1.0, 1.0, 2.0]
    v20, t20 = rep.series[0].evaluate(spec.assignment(), coeffs, 20)
    v40, t40 = rep.series[0].evaluate(spec.assignment(), coeffs, 40)
    assert abs(v40 - v20) <= 10 * t20
    assert t40 < t20


def _convergent_coeffs(series, t=0.25):
    """c = exp(-t * sum of the lattice generators): every lattice argument
    of the fixtures' series is then well inside its convergence region."""
    total = [sum(v[i] for v in series.lattice) for i in range(series.nvars)]
    return [math.exp(-t * x) for x in total]


def _reference_sum(series, assignment, coeffs, order):
    """sum over the symbolic terms of coefficient * c^shift, times c^gamma."""
    total = 0.0
    for term in series.enumerate_terms(order):
        value = term.coefficient.evaluate(assignment)
        for c, e in zip(coeffs, term.shift):
            value *= c ** e
        total += value
    for c, g in zip(coeffs, series.gamma.components):
        total *= c ** g.evaluate(assignment)
    return total


def test_evaluate_matches_symbolic_reference_on_every_fixture():
    for name, spec in fixtures().items():
        rep = pipeline.run(spec)
        assignment = spec.assignment()
        for series in rep.series:
            coeffs = _convergent_coeffs(series)
            value, _ = series.evaluate(assignment, coeffs, spec.order)
            reference = _reference_sum(series, assignment, coeffs, spec.order)
            assert value == pytest.approx(reference, rel=1e-12), name


def test_box_interior_order_80_is_finite_and_converged():
    spec = fixtures()["box"]
    spec.alpha = [0.7, 0.6, 0.65, 0.75]
    rep = pipeline.run(spec)
    coeffs = pipeline.coefficient_values(spec, rep.column_exponents,
                                         rep.polynomial)
    v80 = rep.bundle.evaluate(spec.assignment(), coeffs, 80)
    v60 = rep.bundle.evaluate(spec.assignment(), coeffs, 60)
    assert math.isfinite(v80)
    assert v80 == pytest.approx(v60, rel=1e-12)


def test_vanishing_denominator_raises_pole_error():
    # gamma_2 = -a1 + a2 = -1, so (gamma_2 + 1)_x = (0)_x for every x > 0
    spec = fixtures()["2f1-double"]
    rep = pipeline.run(spec)
    assignment = dict(spec.assignment(), a1=1.5, a2=0.5)
    series = rep.series[0]
    with pytest.raises(PoleError):
        series.evaluate(assignment, [1.0, 1.0, 1.0, 2.0], 10)
    with pytest.raises(PoleError):
        _reference_sum(series, assignment, [1.0, 1.0, 1.0, 2.0], 10)


def test_evaluate_skips_denominators_no_kept_term_reaches():
    # gamma_4 = -a2 = -2 has (gamma_4 + 1)_2 = 0, but the lattice vector
    # (-1, 1, 1, -1) keeps that column at or below 0, so no term divides by it
    spec = fixtures()["2f1-double"]
    rep = pipeline.run(spec)
    assignment = dict(spec.assignment(), a2=2.0)
    series = rep.series[0]
    assert series.gamma.components[3].evaluate(assignment) == -2.0
    assert max(u[3] for u in series._box(spec.order)[1].tolist()) == 0
    coeffs = _convergent_coeffs(series)
    value, _ = series.evaluate(assignment, coeffs, spec.order)
    reference = _reference_sum(series, assignment, coeffs, spec.order)
    assert value == pytest.approx(reference, rel=1e-12)


def _random_gamma(rng, kind):
    if kind == "generic":
        return rng.uniform(-8, 8)
    if kind == "near-integer":
        return rng.randint(-7, 7) + rng.choice((-1, 1)) * rng.uniform(1e-3, 1e-2)
    if kind == "negative-integer":
        return float(rng.randint(-7, -1))
    return float(rng.randint(0, 7))


def _reached(g, x):
    """Entries some kept term reads: the prune stops a non-negative integer
    g at x = -g, and a negative integer g is reached only below x = -g."""
    if g == round(g):
        return x >= -g if g >= 0 else x < -g
    return True


def _table_over(gamma, lo, hi):
    """The factor table of every row over x = lo..hi, both sides read, and
    the flat index of each (row, x) entry."""
    layout, bases = _half_rows([lo] * len(gamma), [hi] * len(gamma))
    logs, signs = _factor_table(np.array(gamma), *layout)
    sides = (lo < 0) + (hi > 0)
    assert logs.shape == signs.shape == (sides * len(gamma) or 1,
                                         max(-lo, hi) + 1)
    return (logs.ravel(), signs.ravel(),
            lambda i, x: bases[int(x > 0), i] + abs(x))


def test_factor_table_matches_per_entry_reference():
    rng = random.Random(7)
    kinds = ("generic", "near-integer", "negative-integer", "non-negative-integer")
    for _ in range(40):
        gamma = [_random_gamma(rng, rng.choice(kinds)) for _ in range(5)]
        lo, hi = -rng.randint(0, 400), rng.randint(0, 400)
        logs, signs, entry = _table_over(gamma, lo, hi)
        for i, g in enumerate(gamma):
            for x in range(lo, hi + 1):
                if not _reached(g, x):
                    continue
                want, sign = log_poch(g + 1 + x, -x)
                got = logs[entry(i, x)]
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (g, x)
                assert signs[entry(i, x)] == sign, (g, x)


def test_factor_table_stays_exact_next_to_integers():
    """Within 1e-8 of an integer the table keeps ~14 digits: each entry is a
    sum of log|g+k| with g+k exact, where the lgamma difference behind
    log_poch loses digits in proportion to 1/distance."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for distance in (1e-8, -1e-8, 1e-5):
        gamma = [-3 + distance, 2 + distance]
        logs, signs, entry = _table_over(gamma, -60, 60)
        for i, g in enumerate(gamma):
            for x in range(-60, 61):
                exact = mpmath.rf(mpmath.mpf(g) + 1 + x, -x)
                want = float(mpmath.log(abs(exact)))
                assert abs(logs[entry(i, x)] - want) <= 1e-13 * max(1.0, abs(want))
                assert signs[entry(i, x)] == (1.0 if exact > 0 else -1.0)


def _two_boxes(rep):
    """rep's bundle with every even-numbered series re-based as a RawSeries
    on the oriented lattice, so that its plan joins two boxes."""
    shapes = series_module.LatticeShapes(rep.lattice, rep.weight)
    shapes.candidates = []
    return SolutionBundle(
        [phi if i % 2 else series_module.CanonicalSeries(
            exponent, rep.lattice, rep.weight, shapes)
         for i, (phi, exponent) in enumerate(zip(rep.series, rep.exponents))],
        rep.bundle.constants)


def test_bundle_values_match_the_golden_record():
    """tests/bundle_golden.json holds float.hex of the values and tails of
    every fixture's bundle, and of triangle-3scale's on two boxes, at three
    interior points and orders 0, 10, 40 and 80, as the kernel gave them
    when its factor table spanned x = lo..hi on every row.  The half-row
    table sums the same floats in the same order, so every bit holds."""
    with open(os.path.join(os.path.dirname(__file__),
                           "bundle_golden.json")) as handle:
        cases = json.load(handle)
    assert len(cases) == 4 * (len(fixtures()) + 1)
    reports = {}
    for case in cases:
        name = case["fixture"]
        if name not in reports:
            reports[name] = pipeline.run(fixtures()[name])
        bundle = (_two_boxes(reports[name]) if case["mixed"]
                  else reports[name].bundle)
        assignment = {key: float.fromhex(value)
                      for key, value in case["assignment"].items()}
        points = [[float.fromhex(x) for x in point] for point in case["points"]]
        values, tails = bundle.evaluate_points(assignment, points,
                                               case["order"])
        assert [float(v).hex() for v in values] == case["values"], case
        assert [float(t).hex() for t in tails] == case["tails"], case


def test_factor_table_holds_only_the_half_rows_its_terms_read():
    """2f1-double at order 40 reads each component on one side only: 8
    half-rows of 41 entries, against 8 rows of 81 over x = -40..40, and
    every half-row is read out to its last column.  sunset-1mass's
    components with v_j = 0 read only x = 0 and get no half-row."""
    for name, order, size in (("2f1-double", 40, 328),
                              ("sunset-1mass", 60, 488)):
        spec = fixtures()[name]
        bundle = pipeline.run(spec).bundle
        *_, (rows, steps, left), flat = bundle._terms(order)
        gamma = np.array(bundle._gamma_map(spec.assignment()))
        logs, signs = _factor_table(gamma, rows, steps, left)
        assert logs.size == signs.size == size, name
        ends = np.arange(1, len(rows) + 1) * logs.shape[1] - 1
        assert np.isin(ends, flat).all(), name
    flat_rows = {i * phi.nvars + j for i, phi in enumerate(bundle.series)
                 for j, x in enumerate(phi.lattice[0]) if x == 0}
    assert len(flat_rows) == 2 and flat_rows.isdisjoint(rows.tolist())


def test_an_order_0_plan_reads_no_half_row():
    """At order 0 each series keeps only u = 0: no half-row is built, every
    factor reads the lone f(0) = 1, and the sum is K_i c^gamma_i (the
    golden record holds its bits at every fixture)."""
    spec = fixtures()["2f1-double"]
    bundle = pipeline.run(spec).bundle
    *_, (rows, steps, left), flat = bundle._terms(0)
    assert len(rows) == left == 0 and flat.shape == (4, 2) and not flat.any()
    gamma = np.array(bundle._gamma_map(spec.assignment()))
    logs, signs = _factor_table(gamma, rows, steps, left)
    assert logs.tolist() == [[0.0]] and signs.tolist() == [[1.0]]
    coeffs = [1.0, 1.0, 1.0, 2.0]
    want = sum(k * math.prod(c ** g.evaluate(spec.assignment())
                             for c, g in zip(coeffs, phi.gamma.components))
               for phi, k in zip(bundle.series,
                                 bundle.constant_values(spec.assignment())))
    assert bundle.evaluate(spec.assignment(), coeffs, 0) == pytest.approx(
        want, rel=1e-14)


def _term_major_sum(bundle, assignment, points, order):
    """evaluate_points' (values, tails) with each term's factor indices as
    a row, one row per term, and its logs and signs reduced across that
    short last axis: the formula of a term-major index."""
    shifts, shell, owner, layout, flat = bundle._terms(order)
    by_term = np.ascontiguousarray(flat.T)
    gamma = np.array(bundle._gamma_map(assignment)).reshape(
        len(bundle.series), -1)
    rounded = np.rint(gamma)
    snapped = np.where(np.abs(gamma - rounded) < gammafn._INT_TOL, rounded,
                       gamma)
    logs, signs = _factor_table(snapped.ravel(), *layout)
    constants = bundle.constant_values(assignment)
    log_points = np.log(np.array(points, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sizes = logs.take(by_term).sum(axis=1)
        sizes[np.isnan(sizes)] = -np.inf
        exponents = (log_points @ shifts.T + (log_points @ gamma.T + np.log(
            np.abs(constants)))[:, owner])
        values = (signs.take(by_term).prod(axis=1)
                  * np.sign(constants)[owner] * np.exp(sizes + exponents))
    return values.sum(axis=1), np.abs(values[:, shell]).sum(axis=1)


def test_every_plan_indexes_its_factors_factor_major():
    """The plan's flat index is (factors, terms) and C-contiguous, so the
    kernel's reductions run along the terms, one row per factor."""
    for name, spec in fixtures().items():
        bundle = pipeline.run(spec).bundle
        *_, owner, _, flat = bundle._terms(10)
        assert flat.shape == (bundle.series[0].nvars, len(owner)), name
        assert flat.flags.c_contiguous, name


def test_sum_equals_the_term_major_reduction_bit_for_bit():
    """Below 8 factors NumPy sums a short row in order, a0 + a1 + ..., as
    the factor-major sum adds its rows: on every fixture (at most 6
    components), at orders 10 and 40 and seeded interior points, values
    and tails keep the term-major formula's float.hex."""
    rng = random.Random(36)
    for name, spec in fixtures().items():
        rep = pipeline.run(spec)
        assert rep.series[0].nvars < 8, name
        for order in (10, 40):
            points = _points(rep.series[0], rng, 3)
            got = rep.bundle.evaluate_points(spec.assignment(), points, order)
            want = _term_major_sum(rep.bundle, spec.assignment(), points, order)
            for g, w in zip(got, want):
                assert [float(x).hex() for x in g] == [
                    float(x).hex() for x in w], (name, order)


def test_nine_factor_sum_matches_the_term_major_reduction():
    """At 9 components a short row is summed pairwise, so the orders of
    addition differ: the massive triangle (weight 0 on z_i, 1 on the
    quadratic monomials) at order 8 matches to rounding."""
    w = (0, 0, 0, 1, 1, 1, 1, 1, 1)
    spec = pipeline.ProblemSpec(
        terms=list(helpers.massive_ngon(3).terms.items()), weight=w,
        alpha=[0.3, 0.4, 0.5], d=4, deformation="none")
    bundle = pipeline.run(spec).bundle
    point = [0.7 ** x for x in (-7, -6, -4, 38, 38, 39, 33, 32, 24)]
    got = bundle.evaluate_points(spec.assignment(), [point], 8)
    want = _term_major_sum(bundle, spec.assignment(), [point], 8)
    assert bundle._terms(8)[-1].shape[0] == 9
    for g, x in zip(got, want):
        assert g == pytest.approx(x, rel=1e-13, abs=0)


def test_evaluate_makes_no_per_entry_special_function_calls(monkeypatch):
    """Every fixture's series evaluates with the per-entry Pochhammer and
    log-Gamma routes switched off: they stay only as the test reference."""
    bundles = []
    for spec in fixtures().values():
        bundles.append((spec, pipeline.run(spec).series))

    def refuse(*args):
        raise AssertionError("per-entry special function called")

    for module, name in ((pochhammer, "log_poch"),
                         (gammafn, "log_gamma_signed"),
                         (series_module, "log_poch"),
                         (series_module, "log_gamma_signed")):
        monkeypatch.setattr(module, name, refuse, raising=False)
    for spec, all_series in bundles:
        for series in all_series:
            value, _ = series.evaluate(spec.assignment(),
                                       _convergent_coeffs(series), spec.order)
            assert math.isfinite(value)


def _points(series, rng, count=4):
    """Coefficient points scattered inside the convergence region."""
    return [[c * math.exp(rng.uniform(-0.05, 0.05))
             for c in _convergent_coeffs(series, rng.uniform(0.3, 0.6))]
            for _ in range(count)]


def test_evaluate_points_matches_per_point_evaluate():
    """At every bundle fixture's stated parameters and at orders 40 and 80,
    the batched path agrees with one evaluate call per point, for each
    series (value and tail) and for the bundle."""
    rng = random.Random(11)
    for name, spec in fixtures().items():
        rep = pipeline.run(spec)
        assignment = spec.assignment()
        for order in (40, 80):
            for series in rep.series:
                points = _points(series, rng)
                values, tails = series.evaluate_points(assignment, points, order)
                assert values.shape == tails.shape == (len(points),)
                for point, value, tail in zip(points, values, tails):
                    want, want_tail = series.evaluate(assignment, point, order)
                    assert value == pytest.approx(want, rel=1e-13), (name, order)
                    assert tail == pytest.approx(want_tail, rel=1e-13, abs=0)
            points = _points(rep.series[0], rng)
            totals, _ = rep.bundle.evaluate_points(assignment, points, order)
            for point, total in zip(points, totals):
                want = rep.bundle.evaluate(assignment, point, order)
                assert total == pytest.approx(want, rel=1e-13), (name, order)


def test_a_bundle_of_one_has_its_series_tail():
    """On every fixture, each series summed as a bundle of one with K = 1
    gives CanonicalSeries.evaluate's value and tail, bit for bit."""
    for name, spec in fixtures().items():
        for series in pipeline.run(spec).series:
            coeffs = _convergent_coeffs(series)
            bundle = SolutionBundle([series], [GammaFactor()])
            values, tails = bundle.evaluate_points(spec.assignment(),
                                                   [coeffs], spec.order)
            value, tail = series.evaluate(spec.assignment(), coeffs,
                                          spec.order)
            assert (float(values[0]).hex(), float(tails[0]).hex()) == (
                value.hex(), tail.hex()), name


def test_evaluate_points_raises_if_any_point_diverges():
    for name in ("one-mass-bubble", "triangle-3scale"):
        spec = fixtures()[name]
        rep = pipeline.run(spec)
        series = rep.series[0]
        inside = _convergent_coeffs(series)
        # c^(-4 * lattice sum) puts every lattice argument far above 1
        outside = _convergent_coeffs(series, -4.0)
        series.evaluate_points(spec.assignment(), [inside], 10)
        with pytest.raises(DivergentArgument):
            series.evaluate_points(spec.assignment(), [inside, outside], 10)
        with pytest.raises(DivergentArgument):
            rep.bundle.evaluate_points(spec.assignment(), [outside, inside], 10)


def test_evaluate_points_keeps_pole_semantics():
    spec = fixtures()["2f1-double"]
    series = pipeline.run(spec).series[0]
    points = [[1.0, 1.0, 1.0, 2.0], [1.0, 1.2, 0.9, 2.5]]
    with pytest.raises(PoleError):
        series.evaluate_points(dict(spec.assignment(), a1=1.5, a2=0.5),
                               points, 10)
    # no kept term reaches the vanishing denominator of gamma_4 = -2
    assignment = dict(spec.assignment(), a2=2.0)
    values, _ = series.evaluate_points(assignment, points, spec.order)
    for point, value in zip(points, values):
        reference = _reference_sum(series, assignment, point, spec.order)
        assert value == pytest.approx(reference, rel=1e-12)


def test_non_positive_coefficient_raises_typed_error():
    spec = fixtures()["2f1-double"]
    rep = pipeline.run(spec)
    for coeffs in ([1.0, -0.5, 1.0, 2.0], [1.0, 0.0, 1.0, 2.0],
                   [1.0, math.nan, 1.0, 2.0]):
        with pytest.raises(NonPositiveCoefficient):
            rep.series[0].evaluate(spec.assignment(), coeffs, 10)
        with pytest.raises(NonPositiveCoefficient):
            rep.bundle.evaluate_points(spec.assignment(),
                                       [[1.0, 1.0, 1.0, 2.0], coeffs], 10)


def test_non_finite_coefficient_raises_typed_error():
    """c = inf used to pass the region check (nan >= 1 is false) and
    return nan."""
    spec = fixtures()["2f1-double"]
    rep = pipeline.run(spec)
    for coeffs in ([math.inf, math.inf, 1.0, 2.0], [1.0, 1.0, 1.0, math.inf]):
        with pytest.raises(NonPositiveCoefficient, match="finite"):
            rep.bundle.evaluate(spec.assignment(), coeffs, 10)
        with pytest.raises(NonPositiveCoefficient, match="finite"):
            rep.series[0].evaluate_points(spec.assignment(),
                                          [[1.0, 1.0, 1.0, 2.0], coeffs], 10)


def test_plan_keeps_no_per_call_state(monkeypatch):
    """A parameter-dependent gamma component at a non-negative integer
    zeroes its terms through the factor table, not the plan: the plan
    depends on the order alone, so calls at a generic assignment and at a
    second order match a freshly built series, each order gathers once,
    and the same holds for a bundle's joint plan."""
    spec = fixtures()["2f1-double"]
    rep = pipeline.run(spec)
    series = rep.series[0]
    generic = spec.assignment()
    # gamma_1 = -beta + a1 = 2: the falling factorial [2]_k ends the sum
    integer = dict(generic, a1=generic["beta"] + 2)
    coeffs = [1.0, 1.0, 1.0, 2.0]
    gathers = []
    real = series_module._gather

    def counted(*args):
        gathers.append(args)
        return real(*args)

    monkeypatch.setattr(series_module, "_gather", counted)
    steps = [(integer, spec.order, 1),         # the plan for this order
             (generic, spec.order, 0),         # the same plan
             (generic, 2 * spec.order, 1),     # a plan for the new order
             (integer, 2 * spec.order, 0),     # the same plan
             (integer, spec.order, 0)]         # the first plan, kept
    for assignment, order, count in steps:
        gathers.clear()
        value, tail = series.evaluate(assignment, coeffs, order)
        assert len(gathers) == count
        fresh = pipeline.run(spec).series[0]
        want, want_tail = fresh.evaluate(assignment, coeffs, order)
        assert value == pytest.approx(want, rel=1e-14)
        assert tail == pytest.approx(want_tail, rel=1e-14, abs=0)
        if assignment is integer:
            reference = _reference_sum(series, assignment, coeffs, order)
            assert value == pytest.approx(reference, rel=1e-12)
    # unit constants: the Gamma prescription has a pole at gamma_1 = 2
    ones = [GammaFactor()] * len(rep.series)
    bundle = SolutionBundle(rep.series, ones)
    for assignment, order, count in steps:
        gathers.clear()
        total = bundle.evaluate(assignment, coeffs, order)
        assert len(gathers) == count
        fresh = SolutionBundle(pipeline.run(spec).series, ones)
        assert total == pytest.approx(
            fresh.evaluate(assignment, coeffs, order), rel=1e-14)
        assert total == pytest.approx(helpers.bundle_reference(
            bundle, assignment, [coeffs], order)[0], rel=1e-13)


def test_a_zero_gamma_of_either_sign_shares_one_plan(monkeypatch):
    """gamma_1 = -beta + a1 at +-1e-12 enters the factor table as 0 (rint
    gives 0.0 or -0.0), so both signs give the terms of gamma_1 = 0 from
    the one plan."""
    spec = fixtures()["2f1-double"]
    series = pipeline.run(spec).series[0]
    generic = spec.assignment()
    gathers = []
    real = series_module._gather
    monkeypatch.setattr(series_module, "_gather",
                        lambda *args: gathers.append(args) or real(*args))
    values = [series.evaluate(dict(generic, a1=generic["beta"] + offset),
                              [1.0, 1.0, 1.0, 2.0], spec.order)
              for offset in (1e-12, -1e-12)]
    assert len(gathers) == 1
    assert values[0] == pytest.approx(values[1], rel=1e-9)


def test_a_term_with_a_zero_and_a_pole_counts_as_zero():
    """2f1-double's first series, gamma = (-beta + a1, -a1 + a2, 0, -a2)
    on the lattice (-1, 1, 1, -1), at gamma_1 = 2: the falling factorial
    [2]_k vanishes for k >= 3.  At gamma_2 = -3 the rising (-2)_k vanishes
    there too, and those terms are 0, as the exact coefficients drop a
    vanishing numerator before a pole can raise; at gamma_2 = -2 the pole
    at k = 2 stands alone and raises."""
    spec = fixtures()["2f1-double"]
    series = pipeline.run(spec).series[0]
    generic = spec.assignment()
    coeffs = [1.0, 1.0, 1.0, 2.0]
    both = dict(generic, a1=generic["beta"] + 2, a2=0.9)
    assert [g.evaluate(both) for g in series.gamma.components] == [
        2.0, -3.0, 0.0, -0.9]
    value, _ = series.evaluate(both, coeffs, spec.order)
    assert value == pytest.approx(
        _reference_sum(series, both, coeffs, spec.order), rel=1e-13)
    bundle = SolutionBundle([series], [GammaFactor()])
    assert bundle.evaluate(both, coeffs, spec.order) == value
    pole = dict(both, a2=1.9)
    for evaluate in (series.evaluate, bundle.evaluate,
                     functools.partial(_reference_sum, series)):
        with pytest.raises(PoleError):
            evaluate(pole, coeffs, spec.order)


@pytest.mark.parametrize("name, value", [("a1", math.nan),
                                         ("beta", math.inf),
                                         ("a2", -math.inf)])
def test_a_parameter_that_is_not_finite_raises_typed_error(name, value):
    """Checked before any constant: nan would pass the pole rule silently
    and an infinite gamma would read as a pole."""
    spec = fixtures()["2f1-double"]
    rep = pipeline.run(spec)
    assignment = dict(spec.assignment(), **{name: value})
    coeffs = [1.0, 1.0, 1.0, 2.0]
    message = re.escape(f"parameter {name!r} is {value}, not finite")
    for evaluate in (lambda: rep.series[0].evaluate(assignment, coeffs, 10),
                     lambda: rep.bundle.evaluate(assignment, coeffs, 10),
                     lambda: deformation_limit_probe(rep.bundle, assignment,
                                                     coeffs, 1, [1e-1], 1.0)):
        with pytest.raises(DimensionMismatch, match=message):
            evaluate()


@pytest.mark.parametrize("name, value", [("beta", 1e300), ("a2", -1e300)])
def test_a_sum_past_the_float_range_raises_typed_error(name, value):
    """A finite parameter whose terms overflow gives NonFiniteValue, not a
    silent inf or nan, and no RuntimeWarning; at a2 = -1e300 the bundle's
    Gamma constants meet a pole first."""
    spec = fixtures()["2f1-double"]
    rep = pipeline.run(spec)
    assignment = dict(spec.assignment(), **{name: value})
    coeffs = [1.0, 1.0, 1.0, 2.0]
    calls = [lambda: rep.series[0].evaluate(assignment, coeffs, 10)]
    if name == "beta":
        calls.append(lambda: rep.bundle.evaluate(assignment, coeffs, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in calls:
            with pytest.raises(NonFiniteValue):
                evaluate()


def test_plan_is_built_once_per_order_and_never_by_run(monkeypatch):
    """The exact chain builds no plan; evaluation builds one per order, and
    a bundle's joint plan one box per distinct lattice."""
    calls = []
    real = series_module.CanonicalSeries._box

    def counted(self, order):
        calls.append(order)
        return real(self, order)

    monkeypatch.setattr(series_module.CanonicalSeries, "_box", counted)
    for spec in fixtures().values():
        pipeline.run(spec)
    assert calls == []
    spec = fixtures()["2f1-double"]
    series = pipeline.run(spec).series[0]
    for _ in range(3):
        series.evaluate(spec.assignment(), [1.0, 1.0, 1.0, 2.0], spec.order)
    assert calls == [spec.order]
    series.evaluate(spec.assignment(), [1.0, 1.0, 1.0, 2.0], 2 * spec.order)
    assert calls == [spec.order, 2 * spec.order]
    calls.clear()
    bundle = pipeline.run(spec).bundle
    assert len({tuple(phi.lattice) for phi in bundle.series}) == 1
    for order in (spec.order, spec.order, 2 * spec.order):
        bundle.evaluate(spec.assignment(), [1.0, 1.0, 1.0, 2.0], order)
    assert calls == [spec.order, 2 * spec.order]
    spec.weight = (0, 0, 0, 1)                  # the opposite orientation
    mixed = SolutionBundle([series, pipeline.run(spec).series[0]],
                           [GammaFactor()] * 2)
    calls.clear()
    with pytest.raises(DivergentArgument):      # the plan comes first
        mixed.evaluate(spec.assignment(), [1.0, 1.0, 1.0, 2.0], spec.order)
    assert calls == [spec.order] * 2


def test_evaluate_points_rejects_points_of_the_wrong_length():
    spec = fixtures()["2f1-double"]
    series = pipeline.run(spec).series[0]
    for points in ([[1.0, 1.0], [1.0, 2.0]], [1.0, 1.0, 1.0, 2.0]):
        with pytest.raises(DimensionMismatch):
            series.evaluate_points(spec.assignment(), points, 10)


def _form_key(form, lattice):
    return (form.kind, [str(p) for p in form.upper],
            [str(p) for p in form.lower], form.arguments,
            form.argument_signs, [tuple(v) for v in lattice])


def _reference_key(gamma, lattice, weight):
    kind, upper, lower, arguments, signs, basis = helpers.classify_reference(
        gamma, lattice, weight)
    return (kind, [str(p) for p in upper], [str(p) for p in lower],
            arguments, signs, [tuple(v) for v in basis])


def test_classification_matches_per_series_reference_on_fixtures():
    for name, spec in fixtures().items():
        rep = pipeline.run(spec)
        for phi, exponent in zip(rep.series, rep.exponents):
            want = _reference_key(exponent.components, rep.lattice,
                                  rep.weight)
            assert _form_key(phi.form, phi.lattice) == want, name
            alone = series_module.CanonicalSeries(exponent, rep.lattice,
                                                  rep.weight)
            assert _form_key(alone.form, alone.lattice) == want, name


def _random_lattice(rng, nvars, rank):
    """A rank-1 vector, mostly of {-1, 0, 1} entries, or a rank-2 basis:
    half the time an Appell F4 pair under a small unimodular change."""
    if rank == 1:
        return [tuple(rng.choice((-2, -1, -1, 0, 0, 1, 1, 2) if
                                 rng.random() < 0.2 else (-1, 0, 1))
                      for _ in range(nvars))]
    if nvars >= 6 and rng.random() < 0.5:
        a, b, c, d, e, f = rng.sample(range(nvars), 6)
        v1 = [0] * nvars
        v2 = [0] * nvars
        for v, pos in ((v1, (c, d)), (v2, (e, f))):
            v[a] = v[b] = -1
            for i in pos:
                v[i] = 1
        p, q, r, s = rng.choice(((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1),
                                 (1, 0, -1, 1), (-1, 0, 1, 1), (1, -1, 0, -1)))
        return [tuple(p * x + q * y for x, y in zip(v1, v2)),
                tuple(r * x + s * y for x, y in zip(v1, v2))]
    return [tuple(rng.choice((-1, 0, 1)) for _ in range(nvars))
            for _ in range(2)]


def _random_component(rng, i):
    choice = rng.random()
    if choice < 0.4:
        return ParamLinear.const(0)
    if choice < 0.55:
        return ParamLinear.const(rng.choice((-2, -1, 1, 2)))
    if choice < 0.65:
        return ParamLinear.const(Fraction(rng.choice((-3, -1, 1)), 2))
    return ParamLinear.param(f"a{i + 1}") + rng.choice(
        (0, 0, -1, Fraction(1, 2)))


def test_classification_matches_per_series_reference_on_random_lattices():
    """300 seeded lattices, rank 1 and 2, each classified for three
    exponents through one shared LatticeShapes and through a series built
    alone; both give the per-series reference's form and basis."""
    rng = random.Random(2107)
    kinds = set()
    for trial in range(300):
        nvars, rank = rng.randint(3, 8), 1 + trial % 2
        lattice = _random_lattice(rng, nvars, rank)
        weight = [rng.randint(-1, 2) for _ in range(nvars)]
        shapes = series_module.LatticeShapes(lattice, weight)
        for _ in range(3):
            gamma = tuple(_random_component(rng, i) for i in range(nvars))
            want = _reference_key(gamma, lattice, weight)
            kinds.add(want[0])
            exponent = FakeExponent(gamma, StandardPair((0,) * nvars, ()),
                                    -sum(gamma, ParamLinear.const(0)))
            shared = series_module.CanonicalSeries(exponent, lattice, weight,
                                                   shapes)
            alone = series_module.CanonicalSeries(exponent, lattice, weight)
            assert _form_key(shared.form, shared.lattice) == want, trial
            assert _form_key(alone.form, alone.lattice) == want, trial
    assert {"AppellF4", "RawSeries", "2F1", "3F2"} <= kinds


def test_one_f4_shape_search_per_run(monkeypatch):
    calls = []
    search = series_module.f4_bases

    def counted(lattice):
        calls.append(lattice)
        return search(lattice)

    monkeypatch.setattr(series_module, "f4_bases", counted)
    rep = pipeline.run(fixtures()["triangle-3scale"])
    assert [f.kind for f in rep.forms] == ["AppellF4"] * 4
    assert len(calls) == 1
