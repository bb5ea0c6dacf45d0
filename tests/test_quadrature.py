"""The numeric oracle: closed forms, covariance properties, divergence."""

import importlib
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import helpers
from feyngkz import pipeline
from feyngkz.errors import (DimensionMismatch, NonConvergent,
                            NonPositiveCoefficient)
from feyngkz.fixtures import fixtures
from feyngkz.intlinalg import integer_rank
from feyngkz.quadrature import (Factor, Integrand, QuadratureSpec,
                                convergence_margin, quadrature, reduce_linear)

# the package re-exports the function quadrature() under the module name
quadrature_module = importlib.import_module("feyngkz.quadrature")


def _spec(exponents, coefficients, alpha, beta, tol=1e-10):
    return QuadratureSpec(exponents=exponents, coefficients=coefficients,
                          alpha=alpha, beta=beta, target_tolerance=tol)


def test_one_dimensional_beta_integral():
    """int z^(a-1) (c1 + c2 z)^-b dz = c1^(a-b) c2^-a B(a, b-a)."""
    rng = random.Random(3)
    for _ in range(5):
        a = rng.uniform(0.3, 1.5)
        b = a + rng.uniform(0.4, 2.0)
        c1 = rng.uniform(0.5, 2.0)
        c2 = rng.uniform(0.5, 2.0)
        res = quadrature(_spec([(0,), (1,)], [c1, c2], [a], b))
        exact = (c1 ** (a - b) * c2 ** (-a)
                 * math.gamma(a) * math.gamma(b - a) / math.gamma(b))
        assert (res.dims, res.nodes, res.method) == (0, 0, "closed-form")
        assert res.target_met
        assert abs(res.value - exact) / exact < 1e-13, (a, b)


def test_two_dimensional_closed_form():
    # massless bubble: Gamma(b-a1) Gamma(b-a2) Gamma(a1+a2-b) / Gamma(b)
    a1, a2, b = 1.3, 1.2, 1.9
    res = quadrature(_spec([(1, 0), (0, 1), (1, 1)], [1.0, 1.0, 1.0],
                           [a1, a2], b))
    exact = (math.gamma(b - a1) * math.gamma(b - a2)
             * math.gamma(a1 + a2 - b) / math.gamma(b))
    assert abs(res.value - exact) / exact < 1e-9


def test_overall_scaling_covariance():
    """Scaling every coefficient by lam multiplies the value by lam^-beta."""
    base = _spec([(1, 0), (0, 1), (1, 1)], [1.0, 2.0, 0.7], [1.1, 1.2], 1.8)
    lam = 1.7
    scaled = _spec([(1, 0), (0, 1), (1, 1)], [lam, 2 * lam, 0.7 * lam],
                   [1.1, 1.2], 1.8)
    v1 = quadrature(base).value
    v2 = quadrature(scaled).value
    assert abs(v2 - v1 * lam ** -1.8) / abs(v2) < 1e-8


def test_torus_covariance():
    """Rescaling z_i by t_i maps c_a -> c_a t^a and the value by t^-alpha."""
    exponents = [(1, 0), (0, 1), (1, 1), (0, 2)]
    coeffs = [1.0, 1.0, 1.5, 1.0]
    alpha = [1.2, 1.3]
    beta = 1.9
    t = (1.4, 0.8)
    twisted = [c * t[0] ** e[0] * t[1] ** e[1]
               for c, e in zip(coeffs, exponents)]
    v1 = quadrature(_spec(exponents, coeffs, alpha, beta)).value
    v2 = quadrature(_spec(exponents, twisted, alpha, beta)).value
    expected = v1 * t[0] ** -alpha[0] * t[1] ** -alpha[1]
    assert abs(v2 - expected) / abs(v2) < 1e-8


def test_divergent_outside_newton_polytope():
    # alpha/beta below the lower facet: the z -> 0 corner diverges
    spec = _spec([(1, 0), (0, 1), (1, 1), (0, 2)], [1.0, 1.0, 1.5, 1.0],
                 [0.3, 0.4], 1.9)
    assert convergence_margin(Integrand.from_spec(spec)) < 0
    with pytest.raises(NonConvergent):
        quadrature(spec)


def test_divergent_at_large_z():
    # alpha above the top facet: the z -> infinity direction diverges
    spec = _spec([(1, 0), (0, 1), (1, 1)], [1.0, 1.0, 1.0], [1.9, 1.9], 1.9)
    with pytest.raises(NonConvergent):
        quadrature(spec)


def test_divergent_flat_newton_polytope():
    """Newt(1 + z1^2 z2^2) is a segment: alpha/beta on it is no interior
    point, and the integrand is constant along z1 z2 = const."""
    spec = _spec([(0, 0), (2, 2)], [1.0, 1.0], [0.6, 0.6], 1.0)
    assert convergence_margin(Integrand.from_spec(spec)) < 0
    with pytest.raises(NonConvergent):
        quadrature(spec)


def test_convergence_margin_interior():
    spec = _spec([(1, 0), (0, 1), (1, 1)], [1.0, 1.0, 1.0], [1.2, 1.3], 1.9)
    assert convergence_margin(Integrand.from_spec(spec)) > 0.1


def test_four_dimensional_tensor_rule():
    """prod_i (1 + z_i^2)^-3 at alpha_i = 3 reduces nothing; the integral is
    (B(3/2, 3/2) / 2)^4."""
    exponents = [tuple(2 * e for e in bits)
                 for bits in itertools.product((0, 1), repeat=4)]
    res = quadrature(_spec(exponents, [1.0] * 16, [3.0] * 4, 3.0, tol=1e-6))
    exact = (0.5 * math.gamma(1.5) ** 2 / math.gamma(3.0)) ** 4
    assert (res.dims, res.method) == (4, "tanh-sinh-tensor")
    assert abs(res.value - exact) <= res.error
    assert res.target_met


def test_node_limit_stops_halving(monkeypatch):
    """Under a small limit the rule stops before two passes agree and says
    so; its error still bounds the distance from the converged value."""
    spec = _spec([(0, 0), (1, 0), (0, 1), (0, 2), (2, 0)], [1.0] * 5,
                 [0.7, 0.6], 1.9)
    converged = quadrature(spec)
    assert converged.target_met
    monkeypatch.setattr(quadrature_module, "_PASS_NODE_LIMIT", 10_000)
    stopped = quadrature(spec)
    assert stopped.dims == 2 and stopped.nodes <= 10_000
    assert not stopped.target_met
    assert abs(stopped.value - converged.value) <= stopped.error


def test_tail_beyond_the_probe_radii():
    """g = 1 + z^2 at alpha = 1.99 converges (margin 0.005), but log f falls
    by only 0.01 per unit on the chart: the box reaches past the probe radii
    to where their last secant has dropped _DECAY_DROP."""
    alpha = 1.99
    res = quadrature(_spec([(0,), (2,)], [1.0, 1.0], [alpha], 1.0))
    exact = 0.5 * math.gamma(alpha / 2) * math.gamma(1 - alpha / 2)
    assert res.margin == pytest.approx(0.005) and res.target_met
    assert abs(res.value - exact) / exact < 1e-10


def test_far_peak_is_not_refused():
    """(eps + z1^2)(1 + z2^2), expanded, at eps = 1e-40 converges: log f
    climbs towards its peak near z1 = 1e-20 before it decays.  The value is
    the product of two one-variable closed forms."""
    eps, tol = 1e-40, 1e-8
    res = quadrature(_spec([(0, 0), (0, 2), (2, 0), (2, 2)],
                           [eps, eps, 1.0, 1.0], [0.5, 0.7], 1.0, tol=tol))
    exact = (0.5 * math.gamma(0.25) * math.gamma(0.75) * eps ** -0.75
             * 0.5 * math.gamma(0.35) * math.gamma(0.65))
    assert res.dims == 2 and abs(res.value - exact) <= res.error
    if res.target_met:
        assert abs(res.value - exact) <= tol * exact


def test_non_positive_beta_diverges():
    """beta = -1: the integrand is at least a monomial, whatever alpha is,
    so the gate refuses it (the Newton polytope alone would pass it)."""
    eps = 1e-40
    spec = _spec([(0, 0), (0, 2), (2, 0), (2, 2)], [eps, eps, 1.0, 1.0],
                 [-0.5, -0.7], -1.0)
    assert convergence_margin(Integrand.from_spec(spec)) <= 0
    with pytest.raises(NonConvergent, match="margin -1"):
        quadrature(spec)


def test_unsized_box_misses_its_target(monkeypatch):
    """z^1.99 / (1e-12 + z^2) climbs by 0.01 per unit along the negative
    chart axis up to its peak near x = -13.8.  With probe radii that end at
    11.4, that ray's last secant still climbs: the box is not sized, and the
    value comes back with target_met false instead of a divergence verdict.
    The other ray reaches further, so the value itself is right, and with
    the full probe table the target is met."""
    eps, alpha = 1e-12, 1.99
    spec = _spec([(0,), (2,)], [eps, 1.0], [alpha], 1.0)
    exact = (eps ** (alpha / 2 - 1) * 0.5 * math.gamma(alpha / 2)
             * math.gamma(1 - alpha / 2))
    assert quadrature(spec).target_met
    monkeypatch.setattr(quadrature_module, "_PROBE_RADII",
                        1.5 ** np.arange(7))
    res = quadrature(spec)
    assert res.dims == 1 and not res.target_met
    assert abs(res.value - exact) / exact < 1e-10


def _fresh_python(code):
    """Standard output of `code` run in a fresh interpreter."""
    src = str(pathlib.Path(quadrature_module.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True).stdout


def _loaded_modules(*names):
    """Module names that importing the given modules loads, in a fresh
    interpreter."""
    return _fresh_python(f"import sys, {', '.join(names)}; "
                         "print('\\n'.join(sys.modules))").split()


def test_import_leaves_scipy_out():
    """The runtime needs NumPy only: the convergence gate solves its linear
    program in exact rational arithmetic."""
    loaded = _loaded_modules("feyngkz", "feyngkz.cli")
    assert "feyngkz.cli" in loaded
    assert not [name for name in loaded if name.startswith("scipy")]


_VERIFY_2F1 = """
import json, sys
from feyngkz import fixtures, run
report = run(fixtures()["2f1-double"], verify=True)
print(json.dumps([sorted(sys.modules), float(report.series_value).hex(),
                  float(report.oracle.value).hex()]))
"""


def test_numpy_loads_on_first_numeric_use():
    """The exact chain (import, run without verify, the exact verbs) never
    imports NumPy; a verify loads it on first use, and its numbers are those
    of an interpreter that imported NumPy first, where the package binds
    that NumPy."""
    exact = """
import contextlib, io, sys
import feyngkz, feyngkz.cli
from feyngkz import cli, fixtures, run
for spec in fixtures().values():
    run(spec)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["symanzik", "--fixture", "box"], ["gkz", "--fixture", "box"],
                 ["series", "--fixture", "triangle-3scale"], ["fixtures"]):
        assert cli.main(argv) == 0
print([name for name in sys.modules if name.startswith("numpy.")])
"""
    lazy = _fresh_python(exact + _VERIFY_2F1).splitlines()
    eager = _fresh_python("import numpy, feyngkz\n"
                          "assert feyngkz.series.np is numpy\n" + _VERIFY_2F1)
    assert lazy[0] == "[]"
    loaded, *values = json.loads(lazy[1])
    assert any(name.startswith("numpy.") for name in loaded)
    assert values == json.loads(eager)[1:]


def test_probe_radii_equal_the_numpy_powers():
    radii = quadrature_module._PROBE_RADII
    powers = 1.5 ** np.arange(math.ceil(math.log(
        quadrature_module._PROBE_LIMIT, 1.5)) + 1)
    assert all(type(r) is float for r in radii)
    assert [r.hex() for r in radii] == [float(p).hex() for p in powers]


def test_dimension_limit():
    """1 + z1^2 + ... + z5^2 leaves every variable to the tensor rule: no
    Beta step reduces a degree-2 variable, so 5 are left, past 4."""
    exponents = [(0,) * 5] + [tuple(2 * (i == j) for j in range(5))
                              for i in range(5)]
    spec = _spec(exponents, [1.0] * 6, [0.2] * 5, 1.5)
    with pytest.raises(DimensionMismatch, match="got 5"):
        quadrature(spec)


def test_the_variable_limit_counts_what_the_beta_steps_leave():
    """A five-factor Cayley integrand, prod_k (c_2k + c_2k+1 z)^-b_k on its
    4 Cayley variables and z, has 5 variables; the Beta steps leave z alone,
    and the value is mpmath's product form int z^alpha prod_k (...) dz/z
    times prod Gamma(b_k) / Gamma(sum b)."""
    mpmath = pytest.importorskip("mpmath")
    b, a = [0.6, 0.5, 0.45, 0.55, 0.4], 0.7
    c = [1.0, 0.3, 1.0, 0.4, 1.0, 0.5, 1.0, 0.35, 1.0, 0.45]
    exponents = [tuple(int(j // 2 == k) for k in range(1, 5)) + (j % 2,)
                 for j in range(10)]
    result = quadrature(_spec(exponents, c, b[1:] + [a], sum(b), 1e-12))
    assert result.dims == 1 and result.target_met
    with mpmath.workdps(30):
        product = mpmath.quad(lambda z: z ** (a - 1) * mpmath.fprod(
            (c[2 * k] + c[2 * k + 1] * z) ** -b[k] for k in range(5)),
            [0, 1, mpmath.inf])
        want = float(product * mpmath.fprod(map(mpmath.gamma, b))
                     / mpmath.gamma(sum(b)))
    assert result.value == pytest.approx(want, rel=1e-12)


def _reduced_dims(exponents):
    """Dimension left after the linear reduction, at alpha/beta = the
    centroid of the support (interior whenever the integral can converge)."""
    ndim = len(exponents[0])
    alpha = [sum(e[i] for e in exponents) / len(exponents)
             for i in range(ndim)]
    spec = _spec(list(exponents), [1.0] * len(exponents), alpha, 1.0)
    return reduce_linear(Integrand.from_spec(spec)).ndim


def test_reduced_dimension_per_fixture():
    expected = {"2f1-double": (2, 1), "cantaloupe-2": (3, 1),
                "sunset-1mass": (3, 1), "box": (4, 2), "party-hat": (4, 2),
                "triangle-3scale": (3, 2)}
    for name, (before, after) in expected.items():
        columns = pipeline.run(fixtures()[name]).column_exponents
        assert (len(columns[0]), _reduced_dims(columns)) == (before, after), name


def test_no_linear_variable_keeps_four_dimensions():
    """Every variable has degree 2, so nothing reduces and the tensor rule
    runs in all four dimensions."""
    exponents = [(0, 0, 0, 0)] + [tuple(2 * int(i == j) for j in range(4))
                                  for i in range(4)]
    assert _reduced_dims(exponents) == 4


def test_reduction_rejects_divergent_beta_integral():
    """alpha_1 >= beta: the integral over the linear variable z1 diverges."""
    f = Integrand.from_spec(_spec([(0, 0), (1, 0), (0, 1), (0, 2)],
                                  [1.0] * 4, [2.0, 0.5], 1.5))
    with pytest.raises(NonConvergent):
        reduce_linear(f)


def _random_spec(rng, dims=(1, 2, 3), max_terms=6):
    """A polynomial in one of dims variables with exponents in {0, 1, 2} and
    at most max_terms terms; alpha is drawn either anywhere or near the
    centroid of the support (mostly interior)."""
    ndim = rng.choice(dims)
    exponents = sorted({tuple(rng.randint(0, 2) for _ in range(ndim))
                        for _ in range(rng.randint(2, max_terms))})
    beta = rng.uniform(0.8, 2.5)
    if rng.random() < 0.5:
        alpha = [beta * rng.uniform(0.05, 2.0) for _ in range(ndim)]
    else:
        alpha = [beta * (sum(e[i] for e in exponents) / len(exponents)
                         + rng.uniform(-0.3, 0.3)) for i in range(ndim)]
    return _spec(exponents, [rng.uniform(0.5, 2.0) for _ in exponents],
                 alpha, beta)


def test_reduced_gate_agrees_with_gate_on_g():
    """Tonelli: the integral converges iff every Beta step does and alpha is
    interior to sum_k beta_k Newt(g_k) on what the reduction leaves."""
    rng = random.Random(17)
    verdicts = []
    for _ in range(150):
        spec = _random_spec(rng)
        f = Integrand.from_spec(spec)
        try:
            reduced = convergence_margin(reduce_linear(f)) <= 1e-9
        except NonConvergent:
            reduced = True
        assert reduced == (convergence_margin(f) <= 1e-9), spec
        verdicts.append(reduced)
    assert 30 < sum(verdicts) < 120     # both verdicts well represented


def test_one_variable_gate_boundaries():
    """g = z2 (1 + z1) + 1 + z1^2: the Beta step over z2 leaves
    z1^a1 (1 + z1)^-a2 (1 + z1^2)^-(b - a2), which converges iff
    0 < a1 < a2 + 2 (b - a2) = 2.5 here."""
    exponents, b, a2 = [(0, 1), (1, 1), (0, 0), (2, 0)], 1.5, 0.5
    for a1 in (-0.3, 0.0, 2.5, 2.7):
        with pytest.raises(NonConvergent):
            quadrature(_spec(exponents, [1.0] * 4, [a1, a2], b))
    res = quadrature(_spec(exponents, [1.0] * 4, [1.2, a2], b, tol=1e-8))
    assert res.dims == 1 and res.target_met
    assert res.margin == pytest.approx(min(a2 / b, 1.2 / 2.5, 1.3 / 2.5))
    # every factor constant: nothing bounds the remaining variable
    with pytest.raises(NonConvergent):
        quadrature(_spec([(1,), (1,)], [1.0, 2.0], [0.5], 1.2))


def _reduced_box():
    """The box's reduced integrand at beta = 1.9 and three alpha, each with
    whether it lies inside."""
    spec = fixtures()["box"]
    report = pipeline.run(spec)
    coeffs = pipeline.coefficient_values(spec, report.column_exponents,
                                         report.polynomial)
    return [(reduce_linear(Integrand.from_spec(
        _spec(report.column_exponents, coeffs, alpha, 1.9))), inside)
        for alpha, inside in (([0.7, 0.6, 0.65, 0.75], True),
                              ([0.31, 0.27, 0.29, 0.33], False),
                              ([0.7, 0.6, 1.3, 0.75], False))]


def test_box_reduced_multi_factor_margin():
    for f, inside in _reduced_box():
        assert (f.ndim, len(f.factors)) == (2, 3)
        assert (convergence_margin(f) > 0) == inside, f.alpha


def test_linear_program_only_for_two_or_more_variables(monkeypatch):
    calls = []
    real = quadrature_module.lp_maximum

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature_module, "lp_maximum", counted)
    one_dim = _spec([(0, 0), (1, 0), (0, 1), (1, 1)], [1.0, 1.0, 1.0, 2.0],
                    [0.3, 0.7], 1.9)
    assert quadrature(one_dim).dims == 1 and not calls
    assert quadrature(_spec([(0, 0), (1, 0), (0, 1), (0, 2), (2, 0)],
                            [1.0] * 5, [0.7, 0.6], 1.9)).dims == 2
    assert len(calls) == 1


def _linprog_margin(f):
    """The gate on two or more variables in floats, by scipy's HiGHS: the
    largest delta with alpha = sum_k beta_k sum_t lambda_kt a_kt,
    sum_t lambda_kt = 1 and every lambda_kt >= delta; -1 when the sum of
    the Newton polytopes is not full-dimensional or the solver finds no
    optimum."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    expmats = [np.array(g.expmat) for g in f.factors]
    if not f.factors or integer_rank(np.vstack(
            [e - e[0] for e in expmats]).tolist()) < f.ndim:
        return -1.0
    owner = np.repeat(np.arange(len(f.factors)),
                      [len(g.logc) for g in f.factors])
    nterms = len(owner)
    a_eq = np.zeros((f.ndim + len(f.factors), nterms + 1))
    a_eq[:f.ndim, :nterms] = np.vstack(
        [g.beta * e for g, e in zip(f.factors, expmats)]).T
    a_eq[f.ndim + owner, np.arange(nterms)] = 1.0
    result = linprog(np.append(np.zeros(nterms), -1.0),
                     A_ub=np.hstack([-np.eye(nterms), np.ones((nterms, 1))]),
                     b_ub=np.zeros(nterms), A_eq=a_eq,
                     b_eq=np.append(f.alpha, np.ones(len(f.factors))),
                     bounds=[(None, None)] * (nterms + 1))
    if not result.success:
        return -1.0
    return min(f.step_margin, float(result.x[-1]))


def _assert_gate_matches_linprog(f):
    exact, reference = convergence_margin(f), _linprog_margin(f)
    assert abs(exact - reference) <= 1e-12, (exact, reference)
    assert (exact <= 1e-9) == (reference <= 1e-9), (exact, reference)
    return exact


def test_exact_gate_agrees_with_linprog_on_random_integrands():
    """Reduced integrands of 2-4 variables with at most 8 terms, alpha
    anywhere or near the centroid: the exact margin matches the float
    linear program to 1e-12, and so does every decision."""
    rng = random.Random(23)
    compared = outside = 0
    while compared < 60:
        spec = _random_spec(rng, dims=(2, 3, 4), max_terms=8)
        try:
            f = reduce_linear(Integrand.from_spec(spec))
        except NonConvergent:
            continue
        if f.ndim < 2:
            continue
        compared += 1
        outside += _assert_gate_matches_linprog(f) <= 1e-9
    assert 10 < outside < 50            # both decisions well represented


def test_exact_gate_agrees_with_linprog_on_box():
    for f, _ in _reduced_box():
        _assert_gate_matches_linprog(f)


def test_exact_gate_matches_fraction_simplex(monkeypatch):
    """The margin from the integer tableau equals, float for float, the one
    from the rational-tableau reference, on the box's reduced integrands and
    300 seeded random integrands of 2-4 variables, reduced or not."""
    rng = random.Random(37)
    integrands = [f for f, _ in _reduced_box()]
    while len(integrands) < 303:
        f = Integrand.from_spec(_random_spec(rng, dims=(2, 3, 4), max_terms=8))
        integrands.append(f)
        try:
            integrands.append(reduce_linear(f))
        except NonConvergent:
            pass
    margins = [convergence_margin(f) for f in integrands]
    monkeypatch.setattr(quadrature_module, "lp_maximum",
                        helpers.fraction_lp_maximum)
    assert [convergence_margin(f) for f in integrands] == margins
    assert 60 < sum(m > 1e-9 for m in margins) < 240


def test_exact_gate_at_centroid():
    """g = 1 + x + y + xy at alpha/beta = (1/2, 1/2): every lambda is 1/4."""
    f = Integrand.from_spec(_spec([(0, 0), (1, 0), (0, 1), (1, 1)],
                                  [1.0] * 4, [0.5, 0.5], 1.0))
    assert convergence_margin(f) == 0.25


def test_exact_gate_on_facet():
    """alpha/beta = (0.7, 1.3) lies exactly on the facet x + y = 2 of
    Newt(1 + x^2 + y^2), since the two floats' exact values sum to 2; a
    float linear program can land on either side of it."""
    spec = _spec([(0, 0), (2, 0), (0, 2)], [1.0] * 3, [0.7, 1.3], 1.0)
    assert Fraction(0.7) + Fraction(1.3) == 2
    assert convergence_margin(Integrand.from_spec(spec)) == 0.0
    with pytest.raises(NonConvergent, match="margin 0"):
        quadrature(spec)


def test_non_positive_coefficient_raises_typed_error():
    for coefficient in (-0.5, 0.0):
        with pytest.raises(NonPositiveCoefficient):
            _spec([(0,), (1,)], [1.0, coefficient], [0.5], 1.5)


def test_non_finite_coefficient_raises_typed_error():
    """An infinite coefficient used to integrate to 0.0 with its target
    met; it is now refused like a non-positive one."""
    for coefficient in (math.inf, math.nan):
        with pytest.raises(NonPositiveCoefficient, match="finite"):
            _spec([(0,), (1,)], [1.0, coefficient], [0.5], 1.0)


def _reference_log(f, point):
    """log f at one chart point in plain floats, with a max-shifted
    log-sum-exp per factor."""
    out = sum(a * x for a, x in zip(f.alpha, point)) + f.log_prefactor
    for g in f.factors:
        terms = [sum(e * x for e, x in zip(row, point)) + c
                 for row, c in zip(g.expmat, g.logc)]
        top = max(terms)
        out -= g.beta * (top + math.log(sum(math.exp(t - top) for t in terms)))
    return out


def test_log_grid_matches_pointwise_reference():
    """Random integrands of 1-4 variables, factors of 1-6 terms with
    exponents 0-2, on grids out to the probe's +-2000, where single terms
    overflow exp."""
    rng = random.Random(29)
    for _ in range(60):
        ndim = rng.randint(1, 4)
        factors = []
        for _ in range(rng.randint(1, 3)):
            terms = rng.randint(1, 6)
            factors.append(Factor(
                tuple(tuple(rng.randint(0, 2) for _ in range(ndim))
                      for _ in range(terms)),
                tuple(rng.uniform(-5.0, 5.0) for _ in range(terms)),
                rng.uniform(0.2, 2.5)))
        f = Integrand(tuple(rng.uniform(0.05, 4.0) for _ in range(ndim)),
                      factors, rng.uniform(-3.0, 3.0))
        axes = [np.array(sorted({-2000.0, 0.0, 2000.0} | {
            rng.uniform(-2000.0, 2000.0) * rng.choice((1e-3, 1.0))
            for _ in range(rng.randint(0, 3))})) for _ in range(ndim)]
        grid = f.log_grid(axes)
        assert grid.shape == tuple(map(len, axes))
        for index in itertools.product(*map(range, grid.shape)):
            want = _reference_log(f, [x[i] for x, i in zip(axes, index)])
            assert abs(grid[index] - want) <= 1e-13 * max(1.0, abs(want)), (
                f, index)


@pytest.mark.parametrize("exponents, alpha", [
    ([(0, 0), (2, 0), (0, 2), (1, 1)], [0.9, 1.1]),
    ([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)], [0.7, 0.6, 0.8]),
])
def test_tensor_pass_chunk_boundaries(monkeypatch, exponents, alpha):
    """With _NODE_BUDGET at 1 every chunk is one first-axis slice; the pass
    sums the same nodes as with the default budget, on the whole grid and on
    its nodes of even index, whose parity on the first axis is global."""
    f = Integrand.from_spec(_spec(exponents, [1.0, 2.0, 0.5, 1.5][
        :len(exponents)], alpha, 2.0))
    assert reduce_linear(f).ndim == len(alpha)
    vmaxes, sized = quadrature_module._axis_truncations(f)
    assert sized
    value, coarse, nodes = quadrature_module._tensor_pass(f, vmaxes, 0.2)
    monkeypatch.setattr(quadrature_module, "_NODE_BUDGET", 1)
    sliced, sliced_coarse, sliced_nodes = quadrature_module._tensor_pass(
        f, vmaxes, 0.2)
    assert sliced_nodes == nodes
    assert abs(sliced - value) <= 1e-14 * abs(value)
    assert abs(sliced_coarse - coarse) <= 1e-14 * abs(coarse)
    assert abs(coarse - value) <= 1e-3 * abs(value)


def _fixture(name, **changes):
    spec = fixtures()[name]
    for attr, value in changes.items():
        setattr(spec, attr, value)
    return spec


def _spec_file(name):
    path = pathlib.Path(__file__).parent / name
    return pipeline.ProblemSpec.from_dict(json.loads(path.read_text()))


_CAYLEY5 = ([tuple(int(j // 2 == k) for k in range(1, 5)) + (j % 2,)
             for j in range(10)],
            [1.0, 0.3, 1.0, 0.4, 1.0, 0.5, 1.0, 0.35, 1.0, 0.45])
# What the tier-1 suite verifies: problem specs through run(verify=True),
# oracle specs directly, each with the module settings it runs under.
_VERIFIED = {
    "2f1-double": lambda: _fixture("2f1-double"),
    "2f1-single": lambda: _fixture("2f1-single"),
    "one-mass-bubble interior": lambda: _fixture(
        "one-mass-bubble", weight=(0, 0, 0, 1), alpha=[1.2, 1.3]),
    "box interior": lambda: _fixture("box", alpha=[0.7, 0.6, 0.65, 0.75]),
    "triangle-3scale interior": lambda: _fixture(
        "triangle-3scale", alpha=[0.8, 0.9, 1.0]),
    "sunset-1mass interior": lambda: _fixture(
        "sunset-1mass", alpha=[1.23, 2.11, 1.37],
        coefficients=[1.6, 1.0, 1.0, 1.0, 1.0]),
    "cayley3": lambda: _spec_file("cayley3_spec.json"),
    "doubled rows": lambda: _spec_file("doubled_rows_amatrix_spec.json"),
    "even powers": lambda: _spec_file("even_powers_spec.json"),
    "trinomial": lambda: _spec_file("trinomial_spec.json"),
    "box interior spec": lambda: _spec_file("box_interior_spec.json"),
    "4-D tensor": lambda: _spec(
        [tuple(2 * e for e in bits)
         for bits in itertools.product((0, 1), repeat=4)],
        [1.0] * 16, [3.0] * 4, 3.0, tol=1e-6),
    "node limit": lambda: (_spec([(0, 0), (1, 0), (0, 1), (0, 2), (2, 0)],
                                 [1.0] * 5, [0.7, 0.6], 1.9),
                           {"_PASS_NODE_LIMIT": 10_000}),
    "beyond the probe radii": lambda: _spec([(0,), (2,)], [1.0, 1.0],
                                            [1.99], 1.0),
    "far peak": lambda: _spec([(0, 0), (0, 2), (2, 0), (2, 2)],
                              [1e-40, 1e-40, 1.0, 1.0], [0.5, 0.7], 1.0,
                              tol=1e-8),
    "unsized box": lambda: (_spec([(0,), (2,)], [1e-12, 1.0], [1.99], 1.0),
                            {"_PROBE_RADII": 1.5 ** np.arange(7)}),
    "five Cayley factors": lambda: _spec(
        *_CAYLEY5, [0.5, 0.45, 0.55, 0.4, 0.7], 2.5, 1e-12),
    "torus covariance": lambda: _spec(
        [(1, 0), (0, 1), (1, 1), (0, 2)], [1.4, 0.8, 1.68, 0.64],
        [1.2, 1.3], 1.9),
}


@pytest.mark.parametrize("name", _VERIFIED)
def test_one_pass_per_step_matches_two_passes_bit_for_bit(monkeypatch, name):
    """Every oracle the suite verifies has the value, node count and
    target_met of the two-pass rule: the final pass sums the same grid in the
    same order, and the coarser sum read from its even nodes stops the
    halving at the same step.  Only the error estimate may differ."""
    calls = []
    real = quadrature_module.tanh_sinh_tensor
    monkeypatch.setattr(quadrature_module, "tanh_sinh_tensor",
                        lambda f, target, margin: calls.append(
                            (f, target, real(f, target, margin))) or calls[-1][2])
    spec = _VERIFIED[name]()
    spec, settings = spec if isinstance(spec, tuple) else (spec, {})
    for setting, value in settings.items():
        monkeypatch.setattr(quadrature_module, setting, value)
    if isinstance(spec, QuadratureSpec):
        quadrature(spec)
    else:
        assert pipeline.run(spec, verify=True).oracle.target_met
    assert len(calls) == 1
    f, target, result = calls[0]
    value, error, nodes, met = helpers.two_pass_reference(f, target)
    assert (result.value.hex(), result.nodes, result.target_met) == (
        value.hex(), nodes, met)


def test_one_pass_per_step_agrees_with_two_passes_on_random_integrands(
        monkeypatch):
    """120 seeded random integrands left with 1-4 variables, under a limit
    of 200k nodes a pass: each rule's value lies within the other's error,
    and where both stop at the same step the values are equal."""
    monkeypatch.setattr(quadrature_module, "_PASS_NODE_LIMIT", 200_000)
    rng = random.Random(43)
    compared, equal, dims = 0, 0, set()
    while compared < 120:
        spec = _random_spec(rng, dims=(1, 2, 3, 4), max_terms=6)
        spec.target_tolerance = 1e-8
        try:
            result = quadrature(spec)
        except NonConvergent:
            continue
        if not result.dims:
            continue
        f = reduce_linear(Integrand.from_spec(spec))
        value, error, nodes, _ = helpers.two_pass_reference(f, 1e-8)
        assert abs(result.value - value) <= min(result.error, error), spec
        compared += 1
        equal += (result.value, result.nodes) == (value, nodes)
        dims.add(result.dims)
    assert dims == {1, 2, 3, 4} and equal >= 110
