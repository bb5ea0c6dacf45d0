"""The numeric oracle: closed forms, covariance properties, divergence."""

import importlib
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from feyngkz import pipeline
from feyngkz.errors import (DimensionMismatch, NonConvergent,
                            NonPositiveCoefficient)
from feyngkz.fixtures import fixtures
from feyngkz.quadrature import (Integrand, QuadratureSpec, convergence_margin,
                                quadrature, reduce_linear)

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


def test_import_leaves_scipy_stats_out():
    """The oracle needs scipy.optimize only; scipy.stats is a costly import."""
    src = str(pathlib.Path(quadrature_module.__file__).parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c", "import feyngkz, sys; "
         "print('scipy.stats' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True).stdout.strip()
    assert loaded == "False"


def test_dimension_limit():
    exponents = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    spec = _spec(exponents, [1.0] * 5, [0.2] * 5, 1.5)
    with pytest.raises(DimensionMismatch):
        quadrature(spec)


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


def _random_spec(rng):
    """A 1-3 variable polynomial with exponents in {0, 1, 2}; alpha is drawn
    either anywhere or near the centroid of the support (mostly interior)."""
    ndim = rng.choice([1, 2, 3])
    exponents = sorted({tuple(rng.randint(0, 2) for _ in range(ndim))
                        for _ in range(rng.randint(2, 6))})
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


def test_box_reduced_multi_factor_margin():
    spec = fixtures()["box"]
    report = pipeline.run(spec)
    coeffs = pipeline.coefficient_values(spec, report.column_exponents,
                                         report.polynomial)
    for alpha, inside in (([0.7, 0.6, 0.65, 0.75], True),
                          ([0.31, 0.27, 0.29, 0.33], False),
                          ([0.7, 0.6, 1.3, 0.75], False)):
        f = reduce_linear(Integrand.from_spec(
            _spec(report.column_exponents, coeffs, alpha, 1.9)))
        assert (f.ndim, len(f.factors)) == (2, 3)
        assert (convergence_margin(f) > 0) == inside, alpha


def test_linear_program_only_for_two_or_more_variables(monkeypatch):
    calls = []
    real = quadrature_module.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature_module, "linprog", counted)
    one_dim = _spec([(0, 0), (1, 0), (0, 1), (1, 1)], [1.0, 1.0, 1.0, 2.0],
                    [0.3, 0.7], 1.9)
    assert quadrature(one_dim).dims == 1 and not calls
    assert quadrature(_spec([(0, 0), (1, 0), (0, 1), (0, 2), (2, 0)],
                            [1.0] * 5, [0.7, 0.6], 1.9)).dims == 2
    assert len(calls) == 1


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
