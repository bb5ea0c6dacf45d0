"""Graph polynomials U, F and g = U + F from momentum-space data."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from helpers import random_graph, symanzik_reference

from feyngkz import graphs
from feyngkz.errors import SingularM
from feyngkz.fixtures import fixtures
from feyngkz.graphs import GraphSpec, prefactor, symanzik
from feyngkz.kpoly import coeff_evaluate
from feyngkz.quadrature import QuadratureSpec, quadrature


def _poly_dict(poly, values):
    """exponent tuple -> float coefficient, for easy comparison."""
    from feyngkz.kpoly import coeff_evaluate
    return {e: coeff_evaluate(c, values) for e, c in poly.terms.items()}


def test_massless_bubble():
    graph = fixtures()["massless-bubble"].graph
    u, f, g = symanzik(graph)
    assert str(u) == "z1 + z2"
    assert _poly_dict(f, {"s": 1.0}) == {(1, 1): 1.0}
    assert _poly_dict(g, {"s": 2.0}) == {(1, 0): 1.0, (0, 1): 1.0,
                                         (1, 1): 2.0}


def test_one_mass_bubble():
    graph = fixtures()["one-mass-bubble"].graph
    u, f, _ = symanzik(graph)
    assert str(u) == "z1 + z2"
    # F = (s + m^2) z1 z2 + m^2 z2^2
    assert _poly_dict(f, {"s": 0.5, "m2": 1.0}) == {(1, 1): 1.5, (0, 2): 1.0}


def test_sunset_on_mass_slice():
    graph = fixtures()["sunset-1mass"].graph
    u, f, g = symanzik(graph)
    # U is the spanning-tree sum of the three-banana graph
    assert str(u) == "z1*z2 + z1*z3 + z2*z3"
    # on s = m^2 the z1 z2 z3 term cancels and five monomials remain
    assert set(g.terms) == {(1, 1, 0), (1, 0, 1), (0, 1, 1),
                            (1, 2, 0), (0, 2, 1)}


def test_box_polynomial():
    graph = fixtures()["box"].graph
    u, f, g = symanzik(graph)
    assert str(u) == "z1 + z2 + z3 + z4"
    assert _poly_dict(f, {"s": 0.3, "t": 1.0}) == pytest.approx(
        {(1, 0, 1, 0): 0.3, (0, 1, 0, 1): 1.0})


def test_triangle_three_scale():
    graph = fixtures()["triangle-3scale"].graph
    _, f, _ = symanzik(graph)
    values = {"s1": 2.0, "s2": 3.0, "s3": 5.0}
    assert _poly_dict(f, values) == pytest.approx(
        {(1, 1, 0): 5.0, (1, 0, 1): 2.0, (0, 1, 1): 3.0})


def test_party_hat_two_loop():
    graph = fixtures()["party-hat"].graph
    u, f, g = symanzik(graph)
    assert {sum(e) for e in u.terms} == {2}
    assert {sum(e) for e in f.terms} == {3}
    # one kinematic invariant multiplies the whole of F
    assert _poly_dict(f, {"s": 1.0})
    assert set(g.terms) == set(u.terms) | set(f.terms)


def test_cantaloupe_shares_loop_structure():
    graph = fixtures()["cantaloupe-2"].graph
    u, f, g = symanzik(graph)
    assert {sum(e) for e in u.terms} == {2}
    assert len(u.terms) == 3


def test_scaleless_graph_has_zero_f():
    graph = fixtures()["triangle-1scale"].graph
    _, f, _ = symanzik(graph)
    assert _poly_dict(f, {"s": 1.0}) == {(1, 1, 0): 1.0}


def test_omitted_q_means_no_external_momentum():
    data = fixtures()["massless-bubble"].graph.to_dict()
    explicit = symanzik(GraphSpec.from_dict(data))
    del data["propagators"][0]["Q"]
    omitted = symanzik(GraphSpec.from_dict(data))
    assert [str(p) for p in omitted] == [str(p) for p in explicit]
    assert [p.terms for p in omitted] == [p.terms for p in explicit]


# str(U), str(F), U's exponents (each with coefficient 1) and F's terms of
# every graph fixture, as computed by the KPoly Laplace expansion
_PINNED = {
    "massless-bubble": ("z1 + z2", "s*z1*z2", [(1, 0), (0, 1)],
                        {(1, 1): {("s",): 1}}),
    "one-mass-bubble": ("z1 + z2", "(m2 + s)*z1*z2 + m2*z2^2",
                        [(1, 0), (0, 1)],
                        {(1, 1): {("s",): 1, ("m2",): 1},
                         (0, 2): {("m2",): 1}}),
    "triangle-1scale": ("z1 + z2 + z3", "s*z1*z2",
                        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                        {(1, 1, 0): {("s",): 1}}),
    "triangle-3scale": ("z1 + z2 + z3", "s3*z1*z2 + s1*z1*z3 + s2*z2*z3",
                        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                        {(1, 1, 0): {("s3",): 1}, (1, 0, 1): {("s1",): 1},
                         (0, 1, 1): {("s2",): 1}}),
    "cantaloupe-2": ("z1*z2 + z1*z3 + z2*z3", "s*z1*z2*z3",
                     [(1, 1, 0), (1, 0, 1), (0, 1, 1)],
                     {(1, 1, 1): {("s",): 1}}),
    "sunset-1mass": ("z1*z2 + z1*z3 + z2*z3", "m2*z1*z2^2 + m2*z2^2*z3",
                     [(1, 1, 0), (1, 0, 1), (0, 1, 1)],
                     {(1, 2, 0): {("m2",): 1}, (0, 2, 1): {("m2",): 1}}),
    "party-hat": ("z1*z3 + z1*z4 + z2*z3 + z2*z4 + z3*z4", "s*z2*z3*z4",
                  [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1),
                   (0, 0, 1, 1)],
                  {(0, 1, 1, 1): {("s",): 1}}),
    "box": ("z1 + z2 + z3 + z4", "s*z1*z3 + t*z2*z4",
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
            {(1, 0, 1, 0): {("s",): 1}, (0, 1, 0, 1): {("t",): 1}}),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_fixture_polynomials_are_pinned(name):
    u_text, f_text, u_expos, f_terms = _PINNED[name]
    u_terms = {expo: {(): 1} for expo in u_expos}
    polys = symanzik(fixtures()[name].graph)
    assert [str(p) for p in polys] == [u_text, f_text, f"{u_text} + {f_text}"]
    assert [p.terms for p in polys] == [u_terms, f_terms,
                                        {**u_terms, **f_terms}]
    for poly in polys:
        _coefficient_types_are_exact(poly)


def test_one_bordered_determinant_per_unordered_pair(monkeypatch):
    """M is symmetric, so det[[M, Q_t], [Q_s^T, 0]] is taken once for
    (s, t) and (t, s): 3 for the box, and on 200 random graphs one per
    s <= t with p_s.p_t nonzero, next to the one det M."""
    sizes = []

    def counted(matrix):
        sizes.append(len(matrix))
        return real(matrix)

    real = graphs.det
    monkeypatch.setattr(graphs, "det", counted)

    def bordered(graph):
        sizes.clear()
        symanzik(graph)
        assert sizes.count(graph.L) == 1
        return len(sizes) - 1

    assert bordered(fixtures()["box"].graph) == 3
    rng, checked = random.Random(23), 0
    while checked < 200:
        graph = GraphSpec.from_dict(random_graph(rng))
        try:
            count = bordered(graph)
        except SingularM:
            continue
        products = graph.momentum_products
        assert count == sum(1 for s in range(graph.E)
                            for t in range(s, graph.E) if products[s][t])
        checked += 1


def test_mirrored_momentum_products_may_repeat_when_equal():
    data = fixtures()["box"].graph.to_dict()
    once = symanzik(GraphSpec.from_dict(data))
    data["momentum_products"].update(
        {".".join(key.split(".")[::-1]): value
         for key, value in data["momentum_products"].items()})
    twice = symanzik(GraphSpec.from_dict(data))
    assert [p.terms for p in twice] == [p.terms for p in once]


def _exact_value(poly, z, values):
    return sum((sum(Fraction(q) * math.prod(values[name] for name in mono)
                    for mono, q in coeff.items())
                * math.prod(zi ** e for zi, e in zip(z, expo))
                for expo, coeff in poly.terms.items()), Fraction(0))


def test_symanzik_matches_first_principles_reference():
    """U, F and g take, as Fractions at a random positive rational point,
    the values of det M(z) and U J(z) - sum_st P_st Q_s^T U M(z)^-1 Q_t from
    Fraction elimination: every graph fixture and 200 nonsingular random
    graphs covering L 1-3 and E 0-3; a singular graph has det M(z) = 0."""
    rng = random.Random(11)
    graphs = [s.graph.to_dict() for s in fixtures().values() if s.graph]
    assert len(graphs) == 8
    randoms = (random_graph(rng) for _ in itertools.count())
    shapes, checked = set(), 0
    for data in itertools.chain(graphs, randoms):
        z = [Fraction(rng.randint(1, 99), rng.randint(1, 99))
             for _ in data["propagators"]]
        values = {name: Fraction(rng.randint(1, 99), rng.randint(1, 99))
                  for name in data["invariants"]}
        U, F = symanzik_reference(data, z, values)
        try:
            polys = symanzik(GraphSpec.from_dict(data))
        except SingularM:
            assert U == 0
            continue
        assert [_exact_value(p, z, values) for p in polys] == [U, F, U + F]
        shapes.add((data["L"], data["E"]))
        checked += 1
        if checked == len(graphs) + 200:
            break
    assert shapes == {(L, E) for L in (1, 2, 3) for E in range(4)}


def test_singular_m_detected():
    from fractions import Fraction
    from feyngkz.graphs import GraphSpec, Propagator
    from feyngkz.kpoly import coeff_from
    graph = GraphSpec(
        L=1, E=1,
        propagators=[Propagator(M=[[Fraction(0)]], Q=[[Fraction(0)]],
                                J=coeff_from({})),
                     Propagator(M=[[Fraction(0)]], Q=[[Fraction(-1)]],
                                J=coeff_from({"s": 1}))],
        invariants=["s"],
        momentum_products=[[coeff_from({"s": 1})]])
    with pytest.raises(SingularM):
        symanzik(graph)


def test_prefactor_shape():
    pref = prefactor(1, 2)
    text = str(pref)
    assert "beta" in text and "a1" in text and "a2" in text
    # bubble at d = 4 - 2e, a1 = a2 = 1: Gamma(2-e)/(Gamma(2-2e) G(1) G(1))
    value = pref.evaluate({"beta": 2.0, "a1": 1.0, "a2": 1.0})
    assert value == pytest.approx(1.0)


@pytest.mark.parametrize("s, nu1, nu2, d", [(1.0, 1.3, 1.3, 3.8),
                                            (2.5, 1.1, 1.4, 3.6),
                                            (0.7, 0.9, 1.2, 3.0)])
def test_prefactor_times_integral_is_the_massless_bubble(s, nu1, nu2, d):
    """prefactor(1, 2) times the integral of z^nu (U + F)^(-d/2) dz/z is the
    d-dimensional massless bubble, s^(d/2-nu) Gamma(d/2-nu1)
    Gamma(d/2-nu2) Gamma(nu-d/2) / (Gamma(nu1) Gamma(nu2) Gamma(d-nu))."""
    _, _, g = symanzik(fixtures()["massless-bubble"].graph)
    expos = list(g.terms)
    integral = quadrature(QuadratureSpec(
        expos, [coeff_evaluate(g.terms[e], {"s": s}) for e in expos],
        [nu1, nu2], d / 2)).value
    value = prefactor(1, 2).evaluate({"beta": d / 2, "a1": nu1,
                                      "a2": nu2}) * integral
    nu, gamma = nu1 + nu2, math.gamma
    bubble = (s ** (d / 2 - nu) * gamma(d / 2 - nu1) * gamma(d / 2 - nu2)
              * gamma(nu - d / 2) / (gamma(nu1) * gamma(nu2) * gamma(d - nu)))
    assert abs(value / bubble - 1) <= 1e-13


def _coefficient_types_are_exact(poly):
    for coeff in poly.terms.values():
        for q in coeff.values():
            assert type(q) is (int if q.denominator == 1 else Fraction), q


def test_integral_coefficients_are_ints_and_halves_round_trip():
    """Integral coefficients are ints, the rest Fractions; graph specs with
    1/2 entries (the box's momentum products, a halved M) come back exactly
    from to_dict -> JSON -> from_dict."""
    halved = GraphSpec.from_dict({
        "L": 1, "E": 1, "invariants": ["s"],
        "propagators": [{"M": [["1/2"]], "Q": [[0]]},
                        {"M": [[1]], "Q": [[-1]], "J": {"s": "1/2"}}],
        "momentum_products": {"p1.p1": {"s": 1}}})
    graphs = [s.graph for s in fixtures().values() if s.graph is not None]
    for graph in graphs + [halved]:
        polys = symanzik(graph)
        for poly in polys:
            _coefficient_types_are_exact(poly)
        loaded = GraphSpec.from_dict(json.loads(json.dumps(graph.to_dict())))
        assert loaded == graph
        again = symanzik(loaded)
        assert [p.terms for p in again] == [p.terms for p in polys]
        for poly in again:
            _coefficient_types_are_exact(poly)
    u, _, g = symanzik(halved)
    assert str(u) == "1/2*z1 + z2"
    assert g.terms[(1, 1)] == {("s",): Fraction(1, 4)}       # U J = s/4 z1 z2 + ...
