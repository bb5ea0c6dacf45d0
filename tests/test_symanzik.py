"""Graph polynomials U, F and g = U + F from momentum-space data."""

import json
from fractions import Fraction

import pytest

from feyngkz.errors import SingularM
from feyngkz.fixtures import fixtures
from feyngkz.graphs import GraphSpec, prefactor, symanzik


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
