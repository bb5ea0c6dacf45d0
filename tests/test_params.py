"""Symbolic affine-linear parameter expressions."""

from fractions import Fraction

import pytest

from feyngkz.params import ParamLinear


def test_construction_and_str():
    beta = ParamLinear.param("beta")
    a1 = ParamLinear.param("a1")
    expr = beta - a1 + ParamLinear.const(Fraction(3, 2))
    assert str(expr) == "beta - a1 + 3/2"


def test_arithmetic():
    a1 = ParamLinear.param("a1")
    a2 = ParamLinear.param("a2")
    expr = a1 + a2 - a1
    assert expr == a2
    assert (-expr) + a2 == ParamLinear.const(0)
    assert (a1 * 2 - a1 - a1).is_zero()


def test_scalar_multiplication_keeps_fractions():
    a1 = ParamLinear.param("a1")
    half = (a1 * Fraction(1, 2))
    assert str(half) == "1/2*a1"
    assert half + half == a1


def test_evaluate():
    beta = ParamLinear.param("beta")
    a1 = ParamLinear.param("a1")
    expr = beta * 2 - a1 + ParamLinear.const(1)
    assert expr.evaluate({"beta": 1.9, "a1": 0.3}) == pytest.approx(4.5)


def test_str_canonical_form():
    beta, a1, a2 = (ParamLinear.param(n) for n in ("beta", "a1", "a2"))
    half = Fraction(1, 2)
    samples = {
        "beta - a1 - a2 + 3/2": beta - a1 - a2 + Fraction(3, 2),
        "-beta + a2": -beta + a2,
        "0": ParamLinear.const(0),
        "1": ParamLinear.const(1),
        "-a1": -a1,
        "1/2*a1 - 1/2*a2 + 1/2": a1 * half - a2 * half + half,
        "2*beta - 2*a1 - a2": beta * 2 - a1 * 2 - a2,
    }
    for text, expr in samples.items():
        assert str(expr) == text


def test_eq_and_hash():
    a = ParamLinear.param("a1") + ParamLinear.const(1)
    b = ParamLinear.const(1) + ParamLinear.param("a1")
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_arithmetic_results_hold_nonzero_fractions_only():
    a1 = ParamLinear.param("a1")
    beta = ParamLinear.param("beta")
    x = beta * Fraction(3, 2) - a1 + ParamLinear.const(Fraction(1, 3))
    results = [x + a1, x - beta * Fraction(3, 2), x * 2, x * Fraction(-1, 3),
               -x, x * 0, 1 + x, 1 - x, x - x]
    for y in results:
        assert all(type(q) is Fraction and q != 0 for q in y.coeffs.values())
        assert type(y.constant) is Fraction
        same = ParamLinear(y.coeffs, y.constant)
        assert y == same and hash(y) == hash(same)
    assert (x - x).is_zero()
    assert (x * 0).is_zero()
    assert x + a1 == ParamLinear({"beta": Fraction(3, 2)}, Fraction(1, 3))
    assert hash(x + a1) == hash(
        ParamLinear({"beta": Fraction(3, 2), "a1": 0}, Fraction(1, 3)))
