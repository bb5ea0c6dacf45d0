"""Symbolic affine-linear parameter expressions."""

import math
import random
from fractions import Fraction

import pytest

from feyngkz.params import FloatMap, ParamLinear


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


def _fields(x):
    return x.nums, x.num0, x.den


def test_one_normal_form_whatever_the_route():
    """Equal values built by different routes have equal integer fields and
    hashes: numerators over one positive denominator in lowest terms."""
    a1, beta = ParamLinear.param("a1"), ParamLinear.param("beta")
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    x = a1 * Fraction(1, 2) + beta * third
    routes = [
        (x + beta * sixth, a1 * Fraction(1, 2) + beta * Fraction(1, 2),
         ParamLinear({"a1": Fraction(2, 4), "beta": Fraction(3, 6)})),
        (x * 0, x - x, ParamLinear.const(0), a1 - a1 + ParamLinear.const(0)),
        (x * Fraction(-6, 5), -(x * 6) * Fraction(1, 5),
         ParamLinear({"a1": Fraction(-3, 5), "beta": Fraction(-2, 5)})),
        (a1 * third + ParamLinear.const(sixth) + a1 * Fraction(2, 3),
         a1 + ParamLinear.const(Fraction(1, 6))),
        (ParamLinear.from_integers({"a1": -4, "beta": 0}, 2, -6),
         ParamLinear({"a1": Fraction(2, 3)}, Fraction(-1, 3))),
    ]
    for same in routes:
        for y in same:
            assert y.den > 0 and 0 not in y.nums.values()
            assert math.gcd(y.den, y.num0, *y.nums.values()) == 1
            assert _fields(y) == _fields(same[0]), (y, same[0])
            assert y == same[0] and hash(y) == hash(same[0])
    assert _fields(x * 0) == ({}, 0, 1)


def test_float_map_is_the_correctly_rounded_fraction():
    rng = random.Random(3)
    for _ in range(200):
        coeffs = {name: Fraction(rng.randint(-50, 50), rng.randint(1, 40))
                  for name in ("beta", "a1", "a2")}
        constant = Fraction(rng.randint(-99, 99), rng.randint(1, 97))
        expr = ParamLinear(coeffs, constant)
        total, pairs = FloatMap([expr]).rows[0]
        assert total == float(constant)
        assert pairs == [(n, float(q)) for n, q in coeffs.items() if q]


def test_canonical_shortcuts_equal_the_normalising_route():
    """param, const of an int, negation and adding or subtracting an int
    skip normalisation; each result has the fields and hash that
    normalising gives, and a nums dict of its own."""
    rng = random.Random(2505)
    for _ in range(500):
        names = rng.sample(["beta", "a1", "a2", "a3"], rng.randint(0, 4))
        den = rng.randint(1, 12)
        x = ParamLinear.from_integers(
            {name: rng.randint(-9, 9) for name in names},
            rng.randint(-20, 20), den * rng.choice((1, -1)))
        k = rng.randint(-30, 30)

        def shifted(q):
            return ParamLinear.from_integers(x.nums, x.num0 + q * x.den,
                                             x.den)

        cases = [
            (-x, ParamLinear.from_integers(
                {n: -v for n, v in x.nums.items()}, -x.num0, x.den)),
            (x + k, shifted(k)), (k + x, shifted(k)), (x - k, shifted(-k)),
            (x + ParamLinear.const(k), shifted(k)),
            (ParamLinear.const(k) + x, shifted(k)),
            (k - x, ParamLinear.from_integers(
                {n: -v for n, v in x.nums.items()}, k * x.den - x.num0,
                x.den))]
        for got, want in cases:
            assert _fields(got) == _fields(want), (x, k, got)
            assert hash(got) == hash(want)
            assert got.nums is not x.nums
    made = [(ParamLinear.param, name, ParamLinear({name: 1}))
            for name in ("beta", "a1", "x")]
    made += [(ParamLinear.const, k, ParamLinear({}, k)) for k in (-3, 0, 5)]
    for build, arg, want in made:
        got = build(arg)
        assert _fields(got) == _fields(want) and hash(got) == hash(want)
        assert got.nums is not build(arg).nums
