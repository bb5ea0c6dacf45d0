"""Pochhammer-symbol arithmetic, numeric and symbolic."""

import math
import random
import sys

import pytest

from feyngkz.errors import PoleError
from feyngkz.params import ParamLinear
from feyngkz.pochhammer import PochhammerProduct, log_poch, poch_numeric


def _direct_rising(a, m):
    out = 1.0
    for k in range(m):
        out *= a + k
    return out


def close(x, y, tol=1e-12):
    scale = max(abs(x), abs(y), 1.0)
    return abs(x - y) <= tol * scale


def test_rising_identities_random():
    """(a)_{m+n} = (a)_m (a+m)_n and the reflection/negative-index rules,
    checked on a thousand random samples."""
    rng = random.Random(20240817)
    for _ in range(1000):
        a = rng.uniform(-8, 8)
        m = rng.randrange(0, 12)
        n = rng.randrange(0, 12)
        lhs = poch_numeric(a, m + n)
        rhs = poch_numeric(a, m) * poch_numeric(a + m, n)
        assert close(lhs, rhs), (a, m, n)
        # direct product definition
        assert close(poch_numeric(a, m), _direct_rising(a, m)), (a, m)


def test_negative_index_random():
    """(a)_{-m} (1 - a)_m = (-1)^m for a thousand random samples."""
    rng = random.Random(1234)
    count = 0
    while count < 1000:
        a = rng.uniform(-8, 8)
        m = rng.randrange(1, 12)
        try:
            lhs = poch_numeric(a, -m) * poch_numeric(1.0 - a, m)
        except PoleError:
            continue
        assert close(lhs, (-1.0) ** m), (a, m)
        count += 1


def test_integer_base_zeros():
    assert poch_numeric(0.0, 3) == 0.0
    assert poch_numeric(-2.0, 3) == 0.0
    assert poch_numeric(-2.0, 2) == pytest.approx(2.0)   # (-2)(-1)
    assert poch_numeric(-5.0, 5) == pytest.approx(-120.0)


def test_negative_index_pole():
    with pytest.raises(PoleError):
        poch_numeric(3.0, -5)   # denominator walks through zero


def test_gamma_ratio_consistency():
    rng = random.Random(77)
    for _ in range(200):
        a = rng.uniform(0.1, 6.0)
        m = rng.randrange(0, 10)
        assert close(poch_numeric(a, m),
                     math.gamma(a + m) / math.gamma(a), 1e-11)


def test_symbolic_falling_matches_numeric():
    a1 = ParamLinear.param("a1")
    rng = random.Random(5)
    for _ in range(200):
        value = rng.uniform(-5, 5)
        m = rng.randrange(0, 8)
        product = PochhammerProduct.falling(a1, m)
        direct = 1.0
        for k in range(m):
            direct *= value - k
        assert close(product.evaluate({"a1": value}), direct), (value, m)


def test_symbolic_zero_detection():
    two = ParamLinear.const(2)
    # falling factorial of length 4 starting at 2 passes through zero
    assert PochhammerProduct.falling(two, 4).is_zero()
    assert not PochhammerProduct.falling(two, 2).is_zero()
    zero = PochhammerProduct.zero()
    assert (zero * PochhammerProduct.make(1, [], [])).is_zero()


def test_product_merge_and_multiply():
    a1 = ParamLinear.param("a1")
    q = PochhammerProduct.make(1, [(a1, 2)], [])
    p = q * q
    value = p.evaluate({"a1": 0.7})
    single = q.evaluate({"a1": 0.7})
    assert close(value, single * single)


def test_log_poch_ratio_of_overflowing_products():
    """(0.5)_300 and (0.75)_300 each overflow a float; their ratio does not."""
    a1, a2 = ParamLinear.param("a1"), ParamLinear.param("a2")
    assert log_poch(0.5, 300)[0] > math.log(sys.float_info.max)
    with pytest.raises(OverflowError):
        poch_numeric(0.5, 300)
    ratio = PochhammerProduct.make(1, [(a1, 300)], [(a2, 300)])
    direct = 1.0
    for k in range(300):
        direct *= (0.5 + k) / (0.75 + k)
    assert ratio.evaluate({"a1": 0.5, "a2": 0.75}) == pytest.approx(
        direct, rel=1e-12)
