"""Groebner machinery: term orders, division, Buchberger, saturation.
Division and S-polynomials are the tuple references in ``helpers``."""

import random

import pytest

from feyngkz.errors import ExponentOverflow
from feyngkz.groebner import (TermOrder, _Packing, buchberger, grevlex_key,
                              interreduce, mono_divides, orient,
                              saturate_all_variables)
from helpers import normal_form, s_polynomial


def P(*terms, key=grevlex_key):
    """Binomial pair from two (coeff, exponents...) tuples, lead first."""
    (_, *a), (_, *b) = terms
    return orient(tuple(a), tuple(b), key)


def test_grevlex_order():
    # degree dominates; among equal degrees the one with the smaller power
    # of the last variable wins
    assert grevlex_key((2, 0)) > grevlex_key((1, 0))
    assert grevlex_key((1, 1)) > grevlex_key((0, 2))
    assert grevlex_key((2, 0, 0)) > grevlex_key((1, 1, 0)) > grevlex_key(
        (0, 2, 0)) > grevlex_key((1, 0, 1))


def test_weighted_key_refines_by_grevlex():
    key = TermOrder(weight=(0, 1, 1, 1))
    assert key((1, 0, 0, 0)) < key((0, 1, 0, 0))
    # equal weight: grevlex decides
    assert key((0, 1, 1, 0)) > key((0, 1, 0, 1))


def test_cheapest_variable_key():
    key = TermOrder(cheapest=0)
    # variable 0 is cheapest: x1^2 < x2 in this order... degrees first though
    assert key((2, 0)) > key((0, 1))          # degree still dominates
    assert key((0, 1)) > key((1, 0))          # same degree: x0 cheaper


def test_normal_form_remainder_not_divisible():
    key = grevlex_key
    basis = [P((1, 2, 0), (-1, 0, 1))]        # x^2 - y
    rem = normal_form(P((1, 3, 0), (-1, 0, 0)), basis, key)  # x^3 - 1
    assert rem == P((1, 1, 1), (-1, 0, 0))    # x^3 -> x*y
    lead = basis[0][0]
    assert all(not mono_divides(lead, m) for m in rem)


def test_s_polynomial_cancels_leads():
    key = grevlex_key
    f = P((1, 2, 0), (-1, 0, 1))
    g = P((1, 1, 1), (-1, 0, 0))
    s = s_polynomial(f, g, key)
    lf, lg = f[0], g[0]
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    assert lcm not in s


def test_buchberger_katsura_like():
    # twisted cubic: ideal of (t, t^2, t^3); reduced GB has the three quadrics
    key = grevlex_key
    gens = [P((1, 0, 1, 0), (-1, 2, 0, 0)),    # y - x^2
            P((1, 0, 0, 1), (-1, 1, 1, 0))]    # z - xy
    basis = buchberger(gens, key)
    for f in gens:
        assert not normal_form(f, basis, key)
    # x*z - y^2 lies in the ideal
    assert not normal_form(P((1, 1, 0, 1), (-1, 0, 2, 0)), basis, key)


def _assert_groebner_on_random_binomials(order):
    rng = random.Random(31)
    for _ in range(20):
        nvars = rng.randrange(2, 4)
        gens = []
        for _ in range(2):
            a = tuple(rng.randrange(3) for _ in range(nvars))
            b = tuple(rng.randrange(3) for _ in range(nvars))
            if a != b:
                gens.append((a, b))
        if not gens:
            continue
        key = order(nvars)
        basis = buchberger(gens, key)
        # every S-polynomial reduces to zero
        for i in range(len(basis)):
            for j in range(i):
                s = s_polynomial(basis[i], basis[j], key)
                if s is not None:
                    assert not normal_form(s, basis, key)


def test_buchberger_is_groebner_random_binomials():
    _assert_groebner_on_random_binomials(lambda nvars: grevlex_key)


def test_buchberger_is_groebner_random_binomials_weighted():
    # initial_ideal runs Buchberger in a weight order refined by grevlex;
    # this weight has the shape of the pipeline's default (0, 1, ..., 1)
    _assert_groebner_on_random_binomials(
        lambda nvars: TermOrder(weight=(0,) + (1,) * (nvars - 1)))


def test_reduced_basis_is_canonical():
    key = grevlex_key
    gens = [P((1, 2, 0), (-1, 0, 2)), P((1, 1, 0), (-1, 0, 1))]
    b1 = buchberger(gens, key)
    b2 = buchberger(list(reversed(gens)), key)
    assert b1 == b2


def test_saturation_strips_variable_factors():
    # I = <x*(x - y)> in k[x, y]; (I : (xy)^inf) = <x - y>
    gens = [P((1, 2, 0), (-1, 1, 1))]
    out = saturate_all_variables(gens, 2)
    basis = buchberger(out, grevlex_key)
    assert not normal_form(P((1, 1, 0), (-1, 0, 1)), basis, grevlex_key)


def test_packed_key_orders_as_the_term_order():
    """The integer linear form the kernel keeps agrees with the order's
    tuple key on random monomials, weighted or not, any cheapest variable."""
    rng = random.Random(2202)
    for _ in range(200):
        nvars = rng.randint(1, 7)
        order = TermOrder(weight=[rng.randint(-3, 5) for _ in range(nvars)]
                          * rng.randint(0, 1),
                          cheapest=rng.randrange(-1, nvars))
        monos = [tuple(rng.choice((0, 1, 2, 7, 2 ** 20))
                       for _ in range(nvars)) for _ in range(12)]
        pk = _Packing([(m, m) for m in monos], nvars)
        packed = sorted(monos, key=lambda m: pk.key(pk.pack(m), order))
        assert packed == sorted(monos, key=order)
        assert [pk.unpack(pk.pack(m)) for m in monos] == monos


def test_exponent_that_outgrows_its_field_raises():
    """Under w = (0, 1) the S-polynomial of y - x^k and y^2 - 1 reduces to
    x^(2k) - 1: exact while 2k fits the 29 value bits of a 2-variable
    field, a typed error once it does not, never a wrapped exponent."""
    order = TermOrder(weight=(0, 1))
    k = 2 ** 28 - 1
    basis = buchberger([((0, 1), (k, 0)), ((0, 2), (0, 0))], order)
    assert ((2 * k, 0), (0, 0)) in basis
    for i in range(len(basis)):
        for j in range(i):
            s = s_polynomial(basis[i], basis[j], order)
            assert s is None or not normal_form(s, basis, order)
    with pytest.raises(ExponentOverflow):
        buchberger([((0, 1), (k + 1, 0)), ((0, 2), (0, 0))], order)


def test_exponent_too_large_to_pack_raises():
    """A 2-variable field holds 29 value bits; one binomial alone is its own
    basis and is never packed."""
    too_big, other = ((2 ** 29, 0), (0, 1)), ((1, 1), (0, 2))
    assert buchberger([too_big], grevlex_key) == [too_big]
    for call in (lambda: buchberger([too_big, other], grevlex_key),
                 lambda: interreduce([too_big, other], grevlex_key),
                 lambda: saturate_all_variables([too_big, other], 2)):
        with pytest.raises(ExponentOverflow):
            call()
