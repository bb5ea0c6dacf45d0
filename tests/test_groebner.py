"""Groebner machinery: term orders, division, Buchberger, saturation."""

import random

from feyngkz.groebner import (buchberger, cheapest_variable_key, grevlex_key,
                              mono_divides, normal_form, orient, s_polynomial,
                              saturate_all_variables, weighted_key)


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
    key = weighted_key((0, 1, 1, 1))
    assert key((1, 0, 0, 0)) < key((0, 1, 0, 0))
    # equal weight: grevlex decides
    assert key((0, 1, 1, 0)) > key((0, 1, 0, 1))


def test_cheapest_variable_key():
    key = cheapest_variable_key(0, 2)
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
        lambda nvars: weighted_key((0,) + (1,) * (nvars - 1)))


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
