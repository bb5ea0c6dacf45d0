"""Top-dimensional standard pairs from the facets of the triangulation
Delta_w, against the general standard-pair decomposition."""

import itertools
import random
import warnings
from fractions import Fraction

import pytest

from feyngkz import gkz, pipeline
from feyngkz.fixtures import fixtures
from feyngkz.gkz import (facet_pairs, fake_exponents, initial_ideal,
                         standard_kappa, standard_pairs, toric_ideal,
                         toric_matrix)
from feyngkz.kpoly import KPoly, coeff_const
from feyngkz.params import ParamLinear


def _poly(exponents):
    nvars = len(exponents[0])
    return sum((KPoly.monomial(nvars, e, coeff_const(1)) for e in exponents),
               KPoly.zero(nvars))


def _massive_ngon(n):
    """The support of U + F for the fully massive one-loop n-gon: every
    monomial of degree 1 and of degree 2 in n variables."""
    ones = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    twos = [tuple(map(sum, zip(u, v)))
            for u, v in itertools.combinations_with_replacement(ones, 2)]
    return _poly(ones + twos)


def _reference(amat, kappa, initial):
    """The general route: every standard pair, the inconsistent ones
    dropped by fake_exponents."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "discarding inconsistent")
        return fake_exponents(amat, kappa, standard_pairs(initial, amat.ncols))


def _facet_route(amat, kappa, initial):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fake_exponents(amat, kappa,
                              facet_pairs(initial, amat.ncols, amat.rank))


def _texts(exponents):
    return [(str(e.pair), str(e)) for e in exponents]


def _weights(rng, ncols, count):
    return [tuple(rng.randint(0, 5) for _ in range(ncols))
            for _ in range(count)]


def test_fixture_exponents_match_the_reference_route():
    rng = random.Random(2108)
    for name, spec in fixtures().items():
        rep = pipeline.run(spec)
        weights = [rep.weight] + _weights(rng, rep.amatrix.ncols, 2)
        if spec.amatrix is not None:
            kappa = [-ParamLinear.param(n) for n in spec.kappa_names]
        else:
            kappa = standard_kappa(rep.polynomial.nvars)
        basis = toric_ideal(rep.amatrix)
        for weight in weights:
            initial = initial_ideal(basis, weight)
            want = _texts(_reference(rep.amatrix, kappa, initial))
            assert _texts(_facet_route(rep.amatrix, kappa, initial)) == want, \
                (name, weight)
        assert _texts(rep.exponents) == _texts(
            _reference(rep.amatrix, kappa, rep.initial_gens)), name


@pytest.mark.parametrize("exponents, count", [
    ([(0,), (1,), (3,)], 6),
    ([(0, 0), (1, 0), (0, 1), (2, 3)], 6),
    (None, 3)], ids=["1+z+z^3", "1+z1+z2+z1^2z2^3", "massive-triangle"])
def test_exponents_match_the_reference_route_at_seeded_weights(exponents,
                                                               count):
    poly = _massive_ngon(3) if exponents is None else _poly(exponents)
    amat, _ = toric_matrix(poly)
    kappa = standard_kappa(poly.nvars)
    basis = toric_ideal(amat)
    rng = random.Random(2109)
    for weight in _weights(rng, amat.ncols, count):
        initial = initial_ideal(basis, weight)
        got = _facet_route(amat, kappa, initial)
        assert got and _texts(got) == _texts(
            _reference(amat, kappa, initial)), weight


def _det(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot], out = rows[pivot], rows[col], -out
        out *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return out


@pytest.fixture(scope="module", params=[3, 4], ids=["triangle", "box"])
def massive_ngon(request):
    """A, its toric ideal (computed once for both weights, ~2 s for the
    box) and n for the fully massive one-loop triangle and box."""
    amat, _ = toric_matrix(_massive_ngon(request.param))
    return amat, toric_ideal(amat), request.param


def test_each_facet_has_its_volume_in_roots(massive_ngon):
    """Per facet sigma of Delta_w, |det A_sigma| roots, and 2^n - 1 in all:
    the normalised volume of {x >= 0, 1 <= sum x <= 2}, at two weights."""
    amat, basis, n = massive_ngon
    assert amat.rank == amat.nrows == n + 1
    rng = random.Random(2110 + n)
    for weight in _weights(rng, amat.ncols, 2):
        pairs = facet_pairs(initial_ideal(basis, weight), amat.ncols,
                            amat.rank)
        assert len(pairs) == 2 ** n - 1, weight
        for face, group in itertools.groupby(pairs, key=lambda p: p.face):
            volume = abs(_det([[row[j] for j in face] for row in amat.rows]))
            assert len(list(group)) == volume, (weight, face)


def test_run_walks_facets_and_warns_of_no_inconsistent_pair(monkeypatch):
    def refuse(*args):
        raise AssertionError("run called the general standard_pairs")

    monkeypatch.setattr(gkz, "standard_pairs", refuse)
    for spec in fixtures().values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pipeline.run(spec)
