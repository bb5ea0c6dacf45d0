"""Top-dimensional standard pairs from the facets of the triangulation
Delta_w: the walk on the kernel's tableau against the Groebner route, and
that route against the general standard-pair decomposition."""

import hashlib
import itertools
import json
import os
import random
import warnings
from fractions import Fraction

import pytest

import helpers
from feyngkz import gkz, groebner, pipeline
from feyngkz.fixtures import fixtures
from feyngkz.gkz import (AMatrix, facet_walk, fake_exponents, initial_ideal,
                         standard_kappa, standard_pairs, toric_ideal,
                         toric_matrix)
from helpers import facet_pairs_reference as facet_pairs
from feyngkz.kpoly import KPoly, coeff_const
from feyngkz.params import ParamLinear


def _poly(exponents):
    nvars = len(exponents[0])
    return sum((KPoly.monomial(nvars, e, coeff_const(1)) for e in exponents),
               KPoly.zero(nvars))


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
    poly = helpers.massive_ngon(3) if exponents is None else _poly(exponents)
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
    """A, its toric ideal (computed once for both weights) and n for the
    fully massive one-loop triangle and box."""
    amat, _ = toric_matrix(helpers.massive_ngon(request.param))
    return amat, toric_ideal(amat), request.param


def test_massive_toric_basis_is_pinned(massive_ngon):
    """The reduced grevlex basis of I_A is unique: the massive triangle's
    and box's are the 14 and 40 binomials that saturating the lattice-basis
    ideal at every variable gave, pinned by a digest of their repr."""
    _, basis, n = massive_ngon
    size, digest = {3: (14, "69433dc4e57fc91e"), 4: (40, "e8643807ff77aa4e")}[n]
    assert len(basis) == size
    assert hashlib.sha256(repr(basis).encode()).hexdigest()[:16] == digest


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


def _groebner_route(amat, weight, basis=None):
    """The pairs as run found them before the walk: I_A, in_w, the facet
    scan of the Stanley-Reisner ideal."""
    initial = initial_ideal(basis or toric_ideal(amat), weight)
    return facet_pairs(initial, amat.ncols, amat.rank)


def test_facet_walk_equals_the_groebner_route_on_fixtures():
    """At each fixture's own weight, the zero weight and six seeded ones."""
    rng = random.Random(2901)
    for name, spec in fixtures().items():
        rep = pipeline.run(spec)
        amat, basis = rep.amatrix, toric_ideal(rep.amatrix)
        for weight in [rep.weight, (0,) * amat.ncols] + _weights(
                rng, amat.ncols, 6):
            assert facet_walk(amat, weight) == _groebner_route(
                amat, weight, basis), (name, weight)


def test_facet_walk_equals_the_groebner_route_on_random_configs():
    """100 seeded configurations of codimension >= 2 and full row rank."""
    rng = random.Random(2902)
    cases = 0
    while cases < 100:
        amat = AMatrix(helpers.random_configuration(rng, 2))
        if amat.rank < amat.nrows:
            continue
        weight = tuple(rng.randint(0, 4) for _ in range(amat.ncols))
        assert facet_walk(amat, weight) == _groebner_route(amat, weight), \
            (amat.rows, weight)
        cases += 1


def test_facet_walk_equals_the_groebner_route_on_massive_ngons(massive_ngon):
    amat, basis, n = massive_ngon
    rng = random.Random(2903 + n)
    for weight in _weights(rng, amat.ncols, 2):
        assert facet_walk(amat, weight) == _groebner_route(
            amat, weight, basis), weight


@pytest.fixture
def no_buchberger(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Groebner basis was built")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    monkeypatch.setattr(gkz, "buchberger", refuse)


def test_run_builds_no_groebner_basis(no_buchberger):
    for spec in fixtures().values():
        pipeline.run(spec)


def _massive_spec(n):
    if n == 5:
        path = os.path.join(os.path.dirname(__file__), "pentagon_spec.json")
        with open(path) as handle:
            return pipeline.ProblemSpec.from_dict(json.load(handle))
    terms = list(helpers.massive_ngon(n).terms.items())
    return pipeline.ProblemSpec(terms=terms, deformation="none")


@pytest.mark.parametrize("n, count", [(5, 31), (6, 63)],
                         ids=["pentagon", "hexagon"])
def test_run_reaches_the_massive_pentagon_and_hexagon(no_buchberger, n,
                                                      count):
    """2^n - 1 exponents without a Groebner basis, |det A_sigma| roots on
    each facet sigma (the pentagon read from the spec file CI runs)."""
    rep = pipeline.run(_massive_spec(n))
    assert len(rep.exponents) == len(rep.pairs) == count
    for face, group in itertools.groupby(rep.pairs, key=lambda p: p.face):
        rows = [[row[j] for j in face] for row in rep.amatrix.rows]
        assert len(list(group)) == abs(_det(rows)), face
