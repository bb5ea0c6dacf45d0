"""Configuration matrices, toric ideals, initial ideals, exponent vectors."""

import random
from fractions import Fraction

import pytest

from feyngkz import pipeline
from feyngkz.errors import NonGenericWeight
from feyngkz.fixtures import fixtures
from feyngkz.gkz import (AMatrix, deform, fake_exponents, initial_ideal,
                         kernel_lattice, standard_kappa, standard_pairs,
                         toric_ideal, toric_matrix)
from feyngkz.groebner import (grevlex_key, mono_divides, normal_form,
                              s_polynomial)


def _run(name):
    return pipeline.run(fixtures()[name])


def test_toric_matrix_gauss():
    spec = fixtures()["2f1-double"]
    amat, columns = toric_matrix(spec.polynomial())
    assert columns == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert amat.rows == [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    assert amat.codim() == 1


def test_column_order_is_degree_then_lex():
    spec = fixtures()["one-mass-bubble"]
    _, columns = toric_matrix(deform(spec.polynomial())[0])
    assert columns == sorted(columns,
                             key=lambda e: (sum(e), tuple(-x for x in e)))


def test_kernel_lattice_annihilates_amatrix():
    rng = random.Random(7)
    for name, spec in fixtures().items():
        poly = spec.polynomial()
        if poly is None:
            amat = spec.amatrix
        else:
            if spec.deformation == "auto":
                poly, _ = deform(poly)
            amat, _ = toric_matrix(poly)
        lattice = kernel_lattice(amat)
        assert len(lattice) == amat.codim()
        for u in lattice:
            for row in amat.rows:
                assert sum(r * x for r, x in zip(row, u)) == 0


def test_fake_exponents_satisfy_gkz_equations_exactly():
    """A gamma = kappa holds exactly (as rational linear expressions) for
    every fixture and every root."""
    for name, spec in fixtures().items():
        report = pipeline.run(spec)
        amat = report.amatrix
        if spec.kappa_names:
            from feyngkz.params import ParamLinear
            kappa = [-ParamLinear.param(n) for n in spec.kappa_names]
        else:
            kappa = standard_kappa(amat.ncols)
        for exponent in report.exponents:
            for row, target in zip(amat.rows, kappa):
                acc = None
                for r, comp in zip(row, exponent.components):
                    term = comp * r
                    acc = term if acc is None else acc + term
                assert acc == target, (name, exponent)


def test_fake_exponents_vanish_off_face():
    # outside its face a root simply restates the pair's monomial corner
    report = _run("2f1-double")
    for exponent in report.exponents:
        face = set(exponent.pair.face)
        for i, comp in enumerate(exponent.components):
            if i not in face:
                assert comp == Fraction(exponent.pair.root[i])


def test_toric_ideal_gauss_is_single_binomial():
    spec = fixtures()["2f1-double"]
    amat, _ = toric_matrix(spec.polynomial())
    gens = toric_ideal(amat)
    assert len(gens) == 1
    monos = sorted(gens[0])
    assert monos == [(0, 1, 1, 0), (1, 0, 0, 1)]


def test_toric_ideal_binomials_box():
    report = _run("box")
    amat = report.amatrix
    assert report.toric_basis
    for plus, minus in report.toric_basis:
        # primitive binomial: disjoint supports, difference in ker A
        assert all(min(p, m) == 0 for p, m in zip(plus, minus))
        u = [p - m for p, m in zip(plus, minus)]
        for row in amat.rows:
            assert sum(r * x for r, x in zip(row, u)) == 0
    # every kernel lattice vector's binomial reduces to zero mod the basis
    basis = list(report.toric_basis)
    for u in report.lattice:
        plus = tuple(max(x, 0) for x in u)
        minus = tuple(max(-x, 0) for x in u)
        assert not normal_form((plus, minus), basis, grevlex_key)


def test_toric_ideal_is_reduced_grevlex_basis_for_every_fixture():
    for name in fixtures():
        basis = toric_ideal(_run(name).amatrix)
        for i, (lead, trail) in enumerate(basis):
            assert grevlex_key(lead) > grevlex_key(trail), name
            for j in range(i):
                s = s_polynomial(basis[i], basis[j], grevlex_key)
                assert s is None or normal_form(s, basis, grevlex_key) is None, name
            for j, (other, _) in enumerate(basis):
                if j != i:
                    assert not mono_divides(other, lead), name
                    assert not mono_divides(other, trail), name


def test_initial_ideal_party_hat():
    report = _run("party-hat")
    assert report.initial_gens == [(0, 1, 1, 0, 0, 0)]


def test_initial_ideal_strict_mode_flags_ties():
    spec = fixtures()["2f1-double"]
    amat, _ = toric_matrix(spec.polynomial())
    gens = toric_ideal(amat)
    # the zero weight cannot pick a monomial initial form
    with pytest.raises(NonGenericWeight):
        initial_ideal(gens, (0, 0, 0, 0), require_strict=True)
    # a generic weight is fine in strict mode too
    assert initial_ideal(gens, (0, 1, 1, 1), require_strict=True) == [
        (0, 1, 1, 0)]


def test_root_counts_match_degree():
    expected = {"2f1-double": 2, "2f1-single": 2, "one-mass-bubble": 2,
                "sunset-1mass": 2, "party-hat": 2, "box": 3,
                "triangle-3scale": 4}
    for name, count in expected.items():
        report = pipeline.run(fixtures()[name])
        assert len(report.exponents) == count, name


def test_deformation_codim_zero():
    spec = fixtures()["massless-bubble"]
    poly = spec.polynomial()
    amat, _ = toric_matrix(poly)
    assert amat.codim() == 0
    deformed, info = deform(poly)
    assert info.applied
    amat2, _ = toric_matrix(deformed)
    assert amat2.codim() == 1


def test_deformation_cantaloupe_monomial():
    spec = fixtures()["cantaloupe-2"]
    deformed, info = deform(spec.polynomial())
    assert info.applied
    assert info.exponent == (1, 0, 0)


def test_no_deformation_when_codim_positive():
    spec = fixtures()["box"]
    _, _, g = __import__("feyngkz.graphs", fromlist=["symanzik"]).symanzik(
        spec.graph)
    deformed, info = deform(g)
    assert not info.applied
    assert deformed.terms == g.terms


def test_amatrix_rejects_ones_outside_row_span():
    AMatrix([[1, 1, 1], [0, 1, 2]])
    with pytest.raises(ValueError):
        AMatrix([[1, 0, -1]])
    with pytest.raises(ValueError):
        AMatrix([[1, 1, 1], [0, 1]])
