"""Configuration matrices, toric ideals, initial ideals, exponent vectors."""

import random
from fractions import Fraction

import pytest

from feyngkz import pipeline
from feyngkz.errors import UnderdeterminedPair
from feyngkz.fixtures import fixtures
from feyngkz.gkz import (AMatrix, StandardPair, deform, fake_exponents,
                         initial_ideal, kernel_lattice, standard_kappa,
                         standard_pairs, toric_ideal, toric_matrix)
from feyngkz.groebner import (grevlex_key, interreduce, mono_divides,
                              normal_form, s_polynomial,
                              saturate_all_variables)
from feyngkz.intlinalg import integer_rank, kernel_basis
from feyngkz.params import ParamLinear


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
            kappa = standard_kappa(amat.nrows - 1)
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


def _random_face_system(rng):
    """Random A (first row ones, possibly one redundant row), a face on which
    A_face is square of full rank, a root off the face and a kappa with
    rational constants consistent with the redundant row."""
    m = rng.randint(2, 4)
    n = rng.randint(m + 1, m + 3)
    while True:
        rows = [[1] * n] + [[rng.randint(-3, 3) for _ in range(n)]
                            for _ in range(m - 1)]
        face = tuple(sorted(rng.sample(range(n), m)))
        if integer_rank([[r[j] for j in face] for r in rows]) == m:
            break
    names = ["beta"] + [f"a{i}" for i in range(1, m)]
    kappa = [ParamLinear({name: rng.randint(-2, 2) for name in names},
                         Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
             - ParamLinear.param(names[i]) for i in range(m)]
    if rng.random() < 0.5:
        mix = [rng.randint(-2, 2) for _ in range(m)]
        rows.append([sum(c * r[j] for c, r in zip(mix, rows))
                     for j in range(n)])
        total = ParamLinear()
        for c, k in zip(mix, kappa):
            total = total + k * c
        kappa.append(total)
    root = tuple(0 if j in face else rng.randint(0, 3) for j in range(n))
    return AMatrix(rows), kappa, StandardPair(root, face)


def test_fake_exponents_random_faces_solve_exactly():
    """On random faces the solution is unique, so A.gamma = kappa and
    gamma = root off the face check it completely."""
    rng = random.Random(11)
    for _ in range(300):
        amat, kappa, pair = _random_face_system(rng)
        (exponent,) = fake_exponents(amat, kappa, [pair])
        gamma = exponent.components
        for j, root in enumerate(pair.root):
            if j not in pair.face:
                assert gamma[j] == root
        for row, target in zip(amat.rows, kappa):
            acc = ParamLinear()
            for a, comp in zip(row, gamma):
                acc = acc + comp * a
            assert acc == target, (amat.rows, pair, exponent)


def test_fake_exponents_drops_inconsistent_pair():
    amat = AMatrix([[1, 1, 1, 1], [0, 1, 2, 3]])
    bad = StandardPair((0, 0, 0, 0), (0,))
    good = StandardPair((0, 0, 0, 0), (0, 1))
    with pytest.warns(UserWarning, match="inconsistent standard pair"):
        out = fake_exponents(amat, standard_kappa(1), [bad, good])
    assert [e.pair for e in out] == [good]
    assert str(out[0]) == "(-beta + a1, -a1, 0, 0)"
    with pytest.warns(UserWarning, match="inconsistent standard pair"):
        assert fake_exponents(amat, standard_kappa(1), [bad]) == []
    # inconsistency is decided before a missing pivot: this 3-column face of
    # a rank-2 A with three independent kappa rows is dropped, not raised
    tall = AMatrix([[1, 1, 1, 1], [0, 1, 2, 3], [0, 2, 4, 6]])
    with pytest.warns(UserWarning, match="inconsistent standard pair"):
        assert fake_exponents(tall, standard_kappa(2),
                              [StandardPair((0, 0, 0, 0), (0, 1, 2))]) == []


def test_fake_exponents_underdetermined_pair_raises():
    amat = AMatrix([[1, 1, 1, 1], [0, 1, 2, 3]])
    with pytest.raises(UnderdeterminedPair):
        fake_exponents(amat, standard_kappa(1),
                       [StandardPair((0, 0, 0, 0), (0, 1, 2))])


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


def test_initial_ideal_generic_weight():
    spec = fixtures()["2f1-double"]
    amat, _ = toric_matrix(spec.polynomial())
    gens = toric_ideal(amat)
    assert initial_ideal(gens, (0, 1, 1, 1)) == [(0, 1, 1, 0)]


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


def _saturated_toric_ideal(rows):
    """I_A by the general route: the lattice-basis binomials saturated at
    every variable, interreduced in grevlex."""
    gens = [(tuple(max(x, 0) for x in u), tuple(max(-x, 0) for x in u))
            for u in kernel_basis(rows)]
    return interreduce(saturate_all_variables(gens, len(rows[0])),
                       grevlex_key)


def test_rank_one_toric_ideal_is_the_saturated_ideal():
    """A rank-1 lattice's binomial equals the saturation of itself, on every
    rank-1 fixture and on random codimension-1 configurations."""
    amats = [_run(name).amatrix for name in fixtures()]
    rank_one = [amat for amat in amats if amat.codim() == 1]
    assert len(rank_one) == 9
    rng = random.Random(14)
    while len(rank_one) < 9 + 50:
        n = rng.randint(3, 6)
        rows = [[1] * n] + [[rng.randint(0, 3) for _ in range(n)]
                            for _ in range(n - 2)]
        if integer_rank(rows) == n - 1:
            rank_one.append(AMatrix(rows))
    for amat in rank_one:
        assert toric_ideal(amat) == _saturated_toric_ideal(amat.rows), amat.rows


def test_amatrix_rank_and_ones_check_agree_with_integer_rank():
    """The rank and the (1,...,1) test read off the kernel agree with
    Hermite ranks of A and of A with a row of ones appended."""
    rng = random.Random(41)
    cayley_dropped_row = [[1, 1, 0, 0], [0, 1, 0, 1]]
    matrices = [cayley_dropped_row, [[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]]]
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        matrices.append([[1] * n] + rows[1:] if rng.random() < 0.5 else rows)
    rejected = 0
    for rows in matrices:
        rank = integer_rank(rows)
        if integer_rank(rows + [[1] * len(rows[0])]) != rank:
            rejected += 1
            with pytest.raises(ValueError, match="row span"):
                AMatrix(rows)
        else:
            amat = AMatrix(rows)
            assert amat.rank == rank and amat.codim() == len(rows[0]) - rank
    with pytest.raises(ValueError, match="row span"):
        AMatrix(cayley_dropped_row)
    assert 20 < rejected < len(matrices) - 20
