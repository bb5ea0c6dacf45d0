"""Configuration matrices, toric ideals, initial ideals, exponent vectors."""

import json
import os
import random
import warnings
from fractions import Fraction

import pytest

import helpers
from feyngkz import gkz, groebner, pipeline
from feyngkz.errors import UnderdeterminedPair
from feyngkz.fixtures import fixtures
from feyngkz.gkz import (AMatrix, StandardPair, deform, fake_exponents,
                         initial_ideal, kernel_lattice, standard_kappa,
                         standard_pairs, toric_ideal, toric_matrix)
from feyngkz.groebner import (TermOrder, buchberger, grevlex_key,
                              mono_divides)
from feyngkz.intlinalg import integer_rank, kernel_basis
from feyngkz.params import ParamLinear
from helpers import normal_form, s_polynomial


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


def _outcome(route, amat, kappa, pairs):
    """What a route returns for the pairs: each exponent's pair and
    components' fields, the warnings in order, and the error's type and
    message (None without one)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            exponents, error = route(amat, kappa, pairs), None
        except Exception as err:
            exponents, error = [], (type(err), str(err))
    return ([(e.pair, [(c.nums, c.num0, c.den) for c in e.components])
             for e in exponents], [str(w.message) for w in caught], error)


def _assert_matches_reference(amat, kappa, pairs):
    want = _outcome(helpers.fake_exponents_reference, amat, kappa, pairs)
    assert _outcome(fake_exponents, amat, kappa, pairs) == want, \
        (amat.rows, pairs)
    return want


def _kappa(spec, amat):
    if spec.kappa_names:
        return [-ParamLinear.param(n) for n in spec.kappa_names]
    return standard_kappa(amat.nrows - 1)


def test_fake_exponents_equal_the_per_pair_reference_on_fixtures():
    """One tableau walked by basis exchange gives what one elimination per
    pair gives: on every fixture at its own weight and five random ones,
    for the facet pairs and for all standard pairs."""
    rng = random.Random(2501)
    cases = 0
    for name, spec in fixtures().items():
        rep = pipeline.run(spec)
        amat, basis = rep.amatrix, toric_ideal(rep.amatrix)
        weights = [rep.weight] + [tuple(rng.randint(0, 5) for _ in
                                        range(amat.ncols)) for _ in range(5)]
        for weight in weights:
            initial = initial_ideal(basis, weight)
            for pairs in (helpers.facet_pairs_reference(initial, amat.ncols,
                                                        amat.rank),
                          standard_pairs(initial, amat.ncols)):
                _assert_matches_reference(amat, _kappa(spec, amat), pairs)
                cases += 1
    assert cases == 120


def test_fake_exponents_equal_the_per_pair_reference_on_massive_ngons():
    for n in (3, 4):
        amat, _ = toric_matrix(helpers.massive_ngon(n))
        basis = toric_ideal(amat)
        rng = random.Random(2502 + n)
        for _ in range(2):
            weight = tuple(rng.randint(0, 5) for _ in range(amat.ncols))
            pairs = helpers.facet_pairs_reference(
                initial_ideal(basis, weight), amat.ncols, amat.rank)
            exponents, _, _ = _assert_matches_reference(
                amat, standard_kappa(n), pairs)
            assert len(exponents) == 2 ** n - 1


def test_fake_exponents_equal_the_per_pair_reference_on_random_configs():
    """Codimension >= 2, at a random weight, for the facet pairs and all
    standard pairs; where A has fewer independent rows than rows every
    pair is inconsistent and both routes warn of each."""
    rng = random.Random(2503)
    for _ in range(100):
        amat = AMatrix(helpers.random_configuration(rng, 2))
        weight = tuple(rng.randint(0, 4) for _ in range(amat.ncols))
        initial = initial_ideal(toric_ideal(amat), weight)
        kappa = standard_kappa(amat.nrows - 1)
        for pairs in (helpers.facet_pairs_reference(initial, amat.ncols,
                                                    amat.rank),
                      standard_pairs(initial, amat.ncols)):
            _assert_matches_reference(amat, kappa, pairs)


def test_fake_exponents_equal_the_per_pair_reference_on_random_pair_lists():
    """Faces of every size in any order, so the tableau carries bases that
    no facet walk leaves behind, and some lists stop at an underdetermined
    pair after warning of inconsistent ones; a root entry on the face, which
    no standard pair has, is ignored by both."""
    rng = random.Random(2504)
    errors = warned = 0
    for _ in range(200):
        amat, kappa, _ = _random_face_system(rng)
        pairs = []
        for _ in range(rng.randint(1, 8)):
            face = tuple(sorted(rng.sample(range(amat.ncols), rng.randint(
                1, min(amat.ncols, amat.nrows + 1)))))
            root = tuple(rng.randint(0, 3) if j not in face
                         or rng.random() < 0.2 else 0
                         for j in range(amat.ncols))
            pairs.append(StandardPair(root, face))
        _, caught, error = _assert_matches_reference(amat, kappa, pairs)
        errors += error is not None
        warned += bool(caught)
    assert 20 < errors < 180 and warned > 20


def test_fake_exponents_edge_cases_equal_the_per_pair_reference():
    """The inconsistent, tall and underdetermined systems above."""
    amat = AMatrix([[1, 1, 1, 1], [0, 1, 2, 3]])
    bad = StandardPair((0, 0, 0, 0), (0,))
    good = StandardPair((0, 0, 0, 0), (0, 1))
    wide = StandardPair((0, 0, 0, 0), (0, 1, 2))
    for pairs in ([bad, good], [bad], [good, bad], [wide], [bad, good, wide]):
        _assert_matches_reference(amat, standard_kappa(1), pairs)
    tall = AMatrix([[1, 1, 1, 1], [0, 1, 2, 3], [0, 2, 4, 6]])
    _assert_matches_reference(tall, standard_kappa(2),
                              [StandardPair((0, 0, 0, 0), (0, 1, 2))])


@pytest.mark.parametrize("case", ["triangle-3scale", "massive-box"])
def test_fake_exponents_pivot_only_the_columns_that_change(monkeypatch,
                                                           case):
    """Fewer pivots than pairs x rank(A), which one elimination per pair
    makes: pairs on one face share its basis, and neighbouring facets
    differ in one column."""
    if case == "massive-box":
        amat, _ = toric_matrix(helpers.massive_ngon(4))
        weight = tuple(random.Random(2505).randint(0, 5)
                       for _ in range(amat.ncols))
        pairs = helpers.facet_pairs_reference(
            initial_ideal(toric_ideal(amat), weight), amat.ncols, amat.rank)
    else:
        rep = _run(case)
        amat, pairs = rep.amatrix, rep.pairs
    kappa = standard_kappa(amat.nrows - 1)
    counts = {"tableau": 0, "per pair": 0}

    def counted(key, step):
        def wrapped(*args):
            counts[key] += 1
            return step(*args)
        return wrapped

    monkeypatch.setattr(gkz, "eliminate", counted("tableau", gkz.eliminate))
    monkeypatch.setattr(helpers, "eliminate",
                        counted("per pair", helpers.eliminate))
    assert fake_exponents(amat, kappa, pairs) == \
        helpers.fake_exponents_reference(amat, kappa, pairs)
    assert counts["per pair"] == len(pairs) * amat.rank
    assert counts["tableau"] < len(pairs) * amat.rank


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


def test_initial_ideal_is_the_minimal_leads_of_the_reduced_basis():
    """in_w(I) is read straight off the reduced basis: its leads, sorted,
    are the minimal generators, on every fixture at its own weight and at
    random weights, and on seeded random configurations."""
    rng = random.Random(2403)
    cases = [(report.amatrix, [report.weight])
             for report in map(_run, fixtures())]
    cases += [(AMatrix(helpers.random_configuration(rng, rng.randint(1, 2))),
               []) for _ in range(30)]
    for amat, weights in cases:
        toric = toric_ideal(amat)
        weights += [tuple(rng.randint(0, 4) for _ in range(amat.ncols))
                    for _ in range(5)]
        for weight in weights:
            leads = [lead for lead, _ in buchberger(toric, TermOrder(weight))]
            assert initial_ideal(toric, weight) == \
                gkz.minimal_monomial_generators(leads), (amat.rows, weight)


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


def test_run_reduces_each_a_matrix_once(monkeypatch):
    """run reuses the A that deform's codim check built when it leaves the
    polynomial alone; a deformed polynomial adds only its own A, and an
    A-matrix spec brings its A already reduced."""
    calls = []
    monkeypatch.setattr(gkz, "kernel_basis",
                        lambda rows: calls.append(rows) or kernel_basis(rows))
    counts = {}
    for name, spec in fixtures().items():
        calls.clear()
        pipeline.run(spec)
        counts[name] = len(calls)
    assert counts == {
        "2f1-double": 1, "2f1-single": 0, "massless-bubble": 2,
        "triangle-1scale": 2, "cantaloupe-2": 2, "one-mass-bubble": 1,
        "sunset-1mass": 1, "party-hat": 1, "box": 1, "triangle-3scale": 1}


def test_amatrix_rejects_ones_outside_row_span():
    AMatrix([[1, 1, 1], [0, 1, 2]])
    with pytest.raises(ValueError):
        AMatrix([[1, 0, -1]])
    with pytest.raises(ValueError):
        AMatrix([[1, 1, 1], [0, 1]])


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
        assert toric_ideal(amat) == helpers.saturated_toric_ideal(
            amat.rows), amat.rows


CUBIC = os.path.join(os.path.dirname(__file__), "cubic_spec.json")


def _cubic_amatrix():
    """A = [[1,1,1,1],[0,1,2,3]] of 1 + z + z^2 + z^3, from the spec that
    CI also runs through ``feyngkz gkz``."""
    with open(CUBIC) as handle:
        spec = pipeline.ProblemSpec.from_dict(json.load(handle))
    return toric_matrix(spec.polynomial())[0]


def test_toric_ideal_equals_saturation_at_every_variable():
    """Skipping the variables that divide no lead changes nothing: on all
    fixtures, the massive triangle, the twisted cubic and seeded random
    configurations of codimension >= 2."""
    amats = [_run(name).amatrix for name in fixtures()]
    amats += [toric_matrix(helpers.massive_ngon(3))[0], _cubic_amatrix()]
    rng = random.Random(2201)
    amats += [AMatrix(helpers.random_configuration(rng, 2))
              for _ in range(100)]
    # codim >= 2: triangle-3scale, the massive triangle, the cubic, 100 random
    assert sum(amat.codim() >= 2 for amat in amats) == 3 + 100
    for amat in amats:
        assert toric_ideal(amat) == helpers.saturated_toric_ideal(amat.rows), \
            amat.rows


def test_twisted_cubic_lattice_ideal_is_not_saturated():
    """For 1 + z + z^2 + z^3 the lattice-basis binomials miss x1x4 - x2x3,
    so the toric ideal passes its test only by saturating."""
    amat = _cubic_amatrix()
    assert amat.rows == [[1, 1, 1, 1], [0, 1, 2, 3]]
    basis = toric_ideal(amat)
    assert ((0, 1, 1, 0), (1, 0, 0, 1)) in basis
    gens = [(tuple(max(x, 0) for x in u), tuple(max(-x, 0) for x in u))
            for u in amat.kernel]
    assert buchberger(gens, grevlex_key) != basis


def test_triangle_3scale_needs_at_most_three_buchberger_passes(monkeypatch):
    """Its lattice-basis ideal is already I_A; the grevlex pass and two more
    leave no variable that divides a lead (six passes without the test)."""
    calls = []
    run = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger",
                        lambda *args: calls.append(1) or run(*args))
    amat = _run("triangle-3scale").amatrix
    calls.clear()
    toric_ideal(amat)
    assert len(calls) <= 3


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
