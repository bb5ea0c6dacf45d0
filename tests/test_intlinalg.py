"""Exact integer linear algebra."""

import collections
import random
from fractions import Fraction

import pytest

import helpers
from feyngkz.intlinalg import (integer_rank, kernel_basis, lp_maximum,
                               row_hermite)


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _det(matrix):
    m = [list(r) for r in matrix]
    n = len(m)
    sign = 1
    det = 1
    # fraction-free would be overkill: the unimodular matrices here stay small
    from fractions import Fraction
    m = [[Fraction(x) for x in row] for row in m]
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for i in range(col + 1, n):
            factor = m[i][col] / m[col][col]
            m[i] = [x - factor * y for x, y in zip(m[i], m[col])]
        det *= m[col][col]
    return sign * det


def test_hermite_invariants_random():
    rng = random.Random(2024)
    for _ in range(50):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 6)
        matrix = [[rng.randrange(-6, 7) for _ in range(ncols)]
                  for _ in range(nrows)]
        hermite, unimod = row_hermite(matrix)
        assert _matmul(unimod, matrix) == hermite
        assert abs(_det(unimod)) == 1
        # staircase shape: pivots strictly increase, zero rows at the bottom
        pivots = [next((j for j, x in enumerate(row) if x != 0), None)
                  for row in hermite]
        nonzero = [p for p in pivots if p is not None]
        assert nonzero == sorted(set(nonzero))
        assert pivots == nonzero + [None] * (len(pivots) - len(nonzero))


def test_kernel_basis_random():
    rng = random.Random(99)
    for _ in range(50):
        nrows = rng.randrange(1, 4)
        ncols = rng.randrange(1, 6)
        matrix = [[rng.randrange(-5, 6) for _ in range(ncols)]
                  for _ in range(nrows)]
        kernel = kernel_basis(matrix)
        assert len(kernel) == ncols - integer_rank(matrix)
        for vec in kernel:
            assert all(sum(m * v for m, v in zip(row, vec)) == 0
                       for row in matrix)
        # the kernel vectors are independent over Q
        if kernel:
            assert integer_rank([list(v) for v in kernel]) == len(kernel)


def test_kernel_of_gauss_matrix():
    # the 2F1 configuration: one-dimensional kernel (1, -1, -1, 1)
    matrix = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    kernel = kernel_basis(matrix)
    assert len(kernel) == 1
    vec = kernel[0]
    if vec[0] < 0:
        vec = tuple(-x for x in vec)
    assert vec == (1, -1, -1, 1)


def test_rank_edge_cases():
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[2, 4], [1, 2]]) == 1
    assert integer_rank([[1, 0], [0, 1]]) == 2


def test_lp_maximum_exact_optimum():
    """max x1 + x2 with x1 + 2 x2 + x3 = 4 and 3 x1 + x2 + x4 = 6, x >= 0:
    the vertex (8/5, 6/5)."""
    assert lp_maximum([1, 1, 0, 0], [[1, 2, 1, 0], [3, 1, 0, 1]],
                      [4, 6]) == Fraction(14, 5)
    # a negative right-hand side is the same equation negated
    assert lp_maximum([1, 1, 0, 0], [[-1, -2, -1, 0], [3, 1, 0, 1]],
                      [-4, 6]) == Fraction(14, 5)


def test_lp_maximum_degenerate_infeasible_redundant_unbounded():
    # x1 + x2 = -1 has no non-negative solution
    assert lp_maximum([1, 0], [[1, 1]], [-1]) is None
    assert lp_maximum([1, 0, 0], [[1, 1, 0], [0, 1, 1], [1, 0, -1]],
                      [1, 1, 1]) is None
    # the third equation is the sum of the first two: its artificial stays
    # basic at zero after phase 1, and its row stays, never selected
    assert lp_maximum([Fraction(1, 3), 1, 0],
                      [[1, 1, 0], [0, 1, 1], [1, 2, 1]],
                      [1, 2, 3]) == 1
    # -x2 = 0 leaves its artificial basic at zero after phase 1, with a
    # nonzero entry that pivots it out
    assert lp_maximum([0, 1], [[0, -1], [1, 0]], [0, 1]) == 0
    with pytest.raises(ValueError, match="unbounded"):
        lp_maximum([1, 0], [[1, -1]], [0])


def _lp_outcome(solve, lp):
    try:
        return solve(*lp)
    except ValueError as err:
        assert "unbounded" in str(err)
        return "unbounded"


def test_lp_maximum_matches_fraction_simplex():
    """The integer tableau returns exactly what the rational one returns:
    the same Fraction, None, or ValueError for an unbounded maximum, on
    seeded random LPs with dyadic entries, negative right-hand sides and
    redundant rows."""
    rng = random.Random(31)
    kinds = collections.Counter()
    for _ in range(300):
        lp = helpers.random_lp(rng)
        got = _lp_outcome(lp_maximum, lp)
        want = _lp_outcome(helpers.fraction_lp_maximum, lp)
        assert got == want and type(got) is type(want), lp
        kinds[want if want in (None, "unbounded") else "optimum"] += 1
    assert min(kinds.values()) > 40 and len(kinds) == 3
