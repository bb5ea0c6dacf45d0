"""Exact linear algebra on integer rows: Hermite reduction, lattice kernels,
one fraction-free elimination step, and linear programs solved with it."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

IntMatrix = List[List[int]]


def row_hermite(matrix: IntMatrix) -> Tuple[IntMatrix, IntMatrix]:
    """Row-reduce an integer matrix by unimodular row operations.

    Returns (H, U) with U @ matrix == H, U unimodular and H in row echelon
    form (a Hermite-style staircase; zero rows at the bottom).  U rides
    along as identity columns appended to the rows.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    rows = [list(r) + [int(i == j) for j in range(nrows)]
            for i, r in enumerate(matrix)]
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        while True:
            live = [i for i in range(pivot_row, nrows) if rows[i][col] != 0]
            if not live:
                break
            best = min(live, key=lambda i: abs(rows[i][col]))
            rows[pivot_row], rows[best] = rows[best], rows[pivot_row]
            prow, done = rows[pivot_row], True
            for i in range(pivot_row + 1, nrows):
                if rows[i][col] != 0:
                    q = rows[i][col] // prow[col]
                    rows[i] = [x - q * y for x, y in zip(rows[i], prow)]
                    if rows[i][col] != 0:
                        done = False
            if done:
                break
        if rows[pivot_row][col] != 0:
            if rows[pivot_row][col] < 0:
                rows[pivot_row] = [-x for x in rows[pivot_row]]
            pivot_row += 1
    return [r[:ncols] for r in rows], [r[ncols:] for r in rows]


def kernel_basis(matrix: IntMatrix) -> List[Tuple[int, ...]]:
    """Z-basis of {u : matrix @ u = 0} for an integer matrix."""
    hermite, unimod = row_hermite([list(col) for col in zip(*matrix)])
    return [tuple(u) for h, u in zip(hermite, unimod) if not any(h)]


def integer_rank(matrix: IntMatrix) -> int:
    return sum(1 for row in row_hermite(matrix)[0] if any(row))


def eliminate(rows: IntMatrix, r: int, col: int) -> None:
    """One fraction-free Gauss-Jordan step on integer rows, in place: rows[r]
    is negated if its entry pv in col is negative, then every other row with
    an entry f != 0 in col becomes pv*row - f*rows[r], divided by its gcd."""
    if rows[r][col] < 0:
        rows[r] = [-x for x in rows[r]]
    prow, pv = rows[r], rows[r][col]
    for i, row in enumerate(rows):
        f = row[col]
        if i != r and f:
            row = [pv * x - f * y for x, y in zip(row, prow)]
            g = math.gcd(*row)
            rows[i] = [x // g for x in row] if g > 1 else row


def lp_maximum(cost: Sequence, a_eq: Sequence[Sequence],
               b_eq: Sequence) -> Optional[Fraction]:
    """max cost.x subject to a_eq x = b_eq and x >= 0, solved exactly by the
    dense two-phase simplex with Bland's rule (entering: the lowest column
    that improves; leaving: the least ratio, ties to the lowest basic
    column), so it cannot cycle.  The tableau is integer, each pivot one
    eliminate step, so every row keeps the signs and ratios of the rational
    tableau's.  None when no x is feasible; the maximum must be bounded."""
    m, n = len(a_eq), len(cost)
    signed = [[Fraction(x) if b >= 0 else -Fraction(x) for x in row]
              + [abs(Fraction(b))] for row, b in zip(a_eq, b_eq)]
    den = math.lcm(*(x.denominator for row in signed for x in row),
                   *(Fraction(c).denominator for c in cost))
    # row i: its signed equation times den, then the artificial unit columns
    # and the right-hand side; the last row holds a positive multiple of the
    # reduced costs and minus the objective value
    tab = [[int(x * den) for x in row[:-1]] + [int(i == j) for j in range(m)]
           + [int(row[-1] * den)] for i, row in enumerate(signed)]
    basis = list(range(n, n + m))

    def optimise() -> None:
        while True:
            enter = next((j for j, d in enumerate(tab[-1][:n]) if d > 0), None)
            if enter is None:
                return
            ratios = [(Fraction(row[-1], row[enter]), basis[i], i)
                      for i, row in enumerate(tab[:-1]) if row[enter] > 0]
            if not ratios:
                raise ValueError("the linear program is unbounded")
            leave = min(ratios)[2]
            eliminate(tab, leave, enter)
            basis[leave] = enter

    # phase 1: maximise minus the sum of the artificials
    tab.append([sum(col) for col in zip(*tab)])
    tab[-1][n:n + m] = [0] * m
    optimise()
    if tab[-1][-1]:
        return None
    # drive the artificials out of the basis; a row with no other entry is
    # a redundant equation and goes
    for i in reversed(range(m)):
        if basis[i] >= n:
            column = next((j for j in range(n) if tab[i][j]), None)
            if column is None:
                del tab[i], basis[i]
            else:
                eliminate(tab, i, column)
                basis[i] = column
    # phase 2: the real objective, reduced on this basis
    tab = [row[:n] + row[-1:] for row in tab[:-1]]
    tab.append([int(Fraction(c) * den) for c in cost] + [0])
    for i, b in enumerate(basis):
        eliminate(tab, i, b)
    optimise()
    return sum((Fraction(cost[b]) * Fraction(tab[i][-1], tab[i][b])
                for i, b in enumerate(basis)), Fraction(0))
