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
    """max cost.x subject to a_eq x = b_eq and x >= 0, ints or Fractions,
    exactly: a dense two-phase simplex on one integer tableau with Bland's
    rule, which cannot cycle (entering: the lowest column that improves;
    leaving: the least ratio, compared as integer products, ties to the
    lowest basic column).  None if infeasible; the maximum must be bounded."""
    m, n = len(a_eq), len(cost)
    den = math.lcm(*(x.denominator for r in (*a_eq, b_eq, cost) for x in r))

    def scaled(x) -> int:
        return x.numerator * (den // x.denominator)
    # rows 0..m-1: each equation times den, negated where b < 0, then unit
    # artificial columns and |b|; rows m, m + 1: phase 1's and the cost's
    # reduced costs and minus their values, 0 on the artificials
    tab = [[scaled(x) if b >= 0 else -scaled(x) for x in row]
           + [int(i == j) for j in range(m)] + [abs(scaled(b))]
           for i, (row, b) in enumerate(zip(a_eq, b_eq))]
    tab.append([sum(col) for col in zip(*tab)])
    tab[m][n:n + m] = [0] * m
    tab.append([scaled(c) for c in cost] + [0] * (m + 1))
    basis = list(range(n, n + m))

    def optimise(objective: int) -> None:
        while (enter := next((j for j in range(n) if tab[objective][j] > 0),
                             None)) is not None:
            leave = None
            for i in range(m):
                p = tab[i][enter]
                if p > 0 and (leave is None or (tab[i][-1] * q, basis[i])
                              < (tab[leave][-1] * p, basis[leave])):
                    leave, q = i, p
            if leave is None:
                raise ValueError("the linear program is unbounded")
            eliminate(tab, leave, enter)
            basis[leave] = enter

    optimise(m)             # phase 1 maximises minus the sum of artificials
    if tab[m][-1]:
        return None
    # pivot each artificial out on its row's first real entry; a redundant
    # row has none and keeps it (a no-op pivot), and no ratio test selects it
    for i in [i for i in reversed(range(m)) if basis[i] >= n]:
        basis[i] = next((j for j in range(n) if tab[i][j]), basis[i])
        eliminate(tab, i, basis[i])
    optimise(m + 1)         # phase 2 on the same rows, the cost row reduced
    return sum((cost[b] * Fraction(tab[i][-1], tab[i][b])
                for i, b in enumerate(basis) if b < n), Fraction(0))
