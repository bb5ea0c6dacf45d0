"""Exact linear algebra: Hermite reduction, lattice kernels, and linear
programs in rational arithmetic."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

IntMatrix = List[List[int]]


def row_hermite(matrix: IntMatrix) -> Tuple[IntMatrix, IntMatrix]:
    """Row-reduce an integer matrix by unimodular row operations.

    Returns (H, U) with U @ matrix == H, U unimodular and H in row echelon
    form (a Hermite-style staircase; zero rows at the bottom).
    """
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    unimod = [[int(i == j) for j in range(nrows)] for i in range(nrows)]

    def swap(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        unimod[i], unimod[j] = unimod[j], unimod[i]

    def submul(i, j, q):
        # row_i -= q * row_j
        rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]
        unimod[i] = [x - q * y for x, y in zip(unimod[i], unimod[j])]

    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        while True:
            live = [i for i in range(pivot_row, nrows) if rows[i][col] != 0]
            if not live:
                break
            best = min(live, key=lambda i: abs(rows[i][col]))
            if best != pivot_row:
                swap(pivot_row, best)
            done = True
            for i in range(pivot_row + 1, nrows):
                if rows[i][col] != 0:
                    submul(i, pivot_row, rows[i][col] // rows[pivot_row][col])
                    if rows[i][col] != 0:
                        done = False
            if done:
                break
        if rows[pivot_row][col] != 0:
            if rows[pivot_row][col] < 0:
                rows[pivot_row] = [-x for x in rows[pivot_row]]
                unimod[pivot_row] = [-x for x in unimod[pivot_row]]
            pivot_row += 1
    return rows, unimod


def kernel_basis(matrix: IntMatrix) -> List[Tuple[int, ...]]:
    """Z-basis of {u : matrix @ u = 0} for an integer matrix."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    transpose = [[matrix[i][j] for i in range(nrows)] for j in range(ncols)]
    hermite, unimod = row_hermite(transpose)
    return [tuple(unimod[i]) for i in range(ncols)
            if all(x == 0 for x in hermite[i])]


def integer_rank(matrix: IntMatrix) -> int:
    hermite, _ = row_hermite([list(r) for r in matrix])
    return sum(1 for row in hermite if any(x != 0 for x in row))


def lp_maximum(cost: Sequence, a_eq: Sequence[Sequence],
               b_eq: Sequence) -> Optional[Fraction]:
    """max cost.x subject to a_eq x = b_eq and x >= 0, solved exactly over
    Fractions by the dense two-phase simplex with Bland's rule (entering:
    the lowest column that improves; leaving: the least ratio, ties to the
    lowest basic column), so it cannot cycle.  None when no x is feasible;
    the maximum must be bounded."""
    m, n = len(a_eq), len(cost)
    # row i: its equation, signed so the right-hand side is >= 0, then the
    # artificial unit columns and the right-hand side; the last row holds
    # the reduced costs and minus the objective value
    tab = [[Fraction(x) if b >= 0 else -Fraction(x) for x in row]
           + [Fraction(int(i == j)) for j in range(m)] + [abs(Fraction(b))]
           for i, (row, b) in enumerate(zip(a_eq, b_eq))]
    basis = list(range(n, n + m))

    def pivot(r: int, c: int) -> None:
        tab[r] = [x / tab[r][c] if x else x for x in tab[r]]
        for i, row in enumerate(tab):
            if i != r and row[c]:
                tab[i] = [x - row[c] * y if y else x
                          for x, y in zip(row, tab[r])]
        basis[r] = c

    def optimise() -> None:
        while True:
            enter = next((j for j, d in enumerate(tab[-1][:n]) if d > 0), None)
            if enter is None:
                return
            ratios = [(row[-1] / row[enter], basis[i], i)
                      for i, row in enumerate(tab[:-1]) if row[enter] > 0]
            if not ratios:
                raise ValueError("the linear program is unbounded")
            pivot(min(ratios)[2], enter)

    # phase 1: maximise minus the sum of the artificials
    tab.append([sum(col) for col in zip(*tab)])
    for j in range(n, n + m):
        tab[-1][j] = Fraction(0)
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
                pivot(i, column)
    tab = [row[:n] + row[-1:] for row in tab[:-1]]
    # phase 2: the reduced costs of the real objective on this basis
    tab.append([Fraction(c) for c in cost] + [Fraction(0)])
    for i, row in enumerate(tab[:-1]):
        if tab[-1][basis[i]]:
            tab[-1] = [x - tab[-1][basis[i]] * y for x, y in zip(tab[-1], row)]
    optimise()
    return -tab[-1][-1]
