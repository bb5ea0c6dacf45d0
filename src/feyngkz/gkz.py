"""From a polynomial to the combinatorial core of its A-hypergeometric system.

The chain implemented here: configuration matrix A of the monomial support,
codimension, deformation of codimension-zero inputs, the integer kernel
lattice of A, the top-dimensional standard pairs of in_w(I_A), walked facet
to facet of the regular triangulation Delta_w on the kernel's tableau, and
the exponent vectors, A.theta = kappa solved exactly on one integer tableau
by basis exchange.  The toric ideal I_A (a rank-1 lattice's binomial, else
the basis binomials saturated where they need it), in_w(I_A) and
``standard_pairs``, the general decomposition of any monomial ideal, are
built only for the reports that print them and for the tests.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import mul, neg
from typing import List, Optional, Sequence, Tuple

from .errors import DeformationFailed, UnderdeterminedPair
# perfbench's tracer wraps gkz.interreduce, gkz.integer_rank and
# gkz.kernel_basis, so they stay imported here
from .groebner import (Binomial, TermOrder, buchberger, grevlex_key,
                       interreduce, mono_divides, orient,
                       saturate_all_variables)
from .intlinalg import eliminate, integer_rank, kernel_basis, row_hermite
from .kpoly import KPoly, coeff_const
from .params import ParamLinear

Mono = Tuple[int, ...]


# -- configuration matrix --------------------------------------------------

@dataclass
class AMatrix:
    """Integer configuration matrix; columns index the coefficients c_j.

    ``index`` is iota = [Z^m : Z.C], the index of the column lattice of C,
    A with row 0 set to (1, ..., 1): the configuration whose integral the
    series sum, and whose rows 1.. the oracle integrates.  At full row rank,
    (1, ..., 1) = y^T A makes C = T A with det T = y_0, so iota = |y_0| times
    A's own index, the product of the pivots; where y_0 = 0, C has rank < m
    and iota is A's own (the oracle refuses such a C).  Below full row rank
    it is None."""

    rows: List[List[int]]

    def __post_init__(self):
        if len({len(r) for r in self.rows}) != 1:
            raise ValueError("ragged A matrix")
        # one lattice reduction per A, of its columns (U A^T = H): the rank,
        # the lattice, I_A and the index read it
        hermite, unimod = row_hermite([list(col) for col in zip(*self.rows)])
        self.rank = sum(map(any, hermite))
        self.kernel = [tuple(u) for u in unimod[self.rank:]]
        # the row space over Q is the orthogonal complement of the kernel, so
        # (1,...,1) lies in it iff every kernel vector sums to 0
        if any(sum(u) for u in self.kernel):
            raise ValueError("(1,...,1) not in the row span of A")
        self.index = None
        if self.rank == self.nrows:
            det = math.prod(hermite[i][i] for i in range(self.rank))
            self.index = det
            if self.rows[0].count(1) < self.ncols:      # else C = A, y = e_0
                # H y = U (1, ..., 1) by back-substitution on H's upper
                # triangle, in the integers z = det(H) y
                z = [0] * self.rank
                for i in reversed(range(self.rank)):
                    z[i] = (det * sum(unimod[i]) - sum(map(
                        mul, hermite[i][i + 1:], z[i + 1:]))) // hermite[i][i]
                self.index = abs(z[0]) or det

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def codim(self) -> int:
        return self.ncols - self.rank


def toric_matrix(g: KPoly) -> Tuple[AMatrix, List[Mono]]:
    """A matrix of the support of g: first row all ones, then one row per
    integration variable.  Column order follows g's canonical term order."""
    expos = g.ordered_exponents()
    rows = [[e[i] for e in expos] for i in range(g.nvars)]
    return AMatrix([[1] * len(expos)] + rows), expos


# -- deformation -----------------------------------------------------------

@dataclass
class Deformation:
    applied: bool
    exponent: Optional[Mono] = None
    # A and the columns of the g that deform left alone, built by its check
    toric: Optional[Tuple[AMatrix, List[Mono]]] = field(
        default=None, repr=False, compare=False)


def _cantaloupe_shape(g: KPoly) -> bool:
    """All products of (nvars-1) distinct variables plus the full product."""
    n = g.nvars
    expected = {tuple(0 if j == i else 1 for j in range(n)) for i in range(n)}
    expected.add((1,) * n)
    return set(g.terms) == expected


def deform(g: KPoly) -> Tuple[KPoly, Deformation]:
    """Insert an extra monomial when the configuration has codimension zero,
    so that the kernel lattice becomes nontrivial."""
    amat, columns = toric_matrix(g)
    if amat.codim() > 0:
        return g, Deformation(False, toric=(amat, columns))
    if _cantaloupe_shape(g) and g.nvars >= 3:
        expo = tuple(int(i < g.nvars - 2) for i in range(g.nvars))
    else:
        expo = (0,) * g.nvars
    if expo in g.terms:
        raise DeformationFailed(f"deformation monomial {expo} already present")
    deformed = KPoly.monomial(g.nvars, expo, coeff_const(1)) + g
    return deformed, Deformation(True, expo)


# -- lattice and toric ideal ----------------------------------------------

def kernel_lattice(amat: AMatrix) -> List[Tuple[int, ...]]:
    return list(amat.kernel)


def toric_ideal(amat: AMatrix) -> List[Binomial]:
    """Generators of I_A as a reduced grevlex basis of (lead, trail) pairs.
    For a rank-1 lattice Zu the binomial x^(u+) - x^(u-) divides every
    x^(ku+) - x^(ku-), so it is I_A's basis by itself (Sturmfels, ch. 12);
    a larger lattice's basis binomials are saturated where they need it."""
    gens = [(tuple(max(x, 0) for x in u), tuple(max(-x, 0) for x in u))
            for u in amat.kernel]
    if len(gens) <= 1:
        return [orient(plus, minus, grevlex_key) for plus, minus in gens]
    return saturate_all_variables(gens, amat.ncols)


def binomial_exponents(basis: Sequence[Binomial]) -> List[Tuple[Mono, Mono]]:
    """(u_plus, u_minus) pairs of a reduced basis, written plus first."""
    return list(basis)


# -- initial ideal ---------------------------------------------------------

def initial_ideal(generators: Sequence[Binomial],
                  weight: Sequence[int]) -> List[Mono]:
    """Minimal generators of in_w(I), in grevlex order, for the weight
    refined by grevlex: where w ties the two monomials of a basis element,
    grevlex picks the lead.  The leads of a reduced basis are distinct and
    none divides another, so they are the minimal generators."""
    basis = buchberger(generators, TermOrder(weight))
    return sorted((lead for lead, _ in basis), key=grevlex_key)


def minimal_monomial_generators(monos: Sequence[Mono]) -> List[Mono]:
    out = []
    for m in sorted(set(monos), key=grevlex_key):
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return out


# -- standard pairs --------------------------------------------------------

@dataclass(frozen=True)
class StandardPair:
    """A pair (root a, face F); indices in F are 0-based internally."""

    root: Mono
    face: Tuple[int, ...]

    def __str__(self) -> str:
        mono = "*".join(f"d{i + 1}" + (f"^{e}" if e > 1 else "")
                        for i, e in enumerate(self.root) if e) or "1"
        face = "{" + ",".join(str(i + 1) for i in self.face) + "}"
        return f"({mono}, {face})"


def standard_pairs(gens: Sequence[Mono], nvars: int) -> List[StandardPair]:
    """Standard pairs of a monomial ideal given by (minimal) generators.

    A pair (a, F) qualifies when a is supported off F, no generator divides
    any monomial of the form a + (exponents on F), and F is maximal with that
    property in every direction l not in F.  Divisibility makes each
    condition a finite check against the generators.
    """
    gens = minimal_monomial_generators(gens)
    if not gens:
        return [StandardPair((0,) * nvars, tuple(range(nvars)))]
    dmax = [max(g[i] for g in gens) for i in range(nvars)]
    forced = [i for i in range(nvars) if dmax[i] == 0]
    free = [i for i in range(nvars) if dmax[i] > 0]
    pairs = []
    for rbits in itertools.product((False, True), repeat=len(free)):
        face = tuple(sorted(forced + [i for i, b in zip(free, rbits) if b]))
        off = [i for i in free if i not in face]
        for avals in itertools.product(*(range(dmax[i]) for i in off)):
            a = [0] * nvars
            for i, v in zip(off, avals):
                a[i] = v
            if any(all(g[i] <= a[i] for i in off) for g in gens):
                continue  # some generator survives on the face: not standard
            if all(any(all(g[i] <= a[i] for i in off if i != l) for g in gens)
                   for l in off):
                pairs.append(StandardPair(tuple(a), face))
    pairs.sort(key=lambda p: (p.face, p.root))
    return pairs


def _refined(row: Sequence[int], w: Sequence[int]) -> Tuple[int, ...]:
    """w.row for w refined by grevlex, lexicographically: (w.row, -row[n-1],
    ..., -row[0]), positive iff x^(row+) leads under TermOrder(w)."""
    return (sum(map(mul, w, row)), *map(neg, reversed(row)))


def _least_ratio(tab, refined, col: int) -> Optional[int]:
    """The simplex's leaving row: the r with tab[r][col] > 0 least in
    refined[r] / tab[r][col], lexicographically; None if there is none."""
    best, t = None, [row[col] for row in tab]
    for r in range(len(tab)):
        if t[r] > 0 and (best is None or [x * t[best] for x in refined[r]]
                         < [x * t[r] for x in refined[best]]):
            best = r
    return best


def _roots(tab, basis, refined, face) -> List[Mono]:
    """The least a >= 0 off the face in each class of Z^S modulo the
    kernel's projection, by a Dijkstra search: row r is p_r times the kernel
    vector u 1 at basis[r] and 0 on the rest of S, so a step along basis[r]
    costs refined[r] / p_r and adds u's face part, mod 1, to the class."""
    if (den := math.lcm(*(row[b] for row, b in zip(tab, basis)))) == 1:
        return [(0,) * (len(face) + len(basis))]    # sigma is unimodular
    steps = [(b, [den // row[b] * x for x in ref],
              [den // row[b] * row[j] % den for j in face])
             for row, b, ref in zip(tab, basis, refined)]
    heap = [([0] * len(refined[0]), (0,) * len(tab[0]), [0] * len(face))]
    found = {}
    while heap:
        cost, a, group = heappop(heap)
        if (key := tuple(group)) not in found:
            found[key] = a
            for b, step, move in steps:
                heappush(heap, ([x + y for x, y in zip(cost, step)],
                                a[:b] + (a[b] + 1,) + a[b + 1:],
                                [(x + y) % den for x, y in zip(group, move)]))
    return list(found.values())


def facet_walk(amat: AMatrix, weight: Sequence[int]) -> List[StandardPair]:
    """The top-dimensional standard pairs of in_w(I_A), w refined by grevlex,
    sorted by (face, root), without a Groebner basis: vol(sigma) of them on
    each facet sigma of Delta_w (SST, ch. 3).  Pivoting d columns S into
    the kernel's tableau K leaves each row a positive multiple of the kernel
    vector 1 at its basic column and 0 on the rest of S; S's complement is a
    facet iff every row is refined-positive (reduced costs, Sturmfels, ch.
    8).  Phase 1 of the simplex, right-hand side K.w refined, finds a first
    facet; each column of sigma entered at the least ratio crosses a ridge."""
    n, d = amat.ncols, len(amat.kernel)
    tab = [list(u) if _refined(u, weight) > (0,) * (n + 1) else
           [-x for x in u] for u in amat.kernel]
    # [K | I] less I, which steers no choice, over the artificials' sum
    tab.append([sum(row[j] for row in tab) for j in range(n)])
    basis = list(range(n, n + d))
    while (col := next((j for j in range(n) if tab[-1][j] > 0), -1)) >= 0:
        r = _least_ratio(tab[:-1], [_refined(row, weight)
                                    for row in tab[:-1]], col)
        eliminate(tab, r, col)
        basis[r] = col
    todo, seen, pairs = [(tab[:-1], basis)], {sum(1 << b for b in basis)}, []
    while todo:
        tab, basis = todo.pop()
        refined = [_refined(row, weight) for row in tab]
        face = tuple([j for j in range(n) if j not in basis])
        pairs += [StandardPair(a, face)
                  for a in _roots(tab, basis, refined, face)]
        key = sum(1 << b for b in basis)
        for col in face:
            r = _least_ratio(tab, refined, col)
            if r is not None and (
                    flip := key ^ 1 << col ^ 1 << basis[r]) not in seen:
                seen.add(flip)
                flipped = [row[:] for row in tab]
                eliminate(flipped, r, col)
                todo.append((flipped, basis[:r] + [col] + basis[r + 1:]))
    pairs.sort(key=lambda p: (p.face, p.root))
    return pairs


# -- exponent vectors ------------------------------------------------------

@dataclass
class FakeExponent:
    """A solution of A.gamma = kappa on its pair, and beta = -sum_j gamma_j:
    (1, ..., 1) = y^T A, so every solution sums to y^T kappa (GKZ)."""
    components: Tuple[ParamLinear, ...]
    pair: StandardPair
    beta: ParamLinear

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def fake_exponents(amat: AMatrix, kappa: Sequence[ParamLinear],
                   pairs: Sequence[StandardPair]) -> List[FakeExponent]:
    """Exponent vectors: theta_j pinned to the pair root off the face, the
    face components solved from A.theta = kappa.

    One integer tableau [A | kappa's parameter columns | kappa's constant]
    (kappa over its common denominator den) serves all pairs, facet to facet
    by basis exchange: a face column not yet basic is pivoted in, one
    intlinalg.eliminate step, in a row whose basic column is off the face; a
    face component is its basic row, less the root's part, over pivot * den.
    A pair whose off-face rows fail at the root is dropped with a warning;
    a face column left nonbasic aborts (the weight was too degenerate).
    Every exponent shares one beta, summed once, from the first."""
    if len(kappa) != amat.nrows:
        raise ValueError("kappa length must match the number of A rows")
    names = list(dict.fromkeys(n for k in kappa for n in k.nums))
    den = math.lcm(*(k.den for k in kappa))
    n = amat.ncols
    tab = [row + [k.nums.get(name, 0) * (den // k.den) for name in names]
           + [k.num0 * (den // k.den)] for row, k in zip(amat.rows, kappa)]
    out, basic = [], [None] * len(tab)      # basic: each row's basic column
    for pair in pairs:
        face = pair.face
        for col in face:    # a basic col is 0 in every other row
            row = next((i for i, b in enumerate(basic)
                        if b not in face and tab[i][col]), None)
            if row is not None:
                eliminate(tab, row, col)
                basic[row] = col
        off = [(j, r * den) for j, r in enumerate(pair.root)
               if r and j not in face]
        components = [ParamLinear.const(r) for r in pair.root]
        for row, col in zip(tab, basic):
            k0 = row[-1] - sum(row[j] * r for j, r in off) if off else row[-1]
            if col in face:
                components[col] = ParamLinear.from_integers(
                    dict(zip(names, row[n:-1])), k0, row[col] * den)
            elif k0 or any(row[n:-1]):
                warnings.warn(f"discarding inconsistent standard pair {pair}")
                break
        else:
            if any(col not in basic for col in face):
                raise UnderdeterminedPair("solution space is "
                                          "positive-dimensional")
            out.append((tuple(components), pair))
    beta = _negated_sum(out[0][0], names) if out else None
    return [FakeExponent(components, pair, beta) for components, pair in out]


def _negated_sum(components: Sequence[ParamLinear], names) -> ParamLinear:
    """-sum(components) in integers, its parameters in the order of names."""
    den = math.lcm(*(c.den for c in components))
    nums, num0 = dict.fromkeys(names, 0), 0
    for c in components:
        num0 -= c.num0 * (f := den // c.den)
        for name, n in c.nums.items():
            nums[name] -= n * f
    return ParamLinear.from_integers(nums, num0, den)


def standard_kappa(nvars: int) -> List[ParamLinear]:
    """kappa = (-beta, -a1, ..., -aN) for an integrand z^a g(z)^(-beta)."""
    return [ParamLinear.from_integers({name: -1}, 0) for name in
            ["beta"] + [f"a{i + 1}" for i in range(nvars)]]
