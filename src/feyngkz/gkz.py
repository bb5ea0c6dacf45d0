"""From a polynomial to the combinatorial core of its A-hypergeometric system.

The chain implemented here: configuration matrix A of the monomial support,
codimension, deformation of codimension-zero inputs, the integer kernel
lattice of A, the toric ideal I_A (a rank-1 lattice's binomial, else the
basis binomials saturated where they need it), its w-initial monomial ideal,
the top-dimensional standard pairs of that ideal, one set of roots on each
facet of the regular triangulation Delta_w, and the exponent vectors:
A.theta = kappa solved exactly by fraction-free integer elimination on each
facet.  ``standard_pairs`` is the general decomposition of any monomial
ideal, kept as the reference the facet walk is tested against.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .errors import DeformationFailed, InconsistentPair, UnderdeterminedPair
# perfbench's tracer wraps gkz.interreduce and gkz.integer_rank, so they stay
# imported here
from .groebner import (Binomial, TermOrder, buchberger, grevlex_key,
                       interreduce, mono_divides, orient,
                       saturate_all_variables)
from .intlinalg import eliminate, integer_rank, kernel_basis
from .kpoly import KPoly, coeff_const
from .params import ParamLinear

Mono = Tuple[int, ...]


# -- configuration matrix --------------------------------------------------

@dataclass
class AMatrix:
    """Integer configuration matrix; columns index the coefficients c_j."""

    rows: List[List[int]]

    def __post_init__(self):
        widths = {len(r) for r in self.rows}
        if len(widths) != 1:
            raise ValueError("ragged A matrix")
        # one lattice reduction per A: the rank, the lattice and I_A read it
        self.kernel = kernel_basis(self.rows)
        self.rank = self.ncols - len(self.kernel)
        # the row space over Q is the orthogonal complement of the kernel, so
        # (1,...,1) lies in it iff every kernel vector sums to 0
        if any(sum(u) for u in self.kernel):
            raise ValueError("(1,...,1) not in the row span of A")

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
    rows = [[1] * len(expos)]
    for i in range(g.nvars):
        rows.append([e[i] for e in expos])
    return AMatrix(rows), expos


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
        loops = g.nvars - 1
        expo = tuple(1 if i < loops - 1 else 0 for i in range(g.nvars))
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
    """(u_plus, u_minus) pairs of a reduced basis: x^lead - x^trail is
    already written plus first."""
    return list(basis)


# -- initial ideal ---------------------------------------------------------

def initial_ideal(generators: Sequence[Binomial],
                  weight: Sequence[int]) -> List[Mono]:
    """Minimal generators of in_w(I) for the weight refined by grevlex: where
    w ties the two monomials of a basis element, grevlex picks the lead."""
    basis = buchberger(generators, TermOrder(weight))
    return minimal_monomial_generators([lead for lead, _ in basis])


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
        nvars = len(self.root)
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


def facet_pairs(gens: Sequence[Mono], nvars: int,
                rank: int) -> List[StandardPair]:
    """The top-dimensional standard pairs of in_w(I_A) from its generators,
    sorted by (face, root): the only pairs that give exponents for generic
    parameters, vol(sigma) of them on each facet sigma of Delta_w (SST,
    ch. 3).  rad(in_w I_A) is Delta_w's Stanley-Reisner ideal (Sturmfels,
    ch. 8), so the facets are the rank-subsets holding no generator's
    support, and sigma's roots are the monomials off sigma that no
    generator's off-sigma part divides, walked breadth-first up from 1."""
    supports = [sum(1 << i for i, e in enumerate(g) if e) for g in gens]
    pairs = []
    for face in itertools.combinations(range(nvars), rank):
        inside = sum(1 << i for i in face)
        if any(not support & ~inside for support in supports):
            continue
        off = [i for i in range(nvars) if not inside >> i & 1]
        parts = [[(i, g[i]) for i in off if g[i]] for g in gens]
        roots = [(0,) * nvars]
        seen = set(roots)
        for a in roots:
            for i in off:
                b = a[:i] + (a[i] + 1,) + a[i + 1:]
                if b not in seen and not any(
                        all(b[j] >= e for j, e in part) for part in parts):
                    seen.add(b)
                    roots.append(b)
        pairs.extend(StandardPair(a, face) for a in roots)
    pairs.sort(key=lambda p: (p.face, p.root))
    return pairs


# -- exponent vectors ------------------------------------------------------

@dataclass
class FakeExponent:
    components: Tuple[ParamLinear, ...]
    pair: StandardPair

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def _solve_face(rows: List[List[int]], nface: int) -> List[Tuple[int, int]]:
    """Fraction-free Gauss-Jordan elimination on the integer rows
    [A_face | rhs], in place, one intlinalg.eliminate step per pivot.
    Returns the (row, face column) pivots; each face unknown is
    row[nface:] / row[col] of its pivot row.

    Raises InconsistentPair if a row without a pivot keeps a non-zero rhs
    and UnderdeterminedPair if some face column has no pivot.
    """
    pivots: List[Tuple[int, int]] = []
    for col in range(nface):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        eliminate(rows, r, col)
        pivots.append((r, col))
    if any(any(row[nface:]) for row in rows[len(pivots):]):
        raise InconsistentPair("no solution for generic parameters")
    if len(pivots) < nface:
        raise UnderdeterminedPair("solution space is positive-dimensional")
    return pivots


def fake_exponents(amat: AMatrix, kappa: Sequence[ParamLinear],
                   pairs: Sequence[StandardPair]) -> List[FakeExponent]:
    """Exponent vectors: theta_j pinned to the pair root off the face, the
    face components solved from A.theta = kappa.

    kappa is scaled once to an integer matrix (one column per parameter and
    a constant column, common denominator den), so each pair costs one
    integer elimination; each solved component is its pivot row's integer
    numerators over the denominator pivot * den.  Pairs
    whose linear system is inconsistent are dropped with a warning; an
    underdetermined system aborts (the weight was too degenerate).
    """
    if len(kappa) != amat.nrows:
        raise ValueError("kappa length must match the number of A rows")
    names = list(dict.fromkeys(n for k in kappa for n in k.nums))
    den = math.lcm(*(k.den for k in kappa))
    kmat = [[k.nums.get(n, 0) * (den // k.den) for n in names] for k in kappa]
    k0 = [k.num0 * (den // k.den) for k in kappa]
    out = []
    for pair in pairs:
        face = pair.face
        off = [(j, pair.root[j] * den) for j in range(amat.ncols)
               if j not in face and pair.root[j]]
        rows = [[row[j] for j in face] + kparams
                + [k - sum(row[j] * r for j, r in off)]
                for row, kparams, k in zip(amat.rows, kmat, k0)]
        try:
            pivots = _solve_face(rows, len(face))
        except InconsistentPair:
            warnings.warn(f"discarding inconsistent standard pair {pair}")
            continue
        components = [ParamLinear.const(r) for r in pair.root]
        for r, col in pivots:
            row = rows[r]
            components[face[col]] = ParamLinear.from_integers(
                dict(zip(names, row[len(face):-1])), row[-1], row[col] * den)
        out.append(FakeExponent(tuple(components), pair))
    return out


def standard_kappa(nvars: int) -> List[ParamLinear]:
    """kappa = (-beta, -a1, ..., -aN) for an integrand z^a g(z)^(-beta)."""
    return [-ParamLinear.param("beta")] + [
        -ParamLinear.param(f"a{i + 1}") for i in range(nvars)]
