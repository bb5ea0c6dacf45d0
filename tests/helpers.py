"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (plain term
recurrences, brute-force enumeration) so it shares no code with the package
machinery it checks.  Some keep a route that a faster one replaced:
``bundle_reference``, the per-series sum of the fused bundle kernel; the
division of binomials on exponent tuples (``normal_form``,
``s_polynomial``) that the packed Buchberger kernel replaced;
``saturated_toric_ideal``, the saturation at every variable that the lead
test now skips where it can; ``fake_exponents_reference``, one
elimination per pair, which the basis-exchange walk replaced; and
``closed_form_margins``, the rank-1 and Appell F4 region rules that the
bundle's one Horn margin replaced.  Graphs are passed as plain
``GraphSpec.to_dict`` data, so the Symanzik reference reads them without
the package.
"""

from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np

from feyngkz.errors import FeynGKZError, UnderdeterminedPair
from feyngkz.gkz import FakeExponent, StandardPair
from feyngkz.groebner import (TermOrder, buchberger, grevlex_key, interreduce,
                              mono_divides, orient)
from feyngkz.intlinalg import eliminate, kernel_basis
from feyngkz.kpoly import KPoly, coeff_const
from feyngkz.params import ParamLinear


class InconsistentPair(FeynGKZError):
    """A standard pair leads to an unsolvable exponent system; only the
    reference solver below meets one, and it discards that pair."""


def bundle_reference(bundle, assignment, points, order):
    """sum_i K_i phi_i at each point, one ``evaluate_points`` call per
    series, in series order after the constants."""
    total = [0.0] * len(points)
    for phi, k in zip(bundle.series, bundle.constant_values(assignment)):
        values, _ = phi.evaluate_points(assignment, points, order)
        total = [t + k * v for t, v in zip(total, values)]
    return total


def _rewrite(mono, g):
    """mono with g's lead (which divides it) replaced by g's trail."""
    return tuple(m - l + t for m, l, t in zip(mono, g[0], g[1]))


def _reduce_monomial(mono, basis):
    while True:
        for g in basis:
            if mono_divides(g[0], mono):
                mono = _rewrite(mono, g)
                break
        else:
            return mono


def normal_form(f, basis, order):
    """Remainder of the binomial f under division by basis (oriented under
    order): each monomial is rewritten lead -> trail by the first element
    whose lead divides it, until no lead does; None for zero."""
    return orient(_reduce_monomial(f[0], basis),
                  _reduce_monomial(f[1], basis), order)


def s_polynomial(f, g, order):
    lcm = tuple(max(x, y) for x, y in zip(f[0], g[0]))
    return orient(_rewrite(lcm, f), _rewrite(lcm, g), order)


def saturate_variable(generators, index: int, nvars: int):
    """(I : x_index^inf) for a homogeneous ideal I: with the chosen variable
    cheapest in grevlex, every element of a Groebner basis divided by its
    largest x_index power (Bayer)."""
    out = []
    for g in buchberger(generators, TermOrder(cheapest=index)):
        drop = min(m[index] for m in g)
        out.append(tuple(m[:index] + (m[index] - drop,) + m[index + 1:]
                         for m in g))
    return out


def saturated_toric_ideal(rows):
    """I_A as a reduced grevlex basis: the lattice-basis binomials saturated
    at x_1, ..., x_n in turn, one saturate_variable pass each whatever the
    leads say, then interreduced."""
    nvars = len(rows[0])
    gens = [(tuple(max(x, 0) for x in u), tuple(max(-x, 0) for x in u))
            for u in kernel_basis(rows)]
    for index in range(nvars):
        gens = saturate_variable(gens, index, nvars)
    return interreduce(gens, grevlex_key)


def _solve_face(rows, nface: int):
    """Fraction-free Gauss-Jordan elimination on the integer rows
    [A_face | rhs], in place, one eliminate step per pivot.  Returns the
    (row, face column) pivots; each face unknown is row[nface:] / row[col]
    of its pivot row.  Raises InconsistentPair if a row without a pivot
    keeps a non-zero rhs and UnderdeterminedPair if some face column has no
    pivot."""
    pivots = []
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


def fake_exponents_reference(amat, kappa, pairs):
    """gkz.fake_exponents pair by pair: each pair's system [A_face | kappa
    less the root's part] built afresh and solved by its own elimination,
    len(face) pivots per pair; the same warnings and errors."""
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


def facet_pairs_reference(gens, nvars: int, rank: int):
    """The top-dimensional standard pairs of in_w(I_A) from its generators,
    sorted by (face, root), as run read them before the facet walk:
    rad(in_w I_A) is Delta_w's Stanley-Reisner ideal (Sturmfels, ch. 8), so
    the facets are the rank-subsets holding no generator's support, and
    sigma's roots are the monomials off sigma that no generator's
    off-sigma part divides, walked breadth-first up from 1."""
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


def random_configuration(rng, codim: int):
    """A random A: a row of ones over rows of entries 0..3, codimension at
    least ``codim``."""
    while True:
        n = rng.randint(codim + 2, 7)
        rows = [[1] * n] + [[rng.randint(0, 3) for _ in range(n)]
                            for _ in range(rng.randint(1, n - codim - 1))]
        if len(kernel_basis(rows)) >= codim:
            return rows


def massive_ngon(n):
    """The support of U + F for the fully massive one-loop n-gon: every
    monomial of degree 1 and of degree 2 in n variables."""
    ones = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    twos = [tuple(map(sum, zip(u, v)))
            for u, v in itertools.combinations_with_replacement(ones, 2)]
    return sum((KPoly.monomial(n, e, coeff_const(1)) for e in ones + twos),
               KPoly.zero(n))


def rising(a: float, m: int) -> float:
    """Rising factorial by direct multiplication (m may be negative)."""
    if m >= 0:
        out = 1.0
        for k in range(m):
            out *= a + k
        return out
    out = 1.0
    for k in range(-m):
        out *= a - 1 - k
    if out == 0.0:
        raise ZeroDivisionError("pole in rising factorial")
    return 1.0 / out


def pfq(upper, lower, x: float, terms: int = 200) -> float:
    """Sum pFq(upper; lower; x) by the plain term recurrence."""
    total = 1.0
    term = 1.0
    for n in range(terms):
        ratio = 1.0
        for a in upper:
            ratio *= a + n
        for b in lower:
            ratio /= b + n
        term *= ratio * x / (n + 1)
        total += term
    return total


def appell_f4(a: float, b: float, c1: float, c2: float,
              x: float, y: float, terms: int = 60) -> float:
    """Sum Appell F4 by a double loop over its defining series, updating
    each term incrementally to avoid factorial overflow."""
    total = 0.0
    row = 1.0                      # term at (m, 0)
    for m in range(terms):
        term = row
        for n in range(terms):
            total += term
            term *= ((a + m + n) * (b + m + n) / (c2 + n)) * y / (n + 1)
        row *= ((a + m) * (b + m) / (c1 + m)) * x / (m + 1)
    return total


def gauss_2f1(a: float, b: float, c: float, x: float,
              terms: int = 400) -> float:
    return pfq([a, b], [c], x, terms)


def form_value(form, assignment, kinconst, terms: int = 200) -> float:
    """Evaluate a classified HypergeometricForm numerically from its stated
    parameters alone (independent of the series-enumeration machinery).

    ``kinconst`` maps coefficient names c1.. to floats.
    """
    upper = [p.evaluate(assignment) for p in form.upper]
    lower = [p.evaluate(assignment) for p in form.lower]
    args = [_eval_monomial(arg, kinconst) * sign
            for arg, sign in zip(form.arguments, form.argument_signs)]
    if form.kind == "AppellF4":
        return appell_f4(upper[0], upper[1], lower[0], lower[1],
                         args[0], args[1], min(terms, 120))
    if len(form.kind) == 3 and form.kind[1] == "F":
        # the n! slot was already stripped from the lower list
        return pfq(upper, lower, args[0], terms)
    raise ValueError(f"unknown form kind {form.kind}")


def closed_form_margins(series, coeffs):
    """Per series, the margin of the closed-form region rule for its shape:
    log(R(v) / |x|) for a rank-1 generator v, x = c^v, R(v) = prod_j
    |v_j|^{v_j} (the limit ratio of consecutive terms is x / R(v)); -2
    log(sqrt|x| + sqrt|y|) for an Appell F4 series; None for any other.
    A series converges where its margin is > 0."""
    margins = []
    for phi in series:
        args = [math.prod(c ** x for c, x in zip(coeffs, v))
                for v in phi.lattice]
        if len(args) == 1:
            radius = math.prod(abs(x) ** x for x in phi.lattice[0])
            margins.append(math.log(radius / args[0]))
        elif phi.form.kind == "AppellF4":
            margins.append(-2 * math.log(math.sqrt(args[0])
                                         + math.sqrt(args[1])))
        else:
            margins.append(None)
    return margins


def fine_horn_margin(lattice, face, points, steps):
    """Per coefficient point, -max psi(l) over l = s.K on the simplex grid
    sum s = 1 of spacing 1/steps, psi(l) = sum_j l_j (log c_j - log|l_j|),
    where K, found by exact elimination, has as row j the lattice vector
    that is 1 at the j-th column off ``face`` and 0 at the others."""
    nvars = len(lattice[0])
    off = [j for j in range(nvars) if j not in face]
    rows = [[Fraction(v[j]) for j in off] + [Fraction(x) for x in v]
            for v in lattice]
    for col in range(len(off)):                # Gauss-Jordan on [B_off | B]
        pivot = next(r for r in range(col, len(off)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(len(off)):
            if r != col:
                rows[r] = [a - rows[r][col] * b
                           for a, b in zip(rows[r], rows[col])]
    cone = np.array([[float(x) for x in row[len(off):]] for row in rows])
    parts = np.indices((steps + 1,) * (len(off) - 1)).reshape(
        len(off) - 1, -1).T
    parts = parts[parts.sum(axis=1) <= steps]
    grid = np.hstack([parts, steps - parts.sum(axis=1, keepdims=True)])
    lines = grid / steps @ cone
    sizes = np.abs(lines)
    phi = (lines * np.log(np.where(sizes > 0, sizes, 1))).sum(axis=1)
    return -(np.log(np.asarray(points, dtype=float)) @ lines.T - phi).max(axis=1)


def _eval_monomial(expr: str, values) -> float:
    """Evaluate a 'c2*c3/(c1*c4)' style monomial string."""
    num, _, den = expr.partition("/")
    out = 1.0
    for name in num.strip("()").split("*"):
        if name:
            out *= values[name]
    if den:
        for name in den.strip("()").split("*"):
            if name:
                out /= values[name]
    return out


def brute_force_standard_monomials(gens, nvars: int, degree: int):
    """All monomials up to ``degree`` per variable that avoid the monomial
    ideal generated by ``gens`` (direct divisibility scan)."""
    out = []
    for mono in itertools.product(range(degree + 1), repeat=nvars):
        if not any(all(m >= g for m, g in zip(mono, gen)) for gen in gens):
            out.append(mono)
    return out


def pair_monomials(pairs, nvars: int, degree: int):
    """Monomials up to ``degree`` per variable covered by a standard-pair
    list (union over pairs of root + face shifts)."""
    covered = set()
    for pair in pairs:
        free = sorted(pair.face)
        for shift in itertools.product(range(degree + 1), repeat=len(free)):
            mono = list(pair.root)
            ok = True
            for axis, extra in zip(free, shift):
                mono[axis] += extra
                if mono[axis] > degree:
                    ok = False
                    break
            if ok:
                covered.add(tuple(mono))
    return covered


def random_monomial_ideal(rng, nvars: int, ngens: int, maxdeg: int):
    gens = []
    for _ in range(ngens):
        gens.append(tuple(rng.randrange(maxdeg + 1) for _ in range(nvars)))
    return [g for g in gens if any(g)]


def fraction_lp_maximum(cost, a_eq, b_eq):
    """max cost.x subject to a_eq x = b_eq and x >= 0 by the dense two-phase
    simplex over Fractions, every tableau row scaled to a unit pivot, with
    Bland's rule (entering: the lowest improving column; leaving: the least
    ratio, ties to the lowest basic column).  None when infeasible; raises
    ValueError when unbounded."""
    m, n = len(a_eq), len(cost)
    tab = [[Fraction(x) if b >= 0 else -Fraction(x) for x in row]
           + [Fraction(int(i == j)) for j in range(m)] + [abs(Fraction(b))]
           for i, (row, b) in enumerate(zip(a_eq, b_eq))]
    basis = list(range(n, n + m))

    def pivot(r, c):
        tab[r] = [x / tab[r][c] if x else x for x in tab[r]]
        for i, row in enumerate(tab):
            if i != r and row[c]:
                tab[i] = [x - row[c] * y if y else x
                          for x, y in zip(row, tab[r])]
        basis[r] = c

    def optimise():
        while True:
            enter = next((j for j, d in enumerate(tab[-1][:n]) if d > 0), None)
            if enter is None:
                return
            ratios = [(row[-1] / row[enter], basis[i], i)
                      for i, row in enumerate(tab[:-1]) if row[enter] > 0]
            if not ratios:
                raise ValueError("the linear program is unbounded")
            pivot(min(ratios)[2], enter)

    tab.append([sum(col) for col in zip(*tab)])
    for j in range(n, n + m):
        tab[-1][j] = Fraction(0)
    optimise()
    if tab[-1][-1]:
        return None
    for i in reversed(range(m)):
        if basis[i] >= n:
            column = next((j for j in range(n) if tab[i][j]), None)
            if column is None:
                del tab[i], basis[i]
            else:
                pivot(i, column)
    tab = [row[:n] + row[-1:] for row in tab[:-1]]
    tab.append([Fraction(c) for c in cost] + [Fraction(0)])
    for i, row in enumerate(tab[:-1]):
        if tab[-1][basis[i]]:
            tab[-1] = [x - tab[-1][basis[i]] * y for x, y in zip(tab[-1], row)]
    optimise()
    return -tab[-1][-1]


def random_lp(rng):
    """A small equality-form LP (cost, a_eq, b_eq): 1-5 equations in 2-9
    non-negative variables with small integer and dyadic entries.  Half the
    right-hand sides come from a non-negative point (feasible), the rest are
    drawn freely (often infeasible, some negative); a third of the systems
    with two or more equations get a redundant last row, the sum or
    difference of two earlier rows (of the first row with itself when there
    is only one), and some costs are unbounded on the feasible set."""
    m, n = rng.randint(1, 5), rng.randint(2, 9)

    def entry():
        x = rng.randint(-3, 3)
        return Fraction(x, 2 ** rng.randint(1, 3)) if rng.random() < 0.3 else x

    a_eq = [[entry() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        point = [rng.choice((0, 0, 1, 2, Fraction(1, 2))) for _ in range(n)]
        b_eq = [sum(a * x for a, x in zip(row, point)) for row in a_eq]
    else:
        b_eq = [entry() for _ in range(m)]
    if m > 1 and rng.random() < 1 / 3:
        i, j = rng.sample(range(m - 1), 2) if m > 2 else (0, 0)
        sign = rng.choice((1, -1))
        a_eq[-1] = [x + sign * y for x, y in zip(a_eq[i], a_eq[j])]
        b_eq[-1] = b_eq[i] + sign * b_eq[j]
    return [entry() for _ in range(n)], a_eq, b_eq


def _linear_form(expr, values) -> Fraction:
    """Value of a {"s": 1, "1": 2} style invariant combination."""
    return sum((Fraction(q) * (1 if name in ("", "1") else values[name])
                for name, q in expr.items()), Fraction(0))


def symanzik_reference(graph, z, values):
    """(U, F) of graph data at rational z and invariant values, from first
    principles: U = det M(z) and F = U J(z) - sum_st P_st Q_s(z)^T U M(z)^-1
    Q_t(z), by Gauss-Jordan elimination over Fractions on [M | Q]; Q_s is
    column s of Q and P_st the value of p_s.p_t.  A singular M(z) gives
    (0, None)."""
    L, E, props = graph["L"], graph["E"], graph["propagators"]
    M = [[sum(zi * Fraction(p["M"][r][c]) for zi, p in zip(z, props))
          for c in range(L)] for r in range(L)]
    Q = [[sum(zi * Fraction(p["Q"][r][s]) for zi, p in zip(z, props)
              if "Q" in p) for s in range(E)] for r in range(L)]
    J = sum(zi * _linear_form(p.get("J", {}), values)
            for zi, p in zip(z, props))
    rows = [list(m) + list(q) for m, q in zip(M, Q)]
    U = Fraction(1)
    for col in range(L):
        pivot = next((r for r in range(col, L) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            rows[col], rows[pivot], U = rows[pivot], rows[col], -U
        U *= rows[col][col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(L):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * y
                           for x, y in zip(rows[r], rows[col])]
    P = [[Fraction(0)] * E for _ in range(E)]
    for key, expr in graph.get("momentum_products", {}).items():
        s, t = (int(name.lstrip("p")) - 1 for name in key.split("."))
        P[s][t] = P[t][s] = _linear_form(expr, values)
    quad = sum(P[s][t] * Q[r][s] * U * rows[r][L + t]
               for s in range(E) for t in range(E) for r in range(L))
    return U, U * J - quad


def random_graph(rng):
    """Graph data with L 1-3 loops, E 0-3 external momenta and L to L + 3
    propagators: symmetric M blocks and Q blocks with small integer and
    half-integer entries (Q omitted from a fifth of the propagators), J and
    momentum products over the invariants s, t and m2 and the constant 1.
    Many are singular (det M = 0 identically)."""
    L, E = rng.randint(1, 3), rng.randint(0, 3)

    def entry(p):
        if rng.random() >= p:
            return 0
        x = rng.choice((-2, -1, 1, 1, 2))
        return f"{x}/2" if rng.random() < 0.2 else x

    def combination():
        names = rng.sample(["s", "t", "m2", "1"], rng.randint(0, 2))
        return {name: entry(1) for name in names}

    props = []
    for _ in range(rng.randint(L, L + 3)):
        M = [[0] * L for _ in range(L)]
        for r in range(L):
            for c in range(r, L):
                M[r][c] = M[c][r] = entry(0.6)
        prop = {"M": M, "J": combination()}
        if rng.random() < 0.8:
            prop["Q"] = [[entry(0.4) for _ in range(E)] for _ in range(L)]
        props.append(prop)
    products = {f"p{s + 1}.p{t + 1}": combination()
                for s in range(E) for t in range(s, E) if rng.random() < 0.7}
    return {"L": L, "E": E, "propagators": props,
            "invariants": ["s", "t", "m2"], "momentum_products": products}


def classify_reference(gamma, lattice, weight):
    """(kind, upper, lower, arguments, signs, lattice) of one series, by the
    per-series search that classification used before the lattice's shapes
    were searched once per run, save that each lattice vector v is kept
    when x^{v+} leads x^{v-} under w refined by grevlex, else negated; rank
    1 is a pFq when its generator has entries in {-1, 0, 1} and some
    positive-support component of gamma + 1 equals 1; rank 2 takes the
    first F4-shaped basis change where each generator has such a
    component; anything else is a raw series."""
    order = TermOrder(weight)

    def orient(v):
        plus = tuple(max(x, 0) for x in v)
        minus = tuple(max(-x, 0) for x in v)
        return tuple(v) if order(plus) > order(minus) else tuple(-x for x in v)

    lattice = [orient(v) for v in lattice]
    one = 1
    raw = ("RawSeries", [], [], [], [], lattice)
    if len(lattice) == 1:
        gen = lattice[0]
        if any(abs(x) > 1 for x in gen):
            return raw
        upper = [-gamma[i] for i, x in enumerate(gen) if x < 0]
        lower = [gamma[i] + one for i, x in enumerate(gen) if x > 0]
        if one not in lower:
            return raw
        lower.remove(one)
        sign = -1 if sum(1 for x in gen if x < 0) % 2 else 1
        return (f"{len(upper)}F{len(lower)}", upper, lower,
                [_argument_text(gen)], [sign], lattice)
    if len(lattice) != 2:
        return raw
    l1, l2 = lattice
    candidates = []
    for p, q in itertools.product(range(-2, 3), repeat=2):
        v = tuple(p * a + q * b for a, b in zip(l1, l2))
        if all(abs(x) <= 1 for x in v):
            neg = {i for i, x in enumerate(v) if x < 0}
            pos = {i for i, x in enumerate(v) if x > 0}
            if len(neg) == len(pos) == 2:
                candidates.append(((p, q), v, neg, pos))
    for (pq1, v1, neg1, pos1), (pq2, v2, neg2, pos2) in \
            itertools.permutations(candidates, 2):
        if not (abs(pq1[0] * pq2[1] - pq1[1] * pq2[0]) == 1
                and neg1 == neg2 and not pos1 & pos2):
            continue
        lower = []
        for v in (v1, v2):
            params = [gamma[i] + one for i, x in enumerate(v) if x > 0]
            if one in params:
                params.remove(one)
                lower.append(params[0])
        if len(lower) == 2:
            return ("AppellF4", [-gamma[i] for i, x in enumerate(v1) if x < 0],
                    lower, [_argument_text(v1), _argument_text(v2)], [1, 1],
                    [v1, v2])
    return raw


def _argument_text(u):
    num = "*".join(f"c{i + 1}" + (f"^{x}" if x > 1 else "")
                   for i, x in enumerate(u) if x > 0) or "1"
    den = "*".join(f"c{i + 1}" + (f"^{-x}" if x < -1 else "")
                   for i, x in enumerate(u) if x < 0)
    return f"{num}/({den})" if den else num
