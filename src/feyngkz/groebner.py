"""Buchberger's algorithm on pure-difference binomials.

Every ideal the toric chain builds is generated by binomials x^a - x^b, and
the S-polynomials and remainders of such binomials are binomials of the same
kind (Sturmfels, *Groebner Bases and Convex Polytopes*, ch. 4 and 12).  An
element is therefore stored as the pair (lead, trail) of exponent tuples, the
lead first under the current term order, with None for the zero binomial; the
coefficients are always +1 and -1 and are never stored.

Term orders are key functions on monomials (bigger key = bigger monomial):
graded reverse lexicographic, a weight order refined by grevlex, and grevlex
with a chosen cheapest variable (the order used for saturation of homogeneous
ideals).  Pairs go by the degree of their lcm, their sugar in the homogeneous
ideals built here; Buchberger's coprime-lcm criterion prunes pairs.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

Mono = Tuple[int, ...]
Binomial = Tuple[Mono, Mono]
OrderKey = Callable[[Mono], tuple]


# -- term orders -----------------------------------------------------------

def grevlex_key(mono: Mono) -> tuple:
    return (sum(mono), tuple(-mono[i] for i in range(len(mono) - 1, -1, -1)))


def weighted_key(weight: Sequence[int]) -> OrderKey:
    """weight order, ties broken by grevlex."""
    weight = tuple(weight)

    def key(mono: Mono) -> tuple:
        return (sum(w * m for w, m in zip(weight, mono)),) + grevlex_key(mono)
    return key


def cheapest_variable_key(index: int, nvars: int) -> OrderKey:
    """grevlex with the given variable moved to the cheapest slot."""
    perm = [j for j in range(nvars) if j != index] + [index]

    def key(mono: Mono) -> tuple:
        return grevlex_key(tuple(mono[j] for j in perm))
    return key


# -- binomial ops ----------------------------------------------------------

def mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))

def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def orient(a: Mono, b: Mono, key: OrderKey) -> Optional[Binomial]:
    """x^a - x^b as a (lead, trail) pair under key; None when a == b."""
    if a == b:
        return None
    return (a, b) if key(a) > key(b) else (b, a)


def _rewrite(mono: Mono, g: Binomial) -> Mono:
    """mono with g's lead (which divides it) replaced by g's trail."""
    return tuple(m - l + t for m, l, t in zip(mono, g[0], g[1]))


def _reduce_monomial(mono: Mono, basis: Sequence[Binomial]) -> Mono:
    while True:
        for g in basis:
            if mono_divides(g[0], mono):
                mono = _rewrite(mono, g)
                break
        else:
            return mono


def normal_form(f: Binomial, basis: Sequence[Binomial],
                key: OrderKey) -> Optional[Binomial]:
    """Remainder of f under division by basis (oriented under key): each
    monomial is rewritten lead -> trail by the first element whose lead
    divides it, until no lead does."""
    return orient(_reduce_monomial(f[0], basis), _reduce_monomial(f[1], basis),
                  key)


def s_polynomial(f: Binomial, g: Binomial, key: OrderKey) -> Optional[Binomial]:
    lcm = mono_lcm(f[0], g[0])
    return orient(_rewrite(lcm, f), _rewrite(lcm, g), key)


# -- Buchberger ------------------------------------------------------------

def buchberger(generators: Sequence[Binomial], key: OrderKey) -> List[Binomial]:
    """Reduced Groebner basis under key of the binomials x^a - x^b given as
    pairs (a, b) in either order.  Pairs go by (degree, key) of their lcm:
    every ideal built here is homogeneous (kernel vectors sum to 0, and
    saturation divides both monomials), so that degree is the pair's sugar."""
    basis = [g for g in (orient(a, b, key) for a, b in generators)
             if g is not None]
    pairs = {}

    def add_pairs(k: int):
        """Queue (i, k) for every i < k whose lead is not coprime to k's."""
        lk = basis[k][0]
        for i in range(k):
            li = basis[i][0]
            if any(x and y for x, y in zip(li, lk)):
                lcm = mono_lcm(li, lk)
                pairs[(i, k)] = (sum(lcm), key(lcm))

    for k in range(len(basis)):
        add_pairs(k)
    while pairs:
        (i, j) = min(pairs, key=pairs.get)
        del pairs[(i, j)]
        s = s_polynomial(basis[i], basis[j], key)
        if s is None or (rem := normal_form(s, basis, key)) is None:
            continue
        basis.append(rem)
        add_pairs(len(basis) - 1)
    return interreduce(basis, key)


def interreduce(basis: Sequence[Binomial], key: OrderKey) -> List[Binomial]:
    """Reduced Groebner basis from a Groebner basis oriented under key: leads
    minimal, trails fully reduced, sorted by lead."""
    keep = [g for i, g in enumerate(basis)
            if not any(j != i and mono_divides(h[0], g[0])
                       and (h[0] != g[0] or j < i)
                       for j, h in enumerate(basis))]
    # no other lead divides a kept lead, and trail < lead, so only the trail
    # moves and the pair keeps its orientation
    reduced = [(lead, _reduce_monomial(trail, keep[:i] + keep[i + 1:]))
               for i, (lead, trail) in enumerate(keep)]
    reduced.sort(key=lambda g: key(g[0]))
    return reduced


# -- saturation ------------------------------------------------------------

def saturate_variable(generators: Sequence[Binomial], index: int,
                      nvars: int) -> List[Binomial]:
    """(I : x_index^inf) for a homogeneous ideal I.

    With the chosen variable cheapest in grevlex, dividing every element of a
    Groebner basis by its largest x_index power generates the saturation.
    """
    out = []
    for g in buchberger(generators, cheapest_variable_key(index, nvars)):
        drop = min(m[index] for m in g)
        out.append(tuple(m[:index] + (m[index] - drop,) + m[index + 1:]
                         for m in g))
    return out


def saturate_all_variables(generators: Sequence[Binomial],
                           nvars: int) -> List[Binomial]:
    gens = list(generators)
    for index in range(nvars):
        gens = saturate_variable(gens, index, nvars)
    return gens
