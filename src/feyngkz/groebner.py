"""Buchberger's algorithm on pure-difference binomials.

Every ideal the toric chain builds is generated by binomials x^a - x^b, and
the S-polynomials and remainders of such binomials are binomials of the same
kind (Sturmfels, *Groebner Bases and Convex Polytopes*, ch. 4 and 12).  An
element is therefore the pair (lead, trail) of exponent tuples, the lead
first under the term order; the coefficients are always +1 and -1 and are
never stored.

Buchberger runs on packed monomials (``_Packing``).  Pairs go by the degree
of their lcm, their sugar in the homogeneous ideals built here; Buchberger's
coprime-lcm criterion prunes pairs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain
from operator import mul, neg
from struct import Struct
from typing import List, Optional, Sequence, Tuple

from .errors import ExponentOverflow

Mono = Tuple[int, ...]
Binomial = Tuple[Mono, Mono]


class TermOrder:
    """Called on a monomial, its key (bigger key = bigger monomial): w.m
    first when a weight is given, then the degree, then the smaller power of
    the cheapest variable (default the last), then reverse lexicographic."""

    def __init__(self, weight: Sequence[int] = (), cheapest: int = -1):
        self.weight, self.cheapest = tuple(weight), cheapest

    def __call__(self, mono: Mono) -> tuple:
        return (sum(map(mul, self.weight, mono)), sum(mono),
                -mono[self.cheapest], *map(neg, reversed(mono)))


grevlex_key = TermOrder()


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def orient(a: Mono, b: Mono, order: TermOrder) -> Optional[Binomial]:
    """x^a - x^b as a (lead, trail) pair under order; None when a == b."""
    if a == b:
        return None
    return (a, b) if order(a) > order(b) else (b, a)


class _Packing:
    """Monomials in nvars variables as ints, one 32-bit field per variable:
    `bits` value bits, a guard bit kept clear, and room above for the
    degree.  a divides b iff (b | guard) - a keeps every guard bit, and an
    exponent that reaches 2^bits sets its guard bit.  An element is (lead,
    trail, key(trail) - key(lead)), so a rewrite moves a key by its step."""

    def __init__(self, binomials: Sequence[Binomial], nvars: int):
        self.nvars, self.bits = nvars, 31 - nvars.bit_length()
        top = max(map(max, chain.from_iterable(binomials)), default=0)
        if top >> self.bits:
            raise ExponentOverflow(f"exponent {top} is not below 2^{self.bits}")
        self.fields = Struct(f"<{nvars}I")
        self.ones = self.pack((1,) * nvars)
        self.guard = self.ones << self.bits

    def pack(self, mono: Mono) -> int:
        return int.from_bytes(self.fields.pack(*mono), "little")

    def unpack(self, mono: int) -> Mono:
        return self.fields.unpack(mono.to_bytes(4 * self.nvars, "little"))

    def key(self, mono: int, order: TermOrder) -> int:
        """order's key as a linear form in base B = 2^32, exact while the
        degree is below B: (w.m B^2 + deg B - x_cheapest) B^n - mono."""
        m = self.unpack(mono)
        high = (sum(map(mul, order.weight, m)) << 64) + (sum(m) << 32)
        return (high - m[order.cheapest] << 32 * self.nvars) - mono

    def orient(self, pairs, order: TermOrder) -> list:
        """The elements of packed pairs (a, b) under order, zeros dropped."""
        steps = [(self.key(b, order) - self.key(a, order), a, b) for a, b in pairs]
        return [(a, b, s) if s < 0 else (b, a, -s) for s, a, b in steps if s]

    def binomials(self, basis, order: TermOrder) -> List[Binomial]:
        return [(self.unpack(lead), self.unpack(trail)) for lead, trail, _
                in sorted(basis, key=lambda g: self.key(g[0], order))]

    def reduce(self, mono: int, key: int, basis) -> Tuple[int, int]:
        """mono rewritten lead -> trail by the first element whose lead
        divides it until none does, and its key moved along."""
        guard = self.guard
        while True:
            if mono & guard:
                raise ExponentOverflow(f"an exponent reached 2^{self.bits}")
            held = mono | guard
            for lead, trail, step in basis:
                if held - lead & guard == guard:
                    mono += trail - lead
                    key += step
                    break
            else:
                return mono, key

    def groebner(self, basis) -> list:
        """Reduced Groebner basis of elements; pairs go by the degree of
        their lcm, then grevlex."""
        basis, heap, supports, guard = list(basis), [], [], self.guard

        def add_pairs(k: int):
            lead = basis[k][0]
            support = ((lead | guard) - self.ones) & guard
            for i, other in enumerate(supports):
                if other & support:
                    below = ((lead | guard) - basis[i][0]) & guard
                    below -= below >> self.bits     # fields where lead >= other
                    lcm = lead & below | basis[i][0] & ~below
                    heappush(heap, (sum(self.unpack(lcm)), -lcm, i, k))
            supports.append(support)

        for k in range(len(basis)):
            add_pairs(k)
        while heap:
            _, neg_lcm, i, j = heappop(heap)
            (li, ti, si), (lj, tj, sj) = basis[i], basis[j]
            a, ka = self.reduce(ti - li - neg_lcm, si, basis)
            b, kb = self.reduce(tj - lj - neg_lcm, sj, basis)
            if a != b:
                basis.append((a, b, kb - ka) if ka > kb else (b, a, ka - kb))
                add_pairs(len(basis) - 1)
        return self.interreduce(basis)

    def interreduce(self, basis) -> list:
        """Leads minimal, trails fully reduced.  No other lead divides a
        kept lead and trail < lead, so only the trail moves."""
        guard = self.guard
        keep = [g for i, g in enumerate(basis)
                if not any(j != i and (g[0] | guard) - h[0] & guard == guard
                           and (h[0] != g[0] or j < i)
                           for j, h in enumerate(basis))]
        return [(lead, *self.reduce(trail, step, keep[:i] + keep[i + 1:]))
                for i, (lead, trail, step) in enumerate(keep)]


def buchberger(generators: Sequence[Binomial],
               order: TermOrder) -> List[Binomial]:
    """Reduced Groebner basis under order of the binomials x^a - x^b given
    as pairs (a, b) in either order, sorted by lead."""
    if len(generators) < 2:     # a binomial is its own reduced basis
        return [g for g in (orient(a, b, order) for a, b in generators) if g]
    pk = _Packing(generators, len(generators[0][0]))
    basis = pk.orient([(pk.pack(a), pk.pack(b)) for a, b in generators], order)
    return pk.binomials(pk.groebner(basis), order)


def interreduce(basis: Sequence[Binomial],
                order: TermOrder) -> List[Binomial]:
    """The reduced basis, sorted by lead, of a Groebner basis under order."""
    pk = _Packing(basis, len(basis[0][0]) if basis else 0)
    return pk.binomials(pk.interreduce(
        [(pk.pack(lead), pk.pack(trail), 0) for lead, trail in basis]), order)


def saturate_all_variables(generators: Sequence[Binomial],
                           nvars: int) -> List[Binomial]:
    """A grevlex Groebner basis of I : (x_1 ... x_n)^inf, I homogeneous.  A
    pass saturates at x_i (Bayer): a Groebner basis with x_i cheapest in
    grevlex, each element divided by its largest x_i power; grevlex goes
    first.  A variable that divides no lead of a pass's basis is a
    non-zero-divisor on in(I), so on I, and stays one, as (I : x_i^inf) :
    x_k^inf = I : (x_i x_k)^inf: it needs no pass.  If no later pass divides
    anything, the grevlex pass's basis, reduced, is the answer, else one
    more run."""
    gens, done, first, changed = list(generators), set(), None, False
    for index in [nvars - 1, *range(nvars - 1)]:
        if index in done:
            continue
        basis = buchberger(gens, TermOrder(cheapest=index))
        drops = [min(lead[index], trail[index]) for lead, trail in basis]
        gens = [tuple(m[:index] + (m[index] - d,) + m[index + 1:] for m in g)
                for g, d in zip(basis, drops)]
        if first is None:
            first = gens
        changed = changed or gens is not first and any(drops)
        leads = zip(*[lead for lead, _ in gens])
        done.update(i for i, powers in enumerate(leads) if not any(powers))
    if changed:
        return buchberger(gens, grevlex_key)
    return interreduce(first, grevlex_key)
