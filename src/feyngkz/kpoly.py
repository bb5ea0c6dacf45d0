"""Polynomials in the integration variables with exact kinematic coefficients.

A KPoly maps z-exponent tuples to coefficients; a coefficient is itself a map
from a monomial in invariant symbols (a sorted tuple of names, () = 1) to a
rational number: an int when it is integral, else a Fraction (such as the
1/2 of s/2).  That is enough to carry Symanzik polynomials exactly:
invariants only ever enter linearly with rational weights, so no two
coefficients are ever multiplied.  The determinants behind them run on
plain rational polynomials (``RPoly``) and ``det`` takes that form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from .errors import UnassignedParameter

Rational = Union[int, Fraction]
Coeff = Dict[Tuple[str, ...], Rational]  # int when integral
Expo = Tuple[int, ...]
# {exponent key: rational}, where the key of a product of two monomials is
# the sum of their keys: graphs packs each exponent vector into one int
RPoly = Dict[int, Rational]


def exact(value) -> Rational:
    """value as an int when it is integral, else as a Fraction."""
    value = value if isinstance(value, (int, Fraction)) else Fraction(value)
    return value.numerator if value.denominator == 1 else value


def coeff_const(value) -> Coeff:
    value = exact(value)
    return {(): value} if value else {}


def coeff_from(spec: Mapping[str, object]) -> Coeff:
    """Build a coefficient from {"s": 1, "m2": -1, "1": 2} style dicts."""
    out: Coeff = {}
    for name, q in spec.items():
        q = exact(q)
        if q == 0:
            continue
        key = () if name in ("", "1") else (name,)
        out[key] = exact(out.get(key, 0) + q)
    return {k: v for k, v in out.items() if v}


def rational_json(q: Union[int, Fraction]):
    """q as a JSON integer when integral, else as the text "p/q"."""
    return q.numerator if q.denominator == 1 else str(q)


def coeff_to_dict(a: Coeff) -> Dict[str, object]:
    """Inverse of coeff_from (whose symbols are single invariants)."""
    return {"*".join(mono) or "1": rational_json(q) for mono, q in a.items()}


def coeff_add(a: Coeff, b: Coeff) -> Coeff:
    out = dict(a)
    for mono, q in b.items():
        q2 = exact(out.get(mono, 0) + q)
        if q2:
            out[mono] = q2
        else:
            out.pop(mono, None)
    return out


def coeff_str(a: Coeff) -> str:
    if not a:
        return "0"
    parts = []
    for mono in sorted(a, key=lambda m: (len(m), m)):
        q = a[mono]
        body = "*".join(mono)
        if not body:
            parts.append(str(q))
        elif q == 1:
            parts.append(body)
        elif q == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{q}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


def coeff_evaluate(a: Coeff, values: Mapping[str, float]) -> float:
    """a's value; raises UnassignedParameter for a missing invariant."""
    total = 0.0
    try:
        for mono, q in a.items():
            term = float(q)
            for name in mono:
                term *= float(values[name])
            total += term
    except KeyError as missing:
        raise UnassignedParameter(
            f"no value for invariant {missing.args[0]!r}") from None
    return total


class KPoly:
    """Polynomial in n integration variables over kinematic coefficients."""

    def __init__(self, nvars: int, terms: Mapping[Expo, Coeff] | None = None):
        self.nvars = nvars
        self.terms: Dict[Expo, Coeff] = {}
        if terms:
            for expo, coeff in terms.items():
                if coeff:
                    self.terms[tuple(expo)] = dict(coeff)

    @classmethod
    def zero(cls, nvars: int) -> "KPoly":
        return cls(nvars)

    @classmethod
    def monomial(cls, nvars: int, expo: Iterable[int], coeff: Coeff) -> "KPoly":
        return cls(nvars, {tuple(expo): coeff})

    def _check(self, other: "KPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "KPoly") -> "KPoly":
        self._check(other)
        out = KPoly(self.nvars, self.terms)
        for expo, coeff in other.terms.items():
            merged = coeff_add(out.terms.get(expo, {}), coeff)
            if merged:
                out.terms[expo] = merged
            else:
                out.terms.pop(expo, None)
        return out

    def ordered_exponents(self) -> List[Expo]:
        """Deterministic term order: total degree, then lexicographically
        descending exponents (z1 before z2 at equal degree)."""
        return sorted(self.terms, key=lambda e: (sum(e), tuple(-x for x in e)))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo in self.ordered_exponents():
            mono = "*".join(f"z{i + 1}" if e == 1 else f"z{i + 1}^{e}"
                            for i, e in enumerate(expo) if e)
            ctext = coeff_str(self.terms[expo])
            if len(self.terms[expo]) > 1:
                ctext = f"({ctext})"
            if not mono:
                parts.append(ctext)
            elif ctext == "1":
                parts.append(mono)
            else:
                parts.append(f"{ctext}*{mono}")
        return " + ".join(parts)

    __repr__ = __str__


def det(matrix: List[List[RPoly]]) -> RPoly:
    """Determinant by Laplace expansion along the first row (loop counts
    are small), skipping zero entries."""
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix")
    if size == 1:
        return matrix[0][0]
    out: RPoly = {}
    for j, entry in enumerate(matrix[0]):
        if not entry:
            continue
        minor = det([row[:j] + row[j + 1:] for row in matrix[1:]])
        for ea, qa in entry.items():
            qa = -qa if j % 2 else qa
            for eb, qb in minor.items():
                out[ea + eb] = out.get(ea + eb, 0) + qa * qb
    return {e: q for e, q in out.items() if q}
