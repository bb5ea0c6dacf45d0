"""Polynomials in the integration variables with exact kinematic coefficients.

A KPoly maps z-exponent tuples to coefficients; a coefficient is itself a map
from a monomial in invariant symbols (a sorted tuple of names, () = 1) to a
rational number: an int when it is integral, else a Fraction (such as the
1/2 of s/2).  That is enough to carry Symanzik polynomials exactly:
invariants only ever enter polynomially with rational weights.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple, Union

Coeff = Dict[Tuple[str, ...], Union[int, Fraction]]  # int when integral
Expo = Tuple[int, ...]


def _exact(value) -> Union[int, Fraction]:
    """value as an int when it is integral, else as a Fraction."""
    value = value if isinstance(value, (int, Fraction)) else Fraction(value)
    return value.numerator if value.denominator == 1 else value


def coeff_const(value) -> Coeff:
    value = _exact(value)
    return {(): value} if value else {}


def coeff_from(spec: Mapping[str, object]) -> Coeff:
    """Build a coefficient from {"s": 1, "m2": -1, "1": 2} style dicts."""
    out: Coeff = {}
    for name, q in spec.items():
        q = _exact(q)
        if q == 0:
            continue
        key = () if name in ("", "1") else (name,)
        out[key] = _exact(out.get(key, 0) + q)
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
        q2 = _exact(out.get(mono, 0) + q)
        if q2:
            out[mono] = q2
        else:
            out.pop(mono, None)
    return out


def coeff_mul(a: Coeff, b: Coeff) -> Coeff:
    out: Coeff = {}
    for ma, qa in a.items():
        for mb, qb in b.items():
            mono = tuple(sorted(ma + mb))
            q = _exact(out.get(mono, 0) + qa * qb)
            if q:
                out[mono] = q
            else:
                out.pop(mono, None)
    return out


def coeff_neg(a: Coeff) -> Coeff:
    return {m: -q for m, q in a.items()}


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
    total = 0.0
    for mono, q in a.items():
        term = float(q)
        for name in mono:
            term *= float(values[name])
        total += term
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

    def __sub__(self, other: "KPoly") -> "KPoly":
        return self + (-other)

    def __neg__(self) -> "KPoly":
        return KPoly(self.nvars,
                     {e: coeff_neg(c) for e, c in self.terms.items()})

    def __mul__(self, other: "KPoly") -> "KPoly":
        self._check(other)
        out = KPoly(self.nvars)
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                expo = tuple(x + y for x, y in zip(ea, eb))
                merged = coeff_add(out.terms.get(expo, {}), coeff_mul(ca, cb))
                if merged:
                    out.terms[expo] = merged
                else:
                    out.terms.pop(expo, None)
        return out

    def scale(self, coeff: Coeff) -> "KPoly":
        out = KPoly(self.nvars)
        for expo, c in self.terms.items():
            merged = coeff_mul(c, coeff)
            if merged:
                out.terms[expo] = merged
        return out

    def is_zero(self) -> bool:
        return not self.terms

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


def det(matrix: List[List[KPoly]]) -> KPoly:
    """Determinant by Laplace expansion (loop counts are small)."""
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix")
    nvars = matrix[0][0].nvars
    if size == 1:
        return matrix[0][0]
    out = KPoly.zero(nvars)
    for j in range(size):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * det(minor)
        out = out + term if j % 2 == 0 else out - term
    return out

