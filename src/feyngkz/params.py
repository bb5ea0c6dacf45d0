"""Exact linear expressions in symbolic parameters.

Everything downstream of the exponent solver manipulates quantities of the
form  q0 + q1*p1 + ... + qk*pk  with rational q's and opaque parameter names
(typically ``beta`` and ``a1 .. aN``).  ParamLinear keeps these exact, prints
them canonically ("beta - a1 - a2 + 3/2") and parses that form back.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Mapping, Sequence, Union

from .errors import UnassignedParameter

Scalar = Union[int, Fraction]


def _param_sort_key(name: str):
    # beta-like parameters first, then a1..aN numerically, then the rest.
    m = re.fullmatch(r"a(\d+)", name)
    if m:
        return (1, int(m.group(1)), name)
    if name.startswith("beta") or name.startswith("b"):
        return (0, 0, name)
    return (2, 0, name)


class ParamLinear:
    """A rational-linear combination of named parameters plus a constant."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Mapping[str, Scalar] | None = None,
                 constant: Scalar = 0):
        full = {name: Fraction(q) for name, q in (coeffs or {}).items()}
        self.coeffs = {name: q for name, q in full.items() if q}
        self.constant = Fraction(constant)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, coeffs: Mapping[str, Fraction],
              constant: Fraction) -> "ParamLinear":
        """Build from values that are already Fractions, dropping zeros."""
        out = cls.__new__(cls)
        out.coeffs = {name: q for name, q in coeffs.items() if q}
        out.constant = constant
        return out

    @classmethod
    def param(cls, name: str) -> "ParamLinear":
        return cls({name: 1})

    @classmethod
    def const(cls, value: Scalar) -> "ParamLinear":
        return cls({}, value)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs and self.constant == 0

    def is_constant(self) -> bool:
        return not self.coeffs

    def is_nonpositive_integer(self) -> bool:
        """True if this is symbolically a constant in {0, -1, -2, ...}."""
        return (self.is_constant() and self.constant.denominator == 1
                and self.constant <= 0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "ParamLinear":
        other = _coerce(other)
        coeffs = dict(self.coeffs)
        for name, q in other.coeffs.items():
            coeffs[name] = coeffs.get(name, 0) + q
        return ParamLinear._make(coeffs, self.constant + other.constant)

    __radd__ = __add__

    def __sub__(self, other) -> "ParamLinear":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "ParamLinear":
        return _coerce(other) + (-self)

    def __neg__(self) -> "ParamLinear":
        return ParamLinear._make({k: -v for k, v in self.coeffs.items()},
                                 -self.constant)

    def __mul__(self, scalar: Scalar) -> "ParamLinear":
        scalar = Fraction(scalar)
        return ParamLinear._make(
            {k: v * scalar for k, v in self.coeffs.items()},
            self.constant * scalar)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamLinear.const(other)
        if not isinstance(other, ParamLinear):
            return NotImplemented
        return self.coeffs == other.coeffs and self.constant == other.constant

    def __hash__(self):
        return hash((tuple(sorted(self.coeffs.items())), self.constant))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        """Numeric value under a parameter assignment; raises
        UnassignedParameter when it lacks one of this expression's names."""
        total = float(self.constant)
        for name, q in self.coeffs.items():
            try:
                total += float(q) * float(assignment[name])
            except KeyError:
                raise UnassignedParameter(
                    f"no value for parameter {name!r}") from None
        return total

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for name in sorted(self.coeffs, key=_param_sort_key):
            q = self.coeffs[name]
            mag = abs(q)
            body = name if mag == 1 else f"{mag}*{name}"
            parts.append(("-" if q < 0 else "+", body))
        if self.constant != 0 or not parts:
            parts.append(("-" if self.constant < 0 else "+",
                          str(abs(self.constant))))
        sign0, body0 = parts[0]
        text = body0 if sign0 == "+" else "-" + body0
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    __repr__ = __str__

    @classmethod
    def parse(cls, text: str) -> "ParamLinear":
        """Inverse of __str__ (also tolerant of extra whitespace)."""
        text = text.replace(" ", "")
        if not text:
            raise ValueError("empty ParamLinear string")
        out = cls()
        for sign, body in re.findall(r"([+-]?)([^+-]+)", text):
            factor = Fraction(-1 if sign == "-" else 1)
            if "*" in body:
                qtext, name = body.split("*", 1)
                out = out + cls.param(name) * (factor * Fraction(qtext))
            elif re.fullmatch(r"\d+(/\d+)?", body):
                out = out + cls.const(factor * Fraction(body))
            else:
                out = out + cls.param(body) * factor
        return out


class FloatMap:
    """ParamLinears in floats, converted once: per expression, its constant
    and the (parameter, coefficient) pairs of its nonzero coefficients."""

    def __init__(self, exprs: Sequence[ParamLinear]):
        self.rows = [(e.constant.numerator / e.constant.denominator,
                      [(name, q.numerator / q.denominator)
                       for name, q in e.coeffs.items()]) for e in exprs]

    def __call__(self, assignment: Mapping[str, float]) -> List[float]:
        """The values; raises UnassignedParameter for a missing parameter."""
        values = []
        try:
            for total, pairs in self.rows:
                for name, q in pairs:
                    total += q * assignment[name]
                values.append(total)
        except KeyError as missing:
            raise UnassignedParameter(
                f"no value for parameter {missing.args[0]!r}") from None
        return values


def _coerce(value) -> ParamLinear:
    if isinstance(value, ParamLinear):
        return value
    if isinstance(value, (int, Fraction)):
        return ParamLinear.const(value)
    raise TypeError(f"cannot coerce {value!r} to ParamLinear")

