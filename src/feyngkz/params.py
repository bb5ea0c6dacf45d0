"""Exact linear expressions in symbolic parameters.

Everything downstream of the exponent solver manipulates quantities of the
form  q0 + q1*p1 + ... + qk*pk  with rational q's and opaque parameter names
(typically ``beta`` and ``a1 .. aN``).  ParamLinear keeps these exact as
integer numerators over one common denominator and prints them canonically
("beta - a1 - a2 + 3/2").

Results are kept in lowest terms.  Some are so by construction and skip
normalising: ``param`` and ``const`` of an int (den 1), negation (the gcd
keeps its value), and adding or subtracting an int or an integral constant
(num0 moves by a multiple of den, so the gcd and the nums stay as they were).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Union

from .errors import UnassignedParameter

Scalar = Union[int, Fraction]


def _param_sort_key(name: str):
    # beta-like parameters first, then a1..aN numerically, then the rest.
    if m := re.fullmatch(r"a(\d+)", name):
        return (1, int(m.group(1)), name)
    return (0 if name.startswith("b") else 2, 0, name)


class ParamLinear:
    """A rational-linear combination of named parameters plus a constant:
    nonzero integer numerators ``nums`` per parameter and ``num0`` for the
    constant over one common denominator ``den`` > 0, in lowest terms, so
    equal expressions have equal fields and hashes (read them, never assign
    them).  ``coeffs`` and ``constant`` give the values as Fractions."""

    __slots__ = ("nums", "num0", "den")

    def __init__(self, coeffs: Mapping[str, Scalar] | None = None,
                 constant: Scalar = 0):
        full = {name: Fraction(q) for name, q in (coeffs or {}).items()}
        constant = Fraction(constant)
        den = math.lcm(constant.denominator,
                       *(q.denominator for q in full.values()))
        out = ParamLinear.from_integers(
            {name: int(q * den) for name, q in full.items()},
            int(constant * den), den)
        self.nums, self.num0, self.den = out.nums, out.num0, out.den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_integers(cls, nums: Mapping[str, int], num0: int,
                      den: int = 1) -> "ParamLinear":
        """nums/den per parameter plus num0/den, brought to lowest terms with
        den > 0; den may be negative."""
        nums = {name: n for name, n in nums.items() if n}
        if den != 1:
            g = math.gcd(den, num0, *nums.values()) * (-1 if den < 0 else 1)
            if g != 1:
                nums = {name: n // g for name, n in nums.items()}
                num0, den = num0 // g, den // g
        return _canonical(nums, num0, den)

    @classmethod
    def param(cls, name: str) -> "ParamLinear":
        return _canonical({name: 1}, 0, 1)

    @classmethod
    def const(cls, value: Scalar) -> "ParamLinear":
        return (_canonical({}, value, 1) if type(value) is int
                else cls({}, value))

    @property
    def coeffs(self) -> Dict[str, Fraction]:
        return {name: Fraction(n, self.den) for name, n in self.nums.items()}

    @property
    def constant(self) -> Fraction:
        return Fraction(self.num0, self.den)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums and not self.num0

    def is_constant(self) -> bool:
        return not self.nums

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "ParamLinear":
        other = _coerce(other)
        for x, k in ((self, other), (other, self)):
            if k.den == 1 and not k.nums:
                return _canonical(dict(x.nums), x.num0 + k.num0 * x.den, x.den)
        den = math.lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        nums = {name: n * f for name, n in self.nums.items()}
        for name, n in other.nums.items():
            nums[name] = nums.get(name, 0) + n * g
        return ParamLinear.from_integers(nums, self.num0 * f + other.num0 * g,
                                         den)

    __radd__ = __add__

    def __sub__(self, other) -> "ParamLinear":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "ParamLinear":
        return _coerce(other) + (-self)

    def __neg__(self) -> "ParamLinear":
        return _canonical({k: -v for k, v in self.nums.items()}, -self.num0,
                          self.den)

    def __mul__(self, scalar: Scalar) -> "ParamLinear":
        p, q = Fraction(scalar).as_integer_ratio()
        nums = {k: v * p for k, v in self.nums.items()}
        return ParamLinear.from_integers(nums, self.num0 * p, self.den * q)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamLinear.const(other)
        if not isinstance(other, ParamLinear):
            return NotImplemented
        return (self.nums == other.nums and self.num0 == other.num0
                and self.den == other.den)

    def __hash__(self):
        return hash((tuple(sorted(self.nums.items())), self.num0, self.den))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        """Numeric value under a parameter assignment; raises
        UnassignedParameter when it lacks one of this expression's names."""
        return FloatMap([self])(assignment)[0]

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        terms = [(q, name if abs(q) == 1 else f"{abs(q)}*{name}")
                 for name, q in sorted(self.coeffs.items(),
                                       key=lambda nq: _param_sort_key(nq[0]))]
        if self.num0 or not terms:
            terms.append((self.num0, str(abs(self.constant))))
        text = " ".join(("- " if q < 0 else "+ ") + body for q, body in terms)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    __repr__ = __str__


class FloatMap:
    """ParamLinears in floats, converted once: per expression, its constant
    and the (parameter, coefficient) pairs of its nonzero coefficients."""

    def __init__(self, exprs: Sequence[ParamLinear]):
        self.rows = [(e.num0 / e.den,
                      [(name, n / e.den) for name, n in e.nums.items()])
                     for e in exprs]

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


def _canonical(nums: Dict[str, int], num0: int, den: int) -> ParamLinear:
    """A ParamLinear from fields already in lowest terms, stored as given."""
    out = ParamLinear.__new__(ParamLinear)
    out.nums, out.num0, out.den = nums, num0, den
    return out


def _coerce(value) -> ParamLinear:
    if isinstance(value, ParamLinear):
        return value
    if isinstance(value, (int, Fraction)):
        return ParamLinear.const(value)
    raise TypeError(f"cannot coerce {value!r} to ParamLinear")

