"""Independent references for the benchmark's correctness checks.

Nothing here calls into feyngkz.  Exponent vectors arrive as the strings of
the frozen record (``expected.json``), are parsed by a small parser of its
own, and every series is summed by the plain term-ratio recurrence of the
Gamma series

    phi = c^gamma * sum_u  prod_i Gamma(gamma_i + 1) / Gamma(gamma_i + u_i + 1) * c^u

over u = k*v (rank 1, k >= 0) or u = m*v1 + n*v2 (Appell F4 basis,
m, n >= 0).  Integration constants follow the Gamma-product prescription
K = prod_{gamma_i != 0} Gamma(-gamma_i) / Gamma(beta) (Gelfand-Kapranov-
Zelevinsky; Saito-Sturmfels-Takayama 2000, canonical series).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

Linear = Tuple[Dict[str, Fraction], Fraction]

_TERM = re.compile(r"([+-]?)([^+-]+)")
_MIN_TERMS = 16        # never stop on a term that is small by accident


def parse_linear(text: str) -> Linear:
    """'2*beta - a1 - a2 + 3/2' -> ({'beta': 2, 'a1': -1, 'a2': -1}, 3/2)."""
    coeffs: Dict[str, Fraction] = {}
    constant = Fraction(0)
    for sign, body in _TERM.findall(text.replace(" ", "")):
        factor = Fraction(-1 if sign == "-" else 1)
        if "*" in body:
            qtext, name = body.split("*", 1)
            coeffs[name] = coeffs.get(name, Fraction(0)) + factor * Fraction(qtext)
        elif re.fullmatch(r"\d+(/\d+)?", body):
            constant += factor * Fraction(body)
        else:
            coeffs[body] = coeffs.get(body, Fraction(0)) + factor
    return {k: v for k, v in coeffs.items() if v}, constant


def linear_value(expr: Linear, assignment: Mapping[str, float]) -> float:
    coeffs, constant = expr
    return float(constant) + sum(float(q) * assignment[name]
                                 for name, q in coeffs.items())


def exact_checks(amatrix: Sequence[Sequence[int]],
                 lattice: Sequence[Sequence[int]],
                 exponents: Sequence[Sequence[str]],
                 kappa: Sequence[str]) -> List[str]:
    """A.u = 0 for every lattice vector and A.gamma = kappa for every
    exponent, in exact rational arithmetic; returns the violations."""
    problems = []
    for u in lattice:
        if any(sum(a * x for a, x in zip(row, u)) for row in amatrix):
            problems.append(f"A.u != 0 for u = {list(u)}")
    targets = [parse_linear(k) for k in kappa]
    for gamma in exponents:
        parsed = [parse_linear(g) for g in gamma]
        for row, (want_c, want_k) in zip(amatrix, targets):
            coeffs: Dict[str, Fraction] = {}
            constant = Fraction(0)
            for a, (g_c, g_k) in zip(row, parsed):
                constant += a * g_k
                for name, q in g_c.items():
                    coeffs[name] = coeffs.get(name, Fraction(0)) + a * q
            coeffs = {k: v for k, v in coeffs.items() if v}
            if coeffs != want_c or constant != want_k:
                problems.append(f"A.gamma != kappa for gamma = {list(gamma)}")
                break
    return problems


def _ratio(gamma: Sequence[float], u: Sequence[int], v: Sequence[int],
           cv: float) -> float:
    """term(u + v) / term(u) of the Gamma series."""
    out = cv
    for g, x, step in zip(gamma, u, v):
        base = g + x
        if step > 0:
            for j in range(1, step + 1):
                out /= base + j
        else:
            for j in range(-step):
                out *= base - j
    return out


def _monomial(coeffs: Sequence[float], v: Sequence[int]) -> float:
    out = 1.0
    for c, e in zip(coeffs, v):
        out *= c ** e
    return out


def gamma_series(gamma: Sequence[float], generators: Sequence[Sequence[int]],
                 coeffs: Sequence[float], max_terms: int = 2000) -> float:
    """c^gamma * (sum of the Gamma series), rank 1 or Appell F4 basis."""
    if len(generators) == 1:
        total = _line_sum(gamma, (0,) * len(gamma), generators[0], coeffs,
                          max_terms)
    elif len(generators) == 2:
        v1, v2 = generators
        cv1 = _monomial(coeffs, v1)
        total = 0.0
        head = 1.0
        u = [0] * len(gamma)
        for m in range(max_terms):
            row = head * _line_sum(gamma, u, v2, coeffs, max_terms) if head else 0.0
            total += row
            if head == 0.0 or (m >= _MIN_TERMS and abs(row) <= 1e-19 * abs(total)):
                break
            head *= _ratio(gamma, u, v1, cv1)
            u = [x + s for x, s in zip(u, v1)]
        else:
            raise ArithmeticError("F4 reference did not converge")
    else:
        raise ValueError("reference covers rank 1 and the F4 basis only")
    return _monomial(coeffs, gamma) * total


def _line_sum(gamma, start, v, coeffs, max_terms) -> float:
    """sum_{k >= 0} term(start + k v) / term(start)."""
    cv = _monomial(coeffs, v)
    total = 0.0
    term = 1.0
    u = list(start)
    for k in range(max_terms):
        total += term
        if term == 0.0:
            return total
        term *= _ratio(gamma, u, v, cv)
        u = [x + s for x, s in zip(u, v)]
        if k >= _MIN_TERMS and abs(term) <= 1e-19 * abs(total):
            return total + term
    raise ArithmeticError("reference series did not converge")


def gamma_constant(gamma: Sequence[Linear], assignment: Mapping[str, float]) -> float:
    """prod over nonzero components Gamma(-gamma_i) / Gamma(beta)."""
    out = 1.0 / math.gamma(assignment["beta"])
    for expr in gamma:
        if expr[0] or expr[1]:
            out *= math.gamma(-linear_value(expr, assignment))
    return out


def bundle_value(exponents: Sequence[Sequence[str]],
                 series_lattices: Sequence[Sequence[Sequence[int]]],
                 assignment: Mapping[str, float],
                 coeffs: Sequence[float]) -> float:
    """sum_i K_i phi_i at one coefficient point."""
    total = 0.0
    for gamma_text, generators in zip(exponents, series_lattices):
        parsed = [parse_linear(g) for g in gamma_text]
        gamma = [linear_value(g, assignment) for g in parsed]
        total += (gamma_constant(parsed, assignment)
                  * gamma_series(gamma, generators, coeffs))
    return total


def in_convergence_region(series_lattices, coeffs, margin: float) -> bool:
    """|x| < 1 - margin (rank 1) or sqrt|x| + sqrt|y| < 1 - margin (F4)."""
    for generators in series_lattices:
        args = [_monomial(coeffs, v) for v in generators]
        size = abs(args[0]) if len(args) == 1 else sum(
            math.sqrt(abs(a)) for a in args)
        if size >= 1.0 - margin:
            return False
    return True


def bubble_limit(alpha: Sequence[float], beta: float, s: float) -> float:
    """Massless one-loop bubble, the epsilon -> 0 limit of its deformation."""
    a1, a2 = alpha
    return (math.gamma(beta - a1) * math.gamma(beta - a2)
            * math.gamma(a1 + a2 - beta) / math.gamma(beta)
            * s ** (beta - a1 - a2))


def triangle_limit(alpha: Sequence[float], beta: float, s: float) -> float:
    """One-scale massless triangle, the epsilon -> 0 limit."""
    a1, a2, a3 = alpha
    total = a1 + a2 + a3
    return (math.gamma(a3) * math.gamma(beta - a1 - a3)
            * math.gamma(beta - a2 - a3) * math.gamma(total - beta)
            / math.gamma(beta) * s ** (beta - total))


def correct_digits(value: float, reference: float, cap: int) -> int:
    """Whole significant digits of value that agree with reference, capped;
    0 for a non-finite value."""
    if not math.isfinite(value):
        return 0
    err = abs(value - reference)
    if err == 0.0:
        return cap
    return max(0, min(cap, math.floor(-math.log10(err / abs(reference)))))
