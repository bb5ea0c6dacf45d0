"""The benchmark's three workloads, their operations and their checks.

Each workload is a list of operations that makes up one sweep; the runner
repeats whole sweeps in a seeded order.  An operation has a ``call`` (the
only part that is timed: one call into feyngkz) and a ``check`` that judges
the result against a reference that does not come from the call itself:
the frozen record ``expected.json`` for the exact stages, the plain
recurrence sums of ``reference.py`` for series values, and the oracle
against the series for verification.

Points are jittered from the seed inside the region where they are valid:
alpha by at most ALPHA_JITTER (every nominal point has a Newton-polytope
margin of at least 0.078 in alpha/beta, so the oracle integral converges),
coefficients by at most a factor exp(COEFF_JITTER), and each series point is
accepted only inside its convergence region with SERIES_MARGIN to spare.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import reference as ref
from feyngkz import cli, constants, pipeline
from feyngkz.fixtures import fixtures

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORK_DIR = os.path.join(HERE, "_work")

DIGITS_CAP = 8          # digits are reported up to this many
ALPHA_JITTER = 0.02
COEFF_JITTER = 0.02
SERIES_MARGIN = 0.05
ORACLE_TARGET_FACTOR = 1e-2   # pipeline.run asks the oracle for tolerance * 1e-2
EPSILONS = (1e-1, 1e-2, 1e-3)
LIMIT_DEVIATION = 0.01        # closed-form deviation allowed at the last epsilon

KNOWN_DEFECTS = {
    "series-eval": [
        "box at interior alpha (0.7, 0.6, 0.65, 0.75), order 80: returns nan "
        "silently (Pochhammer factors overflow)",
        "one-mass-bubble at its stated point with its own weight (0,1,1,1): "
        "raises DivergentArgument (|argument| = 1.5)",
    ],
    "verify-oracle": [
        "box Sobol oracle misses its own target (error ~0.08 against "
        "~5e-4): shows in oracle_target_met_frac, not as a failed operation",
    ],
}

EXCLUDED = ("sunset-1mass interior verify (3-D tensor, 645M nodes, 253-299 s "
            "at tolerances 1e-6 to 1e-3): longer than a run may take")


# -- the frozen record -------------------------------------------------------

def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def kappa_text(spec, report) -> List[str]:
    if spec.kappa_names:
        return [f"-{name}" for name in spec.kappa_names]
    return ["-beta"] + [f"-a{i + 1}" for i in range(report.amatrix.nrows - 1)]


def record(spec, report) -> dict:
    """The exact outputs of the chain, in the form ``expected.json`` keeps."""
    return {
        "amatrix": report.amatrix.rows,
        "weight": list(report.weight),
        "lattice": [list(v) for v in report.lattice],
        "toric_basis": [[list(p), list(m)] for p, m in report.toric_basis],
        "initial_gens": [list(m) for m in report.initial_gens],
        "pairs": [str(p) for p in report.pairs],
        "exponents": [[str(c) for c in e.components] for e in report.exponents],
        "forms": [f.kind for f in report.forms],
        "series_lattice": [[list(v) for v in s.lattice] for s in report.series],
        "kappa": kappa_text(spec, report),
    }


# -- operations ----------------------------------------------------------------

@dataclass
class Outcome:
    ok: bool
    digits: int
    detail: str = ""
    target_met: Optional[bool] = None
    oracle_digits: Optional[int] = None


@dataclass
class Operation:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    tolerance: float = 0.0
    scaled: bool = True     # scale the latency to the reference host speed


@dataclass
class Workload:
    operations: List[Operation]
    probes: List[Operation] = field(default_factory=list)


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _jitter_alpha(rng: random.Random, alpha: Sequence[float]) -> List[float]:
    return [a + rng.uniform(-ALPHA_JITTER, ALPHA_JITTER) for a in alpha]


def _jitter_coeffs(rng: random.Random, coeffs: Sequence[float]) -> List[float]:
    return [c * math.exp(rng.uniform(-COEFF_JITTER, COEFF_JITTER)) for c in coeffs]


def _coefficients(spec, report) -> List[float]:
    return pipeline.coefficient_values(spec, report.column_exponents,
                                       report.polynomial)


def _deformed_index(report) -> int:
    return report.column_exponents.index(report.deformation.exponent)


def _value_check(reference_value: float, tolerance: float):
    def check(value) -> Outcome:
        if not isinstance(value, float) or not math.isfinite(value):
            return Outcome(False, 0, f"non-finite value {value!r}")
        err = _rel(value, reference_value)
        return Outcome(err <= tolerance,
                       ref.correct_digits(value, reference_value, DIGITS_CAP),
                       f"rel err {err:.3g} (tolerance {tolerance:g})")
    return check


# -- exact-chain -------------------------------------------------------------------

def exact_chain(seed: int, expected: dict) -> Workload:
    ops = []
    for name, spec in fixtures().items():
        want = expected[name]

        def check(report, spec=spec, want=want) -> Outcome:
            got = record(spec, report)
            problems = [f"{key} differs from the frozen record"
                        for key in want if got[key] != want[key]]
            problems += ref.exact_checks(got["amatrix"], got["lattice"],
                                         got["exponents"], got["kappa"])
            return Outcome(not problems, DIGITS_CAP, "; ".join(problems))

        ops.append(Operation(name, lambda spec=spec: pipeline.run(spec), check))
    return Workload(ops)


# -- jittered points ----------------------------------------------------------------

@dataclass
class Point:
    """One jittered point of a fixture, with its report built at set-up."""
    key: str
    spec: object
    report: object
    assignment: Dict[str, float]
    coeffs: List[float]


def _rng(seed: int, *labels) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def _point(key: str, spec, rng: random.Random, expected: dict,
           epsilon: Optional[float] = None, move_alpha: bool = True) -> Point:
    """Jitter alpha and the kinematics (or explicit coefficients) until every
    series of the frozen record converges at the point with SERIES_MARGIN to
    spare.  ``epsilon`` sets the coefficient of the deformation monomial."""
    report = pipeline.run(spec)
    alpha, kinematics, explicit = list(spec.alpha), dict(spec.kinematics), spec.coefficients
    for _ in range(100):
        if move_alpha:
            spec.alpha = _jitter_alpha(rng, alpha)
        if explicit is not None:
            coeffs = _jitter_coeffs(rng, explicit)
        else:
            spec.kinematics = {k: v * math.exp(rng.uniform(-COEFF_JITTER, COEFF_JITTER))
                               for k, v in kinematics.items()}
            coeffs = _coefficients(spec, report)
        if epsilon is not None:
            coeffs[_deformed_index(report)] = epsilon
        if ref.in_convergence_region(expected[key]["series_lattice"], coeffs,
                                     SERIES_MARGIN):
            break
    else:
        raise RuntimeError(f"{key}: no jittered point inside the convergence region")
    spec.coefficients = coeffs
    return Point(key, spec, report, spec.assignment(), coeffs)


def _fixed_point(key: str, spec) -> Point:
    report = pipeline.run(spec)
    return Point(key, spec, report, spec.assignment(), _coefficients(spec, report))


def _reference(point: Point, expected: dict, coeffs=None) -> float:
    want = expected[point.key]
    return ref.bundle_value(want["exponents"], want["series_lattice"],
                            point.assignment, coeffs or point.coeffs)


def _fixture(name: str, **changes):
    spec = fixtures()[name]
    for attr, value in changes.items():
        setattr(spec, attr, value)
    return spec


# -- series-eval -----------------------------------------------------------------

def _eval_op(name: str, point: Point, expected: dict,
             order: Optional[int] = None) -> Operation:
    tol = point.spec.tolerance
    order = order or point.spec.order
    return Operation(
        name,
        lambda: point.report.bundle.evaluate(point.assignment, point.coeffs, order),
        _value_check(_reference(point, expected), tol), tol)


def _limit_sweep_op(name: str, point: Point, expected: dict, limit) -> Operation:
    """deformation_limit_probe over EPSILONS: every value must match the
    recurrence sum, and the values must approach the closed form
    monotonically, ending within LIMIT_DEVIATION of it."""
    index = _deformed_index(point.report)
    references = []
    for eps in EPSILONS:
        coeffs = list(point.coeffs)
        coeffs[index] = eps
        references.append(_reference(point, expected, coeffs))
    target = limit(point.spec.alpha, point.assignment["beta"],
                   point.spec.kinematics["s"])
    tol = point.spec.tolerance

    def call():
        return constants.deformation_limit_probe(
            point.report.bundle, point.assignment, point.coeffs, index,
            list(EPSILONS), target, point.spec.order)

    def check(probe) -> Outcome:
        values = list(probe.values)
        if not all(math.isfinite(v) for v in values):
            return Outcome(False, 0, f"non-finite value in {values!r}")
        errors = [_rel(v, r) for v, r in zip(values, references)]
        deviations = [_rel(v, target) for v in values]
        ok = (max(errors) <= tol and deviations[-1] <= LIMIT_DEVIATION
              and all(a >= b for a, b in zip(deviations, deviations[1:])))
        digits = min(ref.correct_digits(v, r, DIGITS_CAP)
                     for v, r in zip(values, references))
        return Outcome(ok, digits, f"max rel err {max(errors):.3g}, limit "
                                   f"deviations {[f'{d:.3g}' for d in deviations]}")

    return Operation(name, call, check, tol)


def series_eval(seed: int, expected: dict) -> Workload:
    w0001 = (0, 0, 0, 1)
    points = {
        "2f1-double": _point("2f1-double", _fixture("2f1-double"),
                             _rng(seed, "2f1-double"), expected),
        "one-mass-bubble": _point("one-mass-bubble@w=0,0,0,1",
                                  _fixture("one-mass-bubble", weight=w0001),
                                  _rng(seed, "one-mass-bubble"), expected),
        "sunset-1mass": _point("sunset-1mass",
                               _fixture("sunset-1mass",
                                        coefficients=[1.6, 1.0, 1.0, 1.0, 1.0]),
                               _rng(seed, "sunset-1mass"), expected),
        "box": _point("box", _fixture("box"), _rng(seed, "box"), expected),
        "triangle-3scale": _point("triangle-3scale", _fixture("triangle-3scale"),
                                  _rng(seed, "triangle-3scale"), expected),
    }
    ops = [_eval_op(f"eval {name}", point, expected)
           for name, point in points.items()]
    # The operations of 80 to 90 ms (box eval, both limit sweeps) run at
    # three points each, so that the median falls among them and the tail
    # rank (10 samples beyond it) among the triangle-1scale sweeps, the
    # costliest of them, whether a run completes 3 or 10 sweeps.
    ops += [_eval_op(f"eval box #{i}", _point("box", _fixture("box"),
                                              _rng(seed, "box", i), expected),
                     expected)
            for i in (1, 2)]
    # The limit sweeps move only the scale s: alpha sets how fast the values
    # approach the closed form (deviation ~ eps^(beta - max a)), and the 1%
    # bound at eps = 1e-3 holds at the fixtures' alpha.
    for name, limit in (("massless-bubble", ref.bubble_limit),
                        ("triangle-1scale", ref.triangle_limit)):
        for i in range(3):
            point = _point(name, _fixture(name), _rng(seed, name, i), expected,
                           epsilon=EPSILONS[0], move_alpha=False)
            ops.append(_limit_sweep_op(f"limit-sweep {name} #{i}", point,
                                       expected, limit))

    # The known defects, at the exact points where they were found.  The
    # one-mass-bubble reference is the same function summed in the basis of
    # weight (0,0,0,1), where the stated point converges.
    box = _fixed_point("box", _fixture("box", alpha=[0.7, 0.6, 0.65, 0.75]))
    stated = _fixed_point("one-mass-bubble@w=0,0,0,1", _fixture("one-mass-bubble"))
    probes = [_eval_op("box interior alpha, order 80", box, expected, 80),
              _eval_op("one-mass-bubble stated point, own weight", stated, expected)]
    return Workload(ops, probes)


# -- verify-oracle ---------------------------------------------------------------

def _oracle_outcome(series_value, oracle_value, oracle_error, reference_value,
                    tol: float) -> Outcome:
    values = (series_value, oracle_value, oracle_error)
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return Outcome(False, 0, f"non-finite value in {values!r}")
    deviation = _rel(series_value, oracle_value)
    series_err = _rel(series_value, reference_value)
    return Outcome(
        deviation <= tol and series_err <= tol,
        ref.correct_digits(series_value, reference_value, DIGITS_CAP),
        f"|series - oracle|/|oracle| {deviation:.3g}, series rel err "
        f"{series_err:.3g} (tolerance {tol:g})",
        target_met=oracle_error <= tol * ORACLE_TARGET_FACTOR * abs(oracle_value),
        oracle_digits=ref.correct_digits(oracle_value, reference_value, DIGITS_CAP))


def _verify_op(name: str, point: Point, expected: dict, scaled: bool) -> Operation:
    reference_value = _reference(point, expected)
    tol = point.spec.tolerance

    def check(report) -> Outcome:
        oracle = report.oracle
        return _oracle_outcome(report.series_value, oracle.value, oracle.error,
                               reference_value, tol)

    return Operation(name, lambda: pipeline.run(point.spec, verify=True), check, tol,
                     scaled)


def _cli_verify_op(name: str, point: Point, expected: dict) -> Operation:
    """The same verification through ``feyngkz verify --spec FILE --json``."""
    spec = point.spec
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"{name.replace(' ', '_')}.json")
    # The numbers come from "coefficients"; the symbolic coefficients of the
    # polynomial only fix its support.
    with open(path, "w") as handle:
        json.dump({
            "name": spec.name,
            "polynomial": [{"exponents": list(e), "coeff": {"1": 1}}
                           for e, _ in spec.terms],
            "weight": list(spec.weight), "deformation": spec.deformation,
            "alpha": spec.alpha, "d": spec.d, "coefficients": spec.coefficients,
            "order": spec.order, "tolerance": spec.tolerance}, handle)
    reference_value = _reference(point, expected)
    tol = spec.tolerance

    def call():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["verify", "--spec", path, "--json"])
        return code, out.getvalue()

    def check(result) -> Outcome:
        code, text = result
        payload = json.loads(text)
        outcome = _oracle_outcome(payload["series_value"], payload["oracle"]["value"],
                                  payload["oracle"]["error"], reference_value, tol)
        if code != 0 or payload["verified"] is not True:
            outcome.ok = False
            outcome.detail += f"; exit code {code}, verified {payload['verified']}"
        return outcome

    return Operation(name, call, check, tol)


VERIFY_REPLICAS = 4     # jittered points per cheap 2-D case, for the tail


def verify_oracle(seed: int, expected: dict) -> Workload:
    # The last two oracles sum 8e6 to 1.2e7 nodes in NumPy, and other
    # tenants of the host slow that array work far less than interpreted
    # code: scaled by the pure-Python unit, their latencies swung more than
    # unscaled ones, so they stay unscaled (see hostspeed.py).
    w0001 = (0, 0, 0, 1)
    cases = [
        ("2f1-double", "2f1-double", lambda: _fixture("2f1-double"), None,
         VERIFY_REPLICAS, True),
        ("massless-bubble eps=0.1", "massless-bubble",
         lambda: _fixture("massless-bubble"), 0.1, VERIFY_REPLICAS, True),
        ("one-mass-bubble alpha=(1.2,1.3)", "one-mass-bubble@w=0,0,0,1",
         lambda: _fixture("one-mass-bubble", weight=w0001, alpha=[1.2, 1.3]),
         None, VERIFY_REPLICAS, True),
        ("cantaloupe-2 eps=0.1", "cantaloupe-2", lambda: _fixture("cantaloupe-2"),
         0.1, 1, False),
        ("box interior alpha", "box",
         lambda: _fixture("box", alpha=[0.7, 0.6, 0.65, 0.75]), None, 1, False),
    ]
    ops = []
    for label, key, build, epsilon, replicas, scaled in cases:
        for i in range(replicas):
            point = _point(key, build(), _rng(seed, label, i), expected, epsilon)
            ops.append(_verify_op(f"verify {label} #{i}", point, expected, scaled))
    point = _point("2f1-double", _fixture("2f1-double"), _rng(seed, "cli"), expected)
    ops.append(_cli_verify_op("cli verify 2f1-double", point, expected))
    return Workload(ops)


MAKERS = {"exact-chain": exact_chain, "series-eval": series_eval,
          "verify-oracle": verify_oracle}


def build(name: str, seed: int, expected: dict) -> Workload:
    return MAKERS[name](seed, expected)
