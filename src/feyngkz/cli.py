"""Command-line front end.

Verbs:
    symanzik   graph spec -> U, F, g and the Gamma prefactor
    gkz        polynomial/graph spec -> A, lattice, toric ideal, pairs, roots
    series     ... -> classified hypergeometric forms
    solve      ... -> forms + integration constants (+ value when evaluable)
    verify     ... -> compare the series combination against quadrature
    fixtures   list built-in examples or dump one as JSON

Distinct exit codes flag the structured failure modes so scripts can react.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import graphs, pipeline
from .fixtures import DOCUMENTS, fixture
from .errors import (DimensionMismatch, DivergentArgument, FeynGKZError,
                     NonConvergent)

EXIT_USAGE = 2
EXIT_NONCONVERGENT = 5
EXIT_DIVERGENT = 6
EXIT_VERIFY_FAILED = 7
EXIT_ENGINE = 1
_EXIT_CODES = [(NonConvergent, EXIT_NONCONVERGENT),
               (DivergentArgument, EXIT_DIVERGENT), (FeynGKZError, EXIT_ENGINE)]


def _load_spec(args) -> pipeline.ProblemSpec:
    if args.fixture:
        spec = fixture(args.fixture)
        if spec is None:
            args.usage_error(f"unknown fixture {args.fixture!r}")
    else:
        try:
            with open(args.spec) as handle:
                data = json.load(handle)
        except OSError as err:
            args.usage_error(f"cannot read spec {args.spec!r}: {err.strerror}")
        except ValueError as err:     # not JSON, or not text
            raise DimensionMismatch(f"malformed spec: {err}") from None
        spec = pipeline.ProblemSpec.from_dict(data)
    if args.weight:
        spec.weight = args.weight
    if args.order is not None:
        spec.order = args.order
    if args.tolerance is not None:
        spec.tolerance = args.tolerance
    return spec


def weight(text: str) -> tuple:
    """--weight's value; argparse turns a non-integer into a usage error."""
    return tuple(int(w) for w in text.split(","))


def _emit(args, payload: dict):
    if args.json:
        json.dump(payload, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    else:
        for key, value in payload.items():
            if isinstance(value, list):
                print(f"{key}:")
                for item in value:
                    print(f"  {item}")
            else:
                print(f"{key}: {value}")


def cmd_symanzik(args) -> int:
    spec = _load_spec(args)
    if spec.graph is None:
        args.usage_error("the spec has no graph")
    u, f, g = graphs.symanzik(spec.graph)
    _emit(args, {"U": str(u), "F": str(f), "g": str(g),
                 "prefactor": str(graphs.prefactor(spec.graph.L,
                                                   spec.graph.n))})
    return 0


def cmd_gkz(args) -> int:
    _emit(args, pipeline.run(_load_spec(args)).to_dict(
        "polynomial", "deformation", "amatrix", "codim", "weight", "lattice",
        "toric_basis", "initial_ideal", "standard_pairs", "exponents"))
    return 0


def cmd_series(args) -> int:
    _emit(args, pipeline.run(_load_spec(args)).to_dict(
        "weight", "exponents", "forms"))
    return 0


def cmd_solve(args) -> int:
    spec = _load_spec(args)
    _emit(args, pipeline.run(spec, verify=bool(spec.assignment())).to_dict())
    return 0


def cmd_verify(args) -> int:
    spec = _load_spec(args)
    report = pipeline.run(spec, verify=True)
    payload = report.to_dict("series_value", "series_error", "oracle",
                             "relative_deviation")
    ok = bool(report.oracle.target_met
              and report.relative_deviation < spec.tolerance)
    payload.update(tolerance=spec.tolerance, verified=ok)
    _emit(args, payload)
    return 0 if ok else EXIT_VERIFY_FAILED


def cmd_fixtures(args) -> int:
    if args.name:
        spec = fixture(args.name)
        if spec is None:
            args.usage_error(f"unknown fixture {args.name!r}")
        _emit(args, spec.to_dict())
    else:
        _emit(args, {"fixtures": sorted(DOCUMENTS)})
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feyngkz",
        description="Euler-Mellin integrals as A-hypergeometric series")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {"symanzik": cmd_symanzik, "gkz": cmd_gkz,
                "series": cmd_series, "solve": cmd_solve,
                "verify": cmd_verify, "fixtures": cmd_fixtures}
    for name, handler in handlers.items():
        cmd = sub.add_parser(name)
        cmd.set_defaults(handler=handler, usage_error=cmd.error)
        if name == "fixtures":
            cmd.add_argument("--name")
            cmd.add_argument("--json", action="store_true")
            continue
        source = cmd.add_mutually_exclusive_group(required=True)
        source.add_argument("--spec", help="problem spec JSON file")
        source.add_argument("--fixture", help="built-in fixture name")
        cmd.add_argument("--weight", type=weight,
                         help="comma-separated integer weight vector")
        cmd.add_argument("--order", type=pipeline.series_order)
        cmd.add_argument("--tolerance", type=pipeline.relative_tolerance)
        cmd.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FeynGKZError as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
