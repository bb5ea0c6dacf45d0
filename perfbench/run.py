"""Outside-in benchmark for feyngkz.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one client, one thread: a closed
loop calls the program, waits for the result, checks it, and sends the next
operation.  Whole sweeps over the workload's operations repeat in a seeded
order until ``--seconds`` have passed.  The last line of standard output is
one JSON object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see spans.py), whose
first half runs untraced so that the tracing overhead can be stated.
Every latency is scaled to a reference host speed (see hostspeed.py); the
raw figures are printed on the ``#`` lines.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before NumPy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("exact-chain", "series-eval", "verify-oracle")
SETUP_REPEATS = 5       # fresh interpreters timed per run; setup_s is their median
TAIL_BEYOND = 10        # the tail percentile keeps this many samples beyond it
BLOCK_SAMPLES = 200     # a run of more samples is split into blocks of this many
MIN_SWEEPS = 3          # a run completes at least this many sweeps


def _import_program():
    """Import feyngkz from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "feyngkz", "__init__.py")):
        sys.exit(f"error: no feyngkz sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import feyngkz
    if not os.path.abspath(feyngkz.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: feyngkz was imported from {feyngkz.__file__}")


# -- the closed loop -------------------------------------------------------------

class Samples:
    """Latencies and outcomes of every operation run in one loop."""

    def __init__(self):
        self.names = []
        self.latencies = []     # scaled to the reference host speed
        self.raw = []           # as measured
        self.digits = []
        self.target_met = []
        self.oracle_digits = []
        self.failures = []
        self.unit_s = []        # median calibration unit time of each loop

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def median_by_kind(self) -> dict:
        """Median latency of each kind of operation; replicas of one case at
        other jittered points ("... #2") are one kind."""
        kinds = {}
        for name, latency in zip(self.names, self.latencies):
            kinds.setdefault(name.split(" #")[0], []).append(latency)
        return {kind: statistics.median(values) for kind, values in kinds.items()}


def run_loop(workload, seconds: float, rng: random.Random, samples: Samples,
             tracer=None, min_sweeps: int = MIN_SWEEPS) -> float:
    """Repeat whole sweeps until ``seconds`` have passed and ``min_sweeps``
    are done; returns the busy time, the seconds spent inside calls into the
    program, scaled where the operation is."""
    clock = time.perf_counter
    host = hostspeed.HostSpeed()
    sweeps = 0
    begins = []
    first = len(samples.raw)
    start = clock()
    while True:
        order = list(workload.operations)
        rng.shuffle(order)
        for op in order:
            if tracer is not None:
                tracer.tolerance = op.tolerance
            begin = clock()
            try:
                result, error = op.call(), None
            except Exception as exc:
                result, error = None, exc
            latency = clock() - begin
            if op.scaled:
                host.after(latency)
            begins.append(begin if op.scaled else None)
            samples.names.append(op.name)
            samples.raw.append(latency)
            if error is not None:
                samples.failures.append(
                    (op.name, "".join(traceback.format_exception(error, limit=3))))
                continue
            outcome = op.check(result)
            if outcome.ok:
                samples.digits.append(outcome.digits)
            else:
                samples.failures.append((op.name, outcome.detail))
            if outcome.target_met is not None:
                samples.target_met.append(outcome.target_met)
                samples.oracle_digits.append(outcome.oracle_digits)
        sweeps += 1
        if clock() - start >= seconds and sweeps >= min_sweeps:
            break
    scaled = [raw if begin is None else raw * host.scale(begin, begin + raw)
              for begin, raw in zip(begins, samples.raw[first:])]
    samples.latencies += scaled
    samples.unit_s.append(host.median_unit_s())
    return sum(scaled)


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, by rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def blocks(latencies, per_sweep: int) -> list:
    """Consecutive blocks of whole sweeps with about BLOCK_SAMPLES samples
    each (one block when the run has fewer).  Other tenants of a shared host
    slow the CPU for bursts of seconds; a burst lands in one block, and the
    median over blocks leaves it out."""
    count = max(1, len(latencies) // BLOCK_SAMPLES)
    size = per_sweep * (len(latencies) // per_sweep // count)
    return [latencies[i * size:(i + 1) * size] for i in range(count - 1)] + \
        [latencies[(count - 1) * size:]]


# -- set-up time -----------------------------------------------------------------

def set_up(workload: str, seed: int) -> dict:
    """Import feyngkz and build the workload, ready for its first operation;
    the time taken, raw and scaled by calibration units run in this same
    process just before and after."""
    host = hostspeed.HostSpeed()
    host.after(2.0)
    begin = time.perf_counter()
    _import_program()
    import workloads
    workloads.build(workload, seed, workloads.load_expected())
    raw = time.perf_counter() - begin
    host.after(raw)
    return {"raw": raw, "scaled": raw * host.scale(begin, begin + raw)}


def setup_seconds(workload: str, seed: int) -> tuple:
    """Median set-up time, scaled and raw, of SETUP_REPEATS fresh
    interpreters (see set_up)."""
    runs = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                                "--workload", workload, "--seed", str(seed)],
                               cwd=ROOT, check=True, timeout=120,
                               capture_output=True, text=True)
        runs.append(json.loads(child.stdout.splitlines()[-1]))
    return (statistics.median(run["scaled"] for run in runs),
            statistics.median(run["raw"] for run in runs))


# -- environment -----------------------------------------------------------------

def git_sha() -> str:
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "processes": 1,
        "clients": 1,
    }


# -- reporting -------------------------------------------------------------------

def _print_header(args, workload_mod):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        why = {w["name"]: w["why"] for w in json.load(handle)["workloads"]}
    print(f"# feyngkz benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"# why: {why[args.workload]}")
    for defect in workload_mod.KNOWN_DEFECTS.get(args.workload, []):
        print(f"# known defect: {defect}")
    print(f"# excluded: {workload_mod.EXCLUDED}")
    print(f"# environment: {json.dumps(environment(), sort_keys=True)}")


def _print_failures(samples: Samples):
    for name, detail in samples.failures:
        print(f"# FAILED {name}: {detail.strip()}")


def end_to_end(args, workload, rng) -> tuple:
    setup_s, setup_raw_s = setup_seconds(args.workload, args.seed)
    samples = Samples()
    run_loop(workload, args.seconds, rng, samples)
    _print_failures(samples)

    probe_failures = 0
    for probe in workload.probes:
        try:
            outcome = probe.check(probe.call())
            status = "passes" if outcome.ok else f"fails: {outcome.detail}"
        except Exception as err:  # a known defect may raise; report it
            outcome = None
            status = f"fails: raises {type(err).__name__}: {err}"
        probe_failures += outcome is None or not outcome.ok
        print(f"# known-defect operation {probe.name}: {status}")

    per_sweep = len(workload.operations)
    parts = blocks(samples.latencies, per_sweep)
    tails = [tail(part) for part in parts]
    raw_parts = blocks(samples.raw, per_sweep)
    attempted = samples.attempted + len(workload.probes)
    failed = len(samples.failures) + probe_failures
    digits = min(samples.digits) if samples.digits else 0
    print(f"# {samples.attempted} timed operations, {len(workload.operations)} per "
          f"sweep, in {len(parts)} block(s) of {len(parts[0])} or more; tail is "
          f"p{min(pct for _, pct in tails):.1f} of a block, with {TAIL_BEYOND} "
          f"samples beyond it; p50, tail and rate are medians over the blocks")
    print(f"# host speed: the calibration unit took {1e3 * samples.unit_s[0]:.4g} ms "
          f"(median), against {1e3 * hostspeed.REFERENCE_S:.4g} ms at the "
          f"reference speed")
    print(f"# as measured, unscaled: p50 "
          f"{1e3 * statistics.median(statistics.median(p) for p in raw_parts):.6g} ms, "
          f"tail {1e3 * statistics.median(tail(p)[0] for p in raw_parts):.6g} ms, "
          f"{statistics.median(len(p) / sum(p) for p in raw_parts):.6g}/s, "
          f"setup {setup_raw_s:.6g} s")
    print("# median scaled latency per kind of operation: " + ", ".join(
        f"{kind} {1e3 * value:.4g} ms"
        for kind, value in sorted(samples.median_by_kind().items(), key=lambda kv: kv[1])))
    print(f"# failed_frac {failed / attempted:.4f} ratio ({failed} of {attempted}, "
          f"counting the {len(workload.probes)} known-defect operations run once)")
    if samples.target_met:
        met = sum(samples.target_met)
        print(f"# oracle_target_met_frac {met / len(samples.target_met):.4f} ratio "
              f"({met} of {len(samples.target_met)} oracle calls); the oracle "
              f"values have {min(samples.oracle_digits)} correct digits or more")
    else:
        print("# oracle_target_met_frac n/a (no oracle calls in this workload)")
    metrics = {
        "solve_ms_p50": (1e3 * statistics.median(
            statistics.median(part) for part in parts), "ms"),
        "solve_ms_tail": (1e3 * statistics.median(value for value, _ in tails), "ms"),
        "solves_per_s": (statistics.median(len(part) / sum(part) for part in parts),
                         "1/s"),
        "digits_min": (digits, "digits"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    return samples, metrics


def per_layer(args, workload, rng) -> tuple:
    import spans
    half = args.seconds / 2.0
    plain, traced = Samples(), Samples()
    # One sweep at least in each half: per-layer figures have no bound,
    # and two halves of MIN_SWEEPS verify sweeps could outlast a run.
    plain_busy = run_loop(workload, half, rng, plain, min_sweeps=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_busy = run_loop(workload, half, rng, traced, tracer, min_sweeps=1)
    finally:
        tracer.restore()
    samples = Samples()
    samples.latencies = plain.latencies + traced.latencies
    samples.failures = plain.failures + traced.failures
    if args.workload == "exact-chain":
        import staged
        mismatches = staged.replay_all()
        samples.failures += mismatches
        if not mismatches:
            print("# staged replay: every fixture's stage-by-stage chain equals "
                  "pipeline.run's report")
    _print_failures(samples)

    ops = traced.attempted
    untraced_rate = plain.attempted / plain_busy
    traced_rate = ops / traced_busy
    op_ms = 1e3 * sum(traced.raw) / ops     # unscaled, like the span times
    metrics = {}
    for name in ("graphs.symanzik", "gkz.deform", "gkz.toric_matrix",
                 "intlinalg.kernel_basis", "gkz.toric_ideal", "gkz.initial_ideal",
                 "gkz.standard_pairs", "gkz.fake_exponents", "series.build",
                 "series.classify", "series.evaluate", "constants.bundle_evaluate",
                 "constants.gamma_constant", "quadrature.quadrature",
                 "quadrature.convergence_margin", "pipeline.run", "cli.main"):
        metrics[f"{name}_ms"] = (tracer.span_ms(name, ops), "ms")
    for metric, span in (("gkz.lattice_rank", "intlinalg.kernel_basis"),
                         ("gkz.toric_basis_size", "gkz.toric_ideal"),
                         ("gkz.initial_gens", "gkz.initial_ideal"),
                         ("gkz.standard_pairs", "gkz.standard_pairs"),
                         ("gkz.exponents", "gkz.fake_exponents"),
                         ("graphs.terms", "graphs.symanzik")):
        metrics[metric] = (tracer.span_count(span), "count")
    waste = tracer.series_waste()
    metrics["series.terms"] = (waste["series.terms"], "count")
    for key in ("series.nonzero_frac", "series.useful_term_frac", "series.tail_rel"):
        metrics[key] = (waste[key], "ratio")
    quad = tracer.quadrature_summary()
    metrics["quadrature.nodes"] = (quad["quadrature.nodes"], "count")
    for key in ("quadrature.rel_error", "quadrature.target_met", "quadrature.margin"):
        metrics[key] = (quad[key], "ratio")
    for key, value in tracer.layer_self_ms(ops).items():
        metrics[key] = (value, "ms")
    metrics["series.evaluate_share"] = (
        tracer.span_ms("series.evaluate", ops) / op_ms, "ratio")
    metrics["quadrature.quadrature_share"] = (
        tracer.span_ms("quadrature.quadrature", ops) / op_ms, "ratio")
    metrics["trace.op_ms"] = (op_ms, "ms")
    metrics["trace.untraced_solves_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_solves_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_frac"] = (untraced_rate / traced_rate - 1.0, "ratio")
    print(f"# traced: {ops} operations, {op_ms:.3f} ms each; untraced "
          f"{untraced_rate:.3f}/s, traced {traced_rate:.3f}/s, overhead "
          f"{100 * (untraced_rate / traced_rate - 1):.1f}%")
    return samples, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the workload, print the time "
                             "it took and exit (used to time set-up in a "
                             "fresh interpreter)")
    args = parser.parse_args(argv)

    if args.setup_only:
        print(json.dumps(set_up(args.workload, args.seed)))
        return 0
    _import_program()
    import workloads
    expected = workloads.load_expected()

    _print_header(args, workloads)
    workload = workloads.build(args.workload, args.seed, expected)
    rng = random.Random(args.seed)
    try:
        if args.trace:
            samples, metrics = per_layer(args, workload, rng)
        else:
            samples, metrics = end_to_end(args, workload, rng)
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    ok = not samples.failures and all(
        isinstance(v, (int, float)) and math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": ok,
        "attempted": samples.attempted,
        "failed": len(samples.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
