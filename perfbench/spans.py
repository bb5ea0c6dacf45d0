"""Outside-in tracing: spans around the calls into feyngkz's public functions.

The traced run replaces each public function, as its caller looks it up,
with a wrapper that times the call; nothing under ``src/`` changes and the
originals are put back afterwards.  Spans nest through a stack, so a span's
self time is its duration minus the time of the spans it caused.  Spans are
aggregated by name in memory (calls, inclusive and self seconds, and a size
count where the return value has one), because the series layer alone makes
tens of thousands of calls per operation.
"""

from __future__ import annotations

import importlib
import math
import time
from typing import Callable, Dict, List, Optional

from feyngkz import cli, constants, gkz, graphs, pipeline, pochhammer, series

# The package re-exports the function quadrature() under the module's name.
quadrature_module = importlib.import_module("feyngkz.quadrature")

LAYERS = ("graphs", "gkz", "intlinalg", "groebner", "series", "pochhammer",
          "constants", "quadrature", "pipeline", "cli")


class Span:
    __slots__ = ("calls", "total_s", "self_s", "count")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.count = 0


class Tracer:
    """Installs the span wrappers; ``restore`` takes them out again."""

    def __init__(self):
        self.spans: Dict[str, Span] = {}
        self.series_calls: Dict[tuple, list] = {}
        self.quadrature_calls: List[tuple] = []
        self.margins: List[float] = []
        self.tolerance = 0.0        # tolerance of the operation now running
        self._stack: List[List[float]] = []
        self._saved: List[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable,
              size: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if size is not None:
                span.count += size(result)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, **hooks):
        raw = vars(owner)[attr]
        self._saved.append((owner, attr, raw))
        wrapper = self._wrap(name, getattr(owner, attr), **hooks)
        if isinstance(raw, classmethod):
            wrapper = staticmethod(wrapper)     # the original is already bound
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every layer boundary the workloads cross."""
        self._patch(pipeline, "run", "pipeline.run")
        self._patch(cli, "main", "cli.main")
        self._patch(graphs, "symanzik", "graphs.symanzik",
                    size=lambda r: len(r[2].terms))
        self._patch(gkz, "deform", "gkz.deform")
        self._patch(gkz, "toric_matrix", "gkz.toric_matrix")
        self._patch(gkz, "kernel_basis", "intlinalg.kernel_basis", size=len)
        self._patch(gkz, "integer_rank", "intlinalg.integer_rank")
        self._patch(gkz, "toric_ideal", "gkz.toric_ideal", size=len)
        self._patch(gkz, "saturate_all_variables", "groebner.saturate_all_variables")
        self._patch(gkz, "interreduce", "groebner.interreduce")
        self._patch(gkz, "buchberger", "groebner.buchberger")
        self._patch(gkz, "initial_ideal", "gkz.initial_ideal", size=len)
        self._patch(gkz, "standard_pairs", "gkz.standard_pairs", size=len)
        self._patch(gkz, "fake_exponents", "gkz.fake_exponents", size=len)
        self._patch(series.CanonicalSeries, "__init__", "series.build")
        self._patch(series.CanonicalSeries, "classify", "series.classify")
        self._patch(series.CanonicalSeries, "evaluate", "series.evaluate",
                    after=self._record_series)
        self._patch(series, "term_coefficient", "series.term_coefficient")
        product = pochhammer.PochhammerProduct
        self._patch(product, "falling", "pochhammer.falling")
        self._patch(product, "make", "pochhammer.make")
        self._patch(product, "__mul__", "pochhammer.mul")
        self._patch(product, "evaluate", "pochhammer.evaluate")
        self._patch(pipeline, "gamma_constant", "constants.gamma_constant")
        self._patch(constants.SolutionBundle, "evaluate", "constants.bundle_evaluate")
        self._patch(constants.SolutionBundle, "constant_values",
                    "constants.constant_values")
        self._patch(constants, "deformation_limit_probe",
                    "constants.deformation_limit_probe")
        self._patch(pipeline, "quadrature", "quadrature.quadrature",
                    after=self._record_quadrature)
        self._patch(quadrature_module, "convergence_margin", "quadrature.convergence_margin",
                    after=lambda args, margin: self.margins.append(margin))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- what the wrappers keep for the per-layer ratios --------------------

    def _record_series(self, args, result):
        phi, assignment, coeffs, order = args
        key = (id(phi), order, tuple(coeffs), tuple(sorted(assignment.items())),
               self.tolerance)
        entry = self.series_calls.get(key)
        if entry is None:
            self.series_calls[key] = [phi, dict(assignment), list(coeffs), order,
                                      self.tolerance, result, 1]
        else:
            entry[-1] += 1

    def _record_quadrature(self, args, result):
        self.quadrature_calls.append((args[0].target_tolerance, result))

    # -- summaries -----------------------------------------------------------

    def series_waste(self) -> Dict[str, float]:
        """Terms summed, share of the enumerated box that is nonzero, share of
        summed terms above tolerance*|sum|, and the worst relative tail, over
        every distinct CanonicalSeries.evaluate call (weighted by calls).
        Runs after the timed loop: it re-enumerates each series once."""
        calls = terms = box = useful = 0
        tail_rel = 0.0
        for phi, assignment, coeffs, order, tol, result, n in self.series_calls.values():
            enumerated = phi.enumerate_terms(order)
            values = []
            for term in enumerated:
                value = term.coefficient.evaluate(assignment)
                for c, e in zip(coeffs, term.shift):
                    value *= c ** e
                values.append(value)
            total = abs(sum(values))
            calls += n
            terms += n * len(values)
            box += n * (2 * order + 1) ** phi.rank
            useful += n * sum(1 for v in values if abs(v) > tol * total)
            value, tail = result
            if value:
                tail_rel = max(tail_rel, abs(tail / value))
        return {
            "series.terms": terms / calls if calls else 0.0,
            "series.nonzero_frac": terms / box if box else 0.0,
            "series.useful_term_frac": useful / terms if terms else 0.0,
            "series.tail_rel": tail_rel,
        }

    def quadrature_summary(self) -> Dict[str, float]:
        results = self.quadrature_calls
        if not results:
            return {"quadrature.nodes": 0.0, "quadrature.rel_error": 0.0,
                    "quadrature.target_met": 0.0, "quadrature.margin": 0.0}
        rel = [r.error / abs(r.value) for _, r in results]
        met = [r.error <= target * abs(r.value) for target, r in results]
        return {
            "quadrature.nodes": sum(r.nodes for _, r in results) / len(results),
            "quadrature.rel_error": max(rel) if all(map(math.isfinite, rel)) else math.inf,
            "quadrature.target_met": sum(met) / len(met),
            "quadrature.margin": min(self.margins) if self.margins else 0.0,
        }

    def layer_self_ms(self, operations: int) -> Dict[str, float]:
        out = {f"{layer}.self_ms": 0.0 for layer in LAYERS}
        for name, span in self.spans.items():
            out[f"{name.split('.')[0]}.self_ms"] += 1e3 * span.self_s / operations
        return out

    def span_ms(self, name: str, operations: int) -> float:
        span = self.spans.get(name)
        return 1e3 * span.total_s / operations if span else 0.0

    def span_count(self, name: str) -> float:
        span = self.spans.get(name)
        return span.count / span.calls if span and span.calls else 0.0
