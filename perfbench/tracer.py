"""Layer spans for the traced benchmark run, recorded from outside the program.

Every wrapper replaces a name at the place it is looked up when called: the
modules import the names they use, so ``inv_normal_cdf`` is wrapped on
``sdeweak.schemes`` (where ``run_paths`` finds it), not on
``sdeweak.sampling``.  The Heston vector fields are wrapped on the
``SDEModel`` that ``heston_bench.heston_model`` returns.  Wrappers call the
original with the same arguments and return its result untouched, so a traced
run gives the same bits as an untraced one; the benchmark checks this.

A span records (operation id, name, start, end, parent).  Spans stay in memory
and are written out when the run ends.  The tracer keeps one stack, so it
assumes one thread: the benchmark prices with ``workers: 1``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter, defaultdict

import numpy as np

#: the layers (sdeweak's modules) a span name may start with
LAYERS = ("sampling", "schemes", "rk_integrator", "heston_bench", "moment_match",
          "rk_trees", "freealg", "cli")

#: span names whose time is the benchmark's own, not a layer's
HARNESS = "perfbench.op"


def _rows(y) -> int:
    return int(y.shape[0]) if np.ndim(y) > 1 else 1


class Tracer:
    """Span and counter recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []      # [op id, name, start, end, parent index]
        self.counts: Counter = Counter()  # (op id, counter name) -> total
        self.values: dict = {}            # (op id, value name) -> last value
        self.op_id: int | None = None
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, count=None):
        """``fn`` wrapped in a span; ``count(args, result)`` runs inside it."""
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [self.op_id, name, clock(), 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, result)
                return result
            finally:
                stack.pop()
                record[3] = clock()

        return traced

    def counted(self, name: str, fn):
        """``fn`` with a call counter and no span (for functions called too often)."""

        def counting(*args, **kwargs):
            self.counts[self.op_id, name] += 1
            return fn(*args, **kwargs)

        return counting

    def add(self, name: str, amount) -> None:
        self.counts[self.op_id, name] += amount

    def set(self, name: str, value) -> None:
        self.values[self.op_id, name] = value

    # -- installing the wrappers -------------------------------------------

    def patches(self):
        """(module, attribute, wrapper) for every wrapped call site."""
        from sdeweak import cli, heston_bench, moment_match, sampling, schemes
        from sdeweak.rk_integrator import VectorField

        span, add = self.span, self.add

        def fields(model):
            def wrap(f):
                return VectorField(f.dimension, span("heston_bench.fields", f.func, rows))
            return dataclasses.replace(
                model,
                stratonovich=tuple(wrap(f) for f in model.stratonovich),
                ito_drift=wrap(model.ito_drift),
                fused_combination=span("heston_bench.fields", model.fused_combination, rows))

        def model_factory(fn):
            return lambda *args, **kwargs: fields(fn(*args, **kwargs))

        def rows(args, _):
            add("heston_bench.field_rows", _rows(args[0]))

        def uniforms(args, out):
            add("sampling.uniforms_count", out.size)

        def normals(args, _):
            add("sampling.inv_normal_count", np.size(args[0]))

        def stages(args, _):
            add("rk_integrator.stage_evals", args[0].stages)

        def clamp(args, result):
            add("heston_bench.clamp_sum", result.guard_fraction)
            add("heston_bench.cells", 1)

        def length(counter):
            return lambda args, result: add(counter, len(result))

        def best(args, result):
            self.set("moment_match.search_best", result[0])

        return [
            (cli, "main", span("cli.main", cli.main)),
            (cli, "convergence_study", span("heston_bench.convergence_study",
                                            cli.convergence_study)),
            (cli, "residual_table", span("moment_match.residual_table", cli.residual_table,
                                         length("moment_match.residual_words"))),
            (cli, "check_order", span("rk_trees.check_order", cli.check_order,
                                      length("rk_trees.conditions"))),
            (heston_bench, "price_cell", span("heston_bench.price_cell",
                                              heston_bench.price_cell, clamp)),
            (heston_bench, "heston_model", model_factory(heston_bench.heston_model)),
            (heston_bench, "estimate", span("sampling.estimate", heston_bench.estimate)),
            (heston_bench, "run_paths", span("schemes.run_paths", heston_bench.run_paths)),
            (heston_bench, "asian_payoff", span("heston_bench.payoff",
                                                heston_bench.asian_payoff)),
            (sampling, "sobol_points", span("sampling.sobol", sampling.sobol_points,
                                            uniforms)),
            (sampling, "philox_uniforms", span("sampling.philox", sampling.philox_uniforms,
                                               uniforms)),
            (schemes, "inv_normal_cdf", span("sampling.inv_normal", schemes.inv_normal_cdf,
                                             normals)),
            (schemes, "correlate_pair", span("sampling.correlate", schemes.correlate_pair)),
            (schemes, "nn_step", span("schemes.step", schemes.nn_step)),
            (schemes, "em_step", span("schemes.step", schemes.em_step)),
            (schemes, "nv_step", span("schemes.step", schemes.nv_step)),
            (schemes, "integrate", span("rk_integrator.integrate", schemes.integrate, stages)),
            (moment_match, "words_up_to", span("freealg.words_up_to", moment_match.words_up_to,
                                               length("freealg.words"))),
            (moment_match, "gaussian_moment", self.counted("moment_match.gaussian_moment_calls",
                                                           moment_match.gaussian_moment)),
            (moment_match, "symbolic_expectation", span("moment_match.oracle",
                                                        moment_match.symbolic_expectation)),
            (moment_match, "infeasibility_search", span("moment_match.search",
                                                        moment_match.infeasibility_search,
                                                        best)),
        ]

    def install(self):
        """Put every wrapper in place; returns a function that takes them out again."""
        saved = []
        for module, attr, wrapper in self.patches():
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

        def restore():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    # -- reading the spans -------------------------------------------------

    def totals(self, op_ids) -> tuple[dict, dict, dict]:
        """Inclusive seconds, self seconds and calls per span name over some operations."""
        ops = set(op_ids)
        inclusive: dict = defaultdict(float)
        own: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for op, name, start, end, parent in self.spans:
            if op not in ops:
                continue
            dur = end - start
            inclusive[name] += dur
            own[name] += dur
            calls[name] += 1
            if parent is not None:
                own[self.spans[parent][1]] -= dur
        return inclusive, own, calls

    def count(self, op_ids, name: str):
        return sum(self.counts[op, name] for op in op_ids)

    def value(self, op_ids, name: str, default=0.0):
        found = [self.values[op, name] for op in op_ids if (op, name) in self.values]
        return found[-1] if found else default

    def write(self, path, op_names: dict) -> None:
        """All spans as JSON lines: op id, op name, span name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "op": op, "op_name": op_names.get(op),
                                     "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
