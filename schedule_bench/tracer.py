"""Span tracing from outside the program.

The tracer replaces a public function by a timing wrapper under the name
its caller looks it up by (``scheduler`` imports ``update_ema``, ``sketch``
imports ``build_graph``, ...), and puts every name back afterwards.  Spans
are kept in memory, one list per round, and written out when the benchmark
ends.  A span's self time is its duration minus that of its direct children;
calls are single-threaded, so children never overlap.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from songoku import combinators, experiments, scheduler, sim, sketch
from songoku.records import RunRecord

# (module, attribute looked up by the caller, span name)
FUNCTION_SPANS = (
    (scheduler, "update_ema", "grad_stats.update_ema"),
    (scheduler, "tau_eff", "grad_stats.tau_eff"),
    (scheduler, "run", "scheduler.run"),
    (experiments, "run", "scheduler.run"),
    (scheduler, "apply_update", "scheduler.apply_update"),
    (scheduler, "refresh", "scheduler.refresh"),
    (scheduler, "build_graph", "conflict_graph.build_graph"),
    (sketch, "build_graph", "conflict_graph.build_graph"),
    (scheduler, "welsh_powell", "conflict_graph.welsh_powell"),
    (scheduler, "enforce_min_coverage", "conflict_graph.enforce_min_coverage"),
    (combinators, "project_within_group", "combinators.project_within_group"),
    (combinators, "adaptive_scale", "combinators.adaptive_scale"),
    (experiments, "audit_staleness", "experiments.audit_staleness"),
    (experiments, "run_experiment", "experiments.run_experiment"),
    (sim, "sample_gradient", "sim.sample_gradient"),
)
# RunRecord methods are looked up on the class by every caller.
METHOD_SPANS = (
    ("to_csv", "records.to_csv"),
    ("content_hash", "records.content_hash"),
    ("to_summary_json", "records.to_summary_json"),
)


class Tracer:
    def __init__(self):
        self.rounds = []            # per traced round: list of [name, start, end, parent]
        self.counts = []            # per traced round: name -> count
        self._spans = None
        self._stack = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer._spans
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, parent])
            tracer._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                spans[idx][2] = time.perf_counter_ns()

        return traced

    def count(self, key: str, n: float = 1) -> None:
        self._counts[key] += n

    def wrap_builder(self, mode: str, builder):
        """A graph builder timed as the ``sketch.<mode>`` span."""
        return self._wrap(f"sketch.{mode}", builder)

    @contextlib.contextmanager
    def round(self):
        """Trace one round: install every wrapper, restore them afterwards."""
        self._spans, self._stack, self._counts = [], [], defaultdict(float)
        saved = []
        try:
            for module, attr, name in FUNCTION_SPANS:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(name, getattr(module, attr)))
            for attr, name in METHOD_SPANS:
                saved.append((RunRecord, attr, getattr(RunRecord, attr)))
                setattr(RunRecord, attr, self._wrap(name, getattr(RunRecord, attr)))
            saved.extend(self._install_counters())
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.rounds.append(self._spans)
            self.counts.append(dict(self._counts))
            self._spans = None

    def _install_counters(self) -> list:
        """Counting wrappers (no spans) for the useful-work ratios and for
        the estimator spans of graph builders the experiments create."""
        tracer = self
        saved = []
        real_make = experiments.make_graph_builder
        real_es = sketch.edge_sample_graph
        real_build = sketch.build_gram_cache
        real_inc = sketch.incremental_gram

        def make_graph_builder(scfg, *args, **kwargs):
            return tracer.wrap_builder(scfg.mode, real_make(scfg, *args, **kwargs))

        def edge_sample_graph(rho, K, *args, **kwargs):
            sampled = real_es(rho, K, *args, **kwargs)
            tracer.count("sketch.edge_sample.pairs_evaluated", len(sampled.evaluated))
            tracer.count("sketch.edge_sample.pairs_total", K * (K - 1) // 2)
            return sampled

        def build_gram_cache(M, *args, **kwargs):
            tracer.count("sketch.incremental.rows_recomputed", len(M))
            return real_build(M, *args, **kwargs)

        def incremental_gram(cache, M, changed_rows, *args, **kwargs):
            before = tracer._counts["sketch.incremental.rows_recomputed"]
            out = real_inc(cache, M, changed_rows, *args, **kwargs)
            if tracer._counts["sketch.incremental.rows_recomputed"] == before:
                tracer.count("sketch.incremental.rows_recomputed", len(changed_rows))
            return out

        for module, attr, fn in (
            (experiments, "make_graph_builder", make_graph_builder),
            (sketch, "edge_sample_graph", edge_sample_graph),
            (sketch, "build_gram_cache", build_gram_cache),
            (sketch, "incremental_gram", incremental_gram),
        ):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, fn)
        return saved

    @staticmethod
    def self_times(spans) -> dict:
        """name -> (calls, total self ns) for one round's spans."""
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for (name, start, end, _), kids in zip(spans, child_ns):
            calls, ns = out.get(name, (0, 0))
            out[name] = (calls + 1, ns + (end - start - kids))
        return out

    def write(self, fh) -> None:
        """One JSON line per span: round, name, start, end, parent index."""
        for n, spans in enumerate(self.rounds):
            for name, start, end, parent in spans:
                fh.write(json.dumps([n, name, start, end, parent]) + "\n")
