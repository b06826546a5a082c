"""Rounds, checks and estimators of the scheduler benchmark.

Imported by ``run.py`` once the program's source is on the path.
"""
from __future__ import annotations

import contextlib
import gzip
import os
import resource
import shutil
import time

import numpy as np

from checks import check_determinism
from tracer import Tracer
from workloads import WORKLOADS

SPAN_LAYERS = (
    "grad_stats.update_ema", "grad_stats.tau_eff", "scheduler.run",
    "scheduler.apply_update", "scheduler.refresh", "conflict_graph.build_graph",
    "conflict_graph.welsh_powell", "conflict_graph.enforce_min_coverage",
    "combinators.project_within_group", "combinators.adaptive_scale",
    "records.to_csv", "records.content_hash", "records.to_summary_json",
    "experiments.audit_staleness", "sim.sample_gradient",
)
SKETCH_MODES = ("dense", "jl", "fd", "edge_sample", "incremental")
FLOP_KEYS = ("gram_full", "gram_incremental", "jl_project", "jl_gram", "fd_stream",
             "fd_norms", "fd_gram", "edge_sample")


QUANTILE = 75      # see README.md, "Estimators"
PROBE_REF_US = 300.0   # probe step time that the end-to-end times are scaled to


class HostProbe:
    """Fixed work that measures how fast the host runs right now.

    One probe step does what a scheduler step does, without the program:
    an EMA fold of 40 rows of 1024, their dot products, a summed update, a
    norm and some dict and sort work.  A burst of steps runs after every
    timed round; the QUANTILE-th percentile of all the run's probe steps is
    its speed index (see README.md, "Host speed")."""

    STEPS = 120      # per burst

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.standard_normal((40, 1024))
        self.ema = np.zeros_like(self.rows)
        self.theta = np.zeros(1024)
        self.samples = []

    def burst(self) -> None:
        stamps = np.empty(self.STEPS + 1, dtype=np.int64)
        for i in range(self.STEPS):
            stamps[i] = time.perf_counter_ns()
            for k in range(len(self.rows)):
                self.ema[k] *= 0.9
                self.ema[k] += 0.1 * self.rows[k]
                float(self.ema[k] @ self.rows[k])
            total = self.rows.sum(axis=0)
            self.theta -= 0.01 * total
            float(np.linalg.norm(total))
            order = {k: (k, 2 * k) for k in range(len(self.rows))}
            sorted(order, key=lambda k: -order[k][1])
        stamps[-1] = time.perf_counter_ns()
        self.samples.append(np.diff(stamps))

    def step_us(self) -> float:
        return float(np.percentile(np.concatenate(self.samples), QUANTILE)) / 1e3


class Runner:
    """Runs, checks and times the rounds of one workload."""

    def __init__(self, workload, tracer):
        self.wl = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.messages = []
        self.reference = {}          # config -> content hashes of its first round
        self.kind = {}               # config -> (refresh, steady) flags of steps 0..T-2
        self.segments = {}           # (traced, config) -> list of per-round segment ns
        self.layer_rounds = []       # per traced round: metric -> value
        self.probe = HostProbe()

    def cycle(self, timed: bool, traced: bool = False) -> None:
        for config in range(len(self.wl.configs)):
            self.round(config, timed, traced)

    def round(self, config: int, timed: bool, traced: bool) -> None:
        self.attempted += 1
        scope = self.tracer.round() if traced else contextlib.nullcontext()
        try:
            with scope:
                res = self.wl.run_round(config, self.tracer if traced else None)
        except Exception as exc:            # a round that raises is a failed round
            self.failed += 1
            self.messages.append(f"round {self.attempted}: {type(exc).__name__}: {exc}")
            return
        fails = self.wl.check(res)
        ref = self.reference.setdefault(config, res.content_hashes)
        fails += check_determinism(ref, res.content_hashes)
        if fails:
            self.failed += 1
            self.incorrect += 1
            self.messages.extend(f"round {self.attempted}: {m}" for m in fails[:3])
            return
        if config not in self.kind:
            self.kind[config] = step_kinds(res.record, self.wl.tau_star)
        if timed:
            self.segments.setdefault((traced, config), []).append(np.diff(res.stamps))
            self.probe.burst()
        if traced:
            self.layer_rounds.append(layer_values(res, self.tracer))

    def round_ns(self, traced: bool, configs) -> float:
        """Estimated wall time of one round of each of ``configs``: per
        segment, the QUANTILE-th percentile over the run's rounds of that
        configuration, summed."""
        return sum(float(np.percentile(self.segments[(traced, c)], QUANTILE, axis=0).sum())
                   for c in configs)

    def step_ns(self, refresh: bool) -> float:
        """Per timed configuration, the QUANTILE-th percentile of all its
        steady-state step segments of one kind; the median over configurations."""
        per_config = []
        for c in self.wl.timed:
            is_refresh, steady = self.kind[c]
            steps = np.asarray(self.segments[(False, c)])[:, 1:-1]
            per_config.append(np.percentile(steps[:, steady & (is_refresh == refresh)], QUANTILE))
        return float(np.median(per_config))


def step_kinds(record, tau_star: float) -> tuple:
    """For steps 0..T-2: does the step refresh, and is it served by a window
    built at tau_star (the steady state)?"""
    steps = record.steps[:-1]
    refresh = np.array([row.refresh for row in steps])
    starts = [w.t_start for w in record.windows]
    window = np.searchsorted(starts, [row.t for row in steps], side="right") - 1
    steady = np.array([record.windows[n].tau == tau_star for n in window])
    return refresh, steady


def layer_values(res, tracer) -> dict:
    """Per-layer figures of one traced round."""
    spans = tracer.self_times(tracer.rounds[-1])
    counts = tracer.counts[-1]
    rec = res.record
    vals = {}
    for name in SPAN_LAYERS:
        calls, ns = spans.get(name, (0, 0))
        vals[f"{name}.self_ms"] = ns / 1e6
        vals[f"{name}.calls"] = calls
    for mode in SKETCH_MODES:
        calls, ns = spans.get(f"sketch.{mode}", (0, 0))
        vals[f"sketch.{mode}.self_ms"] = ns / 1e6
        vals[f"sketch.{mode}.calls"] = calls
    for key in FLOP_KEYS:
        vals[f"sketch.{key}.flops"] = res.flops.get(key, 0)
    for key in ("edge_sample.pairs_evaluated", "edge_sample.pairs_total",
                "incremental.rows_recomputed"):
        vals[f"sketch.{key}"] = counts.get(f"sketch.{key}", 0)
    vals["sketch.incremental.rows_total"] = vals["sketch.incremental.calls"] * len(rec.windows[0].color_of)
    built = rec.windows[1:]
    parts = [frozenset(frozenset(c) for c in w.classes) for w in rec.windows]
    vals["scheduler.refreshes"] = sum(1 for row in rec.steps if row.refresh)
    vals["scheduler.partition_changes"] = sum(1 for a, b in zip(parts, parts[1:]) if a != b)
    vals["conflict_graph.edges_per_window"] = sum(len(w.edges) for w in built) / max(len(built), 1)
    vals["conflict_graph.colors_per_window"] = sum(w.m for w in built) / max(len(built), 1)
    vals["conflict_graph.extra_placements"] = sum(len(ts) for w in rec.windows for _, ts in w.extra_slots)
    vals["conflict_graph.coverage_failures"] = sum(len(w.coverage_failures) for w in rec.windows)
    vals["records.run_csv_kb"] = res.artifacts["csv_bytes"] / 1000
    vals["records.summary_kb"] = res.artifacts["summary_bytes"] / 1000
    return vals


# per-layer metric -> unit, reported as its mean per traced round
PER_ROUND = (
    ("grad_stats.update_ema.calls", "count"), ("grad_stats.update_ema.self_ms", "ms"),
    ("grad_stats.tau_eff.self_ms", "ms"), ("scheduler.run.self_ms", "ms"),
    ("scheduler.apply_update.self_ms", "ms"), ("scheduler.refresh.self_ms", "ms"),
    ("scheduler.refreshes", "count"), ("scheduler.partition_changes", "count"),
    *((f"sketch.{mode}.self_ms", "ms") for mode in SKETCH_MODES),
    *((f"sketch.{key}.flops", "flop") for key in FLOP_KEYS),
    ("conflict_graph.build_graph.self_ms", "ms"), ("conflict_graph.welsh_powell.self_ms", "ms"),
    ("conflict_graph.enforce_min_coverage.self_ms", "ms"),
    ("conflict_graph.edges_per_window", "count"), ("conflict_graph.colors_per_window", "count"),
    ("conflict_graph.extra_placements", "count"), ("conflict_graph.coverage_failures", "count"),
    ("combinators.project_within_group.self_ms", "ms"),
    ("combinators.project_within_group.calls", "count"),
    ("combinators.adaptive_scale.self_ms", "ms"),
    ("records.to_csv.self_ms", "ms"), ("records.content_hash.self_ms", "ms"),
    ("records.to_summary_json.self_ms", "ms"), ("experiments.audit_staleness.self_ms", "ms"),
    ("sim.sample_gradient.self_ms", "ms"),
    ("records.run_csv_kb", "KB"), ("records.summary_kb", "KB"),
)
# ratio metric -> (numerator, denominator), each summed over the traced rounds
RATIOS = (
    ("scheduler.recolor_useful_ratio", "scheduler.partition_changes", "scheduler.refreshes"),
    ("sketch.edge_sample.pairs_evaluated_ratio",
     "sketch.edge_sample.pairs_evaluated", "sketch.edge_sample.pairs_total"),
    ("sketch.incremental.rows_recomputed_ratio",
     "sketch.incremental.rows_recomputed", "sketch.incremental.rows_total"),
)


def per_layer_metrics(runner: Runner, uniform_step_us: float) -> dict:
    rounds = runner.layer_rounds
    total = {k: sum(r[k] for r in rounds) for k in rounds[0]}
    out = {name: (total[name] / len(rounds), unit) for name, unit in PER_ROUND}
    for name, num, den in RATIOS:
        out[name] = (total[num] / total[den] if total[den] else 0.0, "ratio")
    every = range(len(runner.wl.configs))
    out["trace.overhead_ratio"] = (runner.round_ns(True, every) / runner.round_ns(False, every),
                                   "ratio")
    out["reference.uniform_step_us"] = (uniform_step_us, "us")
    out["host.probe_us"] = (runner.probe.step_us(), "us")
    return out


def uniform_step_us(workload, reps: int = 5) -> float:
    """Step time of the benchmark's own uniform loop (every task, every step,
    summed) over the workload's gradient stream: the QUANTILE-th percentile
    of ``reps`` replays' step times, as for ``step_us``."""
    pool, T, eta = workload.stream()
    P = pool.shape[0]
    samples = []
    for _ in range(reps):
        theta = np.zeros(pool.shape[2])
        stamps = np.empty(T + 1, dtype=np.int64)
        for t in range(T):
            stamps[t] = time.perf_counter_ns()
            theta -= eta * pool[t % P].sum(axis=0)
        stamps[T] = time.perf_counter_ns()
        samples.append(np.diff(stamps))
    return float(np.percentile(np.concatenate(samples), QUANTILE)) / 1e3


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, out_root: str,
                  clock_setup) -> tuple:
    """Set up, warm up, run whole cycles for ``seconds``; returns the result
    object (None when a configuration has no passing timed round), the
    failure messages, and the measured figures behind the scaled ones."""
    work_dir = os.path.join(out_root, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = WORKLOADS[name]()
        workload.setup(seed, work_dir)
        runner = Runner(workload, Tracer())
        runner.round(0, timed=False, traced=False)   # warm-up: first-call costs land in set-up
        setup_s = clock_setup()
        deadline = time.perf_counter() + seconds
        n = 0
        while True:
            # a traced run alternates untraced and traced cycles
            runner.cycle(timed=True, traced=trace and n % 2 == 1)
            n += 1
            if time.perf_counter() >= deadline and (not trace or n >= 2):
                break
        timed = {c for _, c in runner.segments}
        if len(timed) < len(workload.configs) or (trace and not runner.layer_rounds):
            return None, runner.messages + ["error: some configuration has no passing timed round"], {}
        measured = {}
        if trace:
            metrics = per_layer_metrics(runner, uniform_step_us(workload))
            with gzip.open(os.path.join(out_root, f"{name}-seed{seed}-spans.jsonl.gz"), "wt") as fh:
                runner.tracer.write(fh)
        else:
            T = workload.T * len(workload.timed)
            measured = {
                "steps_per_s": (T / (runner.round_ns(False, workload.timed) / 1e9), "steps/s"),
                "step_us": (runner.step_ns(refresh=False) / 1e3, "us"),
                "refresh_ms": (runner.step_ns(refresh=True) / 1e6, "ms"),
                "host.probe_us": (runner.probe.step_us(), "us"),
            }
            # times at the reference host speed: see README.md, "Host speed"
            slow = measured["host.probe_us"][0] / PROBE_REF_US
            metrics = {
                "steps_per_s": (measured["steps_per_s"][0] * slow, "steps/s"),
                "step_us": (measured["step_us"][0] / slow, "us"),
                "refresh_ms": (measured["refresh_ms"][0] / slow, "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": runner.incorrect == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, runner.messages, measured
