"""Workload inputs and one benchmark round per workload.

A workload owns its inputs (generated from the benchmark seed in ``setup``)
and a list of configurations that its rounds rotate through.  One round is
one operation: a scheduler ``run()`` with its artifact render, or one
``staleness_audit`` experiment.  Every round returns a ``RoundResult`` that
carries the outputs the checks need and the timestamps the estimators need.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from songoku import experiments, scheduler, sim

import checks
from songoku.config import parse_config
from songoku.scheduler import SchedulerConfig
from songoku.sketch import FlopCounter, SketchConfig, make_graph_builder

SEED_STRIDE = 1_000_003   # keeps the suite, pool and scheduler seeds apart
BETA = 0.9                # EMA factor of the scheduler
M0 = 1.0                  # planted means' base norm
ETA = 0.01                # step size of the run() workloads
POOL_PERIODS = 2          # gradient pool length, in refresh periods
COMBINATOR = "project_and_scale"


@dataclass
class RoundResult:
    config: int                      # index into the workload's configs
    record: object                   # songoku.records.RunRecord
    stamps: np.ndarray               # segment boundaries, perf_counter_ns
    content_hashes: tuple            # what the determinism check compares
    flops: dict = field(default_factory=dict)
    served: list | None = None       # run() workloads: oracle segments
    artifacts: dict = field(default_factory=dict)


class PoolOracle:
    """Serves pre-generated gradient rows: task k at clock value t gets
    ``mu[k] + noise[t % P, k]``.  It only indexes rows; it never draws.

    ``set_time`` (which ``scheduler.run`` calls at every step start and
    before each refresh's probes) takes a timestamp and opens a segment; the
    first ``gradient`` call of a segment snapshots the theta it is given.
    """

    def __init__(self, rows: np.ndarray):
        self.rows = rows                       # (P, K, d) float64
        self.period = rows.shape[0]
        self.reset()

    def reset(self) -> None:
        self.clock = []                        # (clock value, perf_counter_ns)
        self.segments = []                     # [clock value, theta, tasks]
        self._row = None

    def set_time(self, t: int) -> None:
        self.clock.append((t, time.perf_counter_ns()))
        self.segments.append([t, None, []])
        self._row = self.rows[t % self.period]

    def gradient(self, task: int, theta, rng):
        seg = self.segments[-1]
        if seg[1] is None:
            seg[1] = theta.copy()
        seg[2].append(task)
        return self._row[task]

    def loss(self, theta) -> float:
        return 0.0


class StampedPlantedOracle(sim.PlantedOracle):
    """The program's own planted oracle plus a ``set_time`` timestamp hook."""

    def __init__(self, suite):
        super().__init__(suite)
        self.clock = []

    def set_time(self, t: int) -> None:
        self.clock.append((t, time.perf_counter_ns()))


def _render(record) -> dict:
    csv_text = record.to_csv()
    digest = record.content_hash()
    summary = record.to_summary_json()
    return {"csv": csv_text, "hash": digest, "summary": summary}


class RunWorkload:
    """``scheduler.run`` on a planted suite served from a pre-generated pool."""

    def __init__(self, K, d, groups, tau, gamma, sigma, R, f_min, T):
        self.params = dict(K=K, d=d, groups=groups, tau=tau, gamma=gamma,
                           sigma=sigma, R=R, f_min=f_min, T=T)
        self.configs = ("dense",)
        self.timed = (0,)
        self.tau_star = tau

    def setup(self, seed: int, out_dir: str) -> None:
        p = self.params
        self.suite = sim.make_planted_suite(
            K=p["K"], d=p["d"], groups=p["groups"], tau=p["tau"],
            gamma=p["gamma"], sigma=p["sigma"], m0=M0, seed=seed,
        )
        rng = np.random.default_rng(seed + SEED_STRIDE)
        P = POOL_PERIODS * p["R"]
        noise = rng.standard_normal((P, p["K"], p["d"]))
        self.pool = self.suite.mu[None, :, :] + p["sigma"] * noise
        self.oracle = PoolOracle(self.pool)
        self.truth = checks.planted_edges(self.suite.mu, p["tau"])
        self.sched_cfg = SchedulerConfig(
            K=p["K"], d=p["d"], T=p["T"], R=p["R"], beta=BETA,
            tau_star=p["tau"], f_min=p["f_min"], eta=ETA,
            seed=seed + 2 * SEED_STRIDE,
        )
        self.T = p["T"]

    def stream(self) -> tuple:
        """(gradient rows, steps, eta) for the uniform reference loop."""
        return self.pool, self.T, ETA

    def run_round(self, config: int, tracer=None) -> RoundResult:
        counter = FlopCounter()
        builder = make_graph_builder(SketchConfig(mode="dense"), counter=counter,
                                     seed=self.sched_cfg.seed)
        if tracer is not None:
            builder = tracer.wrap_builder("dense", builder)
        oracle = self.oracle
        oracle.reset()
        start = time.perf_counter_ns()
        record = scheduler.run(self.sched_cfg, oracle, graph_builder=builder)
        art = _render(record)
        end = time.perf_counter_ns()
        return RoundResult(
            config=config,
            record=record,
            stamps=segment_bounds(start, oracle.clock, end, self.T),
            content_hashes=(art["hash"],),
            flops=counter.as_dict(),
            served=oracle.segments,
            artifacts={"csv_bytes": len(art["csv"]),
                       "summary_bytes": len(art["summary"])},
        )

    def check(self, res: RoundResult) -> list:
        p, rec = self.params, res.record
        act = checks.activity(rec.steps, p["K"])
        return (
            checks.check_planted_truth(rec.windows, self.truth, p["tau"])
            + checks.check_proper_schedule(rec.windows, act)
            + checks.check_welsh_powell_bound(rec.windows, p["K"])
            + checks.check_coverage(rec.windows, act, p["f_min"])
            + checks.check_staleness(rec.windows, act)
            + checks.check_update_identity(rec.steps, res.served, self.pool, ETA)
        )


class AuditWorkload:
    """The CLI's default experiment, in process, rotating the estimator.

    Rounds of ``untimed_modes`` come after those of ``sketch_modes`` in every
    cycle.  Their graphs are not held to the planted truth and their times
    stay out of the end-to-end estimators; they are run so that the traced
    run measures those estimators too.
    """

    def __init__(self, K, d, groups, tau, gamma, sigma, R, f_min, T,
                 sketch_modes, untimed_modes=()):
        self.params = dict(K=K, d=d, groups=groups, tau=tau, gamma=gamma,
                           sigma=sigma, R=R, f_min=f_min, T=T)
        self.configs = tuple(sketch_modes) + tuple(untimed_modes)
        self.timed = tuple(range(len(sketch_modes)))
        self.tau_star = tau

    def setup(self, seed: int, out_dir: str) -> None:
        p = self.params
        self.out_dir = out_dir
        self.cfgs = [
            parse_config(None, {
                "experiment": "staleness_audit", "seed": seed, "K": p["K"],
                "d": p["d"], "steps": p["T"], "R": p["R"], "beta": BETA,
                "tau_star": p["tau"], "gamma": p["gamma"], "sigma": p["sigma"],
                "m0": M0, "groups": p["groups"], "f_min": p["f_min"],
                "combinator_mode": COMBINATOR, "sketch_mode": mode,
            })
            for mode in self.configs
        ]
        self.suite = sim.make_planted_suite(
            K=p["K"], d=p["d"], groups=p["groups"], tau=p["tau"],
            gamma=p["gamma"], sigma=p["sigma"], m0=M0, seed=seed,
        )
        self.truth = checks.planted_edges(self.suite.mu, p["tau"])
        self.T = p["T"]

    def stream(self) -> tuple:
        """(gradient rows, steps, eta) for the uniform reference loop: the
        planted means plus noise of the experiment's sigma."""
        p = self.params
        rng = np.random.default_rng(self.cfgs[0]["seed"] + SEED_STRIDE)
        noise = rng.standard_normal((2 * p["R"], p["K"], p["d"]))
        return self.suite.mu[None, :, :] + p["sigma"] * noise, self.T, self.cfgs[0]["eta"]

    def run_round(self, config: int, tracer=None) -> RoundResult:
        cfg = self.cfgs[config]
        exp_dir = os.path.join(self.out_dir, f"staleness_audit-{cfg['sketch_mode']}")
        records, oracles = [], []
        real_run = experiments.run
        real_oracle = experiments.PlantedOracle

        def capturing_run(*args, **kwargs):
            records.append(real_run(*args, **kwargs))
            return records[-1]

        def stamped_oracle(suite):
            oracles.append(StampedPlantedOracle(suite))
            return oracles[-1]

        experiments.run = capturing_run
        experiments.PlantedOracle = stamped_oracle
        try:
            start = time.perf_counter_ns()
            summary = experiments.run_experiment("staleness_audit", cfg, exp_dir)
            end = time.perf_counter_ns()
        finally:
            experiments.run = real_run
            experiments.PlantedOracle = real_oracle
        (record,) = records
        (oracle,) = oracles
        with open(os.path.join(exp_dir, "run_record.csv")) as fh:
            run_csv = fh.read()
        summary_bytes = os.path.getsize(os.path.join(exp_dir, "summary.json"))
        return RoundResult(
            config=config,
            record=record,
            stamps=segment_bounds(start, oracle.clock, end, self.T),
            content_hashes=(summary["content_hash"],
                            summary["results"]["run_content_hash"]),
            flops=dict(summary["results"]["flops"]),
            artifacts={"csv_bytes": len(run_csv), "summary_bytes": summary_bytes,
                       "run_csv": run_csv, "max_gap": summary["results"]["max_gap"]},
        )

    def check(self, res: RoundResult) -> list:
        p, rec = self.params, res.record
        act = checks.activity(rec.steps, p["K"])
        truth = (checks.check_planted_truth(rec.windows, self.truth, p["tau"])
                 if res.config in self.timed else [])
        return (
            truth
            + checks.check_proper_schedule(rec.windows, act)
            + checks.check_welsh_powell_bound(rec.windows, p["K"])
            + checks.check_coverage(rec.windows, act, p["f_min"])
            + checks.check_staleness(rec.windows, act)
            + checks.check_audit_gap(res.artifacts["run_csv"], res.artifacts["max_gap"])
        )


def segment_bounds(start: int, clock: list, end: int, T: int) -> np.ndarray:
    """Boundaries of the segments [pre, step 0, ..., step T-2, post].

    ``run`` calls ``set_time(t)`` at the start of step t, and ``set_time(t+1)``
    once more before a refresh's probes, so the start of step t is the last
    stamp carrying the value t.  The final step's end is not stamped: it
    falls into ``post`` together with whatever the round does after ``run``.
    """
    values = np.fromiter((v for v, _ in clock), dtype=np.int64, count=len(clock))
    ns = np.fromiter((n for _, n in clock), dtype=np.int64, count=len(clock))
    last = np.append(values[1:] != values[:-1], True)
    starts = ns[last & (values < T)]
    if len(starts) != T:
        raise ValueError(f"clock stamps give {len(starts)} step starts, expected {T}")
    return np.concatenate(([start], starts, [end]))


WORKLOADS = {
    "steps_k40_d1024": lambda: RunWorkload(
        K=40, d=1024, groups=4, tau=0.2, gamma=0.1,
        sigma=0.02, R=32, f_min=1, T=1024),
    "audit_k64_d512": lambda: AuditWorkload(
        K=64, d=512, groups=4, tau=0.2, gamma=0.1,
        sigma=0.02, R=16, f_min=2, T=256,
        sketch_modes=("fd", "edge_sample", "incremental"), untimed_modes=("jl",)),
}
