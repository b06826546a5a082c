"""Experiment drivers behind the CLI: each produces run.csv + summary.json
(bench also writes bench.csv) under the output directory.

Every summary embeds the full effective config and a content hash over the
CSV artifact plus the config, so results are traceable to their inputs.
"""
from __future__ import annotations

import math
import os

import numpy as np

from .combinators import CombinatorConfig
from .config import EXPERIMENTS
from .conflict_graph import ConflictGraph
from .grad_stats import beta_for_effective_sample_size
from .records import RunRecord, activity, artifact_hash, to_json
from .scheduler import SchedulerConfig, run
from .sim import (
    DriftingOracle,
    DriftingSuite,
    PlantedOracle,
    convergence_experiment,
    default_power_well,
    make_planted_suite,
    recovery_rate,
    reference_block_diagonal_instance,
    reference_negative_cross_instance,
    required_effective_sample_size,
    strict_improvement_check,
    true_graph,
)
from .sketch import FlopCounter, SketchConfig, make_graph_builder
from .bench import BenchConfig, run_bench


def run_experiment(name: str, cfg: dict, out_dir: str) -> dict:
    """Dispatch to the named driver; writes artifacts and returns the summary."""
    drivers = {
        "recovery_curve": _recovery_curve,
        "sched_vs_agg": _sched_vs_agg,
        "convergence": _convergence,
        "ablation_static": _ablation_static,
        "ablation_singlestep": _ablation_singlestep,
        "staleness_audit": _staleness_audit,
        "bench": _bench,
    }
    if name not in drivers:
        raise ValueError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        )
    os.makedirs(out_dir, exist_ok=True)
    return drivers[name](cfg, out_dir)


def _write_summary(out_dir: str, name: str, cfg: dict, results: dict, csv_text: str) -> dict:
    summary = {
        "schema": "summary v1",
        "experiment": name,
        "config": cfg,
        "results": results,
        "content_hash": artifact_hash(csv_text, cfg),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        fh.write(to_json(summary))
    return summary


def _write_csv(out_dir: str, text: str, filename: str = "run.csv") -> None:
    with open(os.path.join(out_dir, filename), "w") as fh:
        fh.write(text)


def _scheduler_config(cfg: dict, **overrides) -> SchedulerConfig:
    kw = dict(
        K=cfg["K"],
        d=cfg["d"],
        T=cfg["steps"],
        R=cfg["R"],
        beta=cfg["beta"],
        tau_star=cfg["tau_star"],
        T_warm=cfg["T_warm"],
        f_min=cfg["f_min"],
        eta=cfg["eta"],
        eta_rule=cfg["eta_rule"],
        anneal_a=cfg["anneal_a"],
        anneal_horizon=cfg["anneal_horizon"],
        seed=cfg["seed"],
        permute_classes=cfg["permute_classes"],
    )
    kw.update(overrides)
    return SchedulerConfig(**kw)


def _combinators(cfg: dict) -> CombinatorConfig | None:
    if cfg["combinator_mode"] == "none":
        return None
    return CombinatorConfig(
        mode=cfg["combinator_mode"],
        scale_ema_beta=cfg["scale_ema_beta"],
        scale_floor=cfg["scale_floor"],
    )


def _planted_suite(cfg: dict, **overrides):
    """The config's planted suite; ``overrides`` replace its keyword arguments."""
    kw = dict(K=cfg["K"], d=cfg["d"], groups=cfg["groups"], tau=cfg["tau_star"],
              gamma=cfg["gamma"], sigma=cfg["sigma"], m0=cfg["m0"], seed=cfg["seed"])
    return make_planted_suite(**dict(kw, **overrides))


def _builder(cfg: dict, counter: FlopCounter):
    scfg = SketchConfig(
        mode=cfg["sketch_mode"],
        r=cfg["sketch_r"],
        ell=cfg["sketch_ell"],
        epsilon=cfg["sketch_epsilon"],
        pair_budget=cfg["pair_budget"],
        change_threshold=cfg["change_threshold"],
        rebuild_every=cfg["rebuild_every"],
    )
    return make_graph_builder(scfg, counter=counter, seed=cfg["seed"])


# ---------------------------------------------------------------------------
# Recovery curve


def _recovery_curve(cfg: dict, out_dir: str) -> dict:
    suite = _planted_suite(cfg)
    req = required_effective_sample_size(suite, delta=cfg["delta"])
    targets = [max(1.0, req * f) for f in (0.01, 0.05, 0.2, 1.0, 4.0)]
    lines = ["# recovery_curve v1", "n_eff,beta,R,trials,successes,rate,ci_low,ci_high"]
    curve = []
    for i, n_eff in enumerate(targets):
        R = max(8, math.ceil(2 * n_eff))
        beta = beta_for_effective_sample_size(n_eff, R)
        res = recovery_rate(
            suite, beta, R, cfg["tau_star"], trials=cfg["trials"],
            seed=cfg["seed"] + 7919 * i,
        )
        lo, hi = res.wilson_interval()
        curve.append({"n_eff": n_eff, "beta": beta, "R": R, "rate": res.rate})
        lines.append(
            f"{n_eff!r},{beta!r},{R},{res.trials},{res.successes},"
            f"{res.rate!r},{lo!r},{hi!r}"
        )
    csv_text = "\n".join(lines) + "\n"
    _write_csv(out_dir, csv_text)
    rates = [pt["rate"] for pt in curve]
    results = {
        "required_n_eff": req,
        "curve": curve,
        "monotone_nondecreasing": all(
            rates[i] <= rates[i + 1] + 1e-12 for i in range(len(rates) - 1)
        ),
    }
    return _write_summary(out_dir, "recovery_curve", cfg, results, csv_text)


# ---------------------------------------------------------------------------
# Scheduled vs aggregated


def _sched_vs_agg(cfg: dict, out_dir: str) -> dict:
    lines = [
        "# sched_vs_agg v1",
        "instance,lhs,rhs,condition_holds,loss_scheduled,loss_aggregated,gap",
    ]
    results = {}
    for label, ctor in (
        ("negative_cross", reference_negative_cross_instance),
        ("block_diagonal", reference_block_diagonal_instance),
    ):
        quad, groups, theta0, eta = ctor()
        report = strict_improvement_check(quad, theta0, groups, eta)
        gap = report["loss_scheduled"] - report["loss_aggregated"]
        lines.append(
            f"{label},{report['lhs']!r},{report['rhs']!r},"
            f"{int(report['holds'])},{report['loss_scheduled']!r},"
            f"{report['loss_aggregated']!r},{gap!r}"
        )
        results[label] = {
            "lhs": report["lhs"],
            "rhs": report["rhs"],
            "condition_holds": report["holds"],
            "loss_gap": gap,
        }
    csv_text = "\n".join(lines) + "\n"
    _write_csv(out_dir, csv_text)
    return _write_summary(out_dir, "sched_vs_agg", cfg, results, csv_text)


# ---------------------------------------------------------------------------
# Convergence trend


def _convergence(cfg: dict, out_dir: str) -> dict:
    well, classes = default_power_well()
    lines = ["# convergence v1", "variant,T,min_grad_sq"]
    results = {}
    for variant in ("randomized", "cyclic"):
        rep = convergence_experiment(
            well, classes, n_seeds=20, seed=cfg["seed"], variant=variant
        )
        for T, value in zip(rep["T_grid"], rep["min_grad_sq"]):
            lines.append(f"{variant},{T},{value!r}")
        results[variant] = {"slope": rep["slope"], "min_grad_sq": rep["min_grad_sq"]}
    csv_text = "\n".join(lines) + "\n"
    _write_csv(out_dir, csv_text)
    return _write_summary(out_dir, "convergence", cfg, results, csv_text)


# ---------------------------------------------------------------------------
# Ablations


def _drifting_world(cfg: dict) -> tuple:
    base = _planted_suite(cfg, groups=2, sigma=0.0)
    flip_time = cfg["flip_time"]
    if flip_time is None:
        flip_time = (cfg["steps"] // 2 // cfg["R"]) * cfg["R"]
    if flip_time % cfg["R"] != 0:
        raise ValueError(
            f"flip_time={flip_time} must align with a refresh boundary (R={cfg['R']})"
        )
    flip_task = min(3, cfg["K"] - 1)
    return DriftingSuite(base=base, flip_task=flip_task, flip_time=flip_time), flip_time


def count_true_edge_violations(
    record: RunRecord, graph_at, from_t: int = 0
) -> int:
    """Steps whose active set contains an edge of the *current* true graph."""
    steps = [row for row in record.steps if row.t >= from_t]
    graphs = [graph_at(row.t) for row in steps]
    act = activity(steps, graphs[0].n_vertices if graphs else 0)
    return sum(bool(g.adj[a][:, a].any()) for g, a in zip(graphs, act))


def _ablation_static(cfg: dict, out_dir: str) -> dict:
    suite, flip_time = _drifting_world(cfg)
    records = {}
    for arm, frozen in (("static", True), ("dynamic", False)):
        sched_cfg = _scheduler_config(cfg, freeze_after_first_coloring=frozen)
        records[arm] = run(sched_cfg, DriftingOracle(suite), combinators=_combinators(cfg))
    measure_from = flip_time + cfg["R"]
    counts = {
        arm: count_true_edge_violations(rec, suite.true_graph_at, from_t=measure_from)
        for arm, rec in records.items()
    }
    csv_text = records["static"].to_csv()
    _write_csv(out_dir, csv_text)
    _write_csv(out_dir, records["dynamic"].to_csv(), "run_dynamic.csv")
    results = {
        "flip_time": flip_time,
        "measured_from": measure_from,
        "stale_violations": counts,
        "static_exceeds_dynamic": counts["static"] > counts["dynamic"],
    }
    return _write_summary(out_dir, "ablation_static", cfg, results, csv_text)


def canonical_partition(classes) -> str:
    parts = sorted((tuple(sorted(c)) for c in classes), key=lambda p: p[0] if p else -1)
    return "|".join(",".join(str(v) for v in part) for part in parts)


def _stable_windows(record: RunRecord, tau_star: float, gamma: float) -> list:
    """Windows whose threshold sits inside the margin-stable band, where the
    population conflict graph is unambiguous."""
    lo, hi = tau_star - gamma, tau_star + gamma
    return [w for w in record.windows if lo < w.tau < hi]


def partition_instability(windows) -> float:
    """Fraction of consecutive window pairs whose grouping differs."""
    if len(windows) < 2:
        return 0.0
    parts = [canonical_partition(w.classes) for w in windows]
    changed = sum(1 for a, b in zip(parts, parts[1:]) if a != b)
    return changed / (len(parts) - 1)


def window_recovery_fraction(windows, truth: ConflictGraph) -> float:
    if not windows:
        return 0.0
    hits = sum(1 for w in windows if frozenset(w.edges) == truth.edges)
    return hits / len(windows)


def _ablation_singlestep(cfg: dict, out_dir: str) -> dict:
    suite = _planted_suite(cfg)
    truth = true_graph(suite)
    lines = ["# ablation_singlestep v1", "arm,r,t_start,tau,partition,matches_truth"]
    results = {}
    for arm, beta in (("full_history", cfg["beta"]), ("single_step", 0.0)):
        sched_cfg = _scheduler_config(cfg, beta=beta)
        record = run(sched_cfg, PlantedOracle(suite), combinators=_combinators(cfg))
        windows = _stable_windows(record, cfg["tau_star"], cfg["gamma"])
        for w in windows:
            lines.append(
                f"{arm},{w.r},{w.t_start},{w.tau!r},"
                f"{canonical_partition(w.classes)},"
                f"{int(frozenset(w.edges) == truth.edges)}"
            )
        results[arm] = {
            "beta": beta,
            "windows": len(windows),
            "instability": partition_instability(windows),
            "recovery_fraction": window_recovery_fraction(windows, truth),
        }
    results["singlestep_less_stable"] = (
        results["single_step"]["instability"] > results["full_history"]["instability"]
    )
    results["singlestep_recovers_less"] = (
        results["single_step"]["recovery_fraction"]
        < results["full_history"]["recovery_fraction"]
    )
    csv_text = "\n".join(lines) + "\n"
    _write_csv(out_dir, csv_text)
    return _write_summary(out_dir, "ablation_singlestep", cfg, results, csv_text)


# ---------------------------------------------------------------------------
# Staleness audit


def window_step_ranges(record: RunRecord) -> list:
    """(window, t_start, t_end) triples covering the run's step range."""
    out = []
    T = len(record.steps)
    for i, w in enumerate(record.windows):
        t_end = record.windows[i + 1].t_start if i + 1 < len(record.windows) else T
        if w.t_start < t_end:
            out.append((w, w.t_start, t_end))
    return out


def audit_staleness(record: RunRecord) -> dict:
    """Per-window inter-update gaps checked against the slot-count bound.

    Every scheduled task appears at least once per period, so the gap between
    consecutive activations inside one window must be <= m - 1 skipped steps;
    m - 1 is itself bounded by the window graph's max degree.  Cross-window
    gaps are reported but not bounded (regrouping may reshuffle slots).
    Rows list each window's active tasks in order of first activation.
    """
    act = activity(record.steps, record.config["K"])
    ranges = window_step_ranges(record)
    rows = []
    ok = True
    for w, t_start, t_end in ranges:
        order, gaps = _activations(act[t_start:t_end])
        ends = np.asarray(w.edges, dtype=np.intp).reshape(-1)
        delta = int(np.bincount(ends, minlength=len(w.color_of)).max(initial=0))
        rows += [
            {"r": w.r, "task": int(k), "max_gap": max(int(gaps[k]), 0),
             "bound": w.m - 1, "delta": delta}
            for k in order
        ]
        if (gaps > w.m - 1).any() or (w.m - 1 > delta and w.edges):
            ok = False
    _, cross = _activations(act[ranges[0][1] if ranges else len(act):])
    return {
        "rows": rows,
        "max_gap": max((row["max_gap"] for row in rows), default=0),
        "max_cross_window_gap": int(cross.max(initial=0)),
        "within_window_ok": ok,
    }


def _activations(act: np.ndarray) -> tuple:
    """For a (steps, K) activity block: the tasks active in it, by first
    activation with ties by ascending task, and per task the most steps
    skipped between two consecutive activations (-1 if active at most once)."""
    k, t = np.nonzero(act.T)                # ordered by task, then step
    first = np.diff(k, prepend=-1) != 0
    gaps = np.full(act.shape[1], -1)
    np.maximum.at(gaps, k[~first], np.diff(t, prepend=0)[~first] - 1)
    return k[first][np.argsort(t[first], kind="stable")], gaps


def _staleness_audit(cfg: dict, out_dir: str) -> dict:
    suite = _planted_suite(cfg)
    counter = FlopCounter()
    record = run(
        _scheduler_config(cfg),
        PlantedOracle(suite),
        combinators=_combinators(cfg),
        graph_builder=_builder(cfg, counter),
    )
    audit = audit_staleness(record)
    lines = ["# staleness_audit v1", "r,task,max_gap,bound,delta"]
    for row in audit["rows"]:
        lines.append(
            f"{row['r']},{row['task']},{row['max_gap']},{row['bound']},{row['delta']}"
        )
    csv_text = "\n".join(lines) + "\n"
    _write_csv(out_dir, csv_text)
    _write_csv(out_dir, record.to_csv(), "run_record.csv")
    results = {
        "max_gap": audit["max_gap"],
        "max_cross_window_gap": audit["max_cross_window_gap"],
        "within_window_ok": audit["within_window_ok"],
        "flops": counter.as_dict(),
        "run_content_hash": record.content_hash(),
    }
    return _write_summary(out_dir, "staleness_audit", cfg, results, csv_text)


# ---------------------------------------------------------------------------
# Bench


def _bench(cfg: dict, out_dir: str) -> dict:
    bench_cfg = BenchConfig(
        K_values=tuple(cfg["bench_K_values"]),
        R_values=tuple(cfg["bench_R_values"]),
        d=cfg["bench_d"],
        steps=cfg["bench_steps"],
        repeats=cfg["repeats"],
        seed=cfg["seed"],
        tau_star=cfg["tau_star"],
    )
    result = run_bench(bench_cfg)
    csv_text = result.to_csv()
    _write_csv(out_dir, csv_text, "bench.csv")
    _write_csv(out_dir, csv_text)
    results = {"rows": result.rows}
    return _write_summary(out_dir, "bench", cfg, results, csv_text)
