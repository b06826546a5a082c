"""Cyclic group-scheduling loop: warm-up, threshold annealing, periodic
regrouping, and per-step updates restricted to one compatible class.

The driver owns all randomness through a single generator seeded from the
config, so identical configs replay bit-identically.  Gradient sources are
duck-typed oracles::

    class Oracle:
        def gradient(self, task: int, theta: np.ndarray, rng) -> np.ndarray: ...
        def loss(self, theta: np.ndarray) -> float: ...          # may be nan
        def init_theta(self) -> np.ndarray: ...                  # optional

Probe gradients at a refresh are one fresh ``gradient`` draw per task.
A gradient of the wrong dimension or with a non-finite entry stops the run
with ``ValueError`` naming the task and the step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .grad_stats import GradStats, row_interference, tau_eff, update_ema
from .conflict_graph import (
    AugmentedSchedule,
    Coloring,
    ConflictGraph,
    build_graph,
    enforce_min_coverage,
    welsh_powell,
)
from .combinators import AdaptiveScaleState, CombinatorConfig, apply_combinators
from .records import RunRecord, StepRow, WindowRecord, active_mask

ETA_RULES = ("fixed", "const_over_sqrt_T")


@dataclass
class SchedulerConfig:
    K: int
    d: int
    T: int
    R: int = 32
    beta: float = 0.9
    tau_star: float = 0.5
    T_warm: int = 0
    f_min: int = 1
    eta: float = 0.1
    eta_rule: str = "fixed"
    anneal_a: float = 9.0
    anneal_horizon: int | None = None   # defaults to 4R
    seed: int = 0
    norm_floor: float = 1e-8
    permute_classes: bool = False
    freeze_after_first_coloring: bool = False

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K={self.K}: need at least one task")
        if self.d < 1:
            raise ValueError(f"d={self.d}: need positive gradient dimension")
        if self.T < 0:
            raise ValueError(f"T={self.T} must be >= 0")
        if self.R < 1:
            raise ValueError(f"R={self.R} must be >= 1")
        if not 0.0 < self.tau_star <= 1.0:
            raise ValueError(f"tau_star={self.tau_star} outside (0, 1]")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta={self.beta} outside [0, 1)")
        if self.T > 0 and not 0 <= self.T_warm < self.T:
            raise ValueError(f"T_warm={self.T_warm} must lie in [0, T={self.T})")
        if self.f_min < 1:
            raise ValueError(f"f_min={self.f_min} must be >= 1")
        if self.eta <= 0.0:
            raise ValueError(f"eta={self.eta} must be > 0")
        if self.eta_rule not in ETA_RULES:
            raise ValueError(f"eta_rule={self.eta_rule!r} not in {ETA_RULES}")
        if self.anneal_a <= 0.0:
            raise ValueError(f"anneal_a={self.anneal_a} must be > 0")
        if self.anneal_horizon is not None and self.anneal_horizon < 1:
            raise ValueError(f"anneal_horizon={self.anneal_horizon} must be >= 1")

    @property
    def horizon(self) -> int:
        return self.anneal_horizon if self.anneal_horizon is not None else 4 * self.R

    def step_size(self) -> float:
        if self.eta_rule == "const_over_sqrt_T":
            return self.eta / math.sqrt(max(self.T, 1))
        return self.eta

    def to_dict(self) -> dict:
        return asdict(self)


def anneal_tau(t: int, cfg: SchedulerConfig) -> float:
    """Threshold schedule: 1 through warm-up, then a log-shaped glide to
    tau_star over ``cfg.horizon`` steps, clamped there afterwards.
    """
    if t < 0:
        raise ValueError(f"t={t} must be >= 0")
    if t < cfg.T_warm:
        return 1.0
    s = t - cfg.T_warm
    S = cfg.horizon
    if s >= S:
        return cfg.tau_star
    frac = math.log1p(cfg.anneal_a * s) / math.log1p(cfg.anneal_a * S)
    return 1.0 - (1.0 - cfg.tau_star) * frac


def dense_graph(stats: GradStats, tau: float) -> ConflictGraph:
    """The exact refresh graph: the cosine kernel on the included EMA rows,
    thresholded at tau.  With fewer than two included tasks it has no edges."""
    return build_graph(row_interference(stats.ema, ~stats.excluded), tau)


@dataclass
class SchedulerState:
    cfg: SchedulerConfig
    stats: GradStats
    theta: np.ndarray
    rng: np.random.Generator
    graph: ConflictGraph
    coloring: Coloring
    schedule: AugmentedSchedule
    r: int = 0                      # window (round) index
    t_r: int = 0                    # first step served by the current window
    tau: float = 1.0                # threshold the current window was built with
    frozen: bool = False
    scale_state: AdaptiveScaleState | None = None


def init_state(
    cfg: SchedulerConfig,
    theta0: np.ndarray | None = None,
    combinators: CombinatorConfig | None = None,
) -> SchedulerState:
    """Install the initial all-task window: the edgeless graph's one class
    (no probes; statistics are empty)."""
    tau0 = anneal_tau(0, cfg)
    graph = ConflictGraph(np.zeros((cfg.K, cfg.K), dtype=bool), tau0)
    coloring = welsh_powell(graph)
    theta = (
        np.zeros(cfg.d) if theta0 is None else np.array(theta0, dtype=np.float64)
    )
    if theta.shape != (cfg.d,):
        raise ValueError(f"theta0 shape {theta.shape} != ({cfg.d},)")
    scale_state = None
    if combinators is not None and combinators.scales:
        scale_state = AdaptiveScaleState(
            beta=combinators.scale_ema_beta, floor=combinators.scale_floor
        )
    return SchedulerState(
        cfg=cfg,
        stats=GradStats.zeros(cfg.K, cfg.d, cfg.beta, cfg.norm_floor),
        theta=theta,
        rng=np.random.default_rng(cfg.seed),
        graph=graph,
        coloring=coloring,
        schedule=enforce_min_coverage(coloring, graph, cfg.f_min),
        tau=tau0,
        scale_state=scale_state,
    )


def apply_update(state: SchedulerState, total: np.ndarray, eta: float) -> SchedulerState:
    """The parameter update of one step: theta -= eta * total, where total
    is the sum of the step's applied gradients."""
    state.theta -= eta * total
    return state


def _permuted(coloring: Coloring, rng: np.random.Generator) -> Coloring:
    perm = rng.permutation(coloring.m)
    classes = tuple(coloring.classes[p] for p in perm)
    color_of = [0] * len(coloring.color_of)
    for c, cls in enumerate(classes, start=1):
        for v in cls:
            color_of[v] = c
    return Coloring(color_of=tuple(color_of), m=coloring.m, classes=classes)


def refresh(
    state: SchedulerState,
    probe_gradients,
    tau: float,
    graph_builder=None,
    step: int | None = None,
) -> SchedulerState:
    """Fold probes into the statistics, rebuild graph/coloring, open a window.

    ``graph_builder(stats, tau, window)`` makes the graph; the default is
    ``dense_graph``.  ``probe_gradients`` must cover every task
    (index-addressable).  A probe of the wrong dimension or with a non-finite
    entry raises ``ValueError`` naming the task, and ``step`` when given.
    When the state is frozen (static-grouping ablation) the statistics still
    advance but the existing schedule is retained.
    """
    K = state.cfg.K
    probes = _gradient_block(
        [probe_gradients[k] for k in range(K)], range(K), state.cfg.d, step, "probe gradient"
    )
    update_ema(state.stats, np.arange(K), probes)
    if not state.frozen:
        if graph_builder is None:
            graph = dense_graph(state.stats, tau)
        else:
            graph = graph_builder(state.stats, tau, state.r + 1)
        coloring = welsh_powell(graph)
        if state.cfg.permute_classes and coloring.m > 1:
            coloring = _permuted(coloring, state.rng)
        state.graph = graph
        state.coloring = coloring
        state.schedule = enforce_min_coverage(coloring, graph, state.cfg.f_min)
        if state.cfg.freeze_after_first_coloring and tau < 1.0:
            state.frozen = True
    state.r += 1
    state.tau = tau
    return state


def _slots(schedule: AugmentedSchedule) -> list:
    """Per slot of a window: its ascending tasks, their EMA rows and mask."""
    slots = [tuple(schedule.slot_tasks(s)) for s in range(1, schedule.m + 1)]
    return [(ts, np.array(ts, dtype=np.intp), active_mask(ts)) for ts in slots]


def _gradient_block(grads, tasks, d: int, step, kind: str = "gradient") -> np.ndarray:
    """``grads``, one per task of ``tasks``, as one (n, d) float64 block.  A
    wrong dimension or a non-finite entry raises ValueError naming the task,
    and the step unless it is None."""
    at = "" if step is None else f" at step {step}"
    for k, g in zip(tasks, grads):
        if np.shape(g) != (d,):
            raise ValueError(
                f"{kind} for task {k}{at} has dimension {np.shape(g)}, expected ({d},)"
            )
    G = np.asarray(grads, dtype=np.float64)
    if not np.isfinite(G).all():
        bad = tasks[int(np.flatnonzero(~np.isfinite(G).all(axis=1))[0])]
        raise ValueError(f"non-finite {kind} for task {bad}{at}")
    return G


def _check_descent(A: np.ndarray, sq_total: float, t: int) -> None:
    """Assumption-free aggregate-descent check on the applied block ``A``,
    whose sum has squared norm ``sq_total``: |sum g|^2 >= (1 - tau_eff) *
    sum ||g||^2, with sum ||g||^2 and tau_eff read off one Gram matrix."""
    gram = A @ A.T
    sq = float(np.trace(gram))
    rhs = (1.0 - tau_eff(A, gram=gram)) * sq
    if sq_total < rhs - 1e-9 * max(sq, 1.0):
        raise RuntimeError(
            f"aggregate descent bound violated at step {t}: |sum|^2={sq_total} < {rhs}"
        )


def _window_record(state: SchedulerState, t_start: int) -> WindowRecord:
    return WindowRecord(
        r=state.r,
        t_start=t_start,
        tau=float(state.tau),
        m=state.schedule.m,
        edges=state.graph.sorted_edges,
        color_of=state.coloring.color_of,
        classes=state.coloring.classes,
        extra_slots=tuple(
            (s, tuple(ts)) for s, ts in sorted(state.schedule.extra_slots.items())
        ),
        coverage_failures=state.schedule.coverage_failures,
        frozen=state.frozen,
    )


def run(
    cfg: SchedulerConfig,
    oracle,
    combinators: CombinatorConfig | None = None,
    graph_builder=None,
) -> RunRecord:
    """Execute T steps and return the full log.

    Refreshes fire exactly when ``(t+1) % R == 0``, using the threshold of the
    triggering step; the rebuilt schedule serves steps t+1 onward.
    """
    record = RunRecord(
        config=cfg.to_dict(),
        combinator_mode=(combinators.mode if combinators else "none"),
    )
    if cfg.T == 0:
        return record
    theta0 = oracle.init_theta() if hasattr(oracle, "init_theta") else None
    state = init_state(cfg, theta0, combinators)
    record.windows.append(_window_record(state, t_start=0))
    eta = cfg.step_size()
    clock = getattr(oracle, "set_time", None)
    transforms = combinators is not None and combinators.mode != "none"
    slots = _slots(state.schedule)
    for t in range(cfg.T):
        if clock is not None:
            clock(t)
        tau_t = anneal_tau(t, cfg)
        m_t = state.schedule.m
        tasks, rows, mask = slots[(t - state.t_r) % m_t]
        G = _gradient_block(
            [oracle.gradient(k, state.theta, state.rng) for k in tasks], tasks, cfg.d, t
        )
        loss = float(oracle.loss(state.theta))
        A = G
        if transforms:
            A = np.array(
                apply_combinators(tasks, G, combinators, state.scale_state, state.rng)
            )
        # an axis-0 sum adds the rows in task order, like a running
        # `total += g`, so the update and grad_norm keep their bits
        total = A.sum(axis=0)
        sq_total = float(total @ total)
        _check_descent(A, sq_total, t)
        apply_update(state, total, eta)
        update_ema(state.stats, rows, G)
        did_refresh = (t + 1) % cfg.R == 0
        if did_refresh:
            if clock is not None:
                clock(t + 1)
            probes = [oracle.gradient(k, state.theta, state.rng) for k in range(cfg.K)]
            refresh(state, probes, anneal_tau(t, cfg), graph_builder, step=t + 1)
            slots = _slots(state.schedule)
            state.t_r = t + 1
            record.windows.append(_window_record(state, t_start=t + 1))
        record.steps.append(
            StepRow(
                t=t,
                tau=float(tau_t),
                m=m_t,
                active_mask=mask,
                loss=loss,
                grad_norm=math.sqrt(sq_total),
                refresh=did_refresh,
            )
        )
    return record
