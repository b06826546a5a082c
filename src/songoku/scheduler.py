"""Cyclic group-scheduling loop: warm-up, threshold annealing, periodic
regrouping, and per-step updates restricted to one compatible class.

The driver owns all randomness through a single generator seeded from the
config, so identical configs replay bit-identically.  Gradient sources are
duck-typed oracles::

    class Oracle:
        def gradient(self, task: int, theta: np.ndarray, rng) -> np.ndarray: ...
        def gradients(self, tasks: np.ndarray, theta, rng) -> np.ndarray: ...  # optional
        def loss(self, theta: np.ndarray) -> float: ...          # may be nan
        def init_theta(self) -> np.ndarray: ...                  # optional

Probe gradients at a refresh are one fresh draw per task.  ``gradients``
serves a whole step's block, or a refresh's K probes, in one call: given
the ascending task indices it returns the (n, d) block whose row r is what
``gradient(tasks[r], ...)`` would return, drawing from ``rng`` in the same
order.  ``run`` uses it only when the class that defines the oracle's
``gradient`` also defines ``gradients``, so a subclass that overrides just
``gradient`` is still served task by task.  A gradient of the wrong
dimension or with a non-finite entry stops the run with ``ValueError``
naming the task and the step.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .grad_stats import GradStats, included_mask, tau_eff, update_ema
from .conflict_graph import (
    Coloring,
    ConflictGraph,
    build_graph,
    enforce_min_coverage,
    welsh_powell,
)
from .combinators import CombinatorConfig, apply_combinators
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


def dense_graph(stats: GradStats, tau: float, window=None, counter=None) -> ConflictGraph:
    """The exact refresh graph, and the ``dense`` sketch mode's graph
    builder: ``build_graph`` on the Gram of the included EMA rows.  One norm
    pass gives both the inclusion mask and the kernel's norms.  With fewer
    than two included tasks it has no edges.  ``window`` is unused;
    ``counter`` (a ``sketch.FlopCounter``) is charged the Gram's flops as
    ``gram_full``."""
    norms = np.linalg.norm(stats.ema, axis=1)
    ok = included_mask(stats, norms)
    M = stats.ema[ok]
    if counter is not None:
        counter.add("gram_full", 2 * len(M) * len(M) * stats.d)
    return build_graph(M @ M.T, norms[ok], ok, tau)


@dataclass
class SchedulerState:
    """What a run carries from step to step.  ``window`` is the schedule
    being served, exactly as ``run`` records it: its index, first step,
    threshold, classes, extra slots and whether its grouping is frozen.
    ``graph`` is the conflict graph that schedule was colored from."""

    cfg: SchedulerConfig
    stats: GradStats
    theta: np.ndarray
    rng: np.random.Generator
    window: WindowRecord
    scale_ema: np.ndarray           # (K,) adaptive-scale norm EMAs, NaN until used
    graph: ConflictGraph


def _window(r: int, t_start: int, tau: float, graph: ConflictGraph, coloring: Coloring,
            f_min: int, frozen: bool) -> WindowRecord:
    """The window that serves ``coloring``'s classes, with the extra copies
    that bring tasks to ``f_min`` appearances, from step ``t_start`` on."""
    extra_slots, failures = enforce_min_coverage(coloring, graph, f_min)
    return WindowRecord(
        r=r, t_start=t_start, tau=float(tau), m=coloring.m, edges=graph.sorted_edges,
        color_of=coloring.color_of, classes=coloring.classes, extra_slots=extra_slots,
        coverage_failures=failures, frozen=frozen,
    )


def init_state(cfg: SchedulerConfig, theta0: np.ndarray | None = None) -> SchedulerState:
    """Install the initial all-task window: the edgeless graph's one class
    (no probes; statistics are empty)."""
    tau0 = anneal_tau(0, cfg)
    graph = ConflictGraph(np.zeros((cfg.K, cfg.K), dtype=bool), tau0)
    theta = (
        np.zeros(cfg.d) if theta0 is None else np.array(theta0, dtype=np.float64)
    )
    if theta.shape != (cfg.d,):
        raise ValueError(f"theta0 shape {theta.shape} != ({cfg.d},)")
    return SchedulerState(
        cfg=cfg,
        stats=GradStats.zeros(cfg.K, cfg.d, cfg.beta, cfg.norm_floor),
        theta=theta,
        rng=np.random.default_rng(cfg.seed),
        window=_window(0, 0, tau0, graph, welsh_powell(graph), cfg.f_min, False),
        scale_ema=np.full(cfg.K, np.nan),
        graph=graph,
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
    state: SchedulerState, probe_gradients, tau: float, graph_builder=None, *, step: int
) -> SchedulerState:
    """Fold probes into the statistics, rebuild the graph, and open the
    window that serves steps ``step`` onward.

    ``graph_builder(stats, tau, window)`` makes the graph; the default is
    ``dense_graph``.  ``probe_gradients`` is a (K, d) array, used as it is,
    or anything else indexed by task that covers every task.  A probe of the
    wrong dimension or with a non-finite entry raises ``ValueError`` naming
    the task and ``step``.  When the window is frozen (static-grouping
    ablation) the statistics still advance but the new window keeps its
    schedule.  A graph whose adjacency equals the one ``state.graph`` holds
    keeps the schedule too, unless classes are permuted: coloring and
    coverage are deterministic functions of the adjacency, so recoloring it
    would give the same window.
    """
    K = state.cfg.K
    if not isinstance(probe_gradients, np.ndarray):
        probe_gradients = [probe_gradients[k] for k in range(K)]
    probes = _gradient_block(probe_gradients, range(K), state.cfg.d, step, "probe gradient")
    update_ema(state.stats, np.arange(K), probes)
    r = state.window.r + 1
    if state.window.frozen:
        state.window = replace(state.window, r=r, t_start=step, tau=float(tau))
        return state
    graph = (graph_builder or dense_graph)(state.stats, tau, r)
    frozen = state.cfg.freeze_after_first_coloring and tau < 1.0
    if not state.cfg.permute_classes and np.array_equal(graph.adj, state.graph.adj):
        state.window = replace(state.window, r=r, t_start=step, tau=float(tau), frozen=frozen)
        return state
    coloring = welsh_powell(graph)
    if state.cfg.permute_classes and coloring.m > 1:
        coloring = _permuted(coloring, state.rng)
    state.graph = graph
    state.window = _window(r, step, tau, graph, coloring, state.cfg.f_min, frozen)
    return state


def _rows(tasks) -> np.ndarray:
    """``tasks`` as a read-only index array, safe to hand to an oracle."""
    rows = np.array(tasks, dtype=np.intp)
    rows.flags.writeable = False
    return rows


def _slots(window: WindowRecord) -> list:
    """Per slot of a window: its ascending tasks, their EMA rows and mask."""
    extras = dict(window.extra_slots)
    slots = [tuple(sorted(cls + extras.get(s, ()))) for s, cls in enumerate(window.classes, 1)]
    return [(ts, _rows(ts), active_mask(ts)) for ts in slots]


def _batch_gradients(oracle):
    """``oracle.gradients`` when the class that defines the oracle's
    ``gradient`` defines ``gradients`` too, else None: an override of
    ``gradient`` alone, on a subclass or on the instance, is served task by
    task."""
    if "gradient" in getattr(oracle, "__dict__", {}):
        return None
    for cls in type(oracle).__mro__:
        if "gradient" in vars(cls):
            return oracle.gradients if "gradients" in vars(cls) else None
    return None


def _gradient_block(grads, tasks, d: int, step: int, kind: str = "gradient") -> np.ndarray:
    """``grads``, one per task of ``tasks`` (a list, or an (n, d) array used
    as it is when it is C-ordered float64), as one C-ordered (n, d) float64
    block, so the step's axis-0 sum adds rows in task order.  A wrong
    dimension or a non-finite entry raises ValueError naming the task and
    the step; a block with the wrong number of rows names the step."""
    def name_bad_shape():
        for k, g in zip(tasks, grads):
            if np.shape(g) != (d,):
                raise ValueError(
                    f"{kind} for task {k} at step {step} has dimension {np.shape(g)}, "
                    f"expected ({d},)"
                )

    try:
        G = np.asarray(grads, dtype=np.float64, order="C")
    except (TypeError, ValueError):     # ragged, or not numbers
        name_bad_shape()
        raise
    if G.shape != (len(tasks), d):
        name_bad_shape()
        raise ValueError(
            f"{kind} block at step {step} has shape {G.shape}, expected ({len(tasks)}, {d})"
        )
    if not np.isfinite(G).all():
        bad = tasks[int(np.flatnonzero(~np.isfinite(G).all(axis=1))[0])]
        raise ValueError(f"non-finite {kind} for task {bad} at step {step}")
    return G


def _check_descent(A: np.ndarray, sq_total: float, t: int) -> None:
    """Assumption-free aggregate-descent check on the applied block ``A``,
    whose sum has squared norm ``sq_total``: |sum g|^2 >= (1 - tau_eff) *
    sum ||g||^2, with sum ||g||^2 and tau_eff read off one Gram matrix.  A
    non-finite |sum|^2 or sum ||g||^2 (finite rows that overflow) raises
    ValueError naming the step."""
    gram = A @ A.T
    sq = float(np.trace(gram))
    if not (math.isfinite(sq_total) and math.isfinite(sq)):
        raise ValueError(
            f"applied gradients overflow at step {t}: |sum|^2={sq_total}, "
            f"sum of squared norms={sq}"
        )
    rhs = (1.0 - tau_eff(gram)) * sq
    if sq_total < rhs - 1e-9 * max(sq, 1.0):
        raise RuntimeError(
            f"aggregate descent bound violated at step {t}: |sum|^2={sq_total} < {rhs}"
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
    state = init_state(cfg, theta0)
    record.windows.append(state.window)
    eta = cfg.step_size()
    clock = getattr(oracle, "set_time", None)
    batch = _batch_gradients(oracle)
    all_tasks = _rows(range(cfg.K))
    slots = _slots(state.window)
    for t in range(cfg.T):
        if clock is not None:
            clock(t)
        tau_t = anneal_tau(t, cfg)
        m_t = state.window.m
        tasks, rows, mask = slots[(t - state.window.t_start) % m_t]
        if batch is None:
            grads = [oracle.gradient(k, state.theta, state.rng) for k in tasks]
        else:
            grads = batch(rows, state.theta, state.rng)
        G = _gradient_block(grads, tasks, cfg.d, t)
        loss = float(oracle.loss(state.theta))
        A = apply_combinators(rows, G, combinators, state.scale_ema, state.rng)
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
            if batch is None:
                probes = [oracle.gradient(k, state.theta, state.rng) for k in range(cfg.K)]
            else:
                probes = batch(all_tasks, state.theta, state.rng)
            refresh(state, probes, anneal_tau(t, cfg), graph_builder, step=t + 1)
            slots = _slots(state.window)
            record.windows.append(state.window)
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
