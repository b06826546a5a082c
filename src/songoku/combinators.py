"""Optimizer layers composable with the scheduler.

Two lightweight per-step transforms applied to the gradients of the active
set, after selection and before the parameter update:

* ``project_within_group`` — pairwise conflict projection: whenever two
  gradients point against each other, the first loses its component along the
  second (applied over ordered pairs in a randomized order).
* ``adaptive_scale`` — per-task step normalization by a running EMA of each
  task's gradient norm.

Composition order is fixed: select -> project -> scale -> update.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

MODES = ("none", "project", "adaptive_scale", "project_and_scale")

logger = logging.getLogger(__name__)


@dataclass
class CombinatorConfig:
    mode: str = "none"
    scale_ema_beta: float = 0.9
    scale_floor: float = 1e-6

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode={self.mode!r} not in {MODES}")
        if not 0.0 <= self.scale_ema_beta < 1.0:
            raise ValueError(f"scale_ema_beta={self.scale_ema_beta} outside [0, 1)")
        if self.scale_floor <= 0.0:
            raise ValueError(f"scale_floor={self.scale_floor} must be > 0")

    @property
    def projects(self) -> bool:
        return self.mode in ("project", "project_and_scale")

    @property
    def scales(self) -> bool:
        return self.mode in ("adaptive_scale", "project_and_scale")


def project_within_group(gradients, rng: np.random.Generator | None = None):
    """Pairwise de-conflict a list of gradients.

    For every ordered pair (i, j) with ``<g_i', g_j> < 0`` the running copy of
    g_i drops its component along g_j.  Pair order is shuffled when an rng is
    given, otherwise lexicographic.  Each output norm never exceeds its input
    norm (projection removes a nonnegative component).

    A single pairwise pass only guarantees mutual non-conflict for two
    gradients; from three up, later projections can reopen earlier pairs, so
    the achieved minimum pairwise inner product is logged instead of enforced.
    """
    n = len(gradients)
    if n <= 1:
        return [np.array(g, dtype=np.float64, copy=True) for g in gradients]
    out = [np.array(g, dtype=np.float64, copy=True) for g in gradients]
    sq = [float(g @ g) for g in gradients]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if rng is not None:
        rng.shuffle(pairs)
    for i, j in pairs:
        if sq[j] <= 0.0:
            continue
        gj = gradients[j]
        dot = float(out[i] @ gj)
        if dot < 0.0:
            out[i] = out[i] - (dot / sq[j]) * gj
    if n >= 3 and logger.isEnabledFor(logging.DEBUG):
        residual = min(
            float(out[i] @ out[j]) for i in range(n) for j in range(i + 1, n)
        )
        logger.debug("projection residual: min pairwise inner product %.3e", residual)
    return out


@dataclass
class AdaptiveScaleState:
    """Running per-task gradient-norm EMAs for step-size normalization.

    Norm trackers initialize lazily to the first observed norm so the first
    scaled step is ~unit size rather than floor-inflated.
    """

    beta: float
    floor: float
    norm_ema: dict = None

    def __post_init__(self):
        if self.norm_ema is None:
            self.norm_ema = {}


def adaptive_scale(task: int, grad: np.ndarray, state: AdaptiveScaleState) -> np.ndarray:
    """Divide by max(floor, current norm EMA); EMA updated *after* use."""
    norm = float(np.linalg.norm(grad))
    if task not in state.norm_ema:
        state.norm_ema[task] = norm
    scale = max(state.floor, state.norm_ema[task])
    scaled = grad / scale
    state.norm_ema[task] = state.beta * state.norm_ema[task] + (1.0 - state.beta) * norm
    return scaled


def apply_combinators(
    tasks,
    gradients,
    cfg: CombinatorConfig | None,
    scale_state: AdaptiveScaleState | None,
    rng: np.random.Generator | None,
):
    """Run the configured transform chain on the active set's gradients.

    ``tasks`` and ``gradients`` are parallel sequences.  Returns the
    transformed gradient list (same order).
    """
    if cfg is None or cfg.mode == "none":
        return list(gradients)
    gs = list(gradients)
    if cfg.projects:
        gs = project_within_group(gs, rng)
    if cfg.scales:
        gs = [adaptive_scale(k, g, scale_state) for k, g in zip(tasks, gs)]
    return gs
