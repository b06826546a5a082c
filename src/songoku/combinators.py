"""Optimizer layers composable with the scheduler.

Two lightweight per-step transforms of the step's ``(n, d)`` gradient block,
one row per active task, applied after selection and before the parameter
update.  Each takes the block and returns a new one:

* ``project_within_group`` — pairwise conflict projection: whenever two
  gradients point against each other, the first loses its component along the
  second (applied over ordered pairs in a randomized order).
* ``adaptive_scale`` — per-task step normalization by a running EMA of each
  task's gradient norm, kept in a ``(K,)`` array that is NaN until a task's
  first scaled step.

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


def project_within_group(G: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Pairwise de-conflict the rows of the block ``G``; returns a new block.

    For every ordered pair (i, j) with ``<g_i', g_j> < 0`` the running copy of
    g_i drops its component along g_j.  Pair order is shuffled when an rng is
    given, otherwise lexicographic.  Each output norm never exceeds its input
    norm (projection removes a nonnegative component).

    A single pairwise pass only guarantees mutual non-conflict for two
    gradients; from three up, later projections can reopen earlier pairs, so
    the achieved minimum pairwise inner product is logged instead of enforced.
    """
    G = np.asarray(G, dtype=np.float64)
    out = G.copy()
    n = len(G)
    if n <= 1:
        return out
    outs, src = list(out), list(G)   # row views: outs[i] writes into out
    sq = [float(g @ g) for g in src]
    # pair p is (i, j) = the p-th of the lexicographic ordered pairs i != j;
    # shuffling the indices draws what shuffling the list of pairs draws
    order = np.arange(n * (n - 1))
    if rng is not None:
        rng.shuffle(order)
    for p in order.tolist():
        i, r = divmod(p, n - 1)
        j = r + (r >= i)
        if sq[j] <= 0.0:
            continue
        dot = float(outs[i] @ src[j])
        if dot < 0.0:
            outs[i] -= (dot / sq[j]) * src[j]
    if n >= 3 and logger.isEnabledFor(logging.DEBUG):
        residual = min(
            float(outs[i] @ outs[j]) for i in range(n) for j in range(i + 1, n)
        )
        logger.debug("projection residual: min pairwise inner product %.3e", residual)
    return out


def adaptive_scale(
    rows: np.ndarray, A: np.ndarray, scale_ema: np.ndarray, cfg: CombinatorConfig
) -> np.ndarray:
    """Divide each row of ``A`` by max(floor, its task's norm EMA); returns a
    new block.  ``rows`` holds the block's distinct task indices into the
    (K,) array ``scale_ema``, which is updated in place *after* use.  A NaN
    entry initializes to the task's first observed norm, so its first scaled
    step is ~unit size rather than floor-inflated."""
    norms = np.array([np.linalg.norm(a) for a in A])
    ema = scale_ema[rows]
    ema = np.where(np.isnan(ema), norms, ema)
    scaled = A / np.maximum(cfg.scale_floor, ema)[:, None]
    beta = cfg.scale_ema_beta
    scale_ema[rows] = beta * ema + (1.0 - beta) * norms
    return scaled


def apply_combinators(
    rows: np.ndarray,
    G: np.ndarray,
    cfg: CombinatorConfig | None,
    scale_ema: np.ndarray,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Run the configured transform chain on the step's ``(n, d)`` block,
    whose row r belongs to task ``rows[r]``.  Returns ``G`` itself when no
    transform is configured, otherwise a new block."""
    if cfg is None or cfg.mode == "none":
        return G
    A = project_within_group(G, rng) if cfg.projects else G
    if cfg.scales:
        A = adaptive_scale(rows, A, scale_ema, cfg)
    return A
