"""Optimizer layers composable with the scheduler.

Two lightweight per-step transforms of the step's ``(n, d)`` gradient block,
one row per active task, applied after selection and before the parameter
update.  Each takes the block and returns a new one:

* ``project_within_group`` — pairwise conflict projection: whenever two
  gradients point against each other, the first loses its component along the
  second (applied over ordered pairs in a randomized order).  Rows that
  conflict with no other row are never walked, and the rest walk their
  partners together.
* ``adaptive_scale`` — per-task step normalization by a running EMA of each
  task's gradient norm, kept in a ``(K,)`` array that is NaN until a task's
  first scaled step.

Composition order is fixed: select -> project -> scale -> update.

Every dot product is the BLAS ddot of two contiguous float64 rows
(``_rowdots``), so a block's output bits do not depend on its memory layout.
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


def _rowdots(X: np.ndarray, Y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ y`` for each broadcast pair of rows of ``X`` and ``Y``.

    numpy's matmul hands every ``(1, d) @ (d, 1)`` product to the BLAS ddot
    that ``x @ y`` of two 1-D rows calls, so each entry has that product's
    bits.
    """
    if out is not None:
        out = out[..., None, None]
    return np.matmul(X[..., None, :], Y[..., :, None], out=out)[..., 0, 0]


def project_within_group(G: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Pairwise de-conflict the rows of the block ``G``; returns a new block.

    For every ordered pair (i, j) with ``<g_i', g_j> < 0`` the running copy of
    g_i drops its component along g_j.  Pair order is shuffled when an rng is
    given, otherwise lexicographic.  Each output norm never exceeds its input
    norm (projection removes a nonnegative component).

    A row only ever meets the *input* rows, so each row's walk is independent
    of the others'.  A row equals its input until its first projection, so a
    row with no negative dot against a nonzero input row is never walked; the
    rest walk their partners together, one vectorized step per partner.

    A single pairwise pass only guarantees mutual non-conflict for two
    gradients; from three up, later projections can reopen earlier pairs, so
    the achieved minimum pairwise inner product is logged instead of enforced.
    """
    G = np.ascontiguousarray(G, dtype=np.float64)
    out = G.copy()
    n = len(G)
    if n <= 1:
        return out
    # pair p is (i, j) = the p-th of the lexicographic ordered pairs i != j;
    # shuffling the indices draws what shuffling the list of pairs draws
    order = np.arange(n * (n - 1))
    if rng is not None:
        rng.shuffle(order)
    dots = _rowdots(G[:, None, :], G[None, :, :])
    sq = dots.diagonal()
    walk = np.flatnonzero(((dots < 0.0) & (sq > 0.0)).any(axis=1))
    if len(walk):
        # row i's partners j in the order the shuffled pairs meet them
        by_row = order[np.argsort(order // (n - 1), kind="stable")].reshape(n, n - 1)
        r = by_row[walk] - (n - 1) * walk[:, None]
        partners = r + (r >= walk[:, None])
        cur = out[walk]
        gj = np.empty_like(cur)
        dot, c = np.empty(len(walk)), np.empty(len(walk))
        for j in partners.T:
            # mode="clip": j is in range, and mode="raise" buffers ``out``
            np.take(G, j, axis=0, out=gj, mode="clip")
            _rowdots(cur, gj, out=dot)
            sqj = sq[j]
            # a row without a hit is never written, so it keeps its bits
            hit = ((dot < 0.0) & (sqj > 0.0))[:, None]
            np.divide(dot[:, None], sqj[:, None], out=c[:, None], where=hit)
            np.multiply(gj, c[:, None], out=gj, where=hit)
            np.subtract(cur, gj, out=cur, where=hit)
        out[walk] = cur
    if n >= 3 and logger.isEnabledFor(logging.DEBUG):
        residual = _rowdots(out[:, None, :], out[None, :, :])[np.triu_indices(n, 1)].min()
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
    A = np.ascontiguousarray(A, dtype=np.float64)
    norms = np.sqrt(_rowdots(A, A))     # np.linalg.norm of a row is sqrt(a @ a)
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
