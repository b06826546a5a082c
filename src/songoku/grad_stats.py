"""Per-task EMA gradient buffers, the interference kernel, and descent-bound helpers.

The interference coefficient between two tasks is the negated cosine of their
averaged gradients: positive values mean the tasks pull the shared parameters
in opposing directions.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GradStats:
    """EMA gradient state for K tasks over a shared d-dimensional space.

    ``ema[i]`` is the exponentially averaged gradient of task i.  Tasks whose
    EMA norm sits below ``norm_floor`` are flagged ``excluded`` and contribute
    no interference entries until their buffer stabilizes.
    """

    ema: np.ndarray                  # (K, d) float64
    beta: float
    norm_floor: float = 1e-8
    steps: np.ndarray = field(default=None)     # per-task update counts
    excluded: np.ndarray = field(default=None)  # per-task bool

    def __post_init__(self):
        self.ema = np.asarray(self.ema, dtype=np.float64)
        if self.ema.ndim != 2:
            raise ValueError(f"ema must be a K x d matrix, got shape {self.ema.shape}")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"beta={self.beta} outside [0, 1)")
        if self.norm_floor < 0:
            raise ValueError(f"norm_floor={self.norm_floor} must be nonnegative")
        K = self.ema.shape[0]
        if self.steps is None:
            self.steps = np.zeros(K, dtype=np.int64)
        if self.excluded is None:
            self._refresh_excluded()

    @classmethod
    def zeros(cls, K: int, d: int, beta: float, norm_floor: float = 1e-8) -> "GradStats":
        return cls(ema=np.zeros((K, d)), beta=beta, norm_floor=norm_floor)

    @property
    def K(self) -> int:
        return self.ema.shape[0]

    @property
    def d(self) -> int:
        return self.ema.shape[1]

    def _refresh_excluded(self) -> None:
        self.excluded = np.linalg.norm(self.ema, axis=1) < self.norm_floor

    def included_count(self) -> int:
        return int(np.count_nonzero(~self.excluded))


def update_ema(stats: GradStats, task, grad) -> GradStats:
    """Blend gradients into EMA rows: row <- beta*row + (1-beta)*grad.

    ``task`` is one index with a (d,) gradient, or a strictly ascending
    sequence of n indices with an (n, d) block whose rows go to those tasks
    in order.  A block folds in one elementwise pass whose EMA rows are
    bit-identical to one call per row.  Mutates ``stats`` in place and
    returns it; only the given rows, their step counts and their excluded
    flags change.
    """
    rows = np.asarray(task)
    seq = rows.reshape(-1).tolist()
    if rows.ndim > 1 or any(a >= b for a, b in zip(seq, seq[1:])):
        raise ValueError(f"task rows {task} must be one index or strictly ascending")
    if seq and not (0 <= seq[0] and seq[-1] < stats.K):
        raise IndexError(f"task index {task} outside [0, {stats.K})")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != rows.shape + (stats.d,):
        raise ValueError(
            f"gradient for task {task} has dimension {grad.shape}, "
            f"expected {rows.shape + (stats.d,)}"
        )
    new = stats.beta * stats.ema[rows] + (1.0 - stats.beta) * grad
    stats.ema[rows] = new
    stats.steps[rows] += 1
    stats.excluded[rows] = np.linalg.norm(new, axis=-1) < stats.norm_floor
    return stats


def effective_sample_size(beta: float, R: int) -> float:
    """Effective number of independent samples inside an R-step EMA window.

    With normalized weights w_t = (1-beta) beta^(R-t) / (1-beta^R), this is
    1 / sum(w_t^2), which has the closed form

        n_eff = (1-beta^R)^2 (1-beta^2) / ((1-beta)^2 (1-beta^{2R})).

    Monotone nondecreasing in R; tends to (1+beta)/(1-beta) as R grows.
    """
    if not (0.0 <= beta < 1.0):
        raise ValueError(f"beta={beta} outside [0, 1)")
    if R < 1:
        raise ValueError(f"R={R} must be >= 1")
    if beta == 0.0:
        return 1.0
    bR = beta ** R
    b2R = beta ** (2 * R)
    if b2R == 1.0:  # numerically beta ~ 1 underflow guard (cannot happen for beta<1, R>=1)
        raise ValueError("beta too close to 1 for a stable evaluation")
    return ((1.0 - bR) ** 2 * (1.0 - beta ** 2)) / ((1.0 - beta) ** 2 * (1.0 - b2R))


def beta_for_effective_sample_size(n_eff: float, R: int) -> float:
    """Invert effective_sample_size in beta by bisection for a fixed window R.

    The achievable range for a window of length R is [1, R]; requests outside
    it are rejected so callers notice an undersized window rather than getting
    a silently saturated beta.
    """
    if n_eff < 1.0:
        raise ValueError(f"n_eff={n_eff} must be >= 1")
    if n_eff > R * (1 - 1e-12):
        raise ValueError(f"n_eff={n_eff} unreachable within a window of R={R} steps")
    if n_eff == 1.0:
        return 0.0
    lo, hi = 0.0, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if effective_sample_size(mid, R) < n_eff:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cosine_rho(gram, norm_i, norm_j):
    """rho = -clip(gram / (norm_i * norm_j), -1, 1), elementwise: the cosine
    kernel for one pair, or for a block when the norms broadcast.  The clip
    is a maximum then a minimum, which costs a pair half of ``np.clip``."""
    return -np.minimum(np.maximum(gram / (norm_i * norm_j), -1.0), 1.0)


def interference(gram: np.ndarray, norms: np.ndarray, included: np.ndarray) -> np.ndarray:
    """The (K, K) interference matrix of a Gram, as a plain array:
    rho_ij = cosine_rho(gram_ij, n_i, n_j).

    ``gram`` (n, n) and ``norms`` (n,) belong to the rows that the (K,) bool
    mask ``included`` selects, in ascending task order.  Entries outside the
    included block are NaN, the diagonal is -1, and the block is mirrored
    from its upper triangle, so rho is exactly symmetric.  Clipping keeps
    every entry in [-1, 1], so a graph thresholded at tau = 1 has no edges.
    A zero row (zero norm and zero Gram entries) gives NaN entries, which
    never become edges.
    """
    K = len(included)
    idx = np.flatnonzero(included)
    with np.errstate(divide="ignore", invalid="ignore"):
        block = cosine_rho(gram, norms[:, None], norms[None, :])
    block = np.triu(block, 1)
    block += block.T
    np.fill_diagonal(block, -1.0)
    rho = np.full((K, K), np.nan)
    rho[np.ix_(idx, idx)] = block
    return rho


def row_interference(rows: np.ndarray, included: np.ndarray) -> np.ndarray:
    """The kernel on the Gram and the norms of the ``included`` rows."""
    M = rows[included]
    return interference(M @ M.T, np.linalg.norm(M, axis=1), included)


def tau_eff(
    gradients: list[np.ndarray] | np.ndarray, gram: np.ndarray | None = None
) -> float:
    """Aggregate conflict ratio of a gradient set.

    Sum over ordered pairs i != j of the clipped negative inner products,
    normalized by the total squared norm:

        tau_eff = sum_{i != j} max(0, -<g_i, g_j>) / sum_k ||g_k||^2.

    ``gram`` is the set's Gram matrix ``G @ G.T`` when the caller already
    has it; ``gradients`` is then not read.  An all-zero set has no conflict
    and returns 0.
    """
    if gram is None:
        G = np.asarray(gradients, dtype=np.float64)
        if G.ndim == 1:
            G = G[None, :]
        gram = G @ G.T
    denom = float(np.trace(gram))
    if denom == 0.0:
        return 0.0
    # a Gram diagonal is nonnegative: the negative part is all off-diagonal
    return float(-np.minimum(gram, 0.0).sum() / denom)


def is_tau_compatible(gradients: list[np.ndarray] | np.ndarray, tau: float) -> bool:
    """True when every pair satisfies <g_i, g_j> >= -tau * ||g_i|| * ||g_j||."""
    G = np.asarray(gradients, dtype=np.float64)
    if G.ndim == 1 or G.shape[0] < 2:
        return True
    gram = G @ G.T
    norms = np.sqrt(np.diag(gram))
    bound = -tau * np.outer(norms, norms)
    off_mask = ~np.eye(G.shape[0], dtype=bool)
    return bool(np.all(gram[off_mask] >= bound[off_mask] - 1e-12))
