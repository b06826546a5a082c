"""Per-task EMA gradient buffers, the cosine kernel, and descent-bound helpers.

The interference coefficient between two tasks, ``cosine_rho``, is the negated
cosine of their averaged gradients: positive values mean the tasks pull the
shared parameters in opposing directions.  ``included_mask`` says which tasks
take part in a graph; ``conflict_graph.build_graph`` thresholds their rho.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GradStats:
    """EMA gradient state for K tasks over a shared d-dimensional space.

    ``ema[i]`` is the exponentially averaged gradient of task i.  A task
    whose EMA norm sits below ``norm_floor`` contributes no interference
    entries until its buffer stabilizes; ``included_mask`` reads that off
    ``ema`` each time a graph is built, so nothing here can go stale.
    """

    ema: np.ndarray                  # (K, d) float64
    beta: float
    norm_floor: float = 1e-8

    def __post_init__(self):
        self.ema = np.asarray(self.ema, dtype=np.float64)
        if self.ema.ndim != 2:
            raise ValueError(f"ema must be a K x d matrix, got shape {self.ema.shape}")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"beta={self.beta} outside [0, 1)")
        if self.norm_floor < 0:
            raise ValueError(f"norm_floor={self.norm_floor} must be nonnegative")

    @classmethod
    def zeros(cls, K: int, d: int, beta: float, norm_floor: float = 1e-8) -> "GradStats":
        return cls(ema=np.zeros((K, d)), beta=beta, norm_floor=norm_floor)

    @property
    def K(self) -> int:
        return self.ema.shape[0]

    @property
    def d(self) -> int:
        return self.ema.shape[1]


def included_mask(stats: GradStats, norms: np.ndarray | None = None) -> np.ndarray:
    """The (K,) bool mask of tasks whose row norm reaches ``norm_floor``: the
    tasks that take part in an interference graph.  ``norms`` defaults to
    the EMA row norms; a caller that already holds norms passes them.  A NaN
    norm is not included."""
    norms = np.linalg.norm(stats.ema, axis=1) if norms is None else norms
    return norms >= stats.norm_floor


def update_ema(stats: GradStats, task, grad) -> GradStats:
    """Blend gradients into EMA rows: row <- beta*row + (1-beta)*grad.

    ``task`` is one index with a (d,) gradient, or a strictly ascending
    sequence of n indices with an (n, d) block whose rows go to those tasks
    in order.  A block folds in one elementwise pass whose EMA rows are
    bit-identical to one call per row; all K rows (a refresh's probes) fold
    into ``ema`` itself, with no gather or scatter.  Mutates ``stats`` in
    place and returns it; only the given rows of ``ema`` change, and a
    rejected call changes none.
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
    # the same products and sum as beta * row + (1 - beta) * grad
    scaled = (1.0 - stats.beta) * grad
    if len(seq) == stats.K:     # ascending and in range: every row, in order
        stats.ema *= stats.beta
        stats.ema += scaled
    else:
        buf = stats.ema[rows]
        buf *= stats.beta
        buf += scaled
        stats.ema[rows] = buf
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


def tau_eff(gram: np.ndarray) -> float:
    """Aggregate conflict ratio of a gradient set, read off its Gram matrix
    ``G @ G.T``: the clipped negative inner products over ordered pairs
    i != j, normalized by the total squared norm,

        tau_eff = sum_{i != j} max(0, -<g_i, g_j>) / sum_k ||g_k||^2.

    An empty or all-zero set has no conflict and returns 0.
    """
    denom = float(np.trace(gram))
    if denom == 0.0:
        return 0.0
    # a Gram diagonal is nonnegative: the negative part is all off-diagonal
    return float(-np.minimum(gram, 0.0).sum() / denom)


@dataclass(frozen=True)
class DescentCheck:
    lhs: float
    rhs_worstcase: float
    rhs_data_dependent: float
    tau_eff: float
    compatible: bool
    ok: bool


def descent_check(G, tau: float) -> DescentCheck:
    """Compare ||sum g||^2 against both descent lower bounds of the rows of
    ``G`` (n, d), read off one Gram matrix.

    The set is tau-compatible when every pair has <g_i, g_j> >= -(tau +
    1e-12) ||g_i|| ||g_j||: the tolerance scales with the pair, so scaling
    the set does not change the verdict.  The worst-case bound
    (1 - tau(n-1)) sum ||g||^2 applies only to a compatible set; the
    data-dependent bound (1 - tau_eff) sum ||g||^2 applies always.  An empty
    set passes with all zeros.
    """
    G = np.asarray(G, dtype=np.float64)
    if len(G) == 0:
        return DescentCheck(0.0, 0.0, 0.0, 0.0, True, True)
    total = G.sum(axis=0)
    lhs = float(total @ total)
    gram = G @ G.T
    sq = float(np.trace(gram))
    norms = np.sqrt(np.diag(gram))
    # the diagonal is (1 + tau + 1e-12) ||g||^2 >= 0, so it needs no mask
    compatible = bool((gram + (tau + 1e-12) * np.outer(norms, norms)).min() >= 0.0)
    conflict = tau_eff(gram)
    rhs_wc = (1.0 - tau * (len(G) - 1)) * sq
    rhs_dd = (1.0 - conflict) * sq
    slack = 1e-9 * max(sq, 1.0)
    ok = lhs >= rhs_dd - slack and (not compatible or lhs >= rhs_wc - slack)
    return DescentCheck(lhs, rhs_wc, rhs_dd, conflict, compatible, ok)
