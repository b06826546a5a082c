"""Synthetic multi-task worlds with known ground truth.

Three families:

* planted-partition gradient streams, where the true conflict graph is a
  complete multipartite graph known by construction (used for recovery and
  sketch-equivalence experiments);
* quadratic objectives whose Hessian cross-terms are exact, making the
  scheduled-vs-aggregated comparison checkable in closed form;
* a flat-minimum power-well objective whose noisy class-sampled descent
  exhibits a measurable log-log convergence slope.

Every construction self-audits at build time (margins, PSD-ness), so a suite
that exists is a suite whose advertised geometry holds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .conflict_graph import ConflictGraph, build_graph
from .grad_stats import cosine_rho

# Calibrated once on the reference recovery configuration (K=8, d=8, two
# groups, tau=0.5, gamma=0.3, sigma=1, m0=1): the smallest half-integer
# constant whose exact-recovery rate stays >= 0.95 on every suite seed in a
# ten-seed panel at 500 trials each (0.5 bottomed out at 0.934; 1.0 held at
# 1.000), leaving headroom over the 0.90 acceptance floor.
RECOVERY_C_CAL = 1.0


@dataclass
class ExperimentResult:
    trials: int
    successes: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.successes <= self.trials:
            raise ValueError(
                f"successes={self.successes} outside [0, trials={self.trials}]"
            )

    @property
    def rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def wilson_interval(self, z: float = 1.96) -> tuple:
        """95% score interval for the success rate."""
        n = self.trials
        if n == 0:
            return (0.0, 1.0)
        p = self.rate
        denom = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        return (max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# Planted-partition gradient suites


@dataclass
class PlantedTaskSuite:
    K: int
    d: int
    group_of: tuple          # per-task group label in 0..m-1
    mu: np.ndarray           # (K, d) population task gradients
    sigma: float
    gamma: float
    m0: float
    tau: float
    seed: int


def _simplex_directions(m: int, d: int) -> np.ndarray:
    """m unit vectors in R^d with pairwise cosine -1/(m-1)."""
    basis = np.eye(m) - np.full((m, m), 1.0 / m)
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    out = np.zeros((m, d))
    out[:, :m] = basis
    return out


def make_planted_suite(
    K: int,
    d: int,
    groups,
    tau: float,
    gamma: float,
    sigma: float,
    m0: float,
    seed: int,
) -> PlantedTaskSuite:
    """Construct population gradients with a verified separation margin.

    Group centers sit at the vertices of a regular simplex (antipodal pair
    for two groups); each task direction is the center rotated by a jitter
    angle small enough that every cross-group cosine stays <= -(tau+gamma)
    and every within-group cosine stays >= -(tau-gamma).  The construction
    is followed by an exhaustive pairwise audit.

    ``groups`` is either the number of groups (tasks assigned round-robin)
    or an explicit per-task label sequence.
    """
    if isinstance(groups, (int, np.integer)):
        m = int(groups)
        if m < 2:
            raise ValueError(f"need >= 2 groups, got {m}")
        labels = tuple(k % m for k in range(K))
    else:
        labels = tuple(int(g) for g in groups)
        if len(labels) != K:
            raise ValueError(f"{len(labels)} labels for K={K} tasks")
        m = max(labels) + 1
        if sorted(set(labels)) != list(range(m)):
            raise ValueError("group labels must be compact 0..m-1, all used")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau={tau} outside (0, 1)")
    if not 0.0 < gamma < 1.0 - tau:
        raise ValueError(
            f"gamma={gamma} violates the margin requirement 0 < gamma < 1 - tau = {1.0 - tau}"
        )
    if (m - 1) * (tau + gamma) >= 1.0:
        raise ValueError(
            f"(m-1)*(tau+gamma) = {(m - 1) * (tau + gamma):.4f} >= 1: "
            f"equiangular centers for m={m} groups cannot keep cross-group "
            f"cosines <= -(tau+gamma) = {-(tau + gamma)}"
        )
    if d < max(m, 2):
        raise ValueError(f"d={d} too small for m={m} group directions")
    if sigma < 0.0:
        raise ValueError(f"sigma={sigma} must be >= 0")
    if m0 <= 0.0:
        raise ValueError(f"m0={m0} must be > 0")

    centers = _simplex_directions(m, d)
    # psi = angle between centers; jitter must fit the cross-group budget.
    psi = math.acos(max(-1.0, min(1.0, -1.0 / (m - 1))))
    theta_budget = 0.5 * (psi - math.acos(-(tau + gamma)))
    rng = np.random.default_rng(seed)
    mu = np.zeros((K, d))
    for k in range(K):
        c = centers[labels[k]]
        phi = float(rng.uniform(0.0, 0.999 * theta_budget))
        x = rng.standard_normal(d)
        w = x - (x @ c) * c
        wn = np.linalg.norm(w)
        if wn < 1e-12:          # pragma: no cover - probability zero
            w = np.zeros(d)
            phi = 0.0
        else:
            w /= wn
        direction = math.cos(phi) * c + math.sin(phi) * w
        norm = m0 * (1.0 + 0.5 * float(rng.uniform()))
        mu[k] = norm * direction
    suite = PlantedTaskSuite(
        K=K, d=d, group_of=labels, mu=mu, sigma=sigma,
        gamma=gamma, m0=m0, tau=tau, seed=seed,
    )
    audit_margins(suite)
    return suite


def audit_margins(suite: PlantedTaskSuite) -> dict:
    """Exhaustive pairwise check of both margin inequalities; raises on any
    violation and returns the worst observed slacks."""
    norms = np.linalg.norm(suite.mu, axis=1)
    if np.any(norms < suite.m0 - 1e-12):
        bad = int(np.argmin(norms))
        raise ValueError(f"task {bad} mean norm {norms[bad]} below m0={suite.m0}")
    cos = (suite.mu @ suite.mu.T) / np.outer(norms, norms)
    group = np.asarray(suite.group_of)
    same = group[:, None] == group[None, :]
    upper = np.triu(np.ones_like(same), 1)
    worst_cross = cos[upper & ~same].max(initial=-np.inf)
    worst_within = cos[upper & same].min(initial=np.inf)
    cross_cap = -(suite.tau + suite.gamma)
    within_floor = -(suite.tau - suite.gamma)
    if worst_cross > cross_cap + 1e-12:
        raise ValueError(
            f"cross-group cosine {worst_cross:.6f} exceeds the cap {cross_cap:.6f}"
        )
    if worst_within < within_floor - 1e-12:
        raise ValueError(
            f"within-group cosine {worst_within:.6f} below the floor {within_floor:.6f}"
        )
    return {"worst_cross_cos": worst_cross, "worst_within_cos": worst_within}


def _mean_graph(mu: np.ndarray, tau: float) -> ConflictGraph:
    return build_graph(mu @ mu.T, np.linalg.norm(mu, axis=1), np.ones(len(mu), bool), tau)


def true_graph(suite: PlantedTaskSuite, tau: float | None = None) -> ConflictGraph:
    """Population conflict graph computed from the means (not the labels),
    at ``tau`` or else the suite's own threshold."""
    return _mean_graph(suite.mu, suite.tau if tau is None else tau)


def sample_gradient(
    suite: PlantedTaskSuite, task, rng: np.random.Generator
) -> np.ndarray:
    """One noisy draw ``mu[task] + sigma * z`` for an int ``task``; for an
    index array of n tasks, an (n, d) block whose row r is task ``task[r]``.
    The block is one ``(n, d)`` normal draw, which has the bits of n draws
    of size d in order and leaves ``rng`` in the same state.  An index
    outside ``0..K-1`` raises IndexError, negative ones included."""
    return _draw(suite.mu, suite.sigma, task, rng)


def _draw(mu: np.ndarray, sigma: float, task, rng: np.random.Generator) -> np.ndarray:
    """``mu[task] + sigma * z``, checked: ``sample_gradient`` and ``DriftingOracle``."""
    idx = np.asarray(task)
    if idx.size and (idx.min() < 0 or idx.max() >= len(mu)):
        raise IndexError(f"task {idx.tolist()} outside 0..{len(mu) - 1}")
    return mu[idx] + sigma * rng.standard_normal(idx.shape + mu.shape[1:])


# ---------------------------------------------------------------------------
# Recovery experiments


def required_effective_sample_size(
    suite: PlantedTaskSuite, delta: float = 0.1, constant: float = RECOVERY_C_CAL
) -> float:
    """Sample-size requirement constant * sigma^2/(m0^2 gamma^2) * ln(K^2/delta)."""
    return (
        constant
        * suite.sigma**2
        / (suite.m0**2 * suite.gamma**2)
        * math.log(suite.K**2 / delta)
    )


def _ema_probes(
    suite: PlantedTaskSuite,
    beta: float,
    R: int,
    rng: np.random.Generator,
    trials: int,
) -> np.ndarray:
    """EMA buffers after R probe rounds for each of ``trials`` replicas."""
    ema = np.zeros((trials, suite.K, suite.d))
    for _ in range(R):
        noise = rng.standard_normal((trials, suite.K, suite.d))
        ema = beta * ema + (1.0 - beta) * (suite.mu[None, :, :] + suite.sigma * noise)
    return ema


def _edges_match(ema: np.ndarray, truth: np.ndarray, tau: float) -> np.ndarray:
    """Per-trial boolean: thresholded EMA cosine graph equals the truth."""
    norms = np.linalg.norm(ema, axis=2)
    gram = np.einsum("tkd,tld->tkl", ema, ema)
    with np.errstate(divide="ignore", invalid="ignore"):
        edges_hat = cosine_rho(gram, norms[:, :, None], norms[:, None, :]) > tau
    K = ema.shape[1]
    off = ~np.eye(K, dtype=bool)
    return np.all((edges_hat == truth[None, :, :]) | ~off[None, :, :], axis=(1, 2))


def recovery_rate(
    suite: PlantedTaskSuite,
    beta: float,
    R: int,
    tau: float,
    trials: int,
    seed: int = 0,
) -> ExperimentResult:
    """Monte Carlo exact-recovery rate, vectorized across trials."""
    rng = np.random.default_rng(seed)
    ema = _ema_probes(suite, beta, R, rng, trials)
    truth = true_graph(suite, tau).adj
    hits = _edges_match(ema, truth, tau)
    return ExperimentResult(
        trials=trials,
        successes=int(hits.sum()),
        diagnostics={"beta": beta, "R": R, "tau": tau},
    )


# ---------------------------------------------------------------------------
# Quadratic multi-task objectives


@dataclass
class QuadraticMTL:
    """Per-task losses 0.5 (theta - opt_k)^T H_k (theta - opt_k).

    Hessians are constant, so group-gradient cross integrals reduce to plain
    inner products and the scheduled-vs-aggregated bound comparison is exact.
    """

    hessians: np.ndarray    # (K, d, d), symmetric PSD
    optima: np.ndarray      # (K, d)

    def __post_init__(self):
        self.hessians = np.asarray(self.hessians, dtype=np.float64)
        self.optima = np.asarray(self.optima, dtype=np.float64)
        K, d, d2 = self.hessians.shape
        if d != d2 or self.optima.shape != (K, d):
            raise ValueError("inconsistent hessian/optimum shapes")
        for k in range(K):
            Hk = self.hessians[k]
            if not np.allclose(Hk, Hk.T, atol=1e-10):
                raise ValueError(f"hessian {k} is not symmetric")
            if np.linalg.eigvalsh(Hk).min() < -1e-10:
                raise ValueError(f"hessian {k} is not PSD")

    @property
    def K(self) -> int:
        return self.hessians.shape[0]

    @property
    def d(self) -> int:
        return self.hessians.shape[1]

    @property
    def L(self) -> float:
        """Global smoothness constant: sum of per-task spectral norms."""
        return float(
            sum(np.linalg.eigvalsh(H).max() for H in self.hessians)
        )

    def task_gradient(self, k: int, theta: np.ndarray) -> np.ndarray:
        return self.hessians[k] @ (theta - self.optima[k])

    def group_gradient(self, group, theta: np.ndarray) -> np.ndarray:
        g = np.zeros(self.d)
        for k in group:
            g += self.task_gradient(k, theta)
        return g

    def total_loss(self, theta: np.ndarray) -> float:
        total = 0.0
        for k in range(self.K):
            delta = theta - self.optima[k]
            total += 0.5 * float(delta @ self.hessians[k] @ delta)
        return total

    def full_hessian(self) -> np.ndarray:
        return self.hessians.sum(axis=0)

    def group_lipschitz(self, groups) -> list:
        """Spectral norm of each group's summed Hessian."""
        out = []
        for group in groups:
            Hg = np.zeros((self.d, self.d))
            for k in group:
                Hg += self.hessians[k]
            out.append(float(np.linalg.eigvalsh(Hg).max()))
        return out


def _check_eta(quad: QuadraticMTL, eta: float) -> None:
    if not 0.0 < eta <= 1.0 / quad.L + 1e-15:
        raise ValueError(f"eta={eta} outside (0, 1/L] with 1/L={1.0 / quad.L:.6g}")


def aggregated_step(quad: QuadraticMTL, theta: np.ndarray, groups, eta: float) -> np.ndarray:
    """One step along the sum of group gradients, all measured at theta."""
    _check_eta(quad, eta)
    theta = np.asarray(theta, dtype=np.float64)
    total = np.zeros(quad.d)
    for group in groups:
        total += quad.group_gradient(group, theta)
    return theta - eta * total


def scheduled_refresh(quad: QuadraticMTL, theta: np.ndarray, groups, eta: float) -> np.ndarray:
    """Sequential per-group steps, each gradient re-measured at the current point."""
    _check_eta(quad, eta)
    x = np.asarray(theta, dtype=np.float64).copy()
    for group in groups:
        x = x - eta * quad.group_gradient(group, x)
    return x


def strict_improvement_check(
    quad: QuadraticMTL, theta: np.ndarray, groups, eta: float
) -> dict:
    """Evaluate the sufficient condition for the scheduled bound to beat the
    aggregated bound, plus the realized losses of both updates.

    With constant Hessians the cross integrals are exact inner products
    <H G_p, G_q>; the margins Gamma_pq are taken at equality (clipped at 0),
    and the drift penalty uses its closed-form upper bound.
    """
    theta = np.asarray(theta, dtype=np.float64)
    G = [quad.group_gradient(group, theta) for group in groups]
    norms = [float(np.linalg.norm(g)) for g in G]
    H = quad.full_hessian()
    L = quad.L
    L_groups = quad.group_lipschitz(groups)
    m = len(groups)

    cross_ok = True
    lhs = 0.0
    cross_terms = {}
    for p in range(m):
        for q in range(p + 1, m):
            ipq = float(G[p] @ H @ G[q])
            cross_terms[(p, q)] = ipq
            if ipq > 0.0:
                cross_ok = False
            gamma_pq = max(0.0, -ipq / (norms[p] * norms[q])) if norms[p] * norms[q] > 0 else 0.0
            lhs += gamma_pq * norms[p] * norms[q] + L * float(G[p] @ G[q])

    prefix = np.cumsum([0.0] + norms)          # prefix[r] = sum of first r norms
    rm_bound = 0.0
    rm_bound += eta**2 * sum(norms) * sum(
        L_groups[r] * prefix[r] for r in range(1, m)
    )
    rm_bound += (L * eta**2 / 2.0) * sum(
        2.0 * norms[r] * L_groups[r] * eta * prefix[r]
        + (L_groups[r] * eta * prefix[r]) ** 2
        for r in range(1, m)
    )
    rhs = float(rm_bound / eta**2)

    theta_agg = aggregated_step(quad, theta, groups, eta)
    theta_sch = scheduled_refresh(quad, theta, groups, eta)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "holds": bool(lhs > rhs),
        "negative_cross_terms": cross_ok,
        "cross_terms": cross_terms,
        "loss_aggregated": quad.total_loss(theta_agg),
        "loss_scheduled": quad.total_loss(theta_sch),
    }


def reference_negative_cross_instance() -> tuple:
    """Hand-built two-group quadratic where the sufficient condition holds
    and the scheduled update realizes a strictly lower loss.

    Returns (quad, groups, theta0, eta).
    """
    H1 = np.diag([10.0, 1.0])
    H2 = np.diag([1.0, 0.1])
    opt1 = np.array([-0.06, -0.8])      # gives G1(0) = (0.6, 0.8)
    opt2 = np.array([1.2, -16.0])       # gives G2(0) = (-1.2, 1.6)
    quad = QuadraticMTL(hessians=np.stack([H1, H2]), optima=np.stack([opt1, opt2]))
    groups = ((0,), (1,))
    theta0 = np.zeros(2)
    eta = 0.02
    return quad, groups, theta0, eta


def reference_block_diagonal_instance() -> tuple:
    """Two groups touching disjoint coordinate blocks: scheduling is a no-op."""
    H1 = np.diag([3.0, 1.0, 0.0, 0.0])
    H2 = np.diag([0.0, 0.0, 2.0, 0.5])
    opt1 = np.array([1.0, -2.0, 0.0, 0.0])
    opt2 = np.array([0.0, 0.0, 0.5, 4.0])
    quad = QuadraticMTL(hessians=np.stack([H1, H2]), optima=np.stack([opt1, opt2]))
    groups = ((0,), (1,))
    theta0 = np.array([0.3, 0.4, -0.2, 0.1])
    eta = 0.1
    return quad, groups, theta0, eta


# ---------------------------------------------------------------------------
# Flat-minimum convergence testbed


@dataclass
class PowerWellMTL:
    """Tasks sharing a single flat-bottomed well: loss_k = (w_k/q) sum_j theta_j^q.

    The minimum at 0 is degenerate (power q even, q > 2), which slows plain
    gradient descent enough that the min-gradient-vs-horizon slope is steeply
    negative; class-sampling noise is multiplicative, so the slope is not
    polluted by an additive variance floor.
    """

    weights: np.ndarray
    d: int = 6
    power: int = 8

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.power < 4 or self.power % 2:
            raise ValueError("power must be an even integer >= 4")
        if np.any(self.weights <= 0):
            raise ValueError("task weights must be positive")

    @property
    def K(self) -> int:
        return len(self.weights)

    def task_gradient(self, k: int, theta: np.ndarray) -> np.ndarray:
        return self.weights[k] * theta ** (self.power - 1)

    def total_loss(self, theta: np.ndarray) -> float:
        return float(self.weights.sum() / self.power * np.sum(theta**self.power))


def default_power_well() -> tuple:
    """Reference testbed: unbalanced class weights over a shared well."""
    weights = np.array([1.0, 1.4, 0.6, 1.2, 0.5, 0.9, 0.45, 0.65])
    classes = ((0, 1, 2, 3), (4, 5, 6, 7))
    return PowerWellMTL(weights=weights), classes


def convergence_experiment(
    well: PowerWellMTL,
    classes,
    T_grid=(100, 1000, 10000),
    n_seeds: int = 20,
    eta_c: float = 0.15,
    seed: int = 0,
    variant: str = "randomized",
) -> dict:
    """Min-over-steps squared full-gradient norm versus horizon.

    ``randomized``: each step samples a class uniformly and scales its summed
    gradient by the class count m — an unbiased estimator of the full
    gradient.  ``cyclic``: classes rotate deterministically without scaling
    (biased; trend-checked only).  Runs all seeds for a horizon in lockstep
    (vectorized across seeds); returns per-horizon means and the fitted
    log-log slope.
    """
    if variant not in ("randomized", "cyclic"):
        raise ValueError(f"variant={variant!r}")
    m = len(classes)
    class_weight = np.array([sum(well.weights[k] for k in cls) for cls in classes])
    total_weight = well.weights.sum()
    q = well.power
    mins = []
    rng = np.random.default_rng(seed)
    for T in T_grid:
        eta = eta_c / math.sqrt(T)
        theta = np.ones((n_seeds, well.d))
        best = np.full(n_seeds, np.inf)
        for t in range(T):
            gfull_sq = np.sum((total_weight * theta ** (q - 1)) ** 2, axis=1)
            best = np.minimum(best, gfull_sq)
            if variant == "randomized":
                j = rng.integers(m, size=n_seeds)
                scale = m * class_weight[j]
            else:
                scale = np.full(n_seeds, class_weight[t % m] * 1.0)
            theta = theta - eta * scale[:, None] * theta ** (q - 1)
        mins.append(float(best.mean()))
    logT = np.log(np.asarray(T_grid, dtype=np.float64))
    logm = np.log(np.asarray(mins))
    slope, intercept = np.polyfit(logT, logm, 1)
    return {
        "T_grid": tuple(T_grid),
        "min_grad_sq": tuple(mins),
        "slope": float(slope),
        "intercept": float(intercept),
        "variant": variant,
    }


# ---------------------------------------------------------------------------
# Drifting world for the static-coloring ablation


@dataclass
class DriftingSuite:
    """Planted suite whose task ``flip_task`` jumps to the antipodal cone at
    step ``flip_time`` (piecewise-constant population gradients)."""

    base: PlantedTaskSuite
    flip_task: int
    flip_time: int

    @cached_property
    def mu_after(self) -> np.ndarray:
        """The (K, d) means from ``flip_time`` on, read-only."""
        mu = self.base.mu.copy()
        mu[self.flip_task] = -mu[self.flip_task]
        mu.flags.writeable = False
        return mu

    def mu_at(self, t: int) -> np.ndarray:
        return self.mu_after if t >= self.flip_time else self.base.mu

    @cached_property
    def graph_before(self) -> ConflictGraph:
        """The true graph before ``flip_time``, at the suite's threshold."""
        return _mean_graph(self.base.mu, self.base.tau)

    @cached_property
    def graph_after(self) -> ConflictGraph:
        """The true graph from ``flip_time`` on, at the suite's threshold."""
        return _mean_graph(self.mu_after, self.base.tau)

    def true_graph_at(self, t: int) -> ConflictGraph:
        return self.graph_after if t >= self.flip_time else self.graph_before


# ---------------------------------------------------------------------------
# Oracle adapters for the scheduler loop


class PlantedOracle:
    """Streams noisy planted gradients; there is no meaningful scalar loss."""

    def __init__(self, suite: PlantedTaskSuite):
        self.suite = suite

    def gradient(self, task, theta: np.ndarray, rng: np.random.Generator):
        """Task ``task``'s draw, or the (n, d) block of an index array."""
        return sample_gradient(self.suite, task, rng)

    gradients = gradient

    def loss(self, theta: np.ndarray) -> float:
        return float("nan")


class DriftingOracle:
    """Time-aware planted stream; the scheduler advances the clock via set_time."""

    def __init__(self, suite: DriftingSuite):
        self.suite = suite
        self.t = 0

    def set_time(self, t: int) -> None:
        self.t = t

    def gradient(self, task, theta: np.ndarray, rng: np.random.Generator):
        """Task ``task``'s draw, or the (n, d) block of an index array."""
        return _draw(self.suite.mu_at(self.t), self.suite.base.sigma, task, rng)

    gradients = gradient

    def loss(self, theta: np.ndarray) -> float:
        return float("nan")


class QuadraticOracle:
    def __init__(self, quad: QuadraticMTL, theta0: np.ndarray | None = None):
        self.quad = quad
        self.theta0 = np.zeros(quad.d) if theta0 is None else np.asarray(theta0)

    def init_theta(self) -> np.ndarray:
        return self.theta0.copy()

    def gradient(self, task: int, theta: np.ndarray, rng: np.random.Generator):
        return self.quad.task_gradient(task, theta)

    def loss(self, theta: np.ndarray) -> float:
        return self.quad.total_loss(theta)
