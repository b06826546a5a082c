"""Cost reducers for the Gram that an interference graph is built from.

Four alternatives to the dense K x K x d Gram computation.  Like the dense
builder, the jl, fd and incremental ones pass their Gram block of the included
tasks to ``conflict_graph.build_graph``; edge_sample evaluates pairs alone:

* ``jl_project`` — random projection of the task rows to r dims.  The jl
  builder takes r from ``SketchConfig.r`` and ignores ``epsilon``
  (``sketch_epsilon``); its graph is not verified against the dense path.
* ``FrequentDirections`` — deterministic column-stream sketch whose
  ``B^T B`` approximates the task Gram with a one-sided spectral error.
  ``fd_cosine_bounds`` turns that error into per-pair cosine bounds, but no
  builder calls it: the fd builder thresholds the sketched cosines as they
  are.
* ``edge_sample_graph`` — evaluate a budgeted subset of pairs exactly and
  infer the rest from cluster structure, flagging uncertified pairs.  It
  keeps one value table and cluster labels; it saves pair evaluations, not
  time, and still costs an order of magnitude more than the exact dense
  graph at K=64.
* ``incremental_gram`` — recompute only drifted rows of a cached Gram.  The
  result is exact for the recomputed rows, so for every row only at
  ``change_threshold = 0``; a row whose drift stays under the threshold
  keeps its stale entries.

Every operation can charge an explicit flop counter so the bench harness can
verify the advertised cost scalings.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .conflict_graph import ConflictGraph, build_graph
from .grad_stats import GradStats, cosine_rho, included_mask
from .scheduler import dense_graph

SKETCH_MODES = ("dense", "jl", "fd", "edge_sample", "incremental")


@dataclass
class FlopCounter:
    counts: dict = field(default_factory=dict)

    def add(self, key: str, flops) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(flops)

    def total(self) -> int:
        return sum(self.counts.values())

    def as_dict(self) -> dict:
        return dict(self.counts)


@dataclass
class SketchConfig:
    mode: str = "dense"
    r: int = 32                     # JL target dimension
    ell: int = 8                    # FD sketch rows
    epsilon: float = 0.1            # accuracy target (must sit below the margin)
    pair_budget: int | None = None  # edge_sample evaluation budget
    change_threshold: float = 0.05  # relative row drift triggering recompute
    rebuild_every: int = 16         # forced full rebuilds for the incremental path

    def __post_init__(self):
        if self.mode not in SKETCH_MODES:
            raise ValueError(f"mode={self.mode!r} not in {SKETCH_MODES}")
        if self.r < 1:
            raise ValueError(f"r={self.r} must be >= 1")
        if self.ell < 2:
            raise ValueError(f"ell={self.ell} must be >= 2")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon={self.epsilon} must be > 0")
        if self.pair_budget is not None and self.pair_budget < 1:
            raise ValueError(f"pair_budget={self.pair_budget} must be >= 1")
        if self.change_threshold < 0.0:
            raise ValueError(f"change_threshold={self.change_threshold} must be >= 0")
        if self.rebuild_every < 1:
            raise ValueError(f"rebuild_every={self.rebuild_every} must be >= 1")


# ---------------------------------------------------------------------------
# Johnson-Lindenstrauss projection


def jl_project(
    M: np.ndarray,
    r: int,
    seed: int,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """Project rows of M to r dimensions with a seeded Gaussian map.

    Entries are N(0, 1)/sqrt(r), preserving squared norms in expectation.
    """
    M = np.asarray(M, dtype=np.float64)
    K, d = M.shape
    if r > d:
        raise ValueError(f"r={r} exceeds input dimension d={d}")
    if r < 1:
        raise ValueError(f"r={r} must be >= 1")
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((d, r)) / math.sqrt(r)
    if counter is not None:
        counter.add("jl_project", 2 * K * d * r)
    return M @ R


# ---------------------------------------------------------------------------
# Frequent Directions


class FrequentDirections:
    """Streaming sketch: maintains ``ell`` rows whose Gram lower-bounds the
    stream's Gram with spectral error at most the tracked shrink total.

    Insert-then-shrink: rows fill a buffer; when full, an SVD subtracts the
    (rank+1)-th squared singular value from all directions, zeroing the tail.
    With rank = ell // 2 the total shrinkage is at most 2 ||A||_F^2 / ell.
    """

    def __init__(self, ell: int, dim: int):
        if ell < 2:
            raise ValueError(f"ell={ell} must be >= 2")
        if dim < 1:
            raise ValueError(f"dim={dim} must be >= 1")
        self.ell = ell
        self.dim = dim
        self.rank = ell // 2
        self.sketch = np.zeros((ell, dim))
        self.next_row = 0
        self.shrink_total = 0.0
        self.flops = 0

    def insert(self, row: np.ndarray) -> None:
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (self.dim,):
            raise ValueError(f"row shape {row.shape} != ({self.dim},)")
        self.sketch[self.next_row] = row
        self.next_row += 1
        if self.next_row == self.ell:
            self._shrink()

    def _shrink(self) -> None:
        _, s, vt = np.linalg.svd(self.sketch, full_matrices=False)
        self.flops += self.ell * self.ell * self.dim
        if len(s) > self.rank:
            delta = float(s[self.rank] ** 2)
        else:
            delta = 0.0
        self.shrink_total += delta
        kept = np.sqrt(np.maximum(s**2 - delta, 0.0))
        self.sketch = kept[:, None] * vt
        if self.sketch.shape[0] < self.ell:
            pad = np.zeros((self.ell - self.sketch.shape[0], self.dim))
            self.sketch = np.vstack([self.sketch, pad])
        self.next_row = self.rank

    def gram(self) -> np.ndarray:
        """B^T B — approximates the stream Gram A^T A from below (PSD gap)."""
        self.flops += 2 * self.dim * self.dim * self.ell
        return self.sketch.T @ self.sketch


def fd_task_gram(
    M: np.ndarray, ell: int, counter: FlopCounter | None = None
) -> tuple:
    """Approximate the task Gram M M^T by streaming M's columns through FD.

    Each of the d columns is a K-vector; the resulting sketch B (ell x K)
    satisfies 0 <= M M^T - B^T B <= shrink_total * I in the PSD order.

    Returns (gram_hat, exact_row_norms, shrink_total).
    """
    M = np.asarray(M, dtype=np.float64)
    K, d = M.shape
    fd = FrequentDirections(ell, K)
    for col in range(d):
        fd.insert(M[:, col])
    gram_hat = fd.gram()
    norms = np.linalg.norm(M, axis=1)
    if counter is not None:
        counter.add("fd_stream", fd.flops)
        counter.add("fd_norms", 2 * K * d)
    return gram_hat, norms, fd.shrink_total


def fd_cosine_bounds(gram_hat: np.ndarray, exact_norms: np.ndarray) -> tuple:
    """Estimated cosines plus certified per-pair error bounds.

    Exact row norms are cheap (O(Kd)); combined with the PSD gap
    E = M M^T - B^T B (whose diagonal is therefore known exactly and whose
    off-diagonals obey |E_ij| <= sqrt(E_ii E_jj)) they give

        |cos_ij - cos_hat_ij| <= (M_i M_j - Mhat_i Mhat_j + sqrt(E_ii E_jj))
                                  / (M_i M_j).

    Pairs involving a zero-norm row get bound inf.
    """
    norms_sq_hat = np.clip(np.diag(gram_hat), 0.0, None)
    norms_hat = np.sqrt(norms_sq_hat)
    e_diag = np.clip(exact_norms**2 - norms_sq_hat, 0.0, None)
    outer_exact = np.outer(exact_norms, exact_norms)
    outer_hat = np.outer(norms_hat, norms_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_hat = np.where(outer_hat > 0.0, gram_hat / outer_hat, 0.0)
        bound = np.where(
            outer_exact > 0.0,
            (outer_exact - outer_hat + np.outer(np.sqrt(e_diag), np.sqrt(e_diag)))
            / outer_exact,
            np.inf,
        )
    np.fill_diagonal(bound, 0.0)
    return np.clip(cos_hat, -1.0, 1.0), bound


# ---------------------------------------------------------------------------
# Edge sampling with cluster-based refinement


@dataclass(frozen=True)
class SampledGraph:
    graph: ConflictGraph
    evaluated: frozenset      # directly evaluated (certified) pairs
    uncertified: tuple        # pairs filled in by cluster inference or default


def edge_sample_graph(
    rho_oracle,
    K: int,
    tau: float,
    gamma: float,
    budget: int | None = None,
    seed: int = 0,
) -> SampledGraph:
    """Recover the conflict graph from a budgeted number of exact pair looks.

    Strategy: evaluate ~K log K random pairs, merge confidently compatible
    vertices (rho <= tau - gamma) into clusters, then spend remaining budget
    placing unassigned vertices against cluster representatives and probing
    one representative pair per cluster pair.  Directly evaluated pairs are
    certified; everything else is inferred from the cluster structure (valid
    under a planted separation, reported as uncertified).  Representative
    probes landing within gamma of the threshold are considered unreliable
    for inference, and the affected pairs are evaluated directly instead.

    State is one symmetric (K, K) value table with a ``seen`` mask and a
    cluster label ``root[v]``, the smallest vertex of v's cluster.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if budget is None:
        budget = math.ceil(2 * K * math.log(max(K, 2)))
    if budget < K:
        raise ValueError(f"budget={budget} below the minimum K={K}")

    val = np.full((K, K), np.nan)  # unevaluated entries stay NaN
    seen = np.zeros((K, K), dtype=bool)
    root = np.arange(K)
    budget_left = budget

    def ev(i: int, j: int):
        nonlocal budget_left
        i, j = (i, j) if i < j else (j, i)
        if seen[i, j]:
            return val[i, j]
        if budget_left <= 0:
            return None
        budget_left -= 1
        val[i, j] = val[j, i] = float(rho_oracle(i, j))
        seen[i, j] = seen[j, i] = True
        return val[i, j]

    def union(i: int, j: int) -> None:
        lo, hi = sorted((root[i], root[j]))
        root[root == hi] = lo

    iu, ju = np.triu_indices(K, 1)
    if len(iu) <= budget:
        for i, j in zip(iu.tolist(), ju.tolist()):
            ev(i, j)
    else:
        rng = np.random.default_rng(seed)
        n_first = min(budget // 2, math.ceil(2 * K * math.log(max(K, 2))))
        chosen = np.sort(rng.choice(len(iu), size=n_first, replace=False))
        for i, j in zip(iu[chosen].tolist(), ju[chosen].tolist()):
            if ev(i, j) <= tau - gamma:
                union(i, j)

        # Place every vertex against existing cluster representatives.  A
        # cluster's representative is its root, the one vertex labelled by
        # itself; those of 0..v-1 come out in ascending order.
        for v in range(1, K):
            for rep in np.flatnonzero(root[:v] == np.arange(v)).tolist():
                if root[v] == rep:
                    break
                x = ev(rep, v)
                if x is None:
                    break
                if x <= tau - gamma:
                    union(rep, v)
                    break

        # One probe per cluster pair supports inference for unevaluated pairs.
        reps = np.flatnonzero(root == np.arange(K)).tolist()
        rep_pairs = list(itertools.combinations(reps, 2))
        for a, b in rep_pairs:
            ev(a, b)

        # Representative probes inside the ambiguity band cannot be trusted to
        # speak for their whole cluster pair: evaluate those pairs directly.
        for a, b in rep_pairs:
            if abs(val[a, b] - tau) < gamma:
                for u in np.flatnonzero(root == a).tolist():
                    for w in np.flatnonzero(root == b).tolist():
                        ev(u, w)

    # An unevaluated pair takes its cluster pair's probe; a pair inside one
    # cluster reads the NaN diagonal and is never an edge.
    adj = np.where(seen, val, val[root[:, None], root[None, :]]) > tau
    done = seen[iu, ju]
    return SampledGraph(
        graph=ConflictGraph(adj, tau),
        evaluated=frozenset(zip(iu[done].tolist(), ju[done].tolist())),
        uncertified=tuple(zip(iu[~done].tolist(), ju[~done].tolist())),
    )


# ---------------------------------------------------------------------------
# Incremental Gram maintenance


@dataclass
class GramCache:
    gram: np.ndarray            # K x K
    row_norms: np.ndarray       # K
    rows: np.ndarray            # copy of the matrix the cache reflects
    matrix_version: int = 0
    updates_since_rebuild: int = 0
    rebuild_every: int = 16

    @property
    def K(self) -> int:
        return self.rows.shape[0]


def build_gram_cache(
    M: np.ndarray,
    rebuild_every: int = 16,
    matrix_version: int = 0,
    counter: FlopCounter | None = None,
) -> GramCache:
    M = np.asarray(M, dtype=np.float64)
    K, d = M.shape
    if counter is not None:
        counter.add("gram_full", 2 * K * K * d)
    return GramCache(
        gram=M @ M.T,
        row_norms=np.linalg.norm(M, axis=1),
        rows=M.copy(),
        matrix_version=matrix_version,
        rebuild_every=rebuild_every,
    )


def drifted_rows(cache: GramCache, M: np.ndarray, threshold: float) -> np.ndarray:
    """Indices whose relative row drift exceeds the threshold."""
    M = np.asarray(M, dtype=np.float64)
    delta = np.linalg.norm(M - cache.rows, axis=1)
    base = np.maximum(np.linalg.norm(cache.rows, axis=1), 1e-300)
    return np.flatnonzero(delta / base > threshold)


def incremental_gram(
    cache: GramCache,
    M: np.ndarray,
    changed_rows,
    matrix_version: int | None = None,
    counter: FlopCounter | None = None,
) -> GramCache:
    """Refresh the cached Gram for the given rows only (exact arithmetic).

    A version skip (caller's matrix_version is not the cache version + 1) or
    hitting the periodic rebuild quota forces a full rebuild.  Entries not
    touched by a partial update are left bit-identical.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.shape != cache.rows.shape:
        raise ValueError(f"matrix shape {M.shape} != cached {cache.rows.shape}")
    changed = sorted(int(i) for i in changed_rows)
    if matrix_version is not None and matrix_version != cache.matrix_version + 1:
        return _rebuild(cache, M, matrix_version, counter)
    if matrix_version is not None:
        cache.matrix_version = matrix_version
    if not changed:
        return cache
    cache.updates_since_rebuild += 1
    if cache.updates_since_rebuild >= cache.rebuild_every:
        return _rebuild(cache, M, cache.matrix_version, counter)
    K, d = M.shape
    for i in changed:
        cache.rows[i] = M[i]
    for i in changed:
        row_dots = M @ M[i]
        if counter is not None:
            counter.add("gram_incremental", 2 * K * d)
        cache.gram[i, :] = row_dots
        cache.gram[:, i] = row_dots
        cache.row_norms[i] = np.linalg.norm(M[i])
    return cache


def _rebuild(cache: GramCache, M: np.ndarray, matrix_version: int,
             counter: FlopCounter | None) -> GramCache:
    """Refill ``cache`` from a full rebuild of ``M`` at ``matrix_version``."""
    fresh = build_gram_cache(M, cache.rebuild_every, matrix_version, counter)
    cache.gram, cache.row_norms, cache.rows = fresh.gram, fresh.row_norms, fresh.rows
    cache.matrix_version = matrix_version
    cache.updates_since_rebuild = 0
    return cache


# ---------------------------------------------------------------------------
# Graph builders pluggable into the scheduler's refresh


def make_graph_builder(
    scfg: SketchConfig,
    counter: FlopCounter | None = None,
    seed: int = 0,
):
    """Returns ``builder(stats, tau, window) -> ConflictGraph`` for a mode.

    The incremental mode owns a persistent GramCache across windows; JL draws
    a fresh seeded projection per window.  Which tasks take part is read off
    the EMA norms by ``grad_stats.included_mask`` each time a graph is
    built; a task whose norm sits below the statistics floor is isolated in
    every mode.  The dense, fd and edge_sample modes take those norms in the
    same pass their kernel uses: the dense mode is ``scheduler.dense_graph``,
    charging ``gram_full``.
    """
    if scfg.mode == "dense":
        return functools.partial(dense_graph, counter=counter)

    if scfg.mode == "jl":

        def jl_builder(stats: GradStats, tau: float, window: int) -> ConflictGraph:
            r = min(scfg.r, stats.d)
            sketch = jl_project(stats.ema, r, seed + window, counter=counter)
            if counter is not None:
                counter.add("jl_gram", 2 * stats.K * stats.K * r)
            ok = included_mask(stats)
            M = sketch[ok]
            return build_graph(M @ M.T, np.linalg.norm(M, axis=1), ok, tau)

        return jl_builder

    if scfg.mode == "fd":

        def fd_builder(stats: GradStats, tau: float, window: int) -> ConflictGraph:
            gram_hat, norms, _ = fd_task_gram(stats.ema, scfg.ell, counter=counter)
            if counter is not None:
                counter.add("fd_gram", 2 * stats.K * stats.K * scfg.ell)
            ok = included_mask(stats, norms)
            gram = gram_hat[np.ix_(ok, ok)]
            return build_graph(gram, np.sqrt(np.diag(gram)), ok, tau)

        return fd_builder

    if scfg.mode == "edge_sample":

        def es_builder(stats: GradStats, tau: float, window: int) -> ConflictGraph:
            norms = np.linalg.norm(stats.ema, axis=1)
            idx = np.flatnonzero(included_mask(stats, norms))
            if len(idx) < 2:
                return ConflictGraph.from_edges(stats.K, (), tau)
            sub = stats.ema[idx]
            sub_norms = norms[idx]

            def rho_pair(a: int, b: int) -> float:
                if counter is not None:
                    counter.add("edge_sample", 2 * stats.d)
                return float(cosine_rho(float(sub[a] @ sub[b]), sub_norms[a], sub_norms[b]))

            sampled = edge_sample_graph(
                rho_pair,
                len(idx),
                tau,
                scfg.epsilon,
                budget=scfg.pair_budget,
                seed=seed + window,
            )
            adj = np.zeros((stats.K, stats.K), dtype=bool)
            adj[np.ix_(idx, idx)] = sampled.graph.adj
            return ConflictGraph(adj, tau)

        return es_builder

    if scfg.mode == "incremental":
        state = {"cache": None}

        def inc_builder(stats: GradStats, tau: float, window: int) -> ConflictGraph:
            if state["cache"] is None or state["cache"].K != stats.K:
                state["cache"] = build_gram_cache(
                    stats.ema, scfg.rebuild_every, matrix_version=window, counter=counter
                )
            else:
                cache = state["cache"]
                changed = drifted_rows(cache, stats.ema, scfg.change_threshold)
                incremental_gram(
                    cache, stats.ema, changed, matrix_version=window, counter=counter
                )
            cache = state["cache"]
            # the kernel divides by the cached norms, and a row whose drift
            # stayed under change_threshold keeps a stale one: a stale norm
            # below the floor would divide by (nearly) zero
            ok = included_mask(stats) & included_mask(stats, cache.row_norms)
            return build_graph(cache.gram[np.ix_(ok, ok)], cache.row_norms[ok], ok, tau)

        return inc_builder

    raise ValueError(f"unknown sketch mode {scfg.mode!r}")
