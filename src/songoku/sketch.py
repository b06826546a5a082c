"""Cost reducers for interference-matrix construction.

Four alternatives to the dense K x K x d Gram computation, each verified
against the dense path (exactly or within a certified margin):

* ``jl_project`` — random projection of the task rows to r dims.
* ``FrequentDirections`` — deterministic column-stream sketch whose
  ``B^T B`` approximates the task Gram with a one-sided spectral error.
* ``edge_sample_graph`` — evaluate a budgeted subset of pairs exactly and
  infer the rest from cluster structure, flagging uncertified pairs.
* ``incremental_gram`` — recompute only drifted rows of a cached Gram.

Every operation can charge an explicit flop counter so the bench harness can
verify the advertised cost scalings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conflict_graph import ConflictGraph, build_graph
from .grad_stats import GradStats, cosine_rho, interference, row_interference
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
    identity: bool = False,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """Project rows of M to r dimensions with a seeded Gaussian map.

    Entries are N(0, 1)/sqrt(r), preserving squared norms in expectation.
    ``identity=True`` is a test mode that requires r == d and applies the
    identity embedding (cosines preserved exactly).
    """
    M = np.asarray(M, dtype=np.float64)
    K, d = M.shape
    if r > d:
        raise ValueError(f"r={r} exceeds input dimension d={d}")
    if r < 1:
        raise ValueError(f"r={r} must be >= 1")
    if identity:
        if r != d:
            raise ValueError(f"identity mode needs r == d, got r={r}, d={d}")
        return M.copy()
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

    @property
    def fully_certified(self) -> bool:
        return not self.uncertified


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


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
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    all_pairs = [(i, j) for i in range(K) for j in range(i + 1, K)]
    if budget is None:
        budget = math.ceil(2 * K * math.log(max(K, 2)))
    if budget < K:
        raise ValueError(f"budget={budget} below the minimum K={K}")

    evals: dict = {}
    budget_left = budget

    def ev(i: int, j: int):
        nonlocal budget_left
        pair = (i, j) if i < j else (j, i)
        if pair in evals:
            return evals[pair]
        if budget_left <= 0:
            return None
        budget_left -= 1
        val = float(rho_oracle(*pair))
        evals[pair] = val
        return val

    if len(all_pairs) <= budget:
        for (i, j) in all_pairs:
            ev(i, j)
        edges = frozenset(p for p, v in evals.items() if v > tau)
        return SampledGraph(
            graph=ConflictGraph.from_edges(K, edges, tau),
            evaluated=frozenset(evals),
            uncertified=(),
        )

    rng = np.random.default_rng(seed)
    n_first = min(budget_left // 2, math.ceil(2 * K * math.log(max(K, 2))))
    chosen = rng.choice(len(all_pairs), size=n_first, replace=False)
    for idx in sorted(int(c) for c in chosen):
        ev(*all_pairs[idx])

    uf = _UnionFind(K)
    for (i, j), v in evals.items():
        if v <= tau - gamma:
            uf.union(i, j)

    # Place every vertex against existing cluster representatives.
    for v in range(K):
        reps = sorted({uf.find(u) for u in range(v)})
        for rep in reps:
            if uf.find(v) == uf.find(rep):
                break
            val = ev(rep, v)
            if val is None:
                break
            if val <= tau - gamma:
                uf.union(rep, v)
                break

    # One probe per cluster pair supports inference for unevaluated pairs.
    reps = sorted({uf.find(v) for v in range(K)})
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            ev(reps[a], reps[b])

    # Representative probes inside the ambiguity band cannot be trusted to
    # speak for their whole cluster pair: evaluate those pairs directly.
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            pair = (reps[a], reps[b])
            val = evals.get(pair)
            if val is not None and abs(val - tau) < gamma:
                members_a = [v for v in range(K) if uf.find(v) == reps[a]]
                members_b = [v for v in range(K) if uf.find(v) == reps[b]]
                for u in members_a:
                    for w in members_b:
                        ev(u, w)

    edges = set()
    uncertified = []
    rep_val = {}
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            rep_val[(reps[a], reps[b])] = evals.get((reps[a], reps[b]))
    for (i, j) in all_pairs:
        if (i, j) in evals:
            if evals[(i, j)] > tau:
                edges.add((i, j))
            continue
        uncertified.append((i, j))
        ri, rj = uf.find(i), uf.find(j)
        if ri == rj:
            continue  # inferred compatible
        key = (ri, rj) if ri < rj else (rj, ri)
        val = rep_val.get(key)
        if val is not None and val > tau:
            edges.add((i, j))
    return SampledGraph(
        graph=ConflictGraph.from_edges(K, edges, tau),
        evaluated=frozenset(evals),
        uncertified=tuple(uncertified),
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


def _included(stats: GradStats, norms: np.ndarray) -> np.ndarray:
    """Tasks not excluded whose row norm ``norms`` reaches the floor."""
    return ~stats.excluded & (norms >= stats.norm_floor)


def make_graph_builder(
    scfg: SketchConfig,
    counter: FlopCounter | None = None,
    seed: int = 0,
):
    """Returns ``builder(stats, tau, window) -> ConflictGraph`` for a mode.

    The incremental mode owns a persistent GramCache across windows; JL draws
    a fresh seeded projection per window.  Excluded tasks (norm below the
    statistics floor) are isolated in every mode.
    """
    if scfg.mode == "dense":

        def dense_builder(stats: GradStats, tau: float, window: int) -> ConflictGraph:
            if counter is not None:
                k_inc = int(stats.included_count())
                counter.add("gram_full", 2 * k_inc * k_inc * stats.d)
            return dense_graph(stats, tau)

        return dense_builder

    if scfg.mode == "jl":

        def jl_builder(stats: GradStats, tau: float, window: int) -> ConflictGraph:
            r = min(scfg.r, stats.d)
            sketch = jl_project(stats.ema, r, seed + window, counter=counter)
            if counter is not None:
                counter.add("jl_gram", 2 * stats.K * stats.K * r)
            ok = _included(stats, np.linalg.norm(stats.ema, axis=1))
            return build_graph(row_interference(sketch, ok), tau)

        return jl_builder

    if scfg.mode == "fd":

        def fd_builder(stats: GradStats, tau: float, window: int) -> ConflictGraph:
            gram_hat, norms, _ = fd_task_gram(stats.ema, scfg.ell, counter=counter)
            if counter is not None:
                counter.add("fd_gram", 2 * stats.K * stats.K * scfg.ell)
            ok = _included(stats, norms)
            block = np.ix_(ok, ok)
            rho = interference(gram_hat[block], np.sqrt(np.diag(gram_hat))[ok], ok)
            return build_graph(rho, tau)

        return fd_builder

    if scfg.mode == "edge_sample":

        def es_builder(stats: GradStats, tau: float, window: int) -> ConflictGraph:
            norms = np.linalg.norm(stats.ema, axis=1)
            idx = np.flatnonzero(_included(stats, norms))
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
            ok = _included(stats, cache.row_norms)
            rho = interference(cache.gram[np.ix_(ok, ok)], cache.row_norms[ok], ok)
            return build_graph(rho, tau)

        return inc_builder

    raise ValueError(f"unknown sketch mode {scfg.mode!r}")
