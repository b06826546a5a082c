"""Conflict graph construction, Welsh-Powell coloring, and coverage augmentation.

A conflict graph connects tasks whose interference coefficient exceeds the
threshold tau; ``build_graph`` is the one path from a Gram to that graph.
Coloring it groups mutually compatible tasks; the color classes, plus the
extra copies coverage places, then rotate as the cyclic training schedule
(``records.WindowRecord``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grad_stats import cosine_rho


@dataclass(frozen=True, eq=False)
class ConflictGraph:
    """Conflict graph as a read-only boolean K x K adjacency: symmetric, with
    a False diagonal.  Degrees, edge tests and edge lists derive from it;
    the edge lists are computed once per graph."""

    adj: np.ndarray
    tau: float

    def __post_init__(self):
        adj = np.array(self.adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be K x K, got shape {adj.shape}")
        if adj.diagonal().any() or not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric with a False diagonal")
        adj.flags.writeable = False
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_edges(cls, K: int, edges, tau: float) -> "ConflictGraph":
        """Graph on K vertices from (i, j) pairs with 0 <= i < j < K."""
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        i, j = pairs[:, 0], pairs[:, 1]
        bad = (i < 0) | (i >= j) | (j >= K)
        if bad.any():
            a, b = pairs[bad][0].tolist()
            raise ValueError(f"bad edge ({a}, {b}) for K={K}")
        adj = np.zeros((K, K), dtype=bool)
        adj[i, j] = adj[j, i] = True
        return cls(adj, tau)

    @property
    def n_vertices(self) -> int:
        return self.adj.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i, j])

    @cached_property
    def sorted_edges(self) -> tuple:
        """Every edge as an (i, j) pair of ints with i < j, in sorted order."""
        i, j = np.nonzero(np.triu(self.adj, 1))
        return tuple(zip(i.tolist(), j.tolist()))

    @cached_property
    def edges(self) -> frozenset:
        return frozenset(self.sorted_edges)


def build_graph(gram, norms, included, tau: float) -> ConflictGraph:
    """Edge (i, j) iff rho_ij = cosine_rho(gram_ij, n_i, n_j) > tau, for the
    (n, n) ``gram`` and (n,) ``norms`` of the rows that the (K,) bool mask
    ``included`` selects, in ascending order; the other tasks are isolated.

    Only the block's upper triangle is thresholded, then mirrored.  Boundary
    equality is a non-edge, the clip at 1 leaves tau = 1 edgeless, and a
    zero row (zero norm and Gram entries, so NaN rho) has no edges.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau={tau} outside (0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = np.triu(cosine_rho(gram, norms[:, None], norms[None, :]) > tau, 1)
    adj = np.zeros((len(included), len(included)), dtype=bool)
    adj[np.ix_(included, included)] = upper | upper.T
    return ConflictGraph(adj, tau)


def max_degree(graph: ConflictGraph) -> int:
    if graph.n_vertices == 0:
        return 0
    return int(graph.degrees.max())


@dataclass(frozen=True)
class Coloring:
    """Proper vertex coloring with 1-based colors and explicit classes."""

    color_of: tuple        # color_of[v] in 1..m
    m: int
    classes: tuple         # classes[c-1] = sorted tuple of vertices with color c


def welsh_powell(graph: ConflictGraph) -> Coloring:
    """Largest-first greedy coloring.

    Vertices are processed by non-increasing degree (ties broken by ascending
    index); each takes the smallest positive color unused among its already
    colored neighbors.  Uses at most max_degree + 1 colors.
    """
    K = graph.n_vertices
    adj = graph.adj
    color = np.zeros(K, dtype=np.int64)
    for v in np.argsort(-graph.degrees, kind="stable").tolist():
        taken = np.zeros(K + 2, dtype=bool)
        taken[color[adj[v]]] = True
        color[v] = 1 + int(taken[1:].argmin())
    m = int(color.max()) if K else 0
    classes = tuple(tuple(np.flatnonzero(color == c).tolist()) for c in range(1, m + 1))
    return Coloring(color_of=tuple(color.tolist()), m=m, classes=classes)


def enforce_min_coverage(coloring: Coloring, graph: ConflictGraph, f_min: int) -> tuple:
    """Duplicate under-covered tasks into compatible slots.

    Each task starts with one appearance per period (its own class).  Tasks
    needing more are processed in ascending index; slots are scanned in cyclic
    order 1..m and a slot accepts the task only when nothing already in it
    (base class or earlier extras) conflicts with the task.  Failure to reach
    f_min is flagged, not raised.  Returns ``(extra_slots, coverage_failures)``
    as ``WindowRecord`` holds them: (1-based slot, ascending tasks) pairs for
    the slots that took extras, by slot, and the failed tasks, ascending.
    """
    if f_min < 1:
        raise ValueError(f"f_min={f_min} must be >= 1")
    if f_min == 1 or coloring.m == 0:
        return (), ()
    adj = graph.adj
    # blocked[s - 1, v]: some task in slot s conflicts with v
    blocked = np.array([adj[list(cls)].any(axis=0) for cls in coloring.classes])
    extras = [[] for _ in coloring.classes]
    failures = []
    for task in range(graph.n_vertices):
        count = 1  # own class
        own = coloring.color_of[task]
        for slot in range(1, coloring.m + 1):
            if count >= f_min:
                break
            if slot == own or blocked[slot - 1, task]:
                continue
            extras[slot - 1].append(task)
            blocked[slot - 1] |= adj[task]
            count += 1
        if count < f_min:
            failures.append(task)
    extra_slots = tuple((s, tuple(ts)) for s, ts in enumerate(extras, start=1) if ts)
    return extra_slots, tuple(failures)


def is_proper(coloring: Coloring, graph: ConflictGraph) -> bool:
    color = np.asarray(coloring.color_of)
    i, j = np.nonzero(graph.adj)
    return bool((color[i] != color[j]).all())
