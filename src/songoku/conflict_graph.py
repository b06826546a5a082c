"""Conflict graph construction, Welsh-Powell coloring, and coverage augmentation.

A conflict graph connects tasks whose interference coefficient exceeds the
threshold tau.  Coloring it groups mutually compatible tasks; the color
classes then rotate as the cyclic training schedule.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


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

    def to_edge_list(self) -> str:
        """Plain text form: first line K, then one 'i j' line per edge."""
        lines = [str(self.n_vertices)]
        lines += [f"{i} {j}" for (i, j) in self.sorted_edges]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list(cls, text: str, tau: float = 1.0) -> "ConflictGraph":
        rows = [ln for ln in text.splitlines() if ln.strip()]
        edges = set()
        for ln in rows[1:]:
            i, j = (int(x) for x in ln.split())
            edges.add((min(i, j), max(i, j)))
        return cls.from_edges(int(rows[0]), edges, tau)


def build_graph(rho: np.ndarray, tau: float) -> ConflictGraph:
    """Threshold a (K, K) interference matrix: edge (i, j) iff rho[i, j] > tau.

    Strict inequality — boundary equality is a non-edge.  Only the upper
    triangle is read, and it is mirrored.  A NaN entry is never an edge, so
    tasks outside the kernel's included block end up as isolated vertices.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau={tau} outside (0, 1]")
    upper = np.triu(rho > tau, 1)
    return ConflictGraph(upper | upper.T, tau)


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


@dataclass
class AugmentedSchedule:
    """Cyclic schedule: base classes plus duplicated under-covered tasks.

    ``extra_slots[s]`` lists tasks duplicated into slot s (1-based).  A slot's
    active set is its base class union its extras.  Tasks that could not reach
    ``f_min`` appearances per period are recorded in ``coverage_failures``
    rather than raising.
    """

    base_classes: tuple
    f_min: int
    extra_slots: dict = field(default_factory=dict)   # slot (1-based) -> sorted list of tasks
    coverage_failures: tuple = ()

    @property
    def m(self) -> int:
        return len(self.base_classes)

    def slot_tasks(self, slot: int) -> list:
        """All tasks active in 1-based slot, ascending order."""
        base = list(self.base_classes[slot - 1])
        base += self.extra_slots.get(slot, [])
        return sorted(base)

    def active_for_offset(self, offset: int) -> list:
        return self.slot_tasks((offset % self.m) + 1)

    def appearances(self, task: int) -> int:
        return sum(1 for s in range(1, self.m + 1) if task in self.slot_tasks(s))


def enforce_min_coverage(coloring: Coloring, graph: ConflictGraph, f_min: int) -> AugmentedSchedule:
    """Duplicate under-covered tasks into compatible slots.

    Each task starts with one appearance per period (its own class).  Tasks
    needing more are processed in ascending index; slots are scanned in cyclic
    order 1..m and a slot accepts the task only when nothing already in it
    (base class or earlier extras) conflicts with the task.  Failure to reach
    f_min is flagged, not raised.
    """
    if f_min < 1:
        raise ValueError(f"f_min={f_min} must be >= 1")
    sched = AugmentedSchedule(base_classes=coloring.classes, f_min=f_min)
    if f_min == 1 or sched.m == 0:
        return sched
    adj = graph.adj
    # blocked[s - 1, v]: some task in slot s conflicts with v
    blocked = np.array([adj[list(cls)].any(axis=0) for cls in coloring.classes])
    failures = []
    for task in range(graph.n_vertices):
        count = 1  # own class
        own = coloring.color_of[task]
        for slot in range(1, sched.m + 1):
            if count >= f_min:
                break
            if slot == own or blocked[slot - 1, task]:
                continue
            sched.extra_slots.setdefault(slot, []).append(task)
            blocked[slot - 1] |= adj[task]
            count += 1
        if count < f_min:
            failures.append(task)
    sched.coverage_failures = tuple(failures)
    return sched


def is_proper(coloring: Coloring, graph: ConflictGraph) -> bool:
    color = np.asarray(coloring.color_of)
    i, j = np.nonzero(graph.adj)
    return bool((color[i] != color[j]).all())
