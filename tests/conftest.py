"""Shared test helpers: brute-force coloring oracle and random graph factory."""
from __future__ import annotations

import itertools

import numpy as np

from songoku.conflict_graph import ConflictGraph


def chromatic_number(graph: ConflictGraph) -> int:
    """Exact chromatic number by exhaustive assignment; intended for n <= 8."""
    n = graph.n_vertices
    if n == 0:
        return 0
    if not graph.edges:
        return 1
    for m in range(2, n + 1):
        for assignment in itertools.product(range(m), repeat=n):
            # prune symmetric relabelings: vertex 0 always takes color 0
            if assignment[0] != 0:
                continue
            if all(assignment[i] != assignment[j] for (i, j) in graph.edges):
                return m
    return n


def random_graph(rng: np.random.Generator, n: int, p: float) -> ConflictGraph:
    edges = frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    )
    return ConflictGraph.from_edges(n, edges=edges, tau=0.5)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    lines = []
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            if getattr(rep, "when", "call") != "call":
                continue
            name = nodeid.split("::")[-1]
            parts = name.split("_")           # test, criterion, NN, label...
            num, label = parts[2], " ".join(parts[3:])
            status = "PASS" if rep.passed else "FAIL"
            lines.append((num, f"ACCEPTANCE {num} {status}  {label}"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
