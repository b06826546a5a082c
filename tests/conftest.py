"""Shared test helpers: brute-force coloring oracle, random graph factory,
a window's slots read off its classes and extra slots, and the acceptance-08
run panel."""
from __future__ import annotations

import itertools

import numpy as np

from songoku.combinators import CombinatorConfig
from songoku.conflict_graph import ConflictGraph
from songoku.scheduler import SchedulerConfig
from songoku.sim import DriftingOracle, DriftingSuite, PlantedOracle, make_planted_suite
from songoku.sketch import SketchConfig, make_graph_builder


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


def slot_tasks(classes, extra_slots, slot: int) -> list:
    """The tasks of 1-based ``slot``: its class and its extra copies, ascending."""
    return sorted(list(classes[slot - 1]) + list(dict(extra_slots).get(slot, ())))


def active_for_offset(classes, extra_slots, offset: int) -> list:
    """The tasks served ``offset`` steps into a window: slot offset mod m + 1."""
    return slot_tasks(classes, extra_slots, offset % len(classes) + 1)


def appearances(classes, extra_slots, task: int) -> int:
    """Slots per period that hold ``task``."""
    return sum(task in slot_tasks(classes, extra_slots, s) for s in range(1, len(classes) + 1))


def acceptance_panel() -> list:
    """The four runs of ACCEPTANCE 08, as ``(cfg, oracle, combinators,
    make_builder)``: plain planted, three groups with ``project_and_scale``
    and ``f_min=2``, a drifting suite whose task 3 flips at t=128, and the
    incremental estimator under ``permute_classes``.  ``make_builder()``
    returns a fresh graph builder (or None), so a run can be repeated."""
    suite = make_planted_suite(
        K=8, d=16, groups=2, tau=0.5, gamma=0.3, sigma=0.5, m0=1.0, seed=11
    )
    suite3 = make_planted_suite(
        K=6, d=12, groups=3, tau=0.4, gamma=0.09, sigma=0.3, m0=1.0, seed=12
    )
    drift = DriftingSuite(
        base=make_planted_suite(
            K=8, d=8, groups=2, tau=0.5, gamma=0.3, sigma=0.0, m0=1.0, seed=13
        ),
        flip_task=3,
        flip_time=128,
    )
    return [
        (
            SchedulerConfig(K=8, d=16, T=160, R=16, beta=0.9, tau_star=0.5,
                            T_warm=24, eta=0.05, seed=11),
            PlantedOracle(suite),
            None,
            lambda: None,
        ),
        (
            SchedulerConfig(K=6, d=12, T=128, R=16, beta=0.9, tau_star=0.4,
                            f_min=2, eta=0.05, seed=12),
            PlantedOracle(suite3),
            CombinatorConfig(mode="project_and_scale"),
            lambda: None,
        ),
        (
            SchedulerConfig(K=8, d=8, T=256, R=32, beta=0.9, tau_star=0.5,
                            eta=0.05, seed=13),
            DriftingOracle(drift),
            None,
            lambda: None,
        ),
        (
            SchedulerConfig(K=8, d=16, T=128, R=16, beta=0.9, tau_star=0.5,
                            permute_classes=True, eta=0.05, seed=5),
            PlantedOracle(suite),
            None,
            lambda: make_graph_builder(SketchConfig(mode="incremental"), seed=5),
        ),
    ]


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
