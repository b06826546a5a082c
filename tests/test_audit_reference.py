"""Differential test of the staleness audit and the edge-violation counter
against a per-task reference.

The reference functions below are the plain forms that read a run's schedule
back one step at a time: the bitmask is decoded bit by bit, each task's gaps
come from re-walking the window's steps, and each step's active set is
scanned pair by pair against the current graph.  The package's forms work on
one (T, K) activity matrix and must reproduce them exactly: the same rows in
the same order, the same totals, and plain Python ``int``/``bool`` values
(a numpy scalar would render differently in ``summary.json``).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from songoku.conflict_graph import ConflictGraph
from songoku.experiments import (
    audit_staleness,
    count_true_edge_violations,
    window_step_ranges,
)
from songoku.records import RunRecord, StepRow, WindowRecord, activity, parse_csv


def ref_tasks_from_mask(mask: int) -> tuple:
    out = []
    k = 0
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return tuple(out)


def ref_activation_pairs(steps, task: int):
    prev = None
    for row in steps:
        if task in ref_tasks_from_mask(row.active_mask):
            if prev is not None:
                yield prev, row
            prev = row


def ref_audit_staleness(record) -> dict:
    rows = []
    worst = 0
    ok = True
    last_seen_global = {}
    worst_cross = 0
    for w, t_start, t_end in window_step_ranges(record):
        degrees = [0] * len(w.color_of)
        for (i, j) in w.edges:
            degrees[i] += 1
            degrees[j] += 1
        delta = max(degrees) if degrees else 0
        seen = {}
        for row in record.steps[t_start:t_end]:
            for task in ref_tasks_from_mask(row.active_mask):
                if task in seen:
                    gap = row.t - seen[task] - 1
                    if gap > worst:
                        worst = gap
                    if gap > w.m - 1:
                        ok = False
                if task in last_seen_global:
                    worst_cross = max(worst_cross, row.t - last_seen_global[task] - 1)
                seen[task] = row.t
                last_seen_global[task] = row.t
        for task, last in seen.items():
            rows.append(
                {
                    "r": w.r,
                    "task": task,
                    "max_gap": max(
                        (
                            b.t - a.t - 1
                            for a, b in ref_activation_pairs(record.steps[t_start:t_end], task)
                        ),
                        default=0,
                    ),
                    "bound": w.m - 1,
                    "delta": delta,
                }
            )
        if w.m - 1 > delta and w.edges:
            ok = False
    return {
        "rows": rows,
        "max_gap": worst,
        "max_cross_window_gap": worst_cross,
        "within_window_ok": ok,
    }


def ref_count_true_edge_violations(record, graph_at, from_t: int = 0) -> int:
    violations = 0
    for row in record.steps:
        if row.t < from_t:
            continue
        graph = graph_at(row.t)
        tasks = ref_tasks_from_mask(row.active_mask)
        if any(
            graph.has_edge(a, b)
            for i, a in enumerate(tasks)
            for b in tasks[i + 1 :]
        ):
            violations += 1
    return violations


def step(t: int, mask: int) -> StepRow:
    return StepRow(t=t, tau=0.5, m=1, active_mask=mask, loss=0.0, grad_norm=1.0,
                   refresh=False)


@st.composite
def edge_sets(draw, K):
    pairs = [(i, j) for i in range(K) for j in range(i + 1, K)]
    if not pairs:
        return ()
    return tuple(sorted(draw(st.sets(st.sampled_from(pairs)))))


@st.composite
def synthetic_records(draw):
    """Records with K in 1..12 and T in 0..40: masks that are often 0, tasks
    missing from whole stretches of steps, windows that may share a t_start
    (zero-length windows), start after step 0, or end past T, and random m
    and edges."""
    K = draw(st.integers(1, 12))
    T = draw(st.integers(0, 40))
    full = (1 << K) - 1
    stretch = draw(st.lists(st.integers(0, full), min_size=T // 8 + 1, max_size=T // 8 + 1))
    masks = [
        draw(st.one_of(st.just(0), st.integers(0, full))) & stretch[t // 8]
        for t in range(T)
    ]
    starts = sorted(draw(st.lists(st.integers(0, T + 2), max_size=6)))
    windows = [
        WindowRecord(
            r=r, t_start=t0, tau=0.5, m=draw(st.integers(0, K + 1)),
            edges=draw(edge_sets(K)), color_of=(1,) * K, classes=(),
            extra_slots=(), coverage_failures=(),
        )
        for r, t0 in enumerate(starts)
    ]
    steps = [step(t, mask) for t, mask in enumerate(masks)]
    return RunRecord(config={"K": K}, steps=steps, windows=windows)


@given(synthetic_records())
@settings(max_examples=300, deadline=None)
def test_audit_matches_reference(record):
    got = audit_staleness(record)
    assert got == ref_audit_staleness(record)
    for row in got["rows"]:
        assert all(type(v) is int for v in row.values())
    assert type(got["max_gap"]) is int
    assert type(got["max_cross_window_gap"]) is int
    assert type(got["within_window_ok"]) is bool


@given(synthetic_records(), st.data())
@settings(max_examples=200, deadline=None)
def test_edge_violations_match_reference(record, data):
    K = record.config["K"]
    T = len(record.steps)
    graphs = [
        ConflictGraph.from_edges(K, frozenset(data.draw(edge_sets(K))), tau=0.5)
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    flip = data.draw(st.integers(0, T + 1))
    graph_at = lambda t: graphs[min(t // max(flip, 1), len(graphs) - 1)]
    from_t = data.draw(st.integers(0, T + 1))
    got = count_true_edge_violations(record, graph_at, from_t=from_t)
    assert type(got) is int
    assert got == ref_count_true_edge_violations(record, graph_at, from_t=from_t)


def test_empty_run_has_the_empty_audit():
    window = WindowRecord(r=0, t_start=0, tau=0.5, m=2, edges=((0, 1),),
                          color_of=(1, 2), classes=((0,), (1,)), extra_slots=(),
                          coverage_failures=())
    record = RunRecord(config={"K": 2}, windows=[window])
    assert audit_staleness(record) == {
        "rows": [], "max_gap": 0, "max_cross_window_gap": 0, "within_window_ok": True,
    }


def test_mask_bit_at_or_above_K_raises():
    text = "# run_record v1\nt,tau,m,active_mask,loss,grad_norm,refresh\n"
    text += "0,0.5,1,3,0.0,1.0,0\n1,0.5,1,4,0.0,1.0,0\n"
    steps = parse_csv(text)
    assert activity(steps, 3).tolist() == [[True, True, False], [False, False, True]]
    with pytest.raises(ValueError, match="step 1"):
        activity(steps, 2)
    with pytest.raises(ValueError, match="step 0"):
        activity([step(0, -1)], 4)
    window = WindowRecord(r=0, t_start=0, tau=0.5, m=2, edges=(), color_of=(1, 1),
                          classes=((0, 1),), extra_slots=(), coverage_failures=())
    with pytest.raises(ValueError, match="at or above K=2"):
        audit_staleness(RunRecord(config={"K": 2}, steps=steps, windows=[window]))
    assert np.array_equal(activity([], 5), np.zeros((0, 5), dtype=bool))
