"""Self-tests of the benchmark's output checks.

Each check must pass on a clean round and fail on a record corrupted in the
way the check exists to catch.  Run from the repository root:

    python3 -m pytest -q schedule_bench/test_checks.py
"""
import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
from workloads import AuditWorkload, RunWorkload, segment_bounds  # noqa: E402


@pytest.fixture(scope="module")
def run_round():
    wl = RunWorkload(K=12, d=64, groups=3, tau=0.3, gamma=0.1,
                     sigma=0.01, R=8, f_min=2, T=96)
    wl.setup(seed=3, out_dir="")
    return wl, wl.run_round(0)


@pytest.fixture(scope="module")
def audit_round(tmp_path_factory):
    wl = AuditWorkload(K=12, d=64, groups=3, tau=0.3, gamma=0.1,
                       sigma=0.01, R=8, f_min=2, T=96, sketch_modes=("fd",))
    wl.setup(seed=3, out_dir=str(tmp_path_factory.mktemp("audit")))
    return wl, wl.run_round(0)


def _with_steps(res, steps):
    record = dataclasses.replace(res.record, steps=steps)
    return dataclasses.replace(res, record=record)


def _with_windows(res, windows):
    record = dataclasses.replace(res.record, windows=windows)
    return dataclasses.replace(res, record=record)


def _steady(wl, res):
    """Index of the first window built at tau_star that serves >= m steps."""
    for n, (w, a, b) in enumerate(checks.window_spans(res.record.windows, wl.T)):
        if w.tau == wl.params["tau"] and w.m >= 2 and b - a >= 2 * w.m:
            return res.record.windows.index(w), a
    raise AssertionError("no steady window")


def test_clean_rounds_pass(run_round, audit_round):
    for wl, res in (run_round, audit_round):
        assert wl.check(res) == []


def test_decode_mask_matches_bits():
    for mask in (0, 1, 0b1011, 1 << 70 | 1 << 3):
        want = [k for k in range(80) if mask >> k & 1]
        assert checks.decode_mask(mask).tolist() == want


def test_planted_truth_catches_an_extra_edge(run_round):
    wl, res = run_round
    n, _ = _steady(wl, res)
    windows = list(res.record.windows)
    w = windows[n]
    extra = next((i, j) for i in range(wl.params["K"]) for j in range(i + 1, wl.params["K"])
                 if (i, j) not in w.edges)
    windows[n] = dataclasses.replace(w, edges=tuple(sorted(w.edges + (extra,))))
    assert any(m.startswith("planted truth") for m in wl.check(_with_windows(res, windows)))


def test_proper_schedule_catches_a_co_scheduled_edge(run_round):
    wl, res = run_round
    n, a = _steady(wl, res)
    i, j = res.record.windows[n].edges[0]
    steps = list(res.record.steps)
    steps[a] = dataclasses.replace(steps[a], active_mask=steps[a].active_mask | 1 << i | 1 << j)
    fails = checks.check_proper_schedule(res.record.windows, checks.activity(steps, wl.params["K"]))
    assert fails and "co-schedules" in fails[0]


def test_welsh_powell_bound_catches_a_missing_edge_set(run_round):
    wl, res = run_round
    n, _ = _steady(wl, res)
    windows = list(res.record.windows)
    windows[n] = dataclasses.replace(windows[n], edges=())
    assert checks.check_welsh_powell_bound(windows, wl.params["K"])


def test_coverage_catches_an_unflagged_short_task(run_round):
    wl, res = run_round
    n, a = _steady(wl, res)
    w = res.record.windows[n]
    task = w.classes[0][0]
    steps = list(res.record.steps)
    for t in range(a, a + w.m):
        steps[t] = dataclasses.replace(steps[t], active_mask=steps[t].active_mask & ~(1 << task))
    windows = list(res.record.windows)
    windows[n] = dataclasses.replace(w, coverage_failures=tuple(
        k for k in w.coverage_failures if k != task))
    act = checks.activity(steps, wl.params["K"])
    assert checks.check_coverage(windows, act, wl.params["f_min"])


def test_coverage_catches_a_flagged_task_that_reaches_f_min(run_round):
    wl, res = run_round
    n, a = _steady(wl, res)
    w = res.record.windows[n]
    task = w.coverage_failures[0]
    steps = list(res.record.steps)
    t = next(t for t in range(a, a + w.m) if not steps[t].active_mask >> task & 1)
    steps[t] = dataclasses.replace(steps[t], active_mask=steps[t].active_mask | 1 << task)
    act = checks.activity(steps, wl.params["K"])
    fails = checks.check_coverage(res.record.windows, act, wl.params["f_min"])
    assert any("that reach f_min" in m for m in fails)


def test_coverage_catches_a_flagged_task_with_a_free_slot(run_round):
    wl, res = run_round
    n, _ = _steady(wl, res)
    w = res.record.windows[n]
    task = w.coverage_failures[0]
    other = next(cls for cls in w.classes if task not in cls)
    windows = list(res.record.windows)
    windows[n] = dataclasses.replace(w, edges=tuple(
        (i, j) for i, j in w.edges if not {i, j} & {task} or not {i, j} & set(other)))
    act = checks.activity(res.record.steps, wl.params["K"])
    fails = checks.check_coverage(windows, act, wl.params["f_min"])
    assert any("conflict-free slot" in m for m in fails)


def test_staleness_catches_an_idle_task(run_round):
    wl, res = run_round
    n, a = _steady(wl, res)
    w = res.record.windows[n]
    task = w.classes[-1][0]
    steps = list(res.record.steps)
    for t in range(a + 1, a + 1 + w.m):
        steps[t] = dataclasses.replace(steps[t], active_mask=steps[t].active_mask & ~(1 << task))
    assert checks.check_staleness(res.record.windows, checks.activity(steps, wl.params["K"]))


def test_update_identity_catches_a_perturbed_grad_norm(run_round):
    wl, res = run_round
    steps = list(res.record.steps)
    steps[40] = dataclasses.replace(steps[40], grad_norm=steps[40].grad_norm * (1 + 1e-9))
    fails = wl.check(_with_steps(res, steps))
    assert any("grad_norm" in m for m in fails)


def test_update_identity_catches_swapped_active_masks(run_round):
    wl, res = run_round
    n, a = _steady(wl, res)
    steps = list(res.record.steps)
    steps[a], steps[a + 1] = (
        dataclasses.replace(steps[a], active_mask=steps[a + 1].active_mask),
        dataclasses.replace(steps[a + 1], active_mask=steps[a].active_mask),
    )
    fails = wl.check(_with_steps(res, steps))
    assert any("active_mask" in m for m in fails)


def test_update_identity_catches_a_wrong_update(run_round):
    wl, res = run_round
    served = [list(seg) for seg in res.served]
    last = max(i for i, seg in enumerate(served) if seg[0] == 50)
    served[last][1] = served[last][1] + 1e-6
    fails = wl.check(dataclasses.replace(res, served=served))
    assert any("theta" in m for m in fails)


def test_audit_gap_catches_a_changed_csv(audit_round):
    wl, res = audit_round
    lines = res.artifacts["run_csv"].splitlines()
    # R = 8: steps 48..55 form one window; with nobody active at step 52 the
    # tasks of its slot wait from step 49 to step 55
    t, tau, m, mask, *rest = lines[2 + 52].split(",")
    lines[2 + 52] = ",".join([t, tau, m, "0", *rest])
    fails = checks.check_audit_gap("\n".join(lines) + "\n", res.artifacts["max_gap"])
    assert fails and fails[0].startswith("audit")


def test_determinism_catches_a_changed_hash(run_round):
    _, res = run_round
    assert checks.check_determinism(res.content_hashes, ("0" * 64,))
    assert not checks.check_determinism(res.content_hashes, tuple(res.content_hashes))


def test_segment_bounds_take_the_step_start_after_a_refresh():
    # steps 0..3, refresh at step 1 (clock 2 stamped twice), final refresh at 3
    clock = [(0, 10), (1, 20), (2, 25), (2, 30), (3, 40), (4, 45)]
    assert segment_bounds(0, clock, 50, T=4).tolist() == [0, 10, 20, 30, 40, 50]
