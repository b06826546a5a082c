"""Output checks for one benchmark round.

Each check recomputes what it compares against from the round's inputs or
from a property the method must have; none compares against a stored copy of
an earlier output.  A check returns a list of failure messages (empty when
the round passes), so a corrupted record makes it fail without raising.
"""
from __future__ import annotations

import numpy as np


def decode_mask(mask: int) -> np.ndarray:
    """Task indices of an active-set bitmask (bit k set iff task k active)."""
    bits = bin(int(mask))[:1:-1]
    return np.flatnonzero(np.frombuffer(bits.encode(), dtype=np.uint8) == ord("1"))


def planted_edges(mu: np.ndarray, tau: float) -> frozenset:
    """Edges of the planted means' graph: (i, j) iff -cos(mu_i, mu_j) > tau."""
    norms = np.linalg.norm(mu, axis=1)
    rho = -(mu @ mu.T) / np.outer(norms, norms)
    i, j = np.nonzero(np.triu(rho > tau, k=1))
    return frozenset(zip(i.tolist(), j.tolist()))


def window_spans(windows, T: int) -> list:
    """(window, first step, end step) for every window that serves a step."""
    out = []
    for n, w in enumerate(windows):
        end = windows[n + 1].t_start if n + 1 < len(windows) else T
        if w.t_start < end:
            out.append((w, w.t_start, end))
    return out


def _adjacency(K: int, edges) -> np.ndarray:
    adj = np.zeros((K, K), dtype=bool)
    if edges:
        e = np.asarray(list(edges), dtype=np.int64)
        adj[e[:, 0], e[:, 1]] = True
        adj[e[:, 1], e[:, 0]] = True
    return adj


def activity(steps, K: int) -> np.ndarray:
    """Boolean (steps x K) matrix: task k active at step t."""
    act = np.zeros((len(steps), K), dtype=bool)
    for n, row in enumerate(steps):
        act[n, decode_mask(row.active_mask)] = True
    return act


def check_planted_truth(windows, truth: frozenset, tau_star: float) -> list:
    """Every window built at tau_star has exactly the planted edges."""
    fails = []
    for w in windows:
        if w.tau == tau_star and frozenset(w.edges) != truth:
            got = frozenset(w.edges)
            fails.append(
                f"planted truth: window {w.r} has {len(got - truth)} extra and "
                f"{len(truth - got)} missing edges"
            )
    return fails


def check_proper_schedule(windows, act: np.ndarray) -> list:
    """No step's active set holds an edge of its window's graph."""
    fails = []
    K = act.shape[1]
    for w, a, b in window_spans(windows, len(act)):
        adj = _adjacency(K, w.edges).astype(np.int64)
        block = act[a:b].astype(np.int64)
        # (A adj A^T)_tt counts ordered conflicting pairs inside step t
        clash = np.einsum("tk,kl,tl->t", block, adj, block)
        for t in np.flatnonzero(clash):
            fails.append(f"proper schedule: step {a + int(t)} co-schedules an edge of window {w.r}")
    return fails


def check_welsh_powell_bound(windows, K: int) -> list:
    """m <= max degree + 1, and the classes partition the tasks."""
    fails = []
    for w in windows:
        deg = _adjacency(K, w.edges).sum(axis=1)
        if w.m > int(deg.max(initial=0)) + 1:
            fails.append(f"welsh-powell: window {w.r} uses m={w.m} > max degree {int(deg.max())} + 1")
        members = sorted(v for cls in w.classes for v in cls)
        if members != list(range(K)) or len(w.classes) != w.m:
            fails.append(f"welsh-powell: window {w.r} classes do not partition the {K} tasks")
    return fails


def check_coverage(windows, act: np.ndarray, f_min: int) -> list:
    """Over one period of m steps, every task is active f_min times or is
    listed in the window's coverage failures.  A listed task really falls
    short, and every slot it is missing from holds one of its neighbours in
    the window's graph: no conflict-free slot was left unused."""
    fails = []
    K = act.shape[1]
    for w, a, b in window_spans(windows, len(act)):
        if b - a < w.m:
            continue
        period = act[a:a + w.m]
        counts = period.sum(axis=0)
        flagged = np.zeros(K, dtype=bool)
        flagged[list(w.coverage_failures)] = True
        short = np.flatnonzero((counts < f_min) & ~flagged)
        if len(short):
            fails.append(f"coverage: window {w.r} leaves tasks {short[:5].tolist()} under f_min unflagged")
        covered = np.flatnonzero((counts >= f_min) & flagged)
        if len(covered):
            fails.append(f"coverage: window {w.r} flags tasks {covered[:5].tolist()} that reach f_min")
        # blocked[s, k]: some task active in slot s conflicts with task k
        adj = _adjacency(K, w.edges).astype(np.int64)
        blocked = period.astype(np.int64) @ adj > 0
        placeable = np.flatnonzero(flagged & (~period & ~blocked).any(axis=0))
        if len(placeable):
            fails.append(f"coverage: window {w.r} flags tasks {placeable[:5].tolist()} "
                         "that a conflict-free slot could take")
    return fails


def check_staleness(windows, act: np.ndarray) -> list:
    """Within a window, every task is active at least once in any m
    consecutive steps."""
    fails = []
    K = act.shape[1]
    for w, a, b in window_spans(windows, len(act)):
        if b - a < w.m:
            continue
        csum = np.vstack([np.zeros((1, K), dtype=np.int64), np.cumsum(act[a:b], axis=0)])
        per_run = csum[w.m:] - csum[:-w.m]
        stale = np.flatnonzero((per_run == 0).any(axis=0))
        if len(stale):
            fails.append(f"staleness: window {w.r} leaves tasks {stale[:5].tolist()} idle for {w.m} steps")
    return fails


def check_update_identity(steps, served, pool: np.ndarray, eta: float) -> list:
    """theta seen at step t+1 == theta_t - eta * sum of rows served at step t;
    grad_norm is the norm of that sum and active_mask the set asked for."""
    fails = []
    start_of = {}
    for seg in served:                # the last segment of a clock value is its step
        start_of[seg[0]] = seg
    P = pool.shape[0]
    for row in steps:
        seg = start_of.get(row.t)
        if seg is None or seg[1] is None:
            fails.append(f"update identity: step {row.t} was never served")
            continue
        tasks = np.asarray(seg[2], dtype=np.int64)
        total = pool[row.t % P][tasks].sum(axis=0)
        norm = float(np.linalg.norm(total))
        if abs(row.grad_norm - norm) > 1e-12 * max(norm, 1.0):
            fails.append(f"update identity: step {row.t} grad_norm {row.grad_norm!r} != {norm!r}")
        if set(decode_mask(row.active_mask).tolist()) != set(tasks.tolist()):
            fails.append(f"update identity: step {row.t} active_mask differs from the tasks served")
        nxt = start_of.get(row.t + 1)
        if nxt is None or nxt[1] is None:
            continue
        expect = seg[1] - eta * total
        scale = float(np.linalg.norm(seg[1])) + eta * norm
        if float(np.linalg.norm(nxt[1] - expect)) > 1e-12 * max(scale, 1e-300):
            fails.append(f"update identity: theta after step {row.t} is not theta - eta * sum")
    return fails


def csv_max_gap(run_csv: str) -> int:
    """Largest within-window gap between two activations of one task,
    recomputed from a run_record CSV alone (windows end at refresh rows)."""
    rows = [ln.split(",") for ln in run_csv.splitlines()[2:] if ln.strip()]
    worst = 0
    last: dict = {}
    for t_text, _, _, mask, _, _, refresh in rows:
        t = int(t_text)
        for k in decode_mask(int(mask)).tolist():
            if k in last:
                worst = max(worst, t - last[k] - 1)
            last[k] = t
        if refresh == "1":
            last = {}
    return worst


def check_audit_gap(run_csv: str, reported: int) -> list:
    gap = csv_max_gap(run_csv)
    if gap != reported:
        return [f"audit: run_record.csv gives max gap {gap}, the program reports {reported}"]
    return []


def check_determinism(reference: tuple, hashes: tuple) -> list:
    if reference != hashes:
        return [f"determinism: content hashes {hashes} differ from the first round's {reference}"]
    return []
