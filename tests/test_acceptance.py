"""Acceptance gate: ten end-to-end criteria with pinned tolerances and budgets.

Each criterion is one test; the terminal summary prints one PASS/FAIL line
per criterion (see conftest).  Wall-clock budgets are asserted inside the
tests, so a pathological slowdown fails loudly instead of silently dragging.
"""
import math
import time

import numpy as np
import pytest

from conftest import acceptance_panel, chromatic_number, random_graph
from songoku.bench import BenchConfig, run_bench
from songoku.config import parse_config
from songoku.conflict_graph import is_proper, max_degree, welsh_powell
from songoku.experiments import run_experiment, window_step_ranges
from songoku.grad_stats import beta_for_effective_sample_size, descent_check
from songoku.records import tasks_from_mask
from songoku.scheduler import run
from songoku.sim import (
    aggregated_step,
    convergence_experiment,
    default_power_well,
    make_planted_suite,
    recovery_rate,
    reference_block_diagonal_instance,
    reference_negative_cross_instance,
    required_effective_sample_size,
    scheduled_refresh,
    strict_improvement_check,
    true_graph,
)
from songoku.sketch import (
    build_gram_cache,
    edge_sample_graph,
    fd_cosine_bounds,
    fd_task_gram,
    incremental_gram,
    jl_project,
)

TAUS = (0.1, 0.3, 0.5)
SET_SIZES = (2, 3, 4, 5, 6)
DIMS = (2, 32)


def _compatible_set(rng: np.random.Generator, n: int, d: int, tau: float) -> np.ndarray:
    """A random tau-compatible gradient set.

    Start from iid gaussians; if any pair conflicts too strongly, blend the
    set toward a shared direction until compatible (the fully aligned limit
    always is).  The partial blends keep many pairs near the boundary.
    """
    g = rng.standard_normal((n, d)) * rng.uniform(0.2, 3.0, size=(n, 1))
    if descent_check(g, tau).compatible:
        return g
    center = rng.standard_normal(d)
    center /= np.linalg.norm(center)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    for lam in (0.2, 0.4, 0.6, 0.8):
        blend = (1.0 - lam) * g + lam * norms * center
        if descent_check(blend, tau).compatible:
            return blend
    return norms * center


def test_criterion_01_descent_preservation_on_compatible_sets():
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    checked = 0
    violations = 0
    while checked < 10_000:
        tau = TAUS[checked % 3]
        n = SET_SIZES[(checked // 3) % 5]
        d = DIMS[(checked // 15) % 2]
        g = _compatible_set(rng, n, d, tau)
        ck = descent_check(g, tau)
        assert ck.compatible
        total_sq = float(np.sum(g * g))
        if ck.lhs < ck.rhs_worstcase - 1e-9 * max(total_sq, 1.0):
            violations += 1
        checked += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"


def _arbitrary_set(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    kind = rng.integers(0, 10)
    if kind < 6:
        return rng.standard_normal((n, d)) * rng.uniform(0.1, 5.0, size=(n, 1))
    if kind < 8:
        # adversarial antipodal bundles: half +v, half -v, plus jitter
        v = rng.standard_normal(d)
        signs = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
        return signs[:, None] * v[None, :] + 0.01 * rng.standard_normal((n, d))
    if kind < 9:
        g = rng.standard_normal((n, d))
        g[rng.integers(0, n)] = 0.0            # include a zero gradient
        return g
    g = rng.standard_normal((1, d))
    return np.repeat(g, n, axis=0)             # fully duplicated set


def test_criterion_02_assumption_free_bound_on_arbitrary_sets():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    violations = 0
    cap_violations = 0
    for i in range(10_000):
        tau = TAUS[i % 3]
        n = SET_SIZES[(i // 3) % 5]
        d = DIMS[(i // 15) % 2]
        g = _arbitrary_set(rng, n, d)
        ck = descent_check(g, tau)
        total_sq = float(np.sum(g * g))
        if ck.lhs < ck.rhs_data_dependent - 1e-9 * max(total_sq, 1.0):
            violations += 1
        if ck.compatible and ck.tau_eff > tau * (n - 1) + 1e-12:
            cap_violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert cap_violations == 0
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_03_coloring_propriety_and_cyclic_staleness():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    chi_checked = 0
    for _ in range(1_000):
        K = int(rng.integers(2, 65))
        p = float(rng.uniform(0.0, 1.0))
        graph = random_graph(rng, K, p)
        coloring = welsh_powell(graph)
        delta = max_degree(graph)
        assert is_proper(coloring, graph)
        assert coloring.m <= delta + 1
        # cyclic execution over three full periods
        last = {}
        max_gap = 0
        for t in range(3 * coloring.m):
            slot = (t % coloring.m) + 1
            for task, color in enumerate(coloring.color_of):
                if color == slot:
                    if task in last:
                        max_gap = max(max_gap, t - last[task] - 1)
                    last[task] = t
        assert max_gap <= coloring.m - 1 <= max(delta, 0)
        if K <= 8:
            chi_checked += 1
            assert chromatic_number(graph) <= coloring.m
    elapsed = time.perf_counter() - start
    assert chi_checked > 0
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_04_exact_recovery_at_calibrated_sample_size():
    start = time.perf_counter()
    suite = make_planted_suite(
        K=8, d=8, groups=2, tau=0.5, gamma=0.3, sigma=1.0, m0=1.0, seed=0
    )
    req = required_effective_sample_size(suite, delta=0.1)
    R = max(8, math.ceil(2 * req))
    beta = beta_for_effective_sample_size(req, R)
    res = recovery_rate(suite, beta, R, tau=0.5, trials=500, seed=0)
    assert res.rate >= 0.90, f"recovery rate {res.rate} below 0.90"

    control_n = max(1.0, req / 100.0)
    Rc = max(8, math.ceil(2 * control_n))
    beta_c = beta_for_effective_sample_size(control_n, Rc)
    ctrl = recovery_rate(suite, beta_c, Rc, tau=0.5, trials=500, seed=0)
    assert ctrl.rate <= 0.5, f"control rate {ctrl.rate} above 0.5"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_05_scheduled_beats_aggregated_on_reference_instance():
    start = time.perf_counter()
    quad, groups, theta0, eta = reference_negative_cross_instance()
    assert 0.0 < eta <= 1.0 / quad.L + 1e-15
    report = strict_improvement_check(quad, theta0, groups, eta)
    assert report["negative_cross_terms"]
    assert report["holds"]
    margin = report["loss_aggregated"] - report["loss_scheduled"]
    assert margin >= 1e-6, f"improvement margin {margin} below 1e-6"

    quad_b, groups_b, theta_b, eta_b = reference_block_diagonal_instance()
    agg = aggregated_step(quad_b, theta_b, groups_b, eta_b)
    sch = scheduled_refresh(quad_b, theta_b, groups_b, eta_b)
    np.testing.assert_allclose(agg, sch, atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_06_randomized_variant_convergence_slope():
    start = time.perf_counter()
    well, classes = default_power_well()
    report = convergence_experiment(
        well, classes, T_grid=(100, 1000, 10000), n_seeds=20, seed=0,
        variant="randomized",
    )
    assert -1.3 <= report["slope"] <= -0.7, f"slope {report['slope']} out of band"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_07_sketch_backends_match_dense():
    start = time.perf_counter()

    # (a) incremental Gram equals a dense rebuild on 100 random sequences
    for seq in range(100):
        rng = np.random.default_rng(9000 + seq)
        K, d = 12, 24
        M = rng.standard_normal((K, d))
        cache = build_gram_cache(M, rebuild_every=1_000_000)
        for _ in range(5):
            rows = rng.choice(K, size=rng.integers(1, 4), replace=False)
            M = M.copy()
            M[rows] += rng.standard_normal((len(rows), d))
            cache = incremental_gram(cache, M, rows)
            np.testing.assert_allclose(cache.gram, M @ M.T, atol=1e-12)

    # (b) certified low-error pairs never flip an edge decision
    suite = make_planted_suite(
        K=8, d=64, groups=2, tau=0.5, gamma=0.3, sigma=0.0, m0=1.0, seed=1
    )
    certified_seen = 0
    for trial in range(100):
        rng = np.random.default_rng(31_000 + trial)
        Q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
        M = suite.mu @ Q
        gram = M @ M.T
        norms = np.linalg.norm(M, axis=1)
        cos = gram / np.outer(norms, norms)
        dense_edges = -cos > 0.5
        for ell in (16, 4):
            gram_hat, exact_norms, _ = fd_task_gram(M, ell)
            cos_hat, bound = fd_cosine_bounds(gram_hat, exact_norms)
            sketch_edges = -cos_hat > 0.5
            for i in range(8):
                for j in range(i + 1, 8):
                    if bound[i, j] < 0.3:
                        certified_seen += 1
                        assert sketch_edges[i, j] == dense_edges[i, j]
    assert certified_seen > 0

    # (c) JL at the prescribed target dimension recovers the dense graph
    suite_jl = make_planted_suite(
        K=8, d=128, groups=2, tau=0.5, gamma=0.3, sigma=0.0, m0=1.0, seed=2
    )
    eps = 0.3 / 2.0
    r = math.ceil(eps**-2 * math.log(8))
    M = suite_jl.mu
    norms = np.linalg.norm(M, axis=1)
    dense = -(M @ M.T) / np.outer(norms, norms) > 0.5
    jl_hits = 0
    for trial in range(100):
        P = jl_project(M, r, seed=51_000 + trial)
        pn = np.linalg.norm(P, axis=1)
        approx = -(P @ P.T) / np.outer(pn, pn) > 0.5
        off = ~np.eye(8, dtype=bool)
        jl_hits += bool(np.all(approx[off] == dense[off]))
    assert jl_hits >= 95, f"JL matched dense in only {jl_hits}/100 trials"

    # (d) budgeted edge sampling recovers the dense graph
    suite_es = make_planted_suite(
        K=16, d=32, groups=2, tau=0.5, gamma=0.3, sigma=0.0, m0=1.0, seed=3
    )
    Ms = suite_es.mu
    ns = np.linalg.norm(Ms, axis=1)
    rho = -(Ms @ Ms.T) / np.outer(ns, ns)
    truth = true_graph(suite_es)
    es_hits = 0
    for trial in range(100):
        sampled = edge_sample_graph(
            lambda i, j: rho[i, j], K=16, tau=0.5, gamma=0.3, seed=61_000 + trial
        )
        es_hits += bool(sampled.graph.edges == truth.edges)
    assert es_hits >= 95, f"edge sampling matched dense in only {es_hits}/100 trials"

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"


def _audit_run(record, T_warm: int) -> None:
    # no step may co-schedule tasks joined by its window's conflict graph
    for window, t0, t1 in window_step_ranges(record):
        edges = set(window.edges)
        for row in record.steps[t0:t1]:
            active = tasks_from_mask(row.active_mask)
            for a_idx, a in enumerate(active):
                for b in active[a_idx + 1:]:
                    assert (a, b) not in edges, (
                        f"step {row.t} co-scheduled conflict edge ({a}, {b})"
                    )
    # threshold trace: flat 1.0 through warm-up, then non-increasing
    for row in record.steps:
        if row.t < T_warm:
            assert row.tau == 1.0
    post = [row.tau for row in record.steps if row.t >= T_warm]
    for a, b in zip(post, post[1:]):
        assert b <= a + 1e-15


def test_criterion_08_scheduler_behavioral_audit():
    for cfg, oracle, comb, make_builder in acceptance_panel():
        record = run(cfg, oracle, combinators=comb, graph_builder=make_builder())
        _audit_run(record, cfg.T_warm)
        # bit-identical reproduction under the same seed
        repeat = run(cfg, oracle, combinators=comb, graph_builder=make_builder())
        assert record.to_csv() == repeat.to_csv()
        assert record.content_hash() == repeat.content_hash()


def test_criterion_09_ablation_directionality(tmp_path):
    start = time.perf_counter()
    single_cfg = parse_config(
        overrides={"K": 8, "d": 8, "steps": 512, "R": 32, "sigma": 0.75, "seed": 0}
    )
    single = run_experiment("ablation_singlestep", single_cfg, str(tmp_path / "ss"))
    res = single["results"]
    assert res["single_step"]["instability"] > res["full_history"]["instability"]
    assert res["single_step"]["recovery_fraction"] < res["full_history"]["recovery_fraction"]

    static_cfg = parse_config(
        overrides={"K": 8, "d": 8, "steps": 512, "R": 32, "sigma": 0.0, "seed": 0}
    )
    static = run_experiment("ablation_static", static_cfg, str(tmp_path / "st"))
    counts = static["results"]["stale_violations"]
    assert counts["static"] >= 1
    assert counts["dynamic"] == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_10_bench_scaling_trends():
    # Reduced-size regime (d=128, 300 steps, 3 repeats): on a single CPU the
    # d=1024 default makes the uniform baseline memory-bound, so its time
    # scales with K*d and the <2x flatness claim cannot hold on this class of
    # hardware; at d=128 per-step overhead dominates and the trend claims are
    # meaningful.  Absolute seconds are never asserted.
    start = time.perf_counter()
    result = run_bench(
        BenchConfig(
            K_values=(3, 6, 16, 40), R_values=(4, 32, 256), d=128,
            steps=300, repeats=3, seed=0,
        )
    )
    songoku_by_k = [
        result.select(method="songoku", K=k, R=32)[0]["mean_s"]
        for k in (3, 6, 16, 40)
    ]
    for slower, faster in zip(songoku_by_k[1:], songoku_by_k):
        assert slower > faster, f"scheduler time not increasing in K: {songoku_by_k}"

    uniform_by_k = [
        result.select(method="uniform", K=k, R=32)[0]["mean_s"]
        for k in (3, 6, 16, 40)
    ]
    spread = max(uniform_by_k) / min(uniform_by_k)
    assert spread < 2.0, f"uniform baseline varies {spread:.2f}x across K"

    songoku_by_r = [
        result.select(method="songoku", K=40, R=r)[0]["mean_s"]
        for r in (4, 32, 256)
    ]
    for lower_r, higher_r in zip(songoku_by_r, songoku_by_r[1:]):
        assert higher_r <= lower_r * 1.05, (
            f"scheduler time increased with refresh period: {songoku_by_r}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"budget exceeded: {elapsed:.1f}s"
