import math

import numpy as np
import pytest

from songoku import scheduler
from songoku.combinators import CombinatorConfig, apply_combinators
from songoku.grad_stats import tau_eff, update_ema
from songoku.records import (
    RunRecord,
    StepRow,
    WindowRecord,
    active_mask,
    parse_csv,
    tasks_from_mask,
)
from songoku.scheduler import (
    SchedulerConfig,
    anneal_tau,
    apply_update,
    init_state,
    refresh,
    run,
)
from songoku.sim import (
    PlantedOracle,
    QuadraticOracle,
    make_planted_suite,
    reference_block_diagonal_instance,
)


def small_cfg(**kw):
    base = dict(K=4, d=6, T=64, R=8, beta=0.8, tau_star=0.5, seed=3)
    base.update(kw)
    return SchedulerConfig(**base)


class TestConfig:
    def test_horizon_defaults_to_4R(self):
        assert small_cfg(R=16).horizon == 64
        assert small_cfg(R=16, anneal_horizon=5).horizon == 5

    def test_step_size_rules(self):
        cfg = small_cfg(T=400, eta=2.0, eta_rule="const_over_sqrt_T")
        assert cfg.step_size() == pytest.approx(0.1)
        assert small_cfg(eta=2.0).step_size() == 2.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"K": 0},
            {"d": 0},
            {"T": -1},
            {"R": 0},
            {"tau_star": 0.0},
            {"tau_star": 1.0001},
            {"beta": 1.0},
            {"T_warm": 64},
            {"f_min": 0},
            {"eta": 0.0},
            {"eta_rule": "warp"},
            {"anneal_a": 0.0},
            {"anneal_horizon": 0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            small_cfg(**kw)

    def test_tau_star_one_allowed(self):
        cfg = small_cfg(tau_star=1.0)
        assert anneal_tau(10_000, cfg) == 1.0


class TestAnnealTau:
    def test_warmup_pins_to_one(self):
        cfg = small_cfg(T_warm=10)
        for t in range(10):
            assert anneal_tau(t, cfg) == 1.0

    def test_glide_start_and_clamp(self):
        cfg = small_cfg(T_warm=4, anneal_horizon=32)
        assert anneal_tau(4, cfg) == 1.0  # s = 0
        assert anneal_tau(4 + 32, cfg) == 0.5
        assert anneal_tau(4 + 33, cfg) == 0.5
        assert anneal_tau(10_000, cfg) == 0.5

    def test_midpoint_value(self):
        cfg = small_cfg(T_warm=0, anneal_horizon=128, tau_star=0.5, anneal_a=9.0)
        expect = 1.0 - 0.5 * math.log1p(9 * 64) / math.log1p(9 * 128)
        assert anneal_tau(64, cfg) == pytest.approx(expect)
        assert anneal_tau(64, cfg) == pytest.approx(0.549097, abs=1e-6)

    def test_monotone_nonincreasing(self):
        cfg = small_cfg(T_warm=7, anneal_horizon=50, tau_star=0.3)
        vals = [anneal_tau(t, cfg) for t in range(80)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[0] == 1.0 and vals[-1] == pytest.approx(0.3)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            anneal_tau(-1, small_cfg())


class TestStateAndUpdates:
    def test_init_state_installs_all_task_window(self):
        state = init_state(small_cfg())
        assert state.schedule.m == 1
        assert state.schedule.active_for_offset(0) == [0, 1, 2, 3]
        assert state.tau == 1.0
        assert state.stats.included_count() == 0

    def test_init_theta_shape_checked(self):
        with pytest.raises(ValueError):
            init_state(small_cfg(), theta0=np.zeros(5))

    def test_apply_update_sums_active_gradients(self):
        state = init_state(small_cfg(d=2))
        block = np.array([[1.0, 0.0], [0.0, 2.0]])
        apply_update(state, block.sum(axis=0), 0.5)
        np.testing.assert_allclose(state.theta, [-0.5, -1.0])

    def test_refresh_rebuilds_from_probes(self):
        state = init_state(small_cfg(K=2, d=2))
        probes = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        refresh(state, probes, tau=0.5)
        assert state.graph.edges == {(0, 1)}
        assert state.schedule.m == 2
        assert state.r == 1 and state.tau == 0.5

    def test_refresh_degenerate_falls_back(self):
        state = init_state(small_cfg(K=2, d=2))
        refresh(state, [np.zeros(2), np.zeros(2)], tau=0.5)
        assert state.schedule.m == 1
        assert state.graph.edges == frozenset()

    def test_frozen_state_keeps_schedule_but_tracks_stats(self):
        state = init_state(small_cfg(K=2, d=2, freeze_after_first_coloring=True))
        refresh(state, [np.array([1.0, 0.0]), np.array([-1.0, 0.0])], tau=0.5)
        assert state.frozen
        before = state.schedule.base_classes
        refresh(state, [np.array([1.0, 0.0]), np.array([1.0, 0.0])], tau=0.5)
        assert state.schedule.base_classes == before  # grouping pinned
        assert state.stats.steps.tolist() == [2, 2]   # statistics still advance

    def test_active_set_cycles_through_slots(self):
        state = init_state(small_cfg(K=2, d=2))
        refresh(state, [np.array([1.0, 0.0]), np.array([-1.0, 0.0])], tau=0.5)
        state.t_r = 8
        sets = [state.schedule.active_for_offset(t - state.t_r) for t in range(8, 12)]
        assert sets[0] != sets[1]
        assert sets[0] == sets[2] and sets[1] == sets[3]


def planted_oracle(seed=0, sigma=0.5, K=4, d=6):
    suite = make_planted_suite(
        K=K, d=d, groups=2, tau=0.5, gamma=0.3, sigma=sigma, m0=1.0, seed=seed
    )
    return PlantedOracle(suite)


class TestRun:
    def test_zero_steps_is_empty(self):
        record = run(small_cfg(T=0), planted_oracle())
        assert record.steps == [] and record.windows == []

    def test_refresh_cadence_and_window_count(self):
        record = run(small_cfg(T=64, R=16), planted_oracle())
        flags = [row.t for row in record.steps if row.refresh]
        assert flags == [15, 31, 47, 63]
        assert [w.t_start for w in record.windows] == [0, 16, 32, 48, 64]

    def test_warmup_rows_pin_tau(self):
        record = run(small_cfg(T=32, T_warm=12, R=8), planted_oracle())
        for row in record.steps:
            if row.t < 12:
                assert row.tau == 1.0

    def test_same_seed_bit_identical(self):
        cfg = small_cfg(T=48, R=8)
        a = run(cfg, planted_oracle(seed=5))
        b = run(cfg, planted_oracle(seed=5))
        assert a.to_csv() == b.to_csv()
        assert a.content_hash() == b.content_hash()

    def test_different_seed_differs(self):
        a = run(small_cfg(T=48, seed=1), planted_oracle(seed=5))
        b = run(small_cfg(T=48, seed=2), planted_oracle(seed=5))
        assert a.to_csv() != b.to_csv()

    def test_active_sets_respect_windows(self):
        record = run(small_cfg(T=64, R=8, K=4), planted_oracle(sigma=0.1))
        by_window = {}
        for w, nxt in zip(record.windows, record.windows[1:] + [None]):
            end = nxt.t_start if nxt else len(record.steps)
            for row in record.steps[w.t_start:end]:
                by_window.setdefault(w.r, set()).add(tasks_from_mask(row.active_mask))
        # every observed active set within a window is one of its slots
        for w in record.windows:
            if w.r not in by_window:
                continue
            slots = set()
            extras = dict(w.extra_slots)
            for s, cls in enumerate(w.classes, start=1):
                slots.add(tuple(sorted(set(cls) | set(extras.get(s, ())))))
            assert by_window[w.r] <= slots

    def test_loss_logged_before_update(self):
        quad, groups, theta0, eta = reference_block_diagonal_instance()
        oracle = QuadraticOracle(quad, theta0)
        cfg = SchedulerConfig(K=2, d=4, T=8, R=4, eta=eta, seed=0, beta=0.5)
        record = run(cfg, oracle)
        assert record.steps[0].loss == pytest.approx(quad.total_loss(theta0))
        # losses strictly decrease on this convex instance
        losses = [row.loss for row in record.steps]
        assert losses[-1] < losses[0]

    def test_permute_classes_changes_order_not_partition(self):
        base = run(small_cfg(T=64, R=8), planted_oracle(sigma=0.0))
        perm = run(
            small_cfg(T=64, R=8, permute_classes=True), planted_oracle(sigma=0.0)
        )
        for wa, wb in zip(base.windows, perm.windows):
            assert frozenset(frozenset(c) for c in wa.classes) == frozenset(
                frozenset(c) for c in wb.classes
            )

    def test_csv_roundtrip(self):
        record = run(small_cfg(T=24, R=8), planted_oracle())
        rows = parse_csv(record.to_csv())
        assert len(rows) == 24
        assert rows[0].t == 0 and rows[-1].refresh


class FewTasksOracle:
    """Only the first ``n`` tasks have a nonzero gradient, so at most ``n``
    tasks are ever above the norm floor."""

    def __init__(self, n: int):
        self.n = n

    def gradient(self, task, theta, rng):
        g = np.zeros(theta.shape)
        g[0] = float(task < self.n)
        return g

    def loss(self, theta):
        return float("nan")


class TestDegenerateRefresh:
    @pytest.mark.parametrize("f_min", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_included_tasks_give_the_all_task_class(self, n, f_min):
        # the window such a refresh has always recorded: no edges, one class
        # of all tasks, and every task flagged when f_min >= 2
        K = 5
        record = run(small_cfg(K=K, f_min=f_min, T=48, R=8), FewTasksOracle(n))
        assert len(record.windows) == 7
        for r, w in enumerate(record.windows):
            assert w == WindowRecord(
                r=r,
                t_start=8 * r,
                tau=w.tau,
                m=1,
                edges=(),
                color_of=(1,) * K,
                classes=(tuple(range(K)),),
                extra_slots=(),
                coverage_failures=tuple(range(K)) if f_min >= 2 else (),
                frozen=False,
            )

    def test_rounded_antipodal_pair_is_no_edge_at_tau_one(self):
        # v = -u: the cosine of the EMA rows, rounded, can fall below -1.
        # Unclipped, rho = -cos would exceed 1 and be an edge at tau = 1.
        for seed in range(200):
            u = np.random.default_rng(seed).standard_normal(7)
            state = init_state(small_cfg(K=2, d=7))
            refresh(state, [u, -u], tau=1.0)
            M = state.stats.ema
            norms = np.linalg.norm(M, axis=1)
            cos = (M @ M.T)[0, 1] / (norms[0] * norms[1])
            if cos < -1.0:
                break
        else:
            pytest.fail("no seed gives a rounded cosine below -1")
        assert -cos > 1.0
        assert state.graph.edges == frozenset()
        assert state.schedule.m == 1


def reference_run(cfg, oracle, combinators=None, graph_builder=None):
    """The step loop as a per-task walk: a dict of gradients, summed one by
    one into the update and the descent check with ``tau_eff``, and one
    ``update_ema`` call per active task."""
    record = RunRecord(
        config=cfg.to_dict(),
        combinator_mode=combinators.mode if combinators else "none",
    )
    theta0 = oracle.init_theta() if hasattr(oracle, "init_theta") else None
    state = init_state(cfg, theta0, combinators)
    record.windows.append(scheduler._window_record(state, t_start=0))
    eta = cfg.step_size()
    for t in range(cfg.T):
        tau_t = anneal_tau(t, cfg)
        tasks = tuple(state.schedule.active_for_offset(t - state.t_r))
        m_t = state.schedule.m
        grads = {
            k: np.asarray(oracle.gradient(k, state.theta, state.rng), dtype=np.float64)
            for k in tasks
        }
        loss = float(oracle.loss(state.theta))
        applied = apply_combinators(
            tasks, [grads[k] for k in tasks], combinators, state.scale_state, state.rng
        )
        total = np.zeros_like(applied[0])
        sq = 0.0
        for g in applied:
            total += g
            sq += float(g @ g)
        assert float(total @ total) >= (1.0 - tau_eff(applied)) * sq - 1e-9 * max(sq, 1.0)
        state.theta -= eta * total
        for k in tasks:
            update_ema(state.stats, k, grads[k])
        did_refresh = (t + 1) % cfg.R == 0
        if did_refresh:
            probes = [oracle.gradient(k, state.theta, state.rng) for k in range(cfg.K)]
            refresh(state, probes, anneal_tau(t, cfg), graph_builder)
            state.t_r = t + 1
            record.windows.append(scheduler._window_record(state, t_start=t + 1))
        record.steps.append(
            StepRow(
                t=t,
                tau=float(tau_t),
                m=m_t,
                active_mask=active_mask(tasks),
                loss=loss,
                grad_norm=float(np.linalg.norm(np.sum(applied, axis=0))),
                refresh=did_refresh,
            )
        )
    return record, state


def per_row_update_ema(stats, task, grad):
    """``update_ema`` one row at a time, for the reference's probe folds."""
    rows = np.atleast_1d(task)
    block = np.asarray(grad, dtype=np.float64).reshape(len(rows), -1)
    for k, g in zip(rows.tolist(), block):
        update_ema(stats, k, g)
    return stats


class TestFusedStep:
    @pytest.mark.parametrize("mode", ["none", "project", "adaptive_scale", "project_and_scale"])
    def test_matches_per_task_reference_bit_for_bit(self, mode, monkeypatch):
        suite = make_planted_suite(
            K=6, d=12, groups=3, tau=0.4, gamma=0.09, sigma=0.3, m0=1.0, seed=12
        )
        cfg = SchedulerConfig(
            K=6, d=12, T=96, R=16, beta=0.9, tau_star=0.4, f_min=2, eta=0.05, seed=12
        )
        comb = CombinatorConfig(mode=mode)
        states = []

        def capture(*args, **kwargs):
            states.append(init_state(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(scheduler, "init_state", capture)
        record = run(cfg, PlantedOracle(suite), combinators=comb)
        monkeypatch.undo()
        monkeypatch.setattr(scheduler, "update_ema", per_row_update_ema)
        expect, ref_state = reference_run(cfg, PlantedOracle(suite), combinators=comb)

        assert any(w.extra_slots for w in record.windows)   # extra slots were served
        assert record.to_csv() == expect.to_csv()
        assert record.windows == expect.windows
        (state,) = states
        for name in ("ema", "steps", "excluded"):
            got, want = getattr(state.stats, name), getattr(ref_state.stats, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert state.theta.tobytes() == ref_state.theta.tobytes()


class TestDescentCheck:
    """``run`` hands the check the squared norm of the applied block's own
    sum, so on finite input it cannot fire there; these tests call it
    directly."""

    def test_understated_sum_raises_naming_the_step(self):
        # aligned rows: tau_eff = 0, so the bound is the full 7.25
        A = np.array([[1.0, 2.0, 0.0], [0.5, 1.0, 1.0]])
        with pytest.raises(RuntimeError, match=r"violated at step 17:"):
            scheduler._check_descent(A, 0.5 * float(np.sum(A * A)), 17)

    @pytest.mark.parametrize("seed", range(10))
    def test_the_true_sum_passes(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((int(rng.integers(1, 9)), 16))
        antipodal = np.vstack([A[:1], -A[:1]])
        for block in (A, antipodal, np.vstack([A, -A])):
            total = block.sum(axis=0)
            scheduler._check_descent(block, float(total @ total), seed)


class FaultyOracle(PlantedOracle):
    """Planted oracle whose task ``bad`` returns ``fault(gradient)`` from
    clock value ``start`` on."""

    def __init__(self, suite, bad, fault, start=0):
        super().__init__(suite)
        self.bad, self.fault, self.start, self.now = bad, fault, start, 0

    def set_time(self, t):
        self.now = t

    def gradient(self, task, theta, rng):
        g = super().gradient(task, theta, rng)
        return self.fault(g) if task == self.bad and self.now >= self.start else g


def with_nan(g):
    g = np.array(g, dtype=np.float64)
    g[0] = np.nan
    return g


class TestBadGradients:
    cfg = SchedulerConfig(K=8, d=32, T=128, R=32, beta=0.9, tau_star=0.5, eta=0.05, seed=0)

    def suite(self):
        return make_planted_suite(
            K=8, d=32, groups=2, tau=0.5, gamma=0.3, sigma=0.5, m0=1.0, seed=0
        )

    def test_nan_gradient_raises_naming_task_and_step(self):
        with pytest.raises(ValueError, match=r"non-finite gradient for task 3 at step 0\b"):
            run(self.cfg, FaultyOracle(self.suite(), 3, with_nan))

    def test_nan_probe_raises_naming_task_and_step(self):
        # the first draw at clock 32 is the probe of the refresh after step 31
        with pytest.raises(ValueError, match=r"non-finite probe gradient for task 3 at step 32\b"):
            run(self.cfg, FaultyOracle(self.suite(), 3, with_nan, start=32))

    def test_infinite_gradient_raises(self):
        with pytest.raises(ValueError, match="task 5"):
            run(self.cfg, FaultyOracle(self.suite(), 5, lambda g: g * np.inf, start=40))

    def test_wrong_dimension_raises_naming_task(self):
        with pytest.raises(ValueError, match=r"gradient for task 2 at step 0 has dimension \(33,\)"):
            run(self.cfg, FaultyOracle(self.suite(), 2, lambda g: np.append(g, 0.0)))

    def test_refresh_rejects_bad_probe_naming_task(self):
        state = init_state(small_cfg(K=2, d=2))
        with pytest.raises(ValueError, match=r"probe gradient for task 1 has dimension \(3,\)"):
            refresh(state, [np.zeros(2), np.zeros(3)], tau=0.5)
        with pytest.raises(ValueError, match=r"probe gradient for task 0 at step 5 has dimension"):
            refresh(state, [np.zeros(3), np.zeros(3)], tau=0.5, step=5)
        with pytest.raises(ValueError, match=r"non-finite probe gradient for task 1$"):
            refresh(state, {0: np.zeros(2), 1: np.array([0.0, np.inf])}, tau=0.5)
        assert state.r == 0 and not state.stats.steps.any()

    def test_refresh_accepts_probes_by_task_index(self):
        by_list = init_state(small_cfg(K=2, d=2))
        by_dict = init_state(small_cfg(K=2, d=2))
        probes = [np.array([1.0, 2.0]), np.array([-3.0, 0.5])]
        refresh(by_list, probes, tau=0.5)
        refresh(by_dict, {1: probes[1], 0: probes[0]}, tau=0.5)
        assert by_dict.stats.ema.tobytes() == by_list.stats.ema.tobytes()
