import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from songoku.conflict_graph import welsh_powell
from songoku.grad_stats import effective_sample_size
from songoku.sim import (
    RECOVERY_C_CAL,
    DriftingOracle,
    DriftingSuite,
    PlantedOracle,
    PlantedTaskSuite,
    PowerWellMTL,
    QuadraticMTL,
    QuadraticOracle,
    aggregated_step,
    audit_margins,
    convergence_experiment,
    default_power_well,
    descent_check,
    make_planted_suite,
    recovery_rate,
    reference_block_diagonal_instance,
    reference_negative_cross_instance,
    required_effective_sample_size,
    sample_gradient,
    scheduled_refresh,
    strict_improvement_check,
    true_graph,
)


class TestPlantedSuite:
    def test_margins_audited_on_construction(self):
        suite = make_planted_suite(
            K=8, d=8, groups=2, tau=0.5, gamma=0.3, sigma=1.0, m0=1.0, seed=0
        )
        worst = audit_margins(suite)
        assert worst["worst_cross_cos"] <= -(0.5 + 0.3) + 1e-12
        assert worst["worst_within_cos"] >= -(0.5 - 0.3) - 1e-12

    @staticmethod
    def hand_built(mu, group_of, tau=0.5, gamma=0.3):
        mu = np.asarray(mu, dtype=float)
        return PlantedTaskSuite(K=len(mu), d=mu.shape[1], group_of=group_of, mu=mu,
                                sigma=0.0, gamma=gamma, m0=1.0, tau=tau, seed=0)

    def test_margin_violations_raise(self):
        # cross pair (0, 2) is orthogonal: cosine 0 > cap -(0.5 + 0.3)
        cross = self.hand_built([[1, 0], [1, 0], [0, 1]], (0, 0, 1))
        with pytest.raises(ValueError, match=r"cross-group cosine 0\.000000 exceeds the cap -0\.800000"):
            audit_margins(cross)
        # within pair (0, 1) is antipodal: cosine -1 < floor -(0.5 - 0.3)
        within = self.hand_built([[1, 0], [-1, 0]], (0, 0))
        with pytest.raises(ValueError, match=r"within-group cosine -1\.000000 below the floor -0\.200000"):
            audit_margins(within)

    def test_single_group_has_no_cross_pairs(self):
        worst = audit_margins(self.hand_built([[1, 0], [1, 1], [2, 0]], (0, 0, 0)))
        assert worst["worst_cross_cos"] == -np.inf
        assert worst["worst_within_cos"] == pytest.approx(math.sqrt(0.5))

    @given(
        K=st.integers(4, 10),
        groups=st.integers(2, 4),
        seed=st.integers(0, 500),
        gamma=st.floats(0.05, 0.35),
    )
    @settings(max_examples=80, deadline=None)
    def test_margins_hold_across_geometry(self, K, groups, seed, gamma):
        if groups > K:
            return
        tau = 0.5
        if (groups - 1) * (tau + gamma) >= 1.0:
            return
        suite = make_planted_suite(
            K=K, d=max(groups, 2) + 4, groups=groups, tau=tau, gamma=gamma,
            sigma=0.5, m0=1.0, seed=seed,
        )
        audit_margins(suite)  # raises on violation

    def test_true_graph_is_complete_multipartite(self):
        suite = make_planted_suite(
            K=6, d=6, groups=3, tau=0.4, gamma=0.09, sigma=0.0, m0=1.0, seed=1
        )
        g = true_graph(suite)
        for i in range(6):
            for j in range(i + 1, 6):
                expect = suite.group_of[i] != suite.group_of[j]
                assert g.has_edge(i, j) == expect
        # the conflict structure colors into exactly the planted groups
        assert welsh_powell(g).m == 3

    def test_explicit_group_labels(self):
        suite = make_planted_suite(
            K=4, d=6, groups=[0, 1, 1, 0], tau=0.5, gamma=0.2, sigma=0.1,
            m0=1.0, seed=0,
        )
        assert list(suite.group_of) == [0, 1, 1, 0]

    @pytest.mark.parametrize(
        "kw,msg",
        [
            (dict(tau=0.0), "tau"),
            (dict(tau=1.0), "tau"),
            (dict(gamma=0.6), "gamma"),          # tau + gamma >= 1
            (dict(groups=4, tau=0.5, gamma=0.3), "(m-1)"),
            (dict(d=1), "d"),
            (dict(sigma=-1.0), "sigma"),
            (dict(m0=0.0), "m0"),
            (dict(groups=[0, 2, 2, 0]), "labels"),
        ],
    )
    def test_construction_guards(self, kw, msg):
        base = dict(K=4, d=8, groups=2, tau=0.5, gamma=0.3, sigma=1.0, m0=1.0, seed=0)
        base.update(kw)
        with pytest.raises(ValueError) as err:
            make_planted_suite(**base)
        assert msg in str(err.value)

    def test_sample_gradient_noise_free_case(self):
        suite = make_planted_suite(
            K=4, d=6, groups=2, tau=0.5, gamma=0.3, sigma=0.0, m0=2.0, seed=3
        )
        g = sample_gradient(suite, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(g, suite.mu[1])
        assert np.linalg.norm(suite.mu[1]) >= 2.0  # m0 is a norm floor


class TestRecovery:
    def suite(self, sigma=1.0, seed=0):
        return make_planted_suite(
            K=8, d=8, groups=2, tau=0.5, gamma=0.3, sigma=sigma, m0=1.0, seed=seed
        )

    def test_required_n_eff_formula(self):
        suite = self.suite()
        want = RECOVERY_C_CAL * 1.0 / (1.0 * 0.3**2) * math.log(64 / 0.1)
        assert required_effective_sample_size(suite, 0.1) == pytest.approx(want)

    def test_noise_free_recovers_at_any_budget(self):
        res = recovery_rate(self.suite(sigma=0.0), beta=0.0, R=1, tau=0.5, trials=50)
        assert res.rate == 1.0

    def test_tiny_budget_fails_high_noise(self):
        res = recovery_rate(
            self.suite(sigma=2.0), beta=0.0, R=1, tau=0.5, trials=100, seed=4
        )
        assert res.rate < 0.5

    def test_wilson_interval_brackets_rate(self):
        res = recovery_rate(self.suite(), beta=0.9, R=64, tau=0.5, trials=100, seed=1)
        lo, hi = res.wilson_interval()
        assert 0.0 <= lo <= res.rate <= hi <= 1.0

    def test_more_effective_samples_help(self):
        suite = self.suite()
        weak = recovery_rate(suite, beta=0.0, R=1, tau=0.5, trials=150, seed=2)
        n_eff = 80.0
        from songoku.grad_stats import beta_for_effective_sample_size

        beta = beta_for_effective_sample_size(n_eff, 200)
        strong = recovery_rate(suite, beta=beta, R=200, tau=0.5, trials=150, seed=2)
        assert strong.rate > weak.rate
        assert effective_sample_size(beta, 200) == pytest.approx(n_eff, rel=1e-6)


class TestQuadratics:
    def test_task_gradient_and_loss(self):
        H = np.stack([np.diag([2.0, 1.0]), np.eye(2)])
        opt = np.array([[1.0, 0.0], [0.0, -1.0]])
        quad = QuadraticMTL(hessians=H, optima=opt)
        theta = np.zeros(2)
        np.testing.assert_allclose(quad.task_gradient(0, theta), [-2.0, 0.0])
        assert quad.total_loss(theta) == pytest.approx(0.5 * 2 + 0.5)
        assert quad.L == pytest.approx(3.0)

    def test_asymmetric_hessian_rejected(self):
        H = np.array([[[1.0, 0.5], [0.0, 1.0]]])
        with pytest.raises(ValueError):
            QuadraticMTL(hessians=H, optima=np.zeros((1, 2)))

    def test_indefinite_hessian_rejected(self):
        H = np.array([[[1.0, 0.0], [0.0, -0.5]]])
        with pytest.raises(ValueError):
            QuadraticMTL(hessians=H, optima=np.zeros((1, 2)))

    def test_step_size_guard(self):
        quad, groups, theta0, _ = reference_negative_cross_instance()
        with pytest.raises(ValueError, match="eta"):
            aggregated_step(quad, theta0, groups, eta=1.0)  # 1/L is ~0.0909

    def test_sequential_equals_joint_on_disjoint_blocks(self):
        quad, groups, theta0, eta = reference_block_diagonal_instance()
        agg = aggregated_step(quad, theta0, groups, eta)
        sch = scheduled_refresh(quad, theta0, groups, eta)
        np.testing.assert_allclose(agg, sch, atol=1e-12)
        assert quad.total_loss(agg) == pytest.approx(quad.total_loss(sch), abs=1e-12)

    def test_negative_cross_instance_frozen_values(self):
        quad, groups, theta0, eta = reference_negative_cross_instance()
        rep = strict_improvement_check(quad, theta0, groups, eta)
        assert rep["negative_cross_terms"]
        assert rep["holds"]
        assert rep["lhs"] == pytest.approx(12.672, abs=1e-9)
        assert rep["rhs"] == pytest.approx(3.4422, abs=1e-9)
        gap = rep["loss_scheduled"] - rep["loss_aggregated"]
        assert gap == pytest.approx(-3.689223679792519e-05, rel=1e-9)
        assert gap < -1e-6

    def test_scheduled_refreshes_between_groups(self):
        # scheduled pass must use the *post-update* gradient of group 2
        quad, groups, theta0, eta = reference_negative_cross_instance()
        g2_before = quad.group_gradient(groups[1], theta0)
        after_g1 = theta0 - eta * quad.group_gradient(groups[0], theta0)
        g2_after = quad.group_gradient(groups[1], after_g1)
        sch = scheduled_refresh(quad, theta0, groups, eta)
        np.testing.assert_allclose(sch, after_g1 - eta * g2_after, atol=1e-15)
        assert not np.allclose(g2_before, g2_after)


class TestDescentCheck:
    def test_compatible_set_gets_worstcase_bound(self):
        g = [np.array([1.0, 0.0]), np.array([0.9, 0.1])]
        out = descent_check(g, tau=0.3)
        assert out.compatible and out.ok
        total_sq = sum(float(x @ x) for x in g)
        assert out.rhs_worstcase == pytest.approx((1 - 0.3 * 1) * total_sq)

    def test_incompatible_set_flagged(self):
        g = [np.array([1.0, 0.0]), np.array([-1.0, 0.05])]
        out = descent_check(g, tau=0.2)
        assert not out.compatible
        assert out.ok  # data-dependent bound still holds

    @given(st.integers(0, 2000), st.integers(2, 6), st.floats(0.1, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_bounds_hold_on_random_sets(self, seed, n, tau):
        G = np.random.default_rng(seed).standard_normal((n, 8))
        out = descent_check(list(G), tau)
        assert out.ok
        assert out.lhs >= out.rhs_data_dependent - 1e-9 * max(out.lhs, 1.0)


class TestPowerWell:
    def test_gradients_and_loss(self):
        well = PowerWellMTL(weights=np.array([2.0, 1.0]), d=3, power=4)
        theta = np.full(3, 0.5)
        np.testing.assert_allclose(
            well.task_gradient(0, theta), 2.0 * 0.5**3 * np.ones(3)
        )
        np.testing.assert_allclose(
            well.full_gradient(theta), 3.0 * 0.5**3 * np.ones(3)
        )
        assert well.total_loss(theta) == pytest.approx((3.0 / 4) * 3 * 0.5**4)

    def test_default_testbed_shape(self):
        well, classes = default_power_well()
        assert well.weights.shape == (8,)
        assert classes == ((0, 1, 2, 3), (4, 5, 6, 7))
        assert well.d == 6 and well.power == 8

    def test_convergence_slopes_in_band(self):
        well, classes = default_power_well()
        for variant in ("randomized", "cyclic"):
            rep = convergence_experiment(
                well, classes, T_grid=(100, 1000), n_seeds=8, seed=0, variant=variant
            )
            assert -1.3 <= rep["slope"] <= -0.7
            assert rep["min_grad_sq"][1] < rep["min_grad_sq"][0]

    def test_variant_validated(self):
        well, classes = default_power_well()
        with pytest.raises(ValueError):
            convergence_experiment(well, classes, variant="diag")


class TestDriftingWorld:
    def base(self):
        return make_planted_suite(
            K=6, d=8, groups=2, tau=0.5, gamma=0.3, sigma=0.0, m0=1.0, seed=0
        )

    def test_flip_changes_population_gradient(self):
        drift = DriftingSuite(base=self.base(), flip_task=2, flip_time=10)
        np.testing.assert_array_equal(drift.mu_at(9), drift.base.mu)
        flipped = drift.mu_at(10)
        np.testing.assert_array_equal(flipped[2], -drift.base.mu[2])
        np.testing.assert_array_equal(flipped[3], drift.base.mu[3])

    def test_true_graph_tracks_flip(self):
        drift = DriftingSuite(base=self.base(), flip_task=2, flip_time=10)
        before = drift.true_graph_at(0)
        after = drift.true_graph_at(10)
        assert before.edges != after.edges
        # after the flip, task 2 aligns with the opposite group
        own_group = drift.base.group_of[2]
        mates = [k for k in range(6) if drift.base.group_of[k] == own_group and k != 2]
        assert all(after.has_edge(2, k) for k in mates)

    def test_drifting_oracle_is_time_aware(self):
        drift = DriftingSuite(base=self.base(), flip_task=0, flip_time=5)
        oracle = DriftingOracle(drift)
        rng = np.random.default_rng(0)
        g_before = oracle.gradient(0, np.zeros(8), rng)
        oracle.set_time(5)
        g_after = oracle.gradient(0, np.zeros(8), rng)
        np.testing.assert_allclose(g_after, -g_before)


class TestOracles:
    def test_planted_oracle_loss_is_nan(self):
        suite = make_planted_suite(
            K=4, d=6, groups=2, tau=0.5, gamma=0.3, sigma=0.5, m0=1.0, seed=0
        )
        oracle = PlantedOracle(suite)
        assert math.isnan(oracle.loss(np.zeros(6)))
        g = oracle.gradient(0, np.zeros(6), np.random.default_rng(0))
        assert g.shape == (6,)

    def test_quadratic_oracle_theta_copy(self):
        quad, groups, theta0, eta = reference_negative_cross_instance()
        oracle = QuadraticOracle(quad, theta0)
        t = oracle.init_theta()
        t += 100.0
        np.testing.assert_array_equal(oracle.init_theta(), theta0)
