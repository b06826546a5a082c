import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from songoku.grad_stats import (
    DegenerateMatrixError,
    GradStats,
    beta_for_effective_sample_size,
    effective_sample_size,
    interference_matrix,
    is_tau_compatible,
    tau_eff,
    update_ema,
)


class TestGradStats:
    def test_zeros_starts_fully_excluded(self):
        stats = GradStats.zeros(4, 3, beta=0.9)
        assert stats.included_count() == 0
        assert stats.excluded.all()
        assert stats.steps.tolist() == [0, 0, 0, 0]

    def test_update_blends_row(self):
        stats = GradStats.zeros(2, 2, beta=0.5)
        update_ema(stats, 0, np.array([2.0, 0.0]))
        np.testing.assert_allclose(stats.ema[0], [1.0, 0.0])
        update_ema(stats, 0, np.array([0.0, 4.0]))
        np.testing.assert_allclose(stats.ema[0], [0.5, 2.0])
        assert stats.steps[0] == 2 and stats.steps[1] == 0
        # row 1 untouched and still excluded
        assert stats.excluded[1] and not stats.excluded[0]

    def test_update_rejects_bad_inputs(self):
        stats = GradStats.zeros(2, 3, beta=0.9)
        with pytest.raises(IndexError):
            update_ema(stats, 5, np.zeros(3))
        with pytest.raises(ValueError, match="dimension"):
            update_ema(stats, 0, np.zeros(4))

    def test_batched_fold_equals_per_row_calls_bit_for_bit(self):
        rng = np.random.default_rng(4)
        ema0 = rng.standard_normal((7, 33))
        ema0[5] = 0.0
        rows = np.array([0, 2, 3, 5])
        block = rng.standard_normal((4, 33)) * np.array([[1.0], [1e-3], [1e3], [1e-12]])
        batched = GradStats(ema=ema0.copy(), beta=0.85, norm_floor=1e-9)
        per_row = GradStats(ema=ema0.copy(), beta=0.85, norm_floor=1e-9)
        update_ema(batched, rows, block)
        for k, g in zip(rows, block):
            update_ema(per_row, int(k), g)
        expect = ema0.copy()
        expect[rows] = 0.85 * ema0[rows] + (1.0 - 0.85) * block
        assert batched.ema.tobytes() == per_row.ema.tobytes() == expect.tobytes()
        assert batched.steps.tolist() == per_row.steps.tolist() == [1, 0, 1, 1, 0, 1, 0]
        assert batched.excluded.tolist() == per_row.excluded.tolist()
        assert batched.excluded[5] and not batched.excluded[0]

    def test_batched_fold_rejects_bad_rows(self):
        stats = GradStats.zeros(3, 2, beta=0.9)
        with pytest.raises(ValueError, match="ascending"):
            update_ema(stats, [2, 0], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="ascending"):
            update_ema(stats, [1, 1], np.zeros((2, 2)))
        with pytest.raises(IndexError):
            update_ema(stats, [1, 3], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="dimension"):
            update_ema(stats, [0, 1], np.zeros((2, 3)))
        assert stats.steps.tolist() == [0, 0, 0]

    def test_beta_range_enforced(self):
        with pytest.raises(ValueError):
            GradStats.zeros(2, 2, beta=1.0)
        with pytest.raises(ValueError):
            GradStats.zeros(2, 2, beta=-0.1)

    def test_tiny_norm_excluded(self):
        stats = GradStats.zeros(2, 2, beta=0.0, norm_floor=1e-3)
        update_ema(stats, 0, np.array([1e-6, 0.0]))
        update_ema(stats, 1, np.array([1.0, 0.0]))
        assert stats.excluded[0] and not stats.excluded[1]


class TestEffectiveSampleSize:
    def test_beta_zero_is_one(self):
        assert effective_sample_size(0.0, 1) == 1.0
        assert effective_sample_size(0.0, 100) == 1.0

    def test_window_one_is_one(self):
        for beta in (0.0, 0.3, 0.9, 0.999):
            assert effective_sample_size(beta, 1) == pytest.approx(1.0)

    def test_closed_form_matches_weight_sum(self):
        # direct 1 / sum w_t^2 with normalized geometric weights
        beta, R = 0.8, 12
        w = (1 - beta) * beta ** np.arange(R)[::-1] / (1 - beta**R)
        assert effective_sample_size(beta, R) == pytest.approx(1.0 / np.sum(w**2))

    def test_long_window_limit(self):
        beta = 0.9
        limit = (1 + beta) / (1 - beta)
        assert effective_sample_size(beta, 10_000) == pytest.approx(limit)

    @given(
        beta=st.floats(0.0, 0.99),
        R=st.integers(1, 500),
    )
    def test_monotone_in_window_length(self, beta, R):
        a = effective_sample_size(beta, R)
        b = effective_sample_size(beta, R + 1)
        assert b >= a - 1e-12
        assert 1.0 - 1e-12 <= a <= R + 1e-9

    def test_inversion_roundtrip(self):
        for n_eff, R in [(1.0, 4), (3.7, 16), (30.0, 64), (63.5, 64)]:
            beta = beta_for_effective_sample_size(n_eff, R)
            assert effective_sample_size(beta, R) == pytest.approx(n_eff, rel=1e-9)

    def test_inversion_rejects_unreachable(self):
        with pytest.raises(ValueError):
            beta_for_effective_sample_size(0.5, 8)
        with pytest.raises(ValueError):
            beta_for_effective_sample_size(9.0, 8)


def _stats_from(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return GradStats(ema=rows, beta=0.9)


class TestInterferenceMatrix:
    def test_opposing_pair(self):
        mat = interference_matrix(_stats_from([[1.0, 0.0], [-1.0, 0.0]]))
        assert mat.rho[0, 1] == pytest.approx(1.0)
        assert mat.rho[1, 0] == pytest.approx(1.0)

    def test_diagonal_is_minus_one(self):
        mat = interference_matrix(_stats_from(np.eye(3)))
        assert np.all(np.diag(mat.rho) == -1.0)

    def test_orthogonal_pair_is_zero(self):
        mat = interference_matrix(_stats_from([[1.0, 0.0], [0.0, 2.0]]))
        assert mat.rho[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_excluded_rows_are_nan(self):
        stats = _stats_from([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        mat = interference_matrix(stats)
        assert mat.included.tolist() == [True, True, False]
        assert np.isnan(mat.rho[2, 0]) and np.isnan(mat.rho[0, 2])
        assert np.isfinite(mat.rho[0, 1])

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateMatrixError):
            interference_matrix(_stats_from([[1.0, 0.0], [0.0, 0.0]]))

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 6), st.integers(2, 5)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    @settings(max_examples=150)
    def test_symmetry_and_range(self, rows):
        norms = np.linalg.norm(rows, axis=1)
        if (norms < 1e-8).sum() > rows.shape[0] - 2:
            return  # degenerate, covered elsewhere
        mat = interference_matrix(GradStats(ema=rows, beta=0.5))
        idx = np.flatnonzero(mat.included)
        sub = mat.rho[np.ix_(idx, idx)]
        assert np.array_equal(sub, sub.T)  # bitwise symmetric
        assert np.all(sub >= -1.0 - 1e-9) and np.all(sub <= 1.0 + 1e-9)


class TestTauEff:
    def test_zero_for_aligned(self):
        assert tau_eff([np.array([1.0, 0.0]), np.array([2.0, 0.0])]) == 0.0

    def test_opposing_unit_pair(self):
        g = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        # both ordered pairs contribute 1; total squared norm is 2
        assert tau_eff(g) == pytest.approx(1.0)

    def test_empty_and_zero_sets(self):
        assert tau_eff(np.zeros((0, 3))) == 0.0
        assert tau_eff(np.zeros((3, 3))) == 0.0

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 4)),
            elements=st.floats(-3, 3, allow_nan=False),
        )
    )
    @settings(max_examples=150)
    def test_descent_identity(self, G):
        # ||sum g||^2 >= (1 - tau_eff) * sum ||g||^2 holds with equality
        # when no pair has positive alignment
        total_sq = float(np.sum(G * G))
        lhs = float(np.linalg.norm(G.sum(axis=0)) ** 2)
        rhs = (1.0 - tau_eff(G)) * total_sq
        assert lhs >= rhs - 1e-9 * max(total_sq, 1.0)


class TestCompatibility:
    def test_singleton_always_compatible(self):
        assert is_tau_compatible([np.array([1.0, 0.0])], tau=0.01)

    def test_boundary_pair(self):
        g = [np.array([1.0, 0.0]), np.array([-0.5, math.sqrt(3) / 2])]
        # cosine is exactly -0.5: compatible at tau = 0.5, not at 0.49
        assert is_tau_compatible(g, tau=0.5)
        assert not is_tau_compatible(g, tau=0.49)

    @given(st.floats(0.05, 0.95), st.integers(2, 5))
    @settings(max_examples=60)
    def test_compatible_sets_satisfy_tau_eff_cap(self, tau, n):
        rng = np.random.default_rng(abs(hash((round(tau, 6), n))) % 2**32)
        for _ in range(20):
            G = rng.standard_normal((n, 6))
            if is_tau_compatible(G, tau):
                assert tau_eff(G) <= tau * (n - 1) + 1e-9
