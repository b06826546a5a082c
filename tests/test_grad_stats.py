import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from songoku.grad_stats import (
    DescentCheck,
    GradStats,
    beta_for_effective_sample_size,
    cosine_rho,
    descent_check,
    effective_sample_size,
    included_mask,
    tau_eff,
    update_ema,
)
from songoku.scheduler import dense_graph


def gram(rows) -> np.ndarray:
    G = np.asarray(rows, dtype=np.float64)
    return G @ G.T


class TestGradStats:
    def test_zeros_starts_fully_excluded(self):
        stats = GradStats.zeros(4, 3, beta=0.9)
        assert included_mask(stats).tolist() == [False] * 4
        assert stats.ema.tobytes() == np.zeros((4, 3)).tobytes()

    def test_update_blends_row(self):
        stats = GradStats.zeros(2, 2, beta=0.5)
        update_ema(stats, 0, np.array([2.0, 0.0]))
        np.testing.assert_allclose(stats.ema[0], [1.0, 0.0])
        update_ema(stats, 0, np.array([0.0, 4.0]))
        np.testing.assert_allclose(stats.ema[0], [0.5, 2.0])
        # row 1 untouched and still excluded
        assert stats.ema[1].tobytes() == np.zeros(2).tobytes()
        assert included_mask(stats).tolist() == [True, False]

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
        untouched = [1, 4, 6]
        assert batched.ema[untouched].tobytes() == ema0[untouched].tobytes()
        assert included_mask(batched).tolist() == included_mask(per_row).tolist()
        assert not included_mask(batched)[5] and included_mask(batched)[0]

    def test_batched_fold_rejects_bad_rows(self):
        stats = GradStats.zeros(3, 2, beta=0.9)
        before = stats.ema.tobytes()
        with pytest.raises(ValueError, match="ascending"):
            update_ema(stats, [2, 0], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="ascending"):
            update_ema(stats, [1, 1], np.zeros((2, 2)))
        with pytest.raises(IndexError):
            update_ema(stats, [1, 3], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="dimension"):
            update_ema(stats, [0, 1], np.zeros((2, 3)))
        assert stats.ema.tobytes() == before

    def test_all_task_fold_is_in_place_and_equals_per_row_calls(self):
        rng = np.random.default_rng(5)
        ema0 = rng.standard_normal((6, 29)) * np.array([[1.0], [1e-3], [1e3], [0.0], [1e-12], [7.0]])
        block = rng.standard_normal((6, 29))
        folded = GradStats(ema=ema0.copy(), beta=0.9)
        per_row = GradStats(ema=ema0.copy(), beta=0.9)
        ema = folded.ema
        update_ema(folded, np.arange(6), block)
        for k, g in enumerate(block):
            update_ema(per_row, k, g)
        assert folded.ema is ema
        assert folded.ema.tobytes() == per_row.ema.tobytes()
        assert folded.ema.tobytes() == (0.9 * ema0 + (1.0 - 0.9) * block).tobytes()

    @pytest.mark.parametrize("rows", [[0, 1, 2, 3], [1, 3]], ids=["all_tasks", "subset"])
    def test_rejected_gradient_leaves_the_ema_bytes(self, rows):
        stats = GradStats(ema=np.random.default_rng(6).standard_normal((4, 5)), beta=0.8)
        ema, before = stats.ema, stats.ema.tobytes()
        n = len(rows)
        with pytest.raises(ValueError, match="dimension"):
            update_ema(stats, rows, np.ones((n, 6)))
        with pytest.raises(ValueError, match="dimension"):
            update_ema(stats, rows, np.ones((n + 1, 5)))
        with pytest.raises(ValueError):
            update_ema(stats, rows, [np.ones(5)] * (n - 1) + [np.ones(4)])
        assert stats.ema is ema and stats.ema.tobytes() == before

    def test_beta_range_enforced(self):
        with pytest.raises(ValueError):
            GradStats.zeros(2, 2, beta=1.0)
        with pytest.raises(ValueError):
            GradStats.zeros(2, 2, beta=-0.1)

    def test_tiny_norm_excluded(self):
        stats = GradStats.zeros(2, 2, beta=0.0, norm_floor=1e-3)
        update_ema(stats, 0, np.array([1e-6, 0.0]))
        update_ema(stats, 1, np.array([1.0, 0.0]))
        assert included_mask(stats).tolist() == [False, True]


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


def _kernel(rows):
    """rho of every pair of ``rows``, by ``cosine_rho`` on their Gram."""
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    return cosine_rho(rows @ rows.T, norms[:, None], norms[None, :])


def _adjacency(rows, tau=0.5, beta=0.9):
    """The dense refresh graph's adjacency on EMA rows ``rows``."""
    stats = GradStats(ema=np.asarray(rows, dtype=np.float64), beta=beta)
    return dense_graph(stats, tau).adj


class TestInterferenceMatrix:
    """rho as ``cosine_rho`` gives it, and the adjacency ``build_graph``
    thresholds from it."""

    def test_opposing_pair(self):
        rows = [[1.0, 0.0], [-1.0, 0.0]]
        assert _kernel(rows)[0, 1] == 1.0 and _kernel(rows)[1, 0] == 1.0
        assert _adjacency(rows, tau=0.99)[0, 1]
        assert not _adjacency(rows, tau=1.0).any()     # rho = 1 is not above tau = 1

    def test_diagonal_is_minus_one(self):
        # a row against itself has rho = -1, so no tau in (0, 1] makes a
        # self-loop, not even on a row that has edges
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [-2.0, 0.0], [0.0, 3.0]])
        assert np.diag(_kernel(rows)).tolist() == [-1.0] * 4
        for tau in (1e-9, 0.5, 1.0):
            assert not np.diag(_adjacency(rows, tau)).any()

    def test_orthogonal_pair_is_zero(self):
        rows = [[1.0, 0.0], [0.0, 2.0]]
        assert _kernel(rows)[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert not _adjacency(rows, tau=1e-9).any()

    def test_excluded_rows_are_isolated(self):
        # row 2 opposes row 0 but sits below the norm floor
        rows = [[1.0, 0.0], [-1.0, 0.0], [-1e-9, 0.0], [0.0, 0.0]]
        stats = GradStats(ema=np.array(rows), beta=0.9)
        assert included_mask(stats).tolist() == [True, True, False, False]
        adj = _adjacency(rows, tau=0.5)
        assert adj.shape == (4, 4)
        assert adj[0, 1] and not adj[2].any() and not adj[:, 2].any()
        assert not adj[3].any() and not adj[:, 3].any()

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 6), st.integers(2, 5)),
            elements=st.floats(-5, 5, allow_nan=False),
        ),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=150)
    def test_symmetry_and_range(self, rows, tau):
        adj = _adjacency(rows, tau, beta=0.5)
        assert np.array_equal(adj, adj.T)  # bitwise symmetric
        idx = np.flatnonzero(np.linalg.norm(rows, axis=1) >= 1e-8)
        rho = _kernel(rows[idx])
        assert np.all(rho >= -1.0) and np.all(rho <= 1.0)


class TestTauEff:
    def test_zero_for_aligned(self):
        assert tau_eff(gram([[1.0, 0.0], [2.0, 0.0]])) == 0.0

    def test_opposing_unit_pair(self):
        # both ordered pairs contribute 1; total squared norm is 2
        assert tau_eff(gram([[1.0, 0.0], [-1.0, 0.0]])) == pytest.approx(1.0)

    def test_empty_and_zero_sets(self):
        assert tau_eff(gram(np.zeros((0, 3)))) == 0.0
        assert tau_eff(gram(np.zeros((3, 3)))) == 0.0

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
        rhs = (1.0 - tau_eff(G @ G.T)) * total_sq
        assert lhs >= rhs - 1e-9 * max(total_sq, 1.0)


def reference_descent_check(gradients, tau: float) -> DescentCheck:
    """The list-loop form of ``descent_check``: a running sum and one dot per
    row, and a pair test on the off-diagonal entries only, with a tolerance
    of 1e-12 relative to each pair's norms."""
    gs = [np.asarray(g, dtype=np.float64) for g in gradients]
    if not gs:
        return DescentCheck(0.0, 0.0, 0.0, 0.0, True, True)
    total = np.zeros_like(gs[0])
    sq = 0.0
    for g in gs:
        total += g
        sq += float(g @ g)
    lhs = float(total @ total)
    G = np.asarray(gs)
    pairs = G @ G.T
    norms = np.sqrt(np.diag(pairs))
    bound = -(tau + 1e-12) * np.outer(norms, norms)
    off = ~np.eye(len(gs), dtype=bool)
    compatible = bool(np.all(pairs[off] >= bound[off]))
    denom = float(np.trace(pairs))
    conflict = 0.0 if denom == 0.0 else float(-np.minimum(pairs, 0.0).sum() / denom)
    rhs_wc = (1.0 - tau * (len(gs) - 1)) * sq
    rhs_dd = (1.0 - conflict) * sq
    slack = 1e-9 * max(sq, 1.0)
    ok = lhs >= rhs_dd - slack and (not compatible or lhs >= rhs_wc - slack)
    return DescentCheck(lhs, rhs_wc, rhs_dd, conflict, compatible, ok)


# Pythagorean triples (a, b, c): the rows c*e_0 and (-a, b) have cosine -a/c
# with exact norms, so tau = a/c puts the pair on the compatibility boundary
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))
ELEMENT = st.one_of(st.just(0.0), st.floats(-3, 3).filter(lambda x: abs(x) > 1e-3))


@st.composite
def gradient_sets(draw):
    """(G, tau): a random (n, d) set, reshaped into one of the shapes that
    stress the pair test: zero rows, an antipodal bundle, duplicate rows, or
    a pair whose cosine is exactly -tau."""
    kind = draw(st.sampled_from(("plain", "zero", "antipodal", "duplicate", "boundary")))
    n = draw(st.integers(2 if kind == "boundary" else 0, 6))
    d = draw(st.integers(2 if kind == "boundary" else 1, 8))
    G = draw(hnp.arrays(np.float64, (n, d), elements=ELEMENT))
    tau = draw(st.floats(0.0, 1.0))
    if kind == "zero" and n:
        G[draw(st.integers(0, n - 1))] = 0.0
    elif kind == "antipodal" and n:
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        jitter = draw(st.sampled_from((0.0, 1e-9, 0.01)))
        G = signs[:, None] * G[:1] + jitter * G
    elif kind == "duplicate" and n:
        G[draw(st.integers(0, n - 1)):] = G[0]
    elif kind == "boundary":
        a, b, c = draw(st.sampled_from(TRIPLES))
        i, j = draw(st.permutations(range(d)))[:2]
        scale = 2.0 ** draw(st.integers(-4, 4))
        G[0] = 0.0
        G[0, i] = c * scale
        G[1] = 0.0
        G[1, i], G[1, j] = -a, b
        tau = a / c
    return G, tau


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

    def test_empty_set_passes_with_zeros(self):
        assert descent_check(np.zeros((0, 3)), 0.3) == DescentCheck(
            0.0, 0.0, 0.0, 0.0, True, True
        )

    @given(st.integers(0, 2000), st.integers(2, 6), st.floats(0.1, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_bounds_hold_on_random_sets(self, seed, n, tau):
        G = np.random.default_rng(seed).standard_normal((n, 8))
        out = descent_check(list(G), tau)
        assert out.ok
        assert out.lhs >= out.rhs_data_dependent - 1e-9 * max(out.lhs, 1.0)

    @given(gradient_sets())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_list_loop_reference(self, case):
        G, tau = case
        got = descent_check(G, tau)
        want = reference_descent_check(list(G), tau)
        assert got.compatible == want.compatible
        assert got.ok == want.ok
        assert got.lhs == want.lhs
        assert got.tau_eff == want.tau_eff
        # sum ||g||^2 is the Gram's trace here and a sum of row dots there
        assert math.isclose(got.rhs_worstcase, want.rhs_worstcase, rel_tol=1e-12)
        assert math.isclose(got.rhs_data_dependent, want.rhs_data_dependent, rel_tol=1e-12)
        # a compatible set caps the conflict ratio at tau * (n - 1), up to
        # the pair test's relative tolerance of 1e-12
        n, sq = len(G), float(np.sum(G * G))
        if got.compatible and n > 1:
            assert got.tau_eff * sq <= ((tau + 1e-12) * (n - 1) + 1e-9) * sq

    @given(gradient_sets(), st.sampled_from((-40, 40)))
    @settings(max_examples=200, deadline=None)
    def test_verdict_does_not_depend_on_scale(self, case, power):
        G, tau = case
        # a power-of-two scale is exact in every product the check forms
        assert descent_check(G * 2.0**power, tau).compatible == descent_check(G, tau).compatible


class TestCompatibility:
    def test_singleton_always_compatible(self):
        for tau in (0.5, 0.49, 0.01):
            assert descent_check([np.array([1.0, 0.0])], tau).compatible

    def test_boundary_pair(self):
        g = [np.array([1.0, 0.0]), np.array([-0.5, math.sqrt(3) / 2])]
        # cosine is exactly -0.5: compatible at tau = 0.5, not at 0.49
        assert descent_check(g, tau=0.5).compatible
        assert not descent_check(g, tau=0.49).compatible

    def test_tiny_opposing_rows_are_not_compatible(self):
        # the tolerance is relative: a tiny antipodal pair conflicts fully
        e = np.array([1.0, 0.0])
        out = descent_check([0.0 * e, 1e-9 * e, -1e-9 * e], tau=0.0)
        assert out.tau_eff == 1.0
        assert not out.compatible
