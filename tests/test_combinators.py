import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from songoku.combinators import (
    CombinatorConfig,
    adaptive_scale,
    apply_combinators,
    project_within_group,
)


class TestProjection:
    def test_conflicting_pair_worked_example(self):
        # g1 = (1, 0) against g2 = (-1, 1): dot = -1 < 0, so g1 loses its
        # component along g2 -> (0.5, 0.5); the reverse pair then strips g2's
        # component along the original g1 -> (0, 1)
        G = np.array([[1.0, 0.0], [-1.0, 1.0]])
        out = project_within_group(G)
        assert out.shape == G.shape and out is not G
        np.testing.assert_allclose(out[0], [0.5, 0.5])
        np.testing.assert_allclose(out[1], [0.0, 1.0])

    def test_agreeing_pair_untouched(self):
        G = np.array([[1.0, 0.0], [0.5, 0.5]])
        np.testing.assert_array_equal(project_within_group(G), G)

    def test_inputs_not_mutated(self):
        G = np.array([[1.0, 0.0], [-1.0, 0.0]])
        project_within_group(G)
        np.testing.assert_array_equal(G, [[1.0, 0.0], [-1.0, 0.0]])

    def test_zero_gradient_is_inert(self):
        out = project_within_group(np.array([[0.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_array_equal(out[0], 0.0)

    def test_singleton_passthrough(self):
        G = np.array([[3.0, -1.0]])
        out = project_within_group(G)
        assert out is not G
        np.testing.assert_array_equal(out, G)

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_matches_per_pair_norms_bit_for_bit(self, seed):
        def per_pair(gradients, rng):
            # the pass with ||g_j||^2 recomputed for every ordered pair
            n = len(gradients)
            out = [np.array(g, dtype=np.float64, copy=True) for g in gradients]
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            if rng is not None:
                rng.shuffle(pairs)
            for i, j in pairs:
                gj = gradients[j]
                denom = float(gj @ gj)
                if denom <= 0.0:
                    continue
                dot = float(out[i] @ gj)
                if dot < 0.0:
                    out[i] = out[i] - (dot / denom) * gj
            return out

        data = np.random.default_rng(9)
        for n in (2, 3, 6, 11):
            G = data.standard_normal((n, 17))
            G[n // 2] = 0.0
            rng_a = None if seed is None else np.random.default_rng(seed)
            rng_b = None if seed is None else np.random.default_rng(seed)
            got = project_within_group(G, rng_a)
            want = per_pair(list(G), rng_b)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
            if seed is not None:   # the same draws were consumed
                assert rng_a.random() == rng_b.random()

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.just(2), st.integers(2, 4)),
            elements=st.floats(-4, 4, allow_nan=False),
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_two_task_outputs_never_conflict(self, G, seed):
        out = project_within_group(G, np.random.default_rng(seed))
        scale = max(float(np.abs(G).max()) ** 2, 1.0)
        assert float(out[0] @ out[1]) >= -1e-9 * scale
        assert float(out[0] @ G[1]) >= -1e-9 * scale
        assert float(out[1] @ G[0]) >= -1e-9 * scale

    def test_three_tasks_may_still_conflict(self):
        # a later projection can reopen an earlier pair: single-pass pairwise
        # projection only guarantees non-conflict for two gradients
        G = np.array([[0.37, 2.27], [-2.08, 0.89], [1.03, -2.82]])
        out = project_within_group(G)  # deterministic pair order
        worst = min(
            float(out[i] @ out[j]) for i in range(3) for j in range(i + 1, 3)
        )
        assert worst == pytest.approx(-1.8567, abs=1e-4)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 4)),
            elements=st.floats(-4, 4, allow_nan=False),
        )
    )
    @settings(max_examples=150)
    def test_contraction(self, G):
        out = project_within_group(G)
        for before, after in zip(G, out):
            assert np.linalg.norm(after) <= np.linalg.norm(before) + 1e-12


class TestAdaptiveScale:
    def test_hand_unrolled_alternating_norms(self):
        # norms 1, 3, 1, 3 with beta = 0.5; EMA trails by one step
        cfg = CombinatorConfig(scale_ema_beta=0.5)
        scale_ema = np.full(1, np.nan)
        seq = [1.0, 3.0, 1.0, 3.0]
        scales = []
        for norm in seq:
            out = adaptive_scale(np.array([0]), np.array([[norm, 0.0]]), scale_ema, cfg)
            scales.append(norm / float(np.linalg.norm(out)))
        # first step: lazy init -> EMA = 1 -> unit output
        assert scales[0] == pytest.approx(1.0)
        # second: EMA still 1 (updated after use)
        assert scales[1] == pytest.approx(1.0)
        # third: EMA = 0.5*1 + 0.5*3 = 2
        assert scales[2] == pytest.approx(2.0)
        # fourth: EMA = 0.5*2 + 0.5*1 = 1.5
        assert scales[3] == pytest.approx(1.5)

    def test_floor_guards_vanishing_norms(self):
        cfg = CombinatorConfig(scale_ema_beta=0.0, scale_floor=0.5)
        scale_ema = np.full(1, np.nan)
        adaptive_scale(np.array([0]), np.zeros((1, 2)), scale_ema, cfg)  # installs EMA 0
        out = adaptive_scale(np.array([0]), np.array([[1.0, 0.0]]), scale_ema, cfg)
        np.testing.assert_allclose(out, [[2.0, 0.0]])  # divided by the floor

    def test_tasks_tracked_independently(self):
        cfg = CombinatorConfig(scale_ema_beta=0.5)
        scale_ema = np.full(3, np.nan)
        A = np.array([[4.0, 0.0], [0.0, 0.25]])
        out = adaptive_scale(np.array([0, 2]), A, scale_ema, cfg)
        np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, 1.0]])
        assert scale_ema[0] == pytest.approx(4.0)
        assert np.isnan(scale_ema[1])          # never scaled
        assert scale_ema[2] == pytest.approx(0.25)


class TestApplyCombinators:
    def conflict_pair(self):
        return np.array([[1.0, 0.0], [-1.0, 1.0]])

    def test_none_passthrough(self):
        G = self.conflict_pair()
        scale_ema = np.full(2, np.nan)
        for cfg in (None, CombinatorConfig(mode="none")):
            assert apply_combinators(np.arange(2), G, cfg, scale_ema, None) is G
        assert np.isnan(scale_ema).all()

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            CombinatorConfig(mode="pcgrad")
        with pytest.raises(ValueError):
            CombinatorConfig(scale_ema_beta=1.0)
        with pytest.raises(ValueError):
            CombinatorConfig(scale_floor=0.0)

    def test_project_then_scale_order(self):
        cfg = CombinatorConfig(mode="project_and_scale", scale_ema_beta=0.5)
        scale_ema = np.full(2, np.nan)
        out = apply_combinators(np.arange(2), self.conflict_pair(), cfg, scale_ema, None)
        # projection first gives (0.5, 0.5) with norm 1/sqrt(2); lazy scale
        # init then normalizes by that same norm -> unit vector
        np.testing.assert_allclose(np.linalg.norm(out[0]), 1.0)
        np.testing.assert_allclose(out[0], [2**-0.5, 2**-0.5])
        # the scale EMA saw the *projected* norm, confirming the order
        assert scale_ema[0] == pytest.approx(2**-0.5)

    def test_scale_only(self):
        cfg = CombinatorConfig(mode="adaptive_scale")
        scale_ema = np.full(8, np.nan)
        out = apply_combinators(np.array([7]), np.array([[0.0, 5.0]]), cfg, scale_ema, None)
        np.testing.assert_allclose(out, [[0.0, 1.0]])
        assert scale_ema[7] == pytest.approx(5.0)


class TestLayout:
    """A block's output bytes do not depend on its memory layout: each
    transform reads a C-contiguous float64 copy of what it is given."""

    @staticmethod
    def views(G):
        n, d = G.shape
        wide = np.zeros((n, 2 * d))
        wide[:, :d] = G
        strided = np.zeros((n, 2 * d))
        strided[:, ::2] = G
        return {"fortran": np.asfortranarray(G), "prefix": wide[:, :d],
                "strided": strided[:, ::2]}

    @pytest.mark.parametrize("mode", ["project", "adaptive_scale", "project_and_scale"])
    def test_every_layout_gives_the_bytes_of_its_c_copy(self, mode):
        cfg = CombinatorConfig(mode=mode)
        data = np.random.default_rng(17)
        for n, d in [(2, 33), (3, 64), (6, 128), (12, 257), (20, 512)]:
            G = data.standard_normal((n, d))
            rows = np.arange(n)
            want_ema = np.full(n, np.nan)
            want = apply_combinators(rows, G, cfg, want_ema, np.random.default_rng(n))
            for name, V in self.views(G).items():
                assert np.array_equal(V, G) and not V.flags.c_contiguous, name
                ema = np.full(n, np.nan)
                got = apply_combinators(rows, V, cfg, ema, np.random.default_rng(n))
                assert got.tobytes() == want.tobytes(), (name, n, d)
                assert ema.tobytes() == want_ema.tobytes(), (name, n, d)
