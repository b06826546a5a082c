import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from songoku.grad_stats import GradStats
from songoku.scheduler import dense_graph
from songoku.sketch import (
    FlopCounter,
    FrequentDirections,
    SketchConfig,
    build_gram_cache,
    drifted_rows,
    edge_sample_graph,
    fd_cosine_bounds,
    fd_task_gram,
    incremental_gram,
    jl_project,
    make_graph_builder,
)


class TestSketchConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"mode": "svd"},
            {"r": 0},
            {"ell": 0},
            {"epsilon": 0.0},
            {"pair_budget": 0},
            {"change_threshold": -0.1},
            {"rebuild_every": 0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SketchConfig(**kw)

    def test_single_row_fd_sketch_rejected(self):
        with pytest.raises(ValueError, match="ell=1 must be >= 2"):
            SketchConfig(mode="fd", ell=1)
        assert SketchConfig(mode="fd", ell=2).ell == 2


class TestJL:
    def test_identity_mode_exact(self):
        M = np.arange(12.0).reshape(3, 4)
        out = jl_project(M, 4, seed=0, identity=True)
        np.testing.assert_array_equal(out, M)
        with pytest.raises(ValueError, match="identity"):
            jl_project(M, 3, seed=0, identity=True)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="exceeds"):
            jl_project(np.zeros((2, 4)), 5, seed=0)

    def test_seeded_determinism(self):
        M = np.random.default_rng(1).standard_normal((4, 16))
        a = jl_project(M, 8, seed=42)
        b = jl_project(M, 8, seed=42)
        c = jl_project(M, 8, seed=43)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_norms_roughly_preserved(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((6, 512))
        out = jl_project(M, 256, seed=7)
        ratio = np.linalg.norm(out, axis=1) / np.linalg.norm(M, axis=1)
        assert np.all(np.abs(ratio - 1.0) < 0.25)

    def test_flops_charged(self):
        counter = FlopCounter()
        jl_project(np.zeros((3, 10)), 5, seed=0, counter=counter)
        assert counter.counts["jl_project"] == 2 * 3 * 10 * 5


class TestFrequentDirections:
    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            FrequentDirections(1, 4)
        with pytest.raises(ValueError):
            FrequentDirections(4, 0)
        fd = FrequentDirections(4, 3)
        with pytest.raises(ValueError, match="shape"):
            fd.insert(np.zeros(2))

    def test_rank_one_stream_is_lossless(self):
        # every column a multiple of one direction: nothing to shrink away
        rng = np.random.default_rng(3)
        u = rng.standard_normal(5)
        cols = [u * c for c in rng.standard_normal(40)]
        fd = FrequentDirections(4, 5)
        for col in cols:
            fd.insert(col)
        A = np.stack(cols)
        np.testing.assert_allclose(fd.gram(), A.T @ A, atol=1e-9)
        assert fd.shrink_total <= 1e-20  # zero up to SVD rounding

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(3, 6), st.integers(4, 12)),
            elements=st.floats(-3, 3, allow_nan=False),
        ),
        st.integers(4, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_psd_gap_and_frobenius_bound(self, M, ell):
        gram_hat, norms, shrink = fd_task_gram(M, ell)
        exact = M @ M.T
        gap_eigs = np.linalg.eigvalsh(exact - gram_hat)
        fro_sq = float(np.sum(M * M))
        assert gap_eigs.min() >= -1e-6 * max(fro_sq, 1.0)         # one-sided
        assert gap_eigs.max() <= shrink + 1e-6 * max(fro_sq, 1.0)  # certified
        assert shrink <= 2.0 * fro_sq / ell + 1e-9

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(3, 5), st.integers(4, 10)),
            # keep entries either exactly zero or well-conditioned: at
            # denormal scales the reference cosine itself underflows
            elements=st.floats(-3, 3, allow_nan=False).filter(
                lambda x: x == 0.0 or abs(x) > 1e-3
            ),
        ),
        st.integers(4, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_cosine_bounds_are_certified(self, M, ell):
        gram_hat, norms, _ = fd_task_gram(M, ell)
        cos_hat, bound = fd_cosine_bounds(gram_hat, norms)
        K = M.shape[0]
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_true = (M @ M.T) / np.outer(norms, norms)
        for i in range(K):
            for j in range(K):
                if i == j:
                    continue
                if norms[i] < 1e-12 or norms[j] < 1e-12:
                    assert bound[i, j] == np.inf
                else:
                    err = abs(cos_true[i, j] - cos_hat[i, j])
                    assert err <= bound[i, j] + 1e-9

    def test_flop_accounting(self):
        counter = FlopCounter()
        fd_task_gram(np.ones((4, 20)), 6, counter=counter)
        assert counter.counts["fd_norms"] == 2 * 4 * 20
        assert counter.counts["fd_stream"] > 0


def planted_rho(K, groups, hi=0.9, lo=-0.9):
    """rho oracle for a perfect multipartite instance."""
    group_of = {}
    for g, members in enumerate(groups):
        for v in members:
            group_of[v] = g

    def rho(i, j):
        return lo if group_of[i] == group_of[j] else hi

    return rho


class TestEdgeSampling:
    def test_small_instance_exhaustive_and_certified(self):
        rho = planted_rho(3, [(0, 1), (2,)])
        out = edge_sample_graph(rho, 3, tau=0.5, gamma=0.3, seed=0)
        assert out.graph.edges == {(0, 2), (1, 2)}
        assert out.fully_certified
        assert out.evaluated == {(0, 1), (0, 2), (1, 2)}

    def test_budget_floor(self):
        with pytest.raises(ValueError, match="budget"):
            edge_sample_graph(lambda i, j: 0.0, 8, 0.5, 0.3, budget=4)

    def test_budgeted_recovery_on_separated_instance(self):
        K = 16
        groups = [tuple(range(0, 8)), tuple(range(8, 16))]
        rho = planted_rho(K, groups)
        budget = math.ceil(2 * K * math.log(K))  # 89 < 120 pairs
        out = edge_sample_graph(rho, K, tau=0.5, gamma=0.3, budget=budget, seed=1)
        want = {(i, j) for i in range(8) for j in range(8, 16)}
        assert out.graph.edges == frozenset(want)
        assert len(out.evaluated) <= budget
        assert out.uncertified  # inference actually did some work
        for pair in out.uncertified:
            assert pair not in out.evaluated

    def test_budgeted_recovery_many_seeds(self):
        K = 12
        groups = [tuple(range(0, 4)), tuple(range(4, 8)), tuple(range(8, 12))]
        rho = planted_rho(K, groups)
        want = frozenset(
            (i, j) for i in range(K) for j in range(i + 1, K) if i // 4 != j // 4
        )
        hits = 0
        for seed in range(20):
            out = edge_sample_graph(rho, K, 0.5, 0.3, budget=50, seed=seed)
            hits += out.graph.edges == want
        assert hits == 20

    def test_ambiguous_band_evaluated_directly(self):
        # cross-cluster rho sits inside the band around tau: the rep probe is
        # unreliable, so member pairs must be evaluated rather than inferred
        K = 8
        groups = [tuple(range(4)), tuple(range(4, 8))]
        group_of = {v: g for g, mem in enumerate(groups) for v in mem}

        def rho(i, j):
            return 0.55 if group_of[i] != group_of[j] else -0.9

        out = edge_sample_graph(rho, K, tau=0.5, gamma=0.3, budget=26, seed=3)
        cross = {(i, j) for i in range(4) for j in range(4, 8)}
        for pair in cross:
            if pair in out.evaluated:
                continue
            # anything inferred must not be load-bearing: with the band hit,
            # all cross pairs should have been evaluated directly
            pytest.fail(f"cross pair {pair} was inferred inside the ambiguity band")
        assert out.graph.edges == frozenset(cross)

    def test_deterministic_for_seed(self):
        rho = planted_rho(10, [tuple(range(5)), tuple(range(5, 10))])
        a = edge_sample_graph(rho, 10, 0.5, 0.3, budget=30, seed=9)
        b = edge_sample_graph(rho, 10, 0.5, 0.3, budget=30, seed=9)
        assert a.graph.edges == b.graph.edges
        assert a.evaluated == b.evaluated


class TestIncrementalGram:
    def make(self, K=5, d=7, seed=0):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((K, d))
        return M, build_gram_cache(M, rebuild_every=16, matrix_version=0)

    def test_single_row_update_matches_dense(self):
        M, cache = self.make()
        M2 = M.copy()
        M2[2] += 0.5
        incremental_gram(cache, M2, [2], matrix_version=1)
        # matvec and matmat may round differently in the last ulp
        np.testing.assert_allclose(cache.gram, M2 @ M2.T, atol=1e-12)

    def test_untouched_entries_bit_identical(self):
        M, cache = self.make()
        before = cache.gram.copy()
        M2 = M.copy()
        M2[0] = -M2[0]
        incremental_gram(cache, M2, [0], matrix_version=1)
        # the (K-1) x (K-1) block away from row/col 0 must be untouched bits
        assert np.array_equal(cache.gram[1:, 1:], before[1:, 1:])

    def test_empty_change_set_noop(self):
        M, cache = self.make()
        before = cache.gram.copy()
        incremental_gram(cache, M, [], matrix_version=1)
        assert np.array_equal(cache.gram, before)
        assert cache.matrix_version == 1

    def test_version_skip_forces_rebuild(self):
        M, cache = self.make()
        M2 = M * 2.0
        incremental_gram(cache, M2, [0], matrix_version=5)  # skipped 1..4
        np.testing.assert_array_equal(cache.gram, M2 @ M2.T)
        assert cache.matrix_version == 5

    def test_rebuild_quota(self):
        M, cache = self.make()
        cache.rebuild_every = 3
        current = M.copy()
        for step in range(1, 4):
            current = current.copy()
            current[1] += 0.1
            incremental_gram(cache, current, [1], matrix_version=step)
        assert cache.updates_since_rebuild == 0  # third update hit the quota
        np.testing.assert_array_equal(cache.gram, current @ current.T)

    def test_shape_guard(self):
        M, cache = self.make()
        with pytest.raises(ValueError, match="shape"):
            incremental_gram(cache, np.zeros((3, 3)), [0])

    def test_drifted_rows_thresholding(self):
        M, cache = self.make()
        M2 = M.copy()
        M2[3] *= 1.2
        assert drifted_rows(cache, M2, 0.1).tolist() == [3]
        assert drifted_rows(cache, M2, 0.5).tolist() == []

    @given(st.integers(0, 10_000), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_random_update_sequences_track_dense(self, seed, n_changed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((6, 5))
        cache = build_gram_cache(M, rebuild_every=100, matrix_version=0)
        current = M
        for step in range(1, 6):
            current = current.copy()
            rows = rng.choice(6, size=n_changed, replace=False)
            current[rows] += rng.standard_normal((n_changed, 5))
            incremental_gram(cache, current, rows, matrix_version=step)
            np.testing.assert_allclose(cache.gram, current @ current.T, atol=1e-12)


def separated_stats(K=6, d=32, seed=0):
    """Two tight antipodal bundles: unambiguous conflict structure."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    rows = []
    for k in range(K):
        sign = 1.0 if k < K // 2 else -1.0
        noise = 0.02 * rng.standard_normal(d)
        rows.append(sign * u + noise)
    return GradStats(ema=np.array(rows), beta=0.9)


class TestGraphBuilders:
    @pytest.mark.parametrize("mode", ["dense", "fd", "edge_sample", "incremental"])
    def test_matches_dense_on_separated_instance(self, mode):
        stats = separated_stats()
        counter = FlopCounter()
        builder = make_graph_builder(
            SketchConfig(mode=mode, ell=8, epsilon=0.3), counter=counter, seed=0
        )
        graph = builder(stats, 0.5, 1)
        assert graph.edges == dense_graph(stats, 0.5).edges
        assert counter.total() > 0

    def test_jl_matches_at_full_rank_instance(self):
        stats = separated_stats(d=64)
        builder = make_graph_builder(SketchConfig(mode="jl", r=64), seed=0)
        graph = builder(stats, 0.5, 1)
        assert graph.edges == dense_graph(stats, 0.5).edges

    def test_incremental_builder_reuses_cache(self):
        stats = separated_stats()
        counter = FlopCounter()
        builder = make_graph_builder(
            SketchConfig(mode="incremental", change_threshold=0.05),
            counter=counter,
            seed=0,
        )
        g1 = builder(stats, 0.5, 1)
        full = counter.counts.get("gram_full", 0)
        stats.ema[0] *= 1.5  # norm-only drift: cosines unchanged
        g2 = builder(stats, 0.5, 2)
        assert g1.edges == g2.edges
        assert counter.counts.get("gram_full", 0) == full  # partial path taken
        assert counter.counts.get("gram_incremental", 0) > 0

    def test_excluded_tasks_isolated_in_every_mode(self):
        stats = separated_stats()
        stats.ema[4] = 0.0
        stats._refresh_excluded()
        for mode in ("dense", "jl", "fd", "edge_sample", "incremental"):
            builder = make_graph_builder(
                SketchConfig(mode=mode, r=32, ell=8, epsilon=0.3), seed=1
            )
            graph = builder(stats, 0.5, 1)
            assert all(4 not in e for e in graph.edges), mode

    def test_unknown_mode_rejected_lazily(self):
        cfg = SketchConfig(mode="dense")
        cfg.mode = "bogus"
        with pytest.raises(ValueError, match="bogus"):
            make_graph_builder(cfg)
