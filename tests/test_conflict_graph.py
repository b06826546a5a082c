import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chromatic_number, random_graph
from songoku.conflict_graph import (
    AugmentedSchedule,
    ConflictGraph,
    build_graph,
    enforce_min_coverage,
    is_proper,
    max_degree,
    welsh_powell,
)
from songoku.grad_stats import GradStats, row_interference
from songoku.scheduler import dense_graph


def graph_from_rows(rows, tau):
    return dense_graph(GradStats(ema=np.asarray(rows, float), beta=0.9), tau)


class TestBuildGraph:
    def test_threshold_is_strict(self):
        # dot = -2 and both norms = 2 exactly, so rho = 0.5 with no rounding:
        # boundary equality is a non-edge
        rows = [[1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, 1.0]]
        g = graph_from_rows(rows, tau=0.5)
        assert g.edges == frozenset()
        g2 = graph_from_rows(rows, tau=0.4999)
        assert g2.edges == {(0, 1)}

    def test_excluded_tasks_stay_isolated(self):
        stats = GradStats(ema=np.array([[1.0, 0], [-1.0, 0], [0, 0]]), beta=0.9)
        g = dense_graph(stats, tau=0.5)
        assert g.edges == {(0, 1)}
        assert g.degrees[2] == 0

    def test_tau_validation(self):
        rho = row_interference(np.eye(2), np.ones(2, dtype=bool))
        for tau in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                build_graph(rho, tau)
        build_graph(rho, 1.0)  # tau = 1 legal: graph is always empty

    def test_edge_list_roundtrip(self):
        g = ConflictGraph.from_edges(4, edges=frozenset({(0, 2), (1, 3), (0, 1)}), tau=0.5)
        text = g.to_edge_list()
        assert text.splitlines()[0] == "4"
        g2 = ConflictGraph.from_edge_list(text, tau=0.5)
        assert g2.edges == g.edges and g2.n_vertices == 4

    def test_bad_edge_rejected(self):
        with pytest.raises(ValueError):
            ConflictGraph.from_edges(3, edges=frozenset({(1, 1)}), tau=0.5)
        with pytest.raises(ValueError):
            ConflictGraph.from_edges(3, edges=frozenset({(0, 3)}), tau=0.5)


class TestWelshPowell:
    def test_path_graph(self):
        # path 0-1-2: center has max degree, gets color 1, endpoints share color 2
        g = ConflictGraph.from_edges(3, edges=frozenset({(0, 1), (1, 2)}), tau=0.5)
        col = welsh_powell(g)
        assert col.m == 2
        assert col.color_of == (2, 1, 2)
        assert col.classes == ((1,), (0, 2))

    def test_triangle_needs_three(self):
        g = ConflictGraph.from_edges(3, edges=frozenset({(0, 1), (0, 2), (1, 2)}), tau=0.5)
        col = welsh_powell(g)
        assert col.m == 3
        assert is_proper(col, g)

    def test_empty_graph_single_class(self):
        g = ConflictGraph.from_edges(5, edges=frozenset(), tau=0.5)
        col = welsh_powell(g)
        assert col.m == 1
        assert col.classes == ((0, 1, 2, 3, 4),)

    def test_star_center_first(self):
        g = ConflictGraph.from_edges(4, frozenset({(0, 1), (0, 2), (0, 3)}), 0.5)
        col = welsh_powell(g)
        assert col.m == 2
        assert col.classes == ((0,), (1, 2, 3))

    def test_degree_ties_break_by_index(self):
        # two disjoint edges: all degree 1, so order is 0,1,2,3
        g = ConflictGraph.from_edges(4, frozenset({(0, 1), (2, 3)}), 0.5)
        col = welsh_powell(g)
        assert col.color_of == (1, 2, 1, 2)

    @given(st.integers(1, 8), st.floats(0.0, 1.0), st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_proper_and_bounded_and_near_optimal(self, n, p, seed):
        g = random_graph(np.random.default_rng(seed), n, p)
        col = welsh_powell(g)
        assert is_proper(col, g)
        assert col.m <= max_degree(g) + 1
        assert sorted(v for cls in col.classes for v in cls) == list(range(n))
        assert chromatic_number(g) <= col.m

    def test_zero_vertices(self):
        col = welsh_powell(ConflictGraph.from_edges(0, frozenset(), 0.5))
        assert col.m == 0 and col.classes == ()


class TestCoverage:
    def path(self):
        return ConflictGraph.from_edges(3, frozenset({(0, 1), (1, 2)}), 0.5)

    def test_f_min_one_is_identity(self):
        col = welsh_powell(self.path())
        sched = enforce_min_coverage(col, self.path(), 1)
        assert sched.extra_slots == {} and sched.coverage_failures == ()
        assert sched.slot_tasks(1) == [1] and sched.slot_tasks(2) == [0, 2]

    def test_path_cannot_double_cover(self):
        # every vertex conflicts with the other slot's occupants, so f_min=2
        # is unreachable for all three tasks
        g = self.path()
        sched = enforce_min_coverage(welsh_powell(g), g, 2)
        assert sched.coverage_failures == (0, 1, 2)
        assert sched.extra_slots == {}

    def test_star_leaves_fill_but_center_cannot(self):
        g = ConflictGraph.from_edges(4, frozenset({(0, 1), (0, 2), (0, 3)}), 0.5)
        sched = enforce_min_coverage(welsh_powell(g), g, 2)
        # center 0 conflicts with every leaf; leaves cannot join slot 1 either
        # (center occupies it), so nobody reaches two appearances
        assert sched.coverage_failures == (0, 1, 2, 3)

    def test_two_colors_block_every_edged_vertex(self):
        # with m = 2, an edged vertex's neighbor always owns the other slot
        g = ConflictGraph.from_edges(4, frozenset({(0, 1), (2, 3)}), 0.5)
        sched = enforce_min_coverage(welsh_powell(g), g, 2)
        assert sched.coverage_failures == (0, 1, 2, 3)
        assert sched.extra_slots == {}

    def test_single_edge_partial_fill(self):
        g = ConflictGraph.from_edges(4, frozenset({(0, 1)}), 0.5)
        sched = enforce_min_coverage(welsh_powell(g), g, 2)
        # free vertices 2 and 3 join slot 2; the edge endpoints block each other
        assert sched.extra_slots == {2: [2, 3]}
        assert sched.coverage_failures == (0, 1)
        assert [sched.appearances(t) for t in range(4)] == [1, 1, 2, 2]
        for s in (1, 2):
            tasks = sched.slot_tasks(s)
            assert not any(g.has_edge(a, b) for a in tasks for b in tasks if a < b)

    def test_triangle_with_free_rider_f_min_three(self):
        g = ConflictGraph.from_edges(4, frozenset({(0, 1), (0, 2), (1, 2)}), 0.5)
        sched = enforce_min_coverage(welsh_powell(g), g, 3)
        # vertex 3 rides along every slot; the triangle is stuck at one each
        assert sched.appearances(3) == 3
        assert sched.coverage_failures == (0, 1, 2)

    def test_empty_graph_free_for_all(self):
        g = ConflictGraph.from_edges(3, frozenset(), 0.5)
        sched = enforce_min_coverage(welsh_powell(g), g, 1)
        assert sched.m == 1
        assert sched.active_for_offset(0) == [0, 1, 2]
        assert sched.active_for_offset(7) == [0, 1, 2]

    def test_f_min_validation(self):
        col = welsh_powell(self.path())
        with pytest.raises(ValueError):
            enforce_min_coverage(col, self.path(), 0)

    def test_cyclic_offsets_wrap(self):
        g = self.path()
        sched = enforce_min_coverage(welsh_powell(g), g, 1)
        assert sched.active_for_offset(0) == sched.active_for_offset(2)
        assert sched.active_for_offset(1) == sched.active_for_offset(5)

    @given(st.integers(2, 7), st.floats(0.0, 0.9), st.integers(0, 9999), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_augmentation_never_breaks_compatibility(self, n, p, seed, f_min):
        g = random_graph(np.random.default_rng(seed), n, p)
        sched = enforce_min_coverage(welsh_powell(g), g, f_min)
        for s in range(1, sched.m + 1):
            tasks = sched.slot_tasks(s)
            for i, a in enumerate(tasks):
                for b in tasks[i + 1:]:
                    assert not g.has_edge(a, b)
        for task in range(n):
            appear = sched.appearances(task)
            assert appear >= 1
            if task not in sched.coverage_failures:
                assert appear >= f_min
