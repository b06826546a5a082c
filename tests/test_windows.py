"""Every window a run records is the schedule of the graph built at its
refresh.

A refresh keeps its window when the new graph's adjacency equals the one
the schedule was colored from, so a window's classes and extra slots may
come from an earlier refresh.  These tests check each window against the
graph its refresh built, and recolor its recorded edges with Welsh-Powell
and coverage: a kept window that went stale fails here.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from songoku.conflict_graph import Coloring, ConflictGraph, enforce_min_coverage, welsh_powell
from songoku.scheduler import SchedulerConfig, run
from songoku.sim import DriftingOracle, DriftingSuite, PlantedOracle, make_planted_suite
from songoku.sketch import SKETCH_MODES, SketchConfig, make_graph_builder

K, D = 12, 32


@given(
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(SKETCH_MODES),
    drifting=st.booleans(),
    frozen=st.booleans(),
    permute=st.booleans(),
    f_min=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_every_window_is_the_schedule_of_its_refresh_graph(
    seed, mode, drifting, frozen, permute, f_min
):
    suite = make_planted_suite(
        K=K, d=D, groups=3, tau=0.3, gamma=0.1, sigma=0.05, m0=1.0, seed=seed
    )
    oracle = (
        DriftingOracle(DriftingSuite(base=suite, flip_task=seed % K, flip_time=40))
        if drifting else PlantedOracle(suite)
    )
    cfg = SchedulerConfig(
        K=K, d=D, T=96, R=8, f_min=f_min, tau_star=0.3, seed=seed,
        permute_classes=permute, freeze_after_first_coloring=frozen,
    )
    builder = make_graph_builder(SketchConfig(mode=mode), seed=seed)
    built = []

    def recording(stats, tau, window):
        built.append(builder(stats, tau, window))
        return built[-1]

    windows = run(cfg, oracle, graph_builder=recording).windows
    # a frozen window builds no graph after the one that froze it
    n_built = next((i for i, w in enumerate(windows) if w.frozen), len(windows) - 1)
    assert len(built) == n_built
    for w, graph in zip(windows[1:], built):
        assert w.edges == graph.sorted_edges
    for w in windows:
        if w.frozen:
            continue
        graph = ConflictGraph.from_edges(K, w.edges, w.tau)
        coloring = welsh_powell(graph)
        if permute:
            assert set(w.classes) == set(coloring.classes)
            coloring = Coloring(color_of=w.color_of, m=w.m, classes=w.classes)
        else:
            assert (w.color_of, w.m, w.classes) == (
                coloring.color_of, coloring.m, coloring.classes
            )
        assert (w.extra_slots, w.coverage_failures) == enforce_min_coverage(
            coloring, graph, f_min
        )
    kept = {(w.edges, w.classes, w.extra_slots, w.coverage_failures) for w in windows if w.frozen}
    assert len(kept) <= 1
