"""The program names that the benchmark's tracer needs.

``schedule_bench/tracer.py`` times a run by replacing program functions
under the names their callers look them up by.  A deleted or renamed name
makes every ``--trace 1`` benchmark run fail, and a function the program no
longer calls leaves its span reading 0; these tests catch both.
"""
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "schedule_bench")]

import tracer  # noqa: E402
from songoku import scheduler, sketch  # noqa: E402
from songoku.combinators import CombinatorConfig  # noqa: E402
from songoku.grad_stats import GradStats  # noqa: E402
from songoku.records import RunRecord  # noqa: E402
from songoku.sim import PlantedOracle, make_planted_suite  # noqa: E402


def test_every_traced_name_resolves():
    for module, attr, span in tracer.FUNCTION_SPANS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"
    for attr, span in tracer.METHOD_SPANS:
        assert callable(getattr(RunRecord, attr, None)), f"RunRecord.{attr} ({span})"


def traced_run(T, combinators=None, graph_builder=None, **cfg):
    """Span name -> calls of one traced ``scheduler.run`` of T steps, and
    the run's record; ``cfg`` adds scheduler config keys."""
    suite = make_planted_suite(
        K=4, d=6, groups=2, tau=0.5, gamma=0.3, sigma=0.5, m0=1.0, seed=0
    )
    cfg = scheduler.SchedulerConfig(K=4, d=6, T=T, R=8, beta=0.8, seed=3, **cfg)
    trace = tracer.Tracer()
    with trace.round():
        record = scheduler.run(
            cfg, PlantedOracle(suite), combinators=combinators, graph_builder=graph_builder
        )
    (spans,) = trace.rounds
    return {name: calls for name, (calls, _) in trace.self_times(spans).items()}, record


def traced_calls(T, combinators=None, graph_builder=None, **cfg):
    return traced_run(T, combinators, graph_builder, **cfg)[0]


def test_a_traced_run_records_one_update_span_per_step():
    T = 24
    calls = traced_calls(T)
    assert calls["scheduler.apply_update"] == T
    assert calls["scheduler.run"] == 1


def test_a_traced_run_folds_once_per_step_and_once_per_refresh():
    # `grad_stats.update_ema.calls` counts EMA folds: the step's block and
    # each refresh's probes, each in one call
    T, R = 24, 8
    assert traced_calls(T)["grad_stats.update_ema"] == T + T // R


def test_a_traced_run_samples_once_per_step_and_once_per_refresh():
    # `sim.sample_gradient` is the module global that `PlantedOracle`'s
    # batch calls: one block per step and one of all K probes per refresh
    T, R = 24, 8
    assert traced_calls(T)["sim.sample_gradient"] == T + T // R


def test_a_traced_run_records_one_descent_span_per_step():
    # the step's descent check reads tau_eff through the module global
    # `scheduler.tau_eff`, which the tracer wraps as `grad_stats.tau_eff`
    T = 24
    assert traced_calls(T)["grad_stats.tau_eff"] == T


def test_a_traced_run_colors_and_covers_once_per_changed_graph():
    # the initial window plus one per refresh whose graph differs from the
    # last colored one, looked up through the module globals
    # `scheduler.welsh_powell` and `scheduler.enforce_min_coverage`; a
    # refresh with an unchanged graph keeps its window
    T, R = 24, 8
    calls, record = traced_run(T)
    windows = record.windows
    changed = sum(a.edges != b.edges for a, b in zip(windows, windows[1:]))
    assert calls["scheduler.refresh"] == T // R
    assert calls["conflict_graph.build_graph"] == T // R
    assert changed < T // R                     # some refresh kept its window
    assert calls["conflict_graph.welsh_powell"] == 1 + changed
    assert calls["conflict_graph.enforce_min_coverage"] == 1 + changed


@pytest.mark.parametrize("mode", ["dense", "jl", "fd", "incremental"])
def test_a_traced_run_builds_every_refresh_graph_through_build_graph(mode):
    # these builders hand their Gram block to the module global
    # `build_graph` of `scheduler` (dense) or `sketch`, which the tracer
    # wraps as `conflict_graph.build_graph`; that span's self time includes
    # the cosine kernel
    T, R = 24, 8
    builder = sketch.make_graph_builder(sketch.SketchConfig(mode=mode), seed=0)
    calls = traced_calls(T, graph_builder=builder)
    assert calls["scheduler.refresh"] == T // R
    assert calls["conflict_graph.build_graph"] == T // R


def test_a_traced_run_with_permuted_classes_colors_at_every_refresh():
    # `_permuted` draws from the run's generator, so a permuting run
    # recolors even an unchanged graph to keep its draws
    T, R = 24, 8
    calls = traced_calls(T, permute_classes=True)
    assert calls["conflict_graph.welsh_powell"] == T // R + 1
    assert calls["conflict_graph.enforce_min_coverage"] == T // R + 1


def test_a_traced_frozen_run_colors_nothing_after_the_freeze():
    # the first refresh (tau < 1 after step 7) freezes the grouping; later
    # refreshes still fold probes but rebuild nothing
    calls = traced_calls(24, freeze_after_first_coloring=True)
    assert calls["scheduler.refresh"] == 3
    assert calls["conflict_graph.welsh_powell"] == 2
    assert calls["conflict_graph.enforce_min_coverage"] == 2
    assert calls["conflict_graph.build_graph"] == 1


def test_a_traced_run_records_one_span_per_combinator_per_step():
    # each combinator takes the step's whole block: one call per step, not
    # one per active task
    T = 24
    calls = traced_calls(T, CombinatorConfig(mode="project_and_scale"))
    assert calls["combinators.project_within_group"] == T
    assert calls["combinators.adaptive_scale"] == T


def test_a_traced_edge_sample_refresh_counts_its_evaluated_pairs(monkeypatch):
    # the builder is made before the round, so it must look up
    # `sketch.edge_sample_graph` at each call for the tracer's counting
    # wrapper to see the pairs it evaluates
    K = 16
    suite = make_planted_suite(
        K=K, d=8, groups=2, tau=0.5, gamma=0.3, sigma=0.0, m0=1.0, seed=0
    )
    stats = GradStats(ema=suite.mu.copy(), beta=0.9)
    builder = sketch.make_graph_builder(sketch.SketchConfig(mode="edge_sample"), seed=0)
    sampled = []
    real = sketch.edge_sample_graph

    def recording(*args, **kwargs):
        sampled.append(real(*args, **kwargs))
        return sampled[-1]

    monkeypatch.setattr(sketch, "edge_sample_graph", recording)
    trace = tracer.Tracer()
    with trace.round():
        builder(stats, 0.5, 1)
    (out,) = sampled
    assert 0 < len(out.evaluated) < K * (K - 1) // 2
    assert trace.counts[0]["sketch.edge_sample.pairs_evaluated"] == len(out.evaluated)


def test_a_traced_render_records_one_summary_span_over_the_hash():
    # `records.to_summary_json.self_ms` times the whole render: the method
    # itself, with the content hash of `to_summary` as its one child span
    suite = make_planted_suite(
        K=4, d=6, groups=2, tau=0.5, gamma=0.3, sigma=0.5, m0=1.0, seed=0
    )
    cfg = scheduler.SchedulerConfig(K=4, d=6, T=24, R=8, beta=0.8, seed=3)
    record = scheduler.run(cfg, PlantedOracle(suite))
    want = record.to_summary_json()
    trace = tracer.Tracer()
    with trace.round():
        got = record.to_summary_json()
    (spans,) = trace.rounds
    (render,) = [i for i, span in enumerate(spans) if span[0] == "records.to_summary_json"]
    children = [span[0] for span in spans if span[3] == render]
    assert spans[render][3] == -1
    assert children == ["records.content_hash"]
    assert got == want
