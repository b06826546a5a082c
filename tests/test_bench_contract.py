"""The program names that the benchmark's tracer needs.

``schedule_bench/tracer.py`` times a run by replacing program functions
under the names their callers look them up by.  A deleted or renamed name
makes every ``--trace 1`` benchmark run fail, and a function the program no
longer calls leaves its span reading 0; these tests catch both.
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "schedule_bench")]

import tracer  # noqa: E402
from songoku import scheduler  # noqa: E402
from songoku.records import RunRecord  # noqa: E402
from songoku.sim import PlantedOracle, make_planted_suite  # noqa: E402


def test_every_traced_name_resolves():
    for module, attr, span in tracer.FUNCTION_SPANS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"
    for attr, span in tracer.METHOD_SPANS:
        assert callable(getattr(RunRecord, attr, None)), f"RunRecord.{attr} ({span})"


def test_a_traced_run_records_one_update_span_per_step():
    T = 24
    suite = make_planted_suite(
        K=4, d=6, groups=2, tau=0.5, gamma=0.3, sigma=0.5, m0=1.0, seed=0
    )
    cfg = scheduler.SchedulerConfig(K=4, d=6, T=T, R=8, beta=0.8, seed=3)
    trace = tracer.Tracer()
    with trace.round():
        scheduler.run(cfg, PlantedOracle(suite))
    (spans,) = trace.rounds
    calls = {name: calls for name, (calls, _) in trace.self_times(spans).items()}
    assert calls["scheduler.apply_update"] == T
    assert calls["scheduler.run"] == 1
