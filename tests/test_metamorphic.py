"""Metamorphic run tests: a transform of a run's input whose effect on the
run's record is known exactly, checked without knowing the record itself.

Scaling every gradient by 8, a power of two, scales every sum, product and
norm exactly and leaves every quotient's bits alone: the cosines, the
graphs and the schedule do not move, and the applied sum scales by 8.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from songoku.combinators import CombinatorConfig
from songoku.scheduler import SchedulerConfig, run
from songoku.sim import PlantedOracle, make_planted_suite
from songoku.sketch import SKETCH_MODES, SketchConfig, make_graph_builder

SCALE = 8.0


class ScaledOracle(PlantedOracle):
    def gradient(self, task, theta, rng):
        return SCALE * super().gradient(task, theta, rng)


@given(
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(SKETCH_MODES),
    combinator=st.sampled_from(["none", "project", "adaptive_scale", "project_and_scale"]),
)
@settings(max_examples=40, deadline=None)
def test_scaling_every_gradient_by_8_keeps_the_schedule(seed, mode, combinator):
    suite = make_planted_suite(
        K=12, d=32, groups=3, tau=0.3, gamma=0.1, sigma=0.05, m0=1.0, seed=seed
    )
    cfg = SchedulerConfig(K=12, d=32, T=96, R=8, f_min=2, tau_star=0.3, seed=seed)
    comb = CombinatorConfig(mode=combinator)
    base, scaled = (
        run(cfg, oracle, comb, make_graph_builder(SketchConfig(mode=mode), seed=seed))
        for oracle in (PlantedOracle(suite), ScaledOracle(suite))
    )
    assert scaled.windows == base.windows
    assert [r.active_mask for r in scaled.steps] == [r.active_mask for r in base.steps]
    # adaptive scaling divides each row by its own norm EMA, which scales too
    factor = 1.0 if comb.scales else SCALE
    assert [r.grad_norm for r in scaled.steps] == [factor * r.grad_norm for r in base.steps]
