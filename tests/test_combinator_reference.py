"""Differential test of the block-native combinators against the list-based
forms they replace.

The reference functions below take and return a list of gradient rows: the
projection shuffles a list of ``(i, j)`` tuples, and adaptive scaling is one
call per task with each task's norm EMA in a dict.  The package's forms take
the step's (n, d) block, scale every row in one call, and keep the EMAs in a
(K,) array that is NaN for a task never scaled.  They must reproduce the
reference bit for bit: the same output bytes, the same Generator state
afterwards, and the same EMA values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from songoku.combinators import CombinatorConfig, apply_combinators


def ref_project_within_group(gradients, rng=None):
    n = len(gradients)
    if n <= 1:
        return [np.array(g, dtype=np.float64, copy=True) for g in gradients]
    out = [np.array(g, dtype=np.float64, copy=True) for g in gradients]
    sq = [float(g @ g) for g in gradients]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if rng is not None:
        rng.shuffle(pairs)
    for i, j in pairs:
        if sq[j] <= 0.0:
            continue
        gj = gradients[j]
        dot = float(out[i] @ gj)
        if dot < 0.0:
            out[i] = out[i] - (dot / sq[j]) * gj
    return out


@dataclass
class RefAdaptiveScaleState:
    beta: float
    floor: float
    norm_ema: dict = None

    def __post_init__(self):
        if self.norm_ema is None:
            self.norm_ema = {}


def ref_adaptive_scale(task, grad, state):
    norm = float(np.linalg.norm(grad))
    if task not in state.norm_ema:
        state.norm_ema[task] = norm
    scale = max(state.floor, state.norm_ema[task])
    scaled = grad / scale
    state.norm_ema[task] = state.beta * state.norm_ema[task] + (1.0 - state.beta) * norm
    return scaled


def ref_apply_combinators(tasks, gradients, cfg, scale_state, rng):
    if cfg is None or cfg.mode == "none":
        return list(gradients)
    gs = list(gradients)
    if cfg.projects:
        gs = ref_project_within_group(gs, rng)
    if cfg.scales:
        gs = [ref_adaptive_scale(k, g, scale_state) for k, g in zip(tasks, gs)]
    return gs


def ref_scale_state(cfg):
    return RefAdaptiveScaleState(beta=cfg.scale_ema_beta, floor=cfg.scale_floor)


def as_array(norm_ema: dict, K: int) -> np.ndarray:
    """The reference dict as the package's (K,) array: NaN for unseen tasks."""
    return np.array([norm_ema.get(k, np.nan) for k in range(K)])


@st.composite
def step_blocks(draw, K, d):
    """One step: ascending distinct tasks and their (n, d) block, with some
    rows zeroed and some made antipodal to another row."""
    tasks = sorted(draw(st.lists(st.integers(0, K - 1), min_size=1, max_size=K, unique=True)))
    n = len(tasks)
    G = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-4, 4, allow_nan=False)))
    for r in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        G[r] = 0.0
    if n >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(range(n)))[:2]
        G[b] = -G[a]
    return tasks, G


@st.composite
def scenarios(draw):
    K = draw(st.integers(1, 12))
    d = draw(st.integers(1, 40))
    cfg = CombinatorConfig(
        mode=draw(st.sampled_from(("project", "adaptive_scale", "project_and_scale"))),
        scale_ema_beta=draw(st.sampled_from((0.0, 0.5, 0.9))),
        scale_floor=draw(st.sampled_from((1e-6, 0.5))),
    )
    seed = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    steps = draw(st.lists(step_blocks(K, d), min_size=1, max_size=4))
    return K, cfg, seed, steps


@given(scenarios())
@settings(max_examples=300, deadline=None)
def test_block_combinators_match_the_list_reference(scenario):
    K, cfg, seed, steps = scenario
    rng = None if seed is None else np.random.default_rng(seed)
    ref_rng = None if seed is None else np.random.default_rng(seed)
    scale_ema = np.full(K, np.nan)
    ref_state = ref_scale_state(cfg)
    for tasks, G in steps:
        before = G.copy()
        got = apply_combinators(np.array(tasks, dtype=np.intp), G, cfg, scale_ema, rng)
        want = np.array(ref_apply_combinators(tasks, G, cfg, ref_state, ref_rng))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert G.tobytes() == before.tobytes()      # the input block is not mutated
        assert as_array(ref_state.norm_ema, K).tobytes() == scale_ema.tobytes()
    if seed is not None:                            # the same draws were consumed
        assert rng.random() == ref_rng.random()

