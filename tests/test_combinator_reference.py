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

from songoku.combinators import CombinatorConfig, apply_combinators, project_within_group


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


# Structured blocks for the projection alone.  The package skips every row
# with no negative dot against a row of nonzero squared norm and walks the
# rest; these blocks put rows on both sides of that split.


@st.composite
def many_rows(draw):
    """n up to 40 at small d, with zero and antipodal rows."""
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 6))
    G = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-4, 4, allow_nan=False)))
    for r in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        G[r] = 0.0
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.permutations(range(n)))[:2]
        G[b] = -G[a]
    return G


@st.composite
def cluster_and_pairs(draw):
    """A mutually positive cluster next to antipodal pairs.  With the pairs
    orthogonal to the cluster, only the pairs' rows walk."""
    k, extra = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    n_cluster, n_pairs = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    positive = st.floats(0.25, 4)
    cluster = np.zeros((n_cluster, k + extra))
    cluster[:, :k] = draw(hnp.arrays(np.float64, (n_cluster, k), elements=positive))
    pairs = np.zeros((n_pairs, k + extra))
    pairs[:, k:] = draw(hnp.arrays(np.float64, (n_pairs, extra),
                                   elements=st.floats(-4, 4, allow_nan=False)))
    if draw(st.booleans()):                 # or let the pairs lean on the cluster
        pairs[:, :k] = draw(hnp.arrays(np.float64, (n_pairs, k),
                                       elements=st.floats(-1, 1, allow_nan=False)))
    G = np.concatenate([cluster, pairs, -pairs])
    return G[draw(st.permutations(range(len(G))))]


@st.composite
def negative_only_against_zero_norm(draw):
    """A positive block plus one row whose square underflows to 0: every other
    row's only negative dot is against it, so none of them is projected, while
    the tiny row itself conflicts with all of them."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 16))
    G = draw(hnp.arrays(np.float64, (n + 1, d), elements=st.floats(0.25, 4)))
    G[n] *= -1e-170
    assert G[n] @ G[n] == 0.0 and (G[:n] @ G[n] < 0.0).all()
    return G[draw(st.permutations(range(n + 1)))]


@st.composite
def conflict_free(draw):
    """No negative dot anywhere: nothing walks, and the shuffle still runs."""
    n, d = draw(st.integers(2, 24)), draw(st.integers(1, 16))
    G = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(0, 4)))
    for r in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        G[r] = 0.0
    return G


seeds = st.one_of(st.none(), st.integers(0, 2**32 - 1))


def check_projection(G, seed):
    rng = None if seed is None else np.random.default_rng(seed)
    ref_rng = None if seed is None else np.random.default_rng(seed)
    before = G.copy()
    got = project_within_group(G, rng)
    want = np.array(ref_project_within_group(list(G), ref_rng))
    assert got.tobytes() == want.tobytes()
    assert G.tobytes() == before.tobytes()
    if seed is not None:
        assert rng.random() == ref_rng.random()
    return got


@given(st.one_of(many_rows(), cluster_and_pairs(), negative_only_against_zero_norm()), seeds)
@settings(max_examples=300, deadline=None)
def test_projection_matches_the_list_reference_on_structured_blocks(G, seed):
    check_projection(G, seed)


@given(cluster_and_pairs(), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_cluster_rows_keep_their_bits(G, seed):
    out = check_projection(G, seed)
    dots = np.array([[a @ b for b in G] for a in G])
    skipped = ~((dots < 0.0) & (np.diag(dots) > 0.0)).any(axis=1)
    assert out[skipped].tobytes() == G[skipped].tobytes()


@given(conflict_free(), seeds)
@settings(max_examples=100, deadline=None)
def test_conflict_free_blocks_come_back_unchanged_and_consume_the_same_draws(G, seed):
    assert check_projection(G, seed).tobytes() == G.tobytes()
