"""Differential test of ``edge_sample_graph`` against its union-find form.

The reference below is the edge sampler as it was written before it moved
onto one value table and a cluster-label array: a list of every pair, a dict
of evaluated pairs, a dict of representative values and a union-find forest
whose roots are kept at each cluster's smallest vertex.  The package's
function must make the same oracle calls in the same order (the order
decides where the budget runs out) and return the same adjacency,
``evaluated`` set and ``uncertified`` tuple.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from songoku.conflict_graph import ConflictGraph
from songoku.sketch import SampledGraph, edge_sample_graph


class RefUnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def ref_edge_sample_graph(rho_oracle, K, tau, gamma, budget=None, seed=0):
    if K < 1:
        raise ValueError("K must be >= 1")
    all_pairs = [(i, j) for i in range(K) for j in range(i + 1, K)]
    if budget is None:
        budget = math.ceil(2 * K * math.log(max(K, 2)))
    if budget < K:
        raise ValueError(f"budget={budget} below the minimum K={K}")

    evals: dict = {}
    budget_left = budget

    def ev(i: int, j: int):
        nonlocal budget_left
        pair = (i, j) if i < j else (j, i)
        if pair in evals:
            return evals[pair]
        if budget_left <= 0:
            return None
        budget_left -= 1
        val = float(rho_oracle(*pair))
        evals[pair] = val
        return val

    if len(all_pairs) <= budget:
        for (i, j) in all_pairs:
            ev(i, j)
        edges = frozenset(p for p, v in evals.items() if v > tau)
        return SampledGraph(
            graph=ConflictGraph.from_edges(K, edges, tau),
            evaluated=frozenset(evals),
            uncertified=(),
        )

    rng = np.random.default_rng(seed)
    n_first = min(budget_left // 2, math.ceil(2 * K * math.log(max(K, 2))))
    chosen = rng.choice(len(all_pairs), size=n_first, replace=False)
    for idx in sorted(int(c) for c in chosen):
        ev(*all_pairs[idx])

    uf = RefUnionFind(K)
    for (i, j), v in evals.items():
        if v <= tau - gamma:
            uf.union(i, j)

    for v in range(K):
        reps = sorted({uf.find(u) for u in range(v)})
        for rep in reps:
            if uf.find(v) == uf.find(rep):
                break
            val = ev(rep, v)
            if val is None:
                break
            if val <= tau - gamma:
                uf.union(rep, v)
                break

    reps = sorted({uf.find(v) for v in range(K)})
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            ev(reps[a], reps[b])

    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            pair = (reps[a], reps[b])
            val = evals.get(pair)
            if val is not None and abs(val - tau) < gamma:
                members_a = [v for v in range(K) if uf.find(v) == reps[a]]
                members_b = [v for v in range(K) if uf.find(v) == reps[b]]
                for u in members_a:
                    for w in members_b:
                        ev(u, w)

    edges = set()
    uncertified = []
    rep_val = {}
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            rep_val[(reps[a], reps[b])] = evals.get((reps[a], reps[b]))
    for (i, j) in all_pairs:
        if (i, j) in evals:
            if evals[(i, j)] > tau:
                edges.add((i, j))
            continue
        uncertified.append((i, j))
        ri, rj = uf.find(i), uf.find(j)
        if ri == rj:
            continue
        key = (ri, rj) if ri < rj else (rj, ri)
        val = rep_val.get(key)
        if val is not None and val > tau:
            edges.add((i, j))
    return SampledGraph(
        graph=ConflictGraph.from_edges(K, edges, tau),
        evaluated=frozenset(evals),
        uncertified=tuple(uncertified),
    )


class RecordingOracle:
    """Reads a symmetric rho table and records every call it gets."""

    def __init__(self, table: np.ndarray):
        self.table = table
        self.calls = []

    def __call__(self, i, j) -> float:
        self.calls.append((i, j))
        return self.table[i, j]


@st.composite
def instances(draw):
    """(table, K, tau, gamma, budget, seed): a planted-cluster rho table whose
    values sit on the decision edges (rho = tau, rho = tau - gamma, |rho -
    tau| = gamma), inside the ambiguity band, clear of it, or NaN."""
    K = draw(st.integers(1, 40))
    tau = draw(st.sampled_from((0.2, 0.5)))
    gamma = draw(st.sampled_from((0.1, 0.3)))
    n_pairs = K * (K - 1) // 2
    budget = draw(st.one_of(st.none(), st.just(K), st.integers(K, n_pairs + 5)))
    groups = draw(st.integers(1, 6))
    noise = draw(st.sampled_from((0.0, 0.05, 0.3)))
    nan = draw(st.sampled_from((0.0, 0.02)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.array([tau, tau - gamma, tau + gamma, tau - gamma / 2,
                       tau + gamma / 2, -0.9, 0.9])
    group_of = rng.integers(0, groups, size=K)
    cross = rng.choice(values, size=(groups, groups))
    inside = rng.choice(values[[1, 5]], size=groups)
    table = np.where(group_of[:, None] == group_of[None, :],
                     inside[group_of][:, None], cross[group_of][:, group_of])
    table = np.where(rng.random((K, K)) < noise, rng.choice(values, size=(K, K)), table)
    table = np.where(rng.random((K, K)) < nan, np.nan, table)
    table = np.triu(table, 1)
    table = table + table.T
    return table, K, tau, gamma, budget, draw(st.integers(0, 1000))


@given(instances())
@settings(max_examples=300, deadline=None)
def test_matches_the_union_find_reference(case):
    table, K, tau, gamma, budget, seed = case
    got_oracle, want_oracle = RecordingOracle(table), RecordingOracle(table)
    got = edge_sample_graph(got_oracle, K, tau, gamma, budget=budget, seed=seed)
    want = ref_edge_sample_graph(want_oracle, K, tau, gamma, budget=budget, seed=seed)
    assert got_oracle.calls == want_oracle.calls
    assert np.array_equal(got.graph.adj, want.graph.adj)
    assert got.evaluated == want.evaluated
    assert got.uncertified == want.uncertified
