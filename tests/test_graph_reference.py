"""Differential test of the refresh graph stages against a set-based reference.

The reference functions below are the plain edge-set forms of graph
construction, Welsh-Powell coloring and coverage augmentation: a Python
double loop over the included pairs, set lookups for neighbours, and a
has-edge scan over each slot's occupants.  The package's adjacency-based
stages must reproduce them exactly: the same edges, colors, classes, extra
slots and coverage failures.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from songoku.conflict_graph import ConflictGraph, build_graph, enforce_min_coverage, welsh_powell


def ref_build_graph(rho, included, tau):
    """Included pairs whose rho, clipped at 1 as the kernel clips it, is
    above tau."""
    edges = set()
    idx = np.flatnonzero(included)
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            i, j = int(idx[a]), int(idx[b])
            if min(rho[i, j], 1.0) > tau:
                edges.add((i, j))
    return frozenset(edges)


def ref_welsh_powell(K, edges):
    deg = [0] * K
    adj = [set() for _ in range(K)]
    for (i, j) in edges:
        deg[i] += 1
        deg[j] += 1
        adj[i].add(j)
        adj[j].add(i)
    color = [0] * K
    for v in sorted(range(K), key=lambda v: (-deg[v], v)):
        taken = {color[u] for u in adj[v] if color[u] > 0}
        c = 1
        while c in taken:
            c += 1
        color[v] = c
    m = max(color) if K else 0
    classes = tuple(
        tuple(sorted(v for v in range(K) if color[v] == c)) for c in range(1, m + 1)
    )
    return tuple(color), m, classes


def ref_coverage(K, edges, color_of, classes, f_min):
    """(extra_slots, coverage_failures) of the slot-by-slot scan."""
    m = len(classes)
    extra = {}
    if f_min == 1 or m == 0:
        return extra, ()
    failures = []
    for task in range(K):
        count = 1
        for slot in range(1, m + 1):
            if count >= f_min:
                break
            if slot == color_of[task]:
                continue
            occupants = sorted(list(classes[slot - 1]) + extra.get(slot, []))
            if any((min(task, u), max(task, u)) in edges for u in occupants):
                continue
            extra.setdefault(slot, []).append(task)
            extra[slot].sort()
            count += 1
        if count < f_min:
            failures.append(task)
    return extra, tuple(failures)


def random_matrix(K, p, q, tau, seed):
    """A symmetric rho whose upper pairs exceed tau with probability p; rows
    excluded with probability q are NaN.  Some pairs sit exactly at tau, and
    some above 1, where the kernel's clip makes them non-edges at tau = 1."""
    rng = np.random.default_rng(seed)
    above = rng.uniform(np.nextafter(tau, 2.0), 1.0 + 1e-12, (K, K))
    below = rng.uniform(-1.0, tau, (K, K))
    below[rng.random((K, K)) < 0.1] = tau      # boundary equality: no edge
    rho = np.where(rng.random((K, K)) < p, above, below)
    rho = np.triu(rho, 1)
    rho = rho + rho.T
    np.fill_diagonal(rho, -1.0)
    included = rng.random(K) >= q
    rho[~included, :] = np.nan
    rho[:, ~included] = np.nan
    return rho, included


def assert_matches_reference(mat, tau, f_min):
    rho, included = mat
    K = len(included)
    # with unit norms, cosine_rho(-rho) gives back rho, clipped to [-1, 1]
    block = np.ix_(included, included)
    graph = build_graph(-rho[block], np.ones(int(included.sum())), included, tau)
    edges = ref_build_graph(rho, included, tau)
    assert graph.edges == edges
    assert graph.sorted_edges == tuple(sorted(edges))
    assert np.array_equal(graph.adj, ConflictGraph.from_edges(K, edges, tau).adj)
    assert graph.degrees.tolist() == [sum(v in e for e in edges) for v in range(K)]

    coloring = welsh_powell(graph)
    color_of, m, classes = ref_welsh_powell(K, edges)
    assert (coloring.color_of, coloring.m, coloring.classes) == (color_of, m, classes)
    assert all(type(c) is int for c in coloring.color_of)

    extra_slots, coverage_failures = enforce_min_coverage(coloring, graph, f_min)
    extra, failures = ref_coverage(K, edges, color_of, classes, f_min)
    assert extra_slots == tuple((s, tuple(ts)) for s, ts in sorted(extra.items()))
    assert coverage_failures == failures
    return sum(len(ts) for ts in extra.values())


@given(
    K=st.integers(0, 40),
    p=st.floats(0.0, 1.0),
    q=st.sampled_from([0.0, 0.0, 0.2, 0.9]),
    tau=st.floats(0.05, 1.0),
    f_min=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_stages_match_set_reference(K, p, q, tau, f_min, seed):
    assert_matches_reference(random_matrix(K, p, q, tau, seed), tau, f_min)


def test_sparse_graphs_place_extras_like_the_reference():
    # sparse graphs leave room in other slots, so coverage really places
    # extra copies here (the planted workloads never need one)
    placed = 0
    for seed in range(40):
        mat = random_matrix(30, 0.08, 0.1, 0.5, seed)
        placed += assert_matches_reference(mat, 0.5, 1 + seed % 4)
    assert placed > 100


def test_pairs_above_one_are_no_edges_at_tau_one():
    # the generator draws rho up to 1 + 1e-12, as a rounded cosine below -1
    # gives; the kernel's clip at 1 leaves them non-edges at tau = 1
    for seed in range(10):
        rho, included = random_matrix(20, 0.5, 0.1, 1.0, seed)
        assert (rho[np.ix_(included, included)] > 1.0).any()
        assert ref_build_graph(rho, included, 1.0) == frozenset()
        assert_matches_reference((rho, included), 1.0, 2)
