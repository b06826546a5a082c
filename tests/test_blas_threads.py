"""A run's bits do not depend on the BLAS thread count.

``conflict_graph.build_graph`` thresholds a Gram whose bits can depend on how
many threads the BLAS splits it over: with OpenBLAS 0.3.31, ``E @ E.T`` of a
(100, 1024) Gaussian matrix rounds differently under one and two threads.
This test runs one K=100, d=1024, T=256, R=16 planted dense run in two fresh
processes, under ``OPENBLAS_NUM_THREADS=1`` and ``=2``, and asserts that
``run.csv`` and every window's edges, classes and extra slots are equal.  At
sigma = 0.1 the graph changes at most refreshes, so the windows are not all
one graph, and f_min = 2 makes coverage place extra copies.  On a BLAS that
ignores the variable both processes run alike.
"""
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CHILD = """
import json
from songoku.scheduler import SchedulerConfig, run
from songoku.sim import PlantedOracle, make_planted_suite

suite = make_planted_suite(K=100, d=1024, groups=4, tau=0.2, gamma=0.1, sigma=0.1,
                           m0=1.0, seed=7)
cfg = SchedulerConfig(K=100, d=1024, T=256, R=16, beta=0.9, tau_star=0.2, eta=0.01, f_min=2,
                      seed=7)
record = run(cfg, PlantedOracle(suite))
windows = [[w.edges, w.classes, w.extra_slots] for w in record.windows]
print(json.dumps({"csv": record.to_csv(), "windows": windows}))
"""


def run_under_threads(n: int) -> dict:
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n), PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_a_dense_run_has_the_same_bits_under_one_and_two_blas_threads():
    one, two = run_under_threads(1), run_under_threads(2)
    assert one["csv"] == two["csv"]
    assert one["windows"] == two["windows"]
    edge_sets = {json.dumps(edges) for edges, _, _ in one["windows"]}
    assert len(edge_sets) > 10 and "[]" in edge_sets     # the graph moves
    assert any(extra_slots for _, _, extra_slots in one["windows"])
