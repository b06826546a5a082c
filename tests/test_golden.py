"""Seed-7 golden hashes of the staleness audit, the other experiments, the
acceptance-08 panel, one frozen run and one ``steps_k40_d1024``-shaped run.

``golden_seed7.json`` holds, for every estimator in ``SKETCH_MODES`` under
each combinator mode, the sha256 of every file the audit writes and the two
content hashes its summary reports.  For every other experiment but ``bench``
(which records timings) it holds the sha256 of ``run.csv`` and
``summary.json`` at K=8, d=32, T=128, R=16.  For each run of the
acceptance-08 panel, for one frozen run (``freeze_after_first_coloring``) on
the drifting world of that K=8 config, whose windows after the freeze
re-serve one coloring, and for a K=40, d=1024, T=1024 run on a 4-group
planted pool it holds the sha256 of ``run.csv`` and of ``summary.json`` and the
record's ``content_hash``.  A change that keeps every artifact's bits passes
unchanged; a change that moves a bit fails here and has to name the move.
The hashes were taken on the BLAS the file records.  Elsewhere a dot product
may round differently, so on another BLAS the test is skipped.

Regenerate (only for a named move) with ``python tests/test_golden.py``.
"""
from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from conftest import acceptance_panel
from songoku.combinators import MODES
from songoku.config import parse_config
from songoku.experiments import _drifting_world, _scheduler_config, run_experiment
from songoku.scheduler import SchedulerConfig, run
from songoku.sim import DriftingOracle, make_planted_suite
from songoku.sketch import SKETCH_MODES

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_seed7.json")
FILES = ("run.csv", "run_record.csv", "summary.json")
AUDIT = {
    "experiment": "staleness_audit", "seed": 7, "K": 24, "d": 64, "steps": 128,
    "R": 16, "f_min": 2, "beta": 0.9, "tau_star": 0.2, "gamma": 0.1,
    "sigma": 0.02, "m0": 1.0, "groups": 4,
}
EXPERIMENT = {"seed": 7, "K": 8, "d": 32, "steps": 128, "R": 16}
EXPERIMENT_NAMES = ("recovery_curve", "sched_vs_agg", "convergence",
                    "ablation_static", "ablation_singlestep")
# the shape of schedule_bench's steps_k40_d1024 workload at seed 7: the
# suite, the pool and the scheduler draw from seed + i * stride, i = 0, 1, 2
STEPS = {
    "seed": 7, "stride": 1_000_003, "K": 40, "d": 1024, "T": 1024, "R": 32,
    "f_min": 1, "beta": 0.9, "eta": 0.01, "tau": 0.2, "gamma": 0.1,
    "sigma": 0.02, "m0": 1.0, "groups": 4, "pool_periods": 2,
}


def blas() -> dict:
    dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": dep["name"], "version": dep["version"]}


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def audit_hashes(sketch_mode: str, combinator_mode: str, out_dir: str) -> dict:
    cfg = parse_config(None, dict(AUDIT, sketch_mode=sketch_mode,
                                  combinator_mode=combinator_mode))
    summary = run_experiment("staleness_audit", cfg, out_dir)
    hashes = {"content_hash": summary["content_hash"],
              "run_content_hash": summary["results"]["run_content_hash"]}
    for name in FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = sha256(fh.read())
    return hashes


def experiment_hashes(name: str, out_dir: str) -> dict:
    run_experiment(name, parse_config(None, dict(EXPERIMENT, experiment=name)), out_dir)
    hashes = {}
    for filename in ("run.csv", "summary.json"):
        with open(os.path.join(out_dir, filename), "rb") as fh:
            hashes[filename] = sha256(fh.read())
    return hashes


def record_hashes(record) -> dict:
    return {"content_hash": record.content_hash(),
            "run.csv": sha256(record.to_csv()),
            "summary.json": sha256(record.to_summary_json())}


def frozen_hashes() -> dict:
    cfg = parse_config(None, dict(EXPERIMENT, experiment="ablation_static"))
    suite, _ = _drifting_world(cfg)
    sched_cfg = _scheduler_config(cfg, freeze_after_first_coloring=True)
    return record_hashes(run(sched_cfg, DriftingOracle(suite)))


def panel_hashes() -> list:
    return [record_hashes(run(cfg, oracle, combinators=comb, graph_builder=make_builder()))
            for cfg, oracle, comb, make_builder in acceptance_panel()]


class PoolOracle:
    """Task k at clock value t gets row ``pool[t % P, k]``."""

    def __init__(self, pool: np.ndarray):
        self.pool = pool
        self.row = pool[0]

    def set_time(self, t: int) -> None:
        self.row = self.pool[t % len(self.pool)]

    def gradient(self, task: int, theta, rng):
        return self.row[task]

    def loss(self, theta) -> float:
        return 0.0


def steps_hashes() -> dict:
    p = STEPS
    seed, stride = p["seed"], p["stride"]
    suite = make_planted_suite(K=p["K"], d=p["d"], groups=p["groups"], tau=p["tau"],
                               gamma=p["gamma"], sigma=p["sigma"], m0=p["m0"], seed=seed)
    rng = np.random.default_rng(seed + stride)
    noise = rng.standard_normal((p["pool_periods"] * p["R"], p["K"], p["d"]))
    pool = suite.mu[None, :, :] + p["sigma"] * noise
    cfg = SchedulerConfig(K=p["K"], d=p["d"], T=p["T"], R=p["R"], beta=p["beta"],
                          tau_star=p["tau"], f_min=p["f_min"], eta=p["eta"],
                          seed=seed + 2 * stride)
    return record_hashes(run(cfg, PoolOracle(pool)))


CASES = [(s, c) for s in SKETCH_MODES for c in MODES]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        data = json.load(fh)
    if data["blas"] != blas():
        pytest.skip(f"golden hashes were taken on {data['blas']}, this numpy uses {blas()}")
    return data


def test_golden_covers_every_case(golden):
    assert golden["audit"] == AUDIT
    assert sorted(golden["hashes"]) == sorted(f"{s}/{c}" for s, c in CASES)
    assert len(golden["panel"]) == len(acceptance_panel())
    assert golden["steps"]["params"] == STEPS
    assert golden["experiments"]["params"] == EXPERIMENT
    assert sorted(golden["experiments"]["hashes"]) == sorted(EXPERIMENT_NAMES)
    assert golden["frozen"]["params"] == EXPERIMENT


@pytest.mark.parametrize("sketch_mode,combinator_mode", CASES)
def test_audit_artifacts_keep_their_bits(golden, tmp_path, sketch_mode, combinator_mode):
    got = audit_hashes(sketch_mode, combinator_mode, str(tmp_path))
    assert got == golden["hashes"][f"{sketch_mode}/{combinator_mode}"]


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_experiment_artifacts_keep_their_bits(golden, tmp_path, name):
    assert experiment_hashes(name, str(tmp_path)) == golden["experiments"]["hashes"][name]


def test_frozen_run_keeps_its_bits(golden):
    assert frozen_hashes() == golden["frozen"]["hashes"]


def test_acceptance_panel_keeps_its_bits(golden):
    assert panel_hashes() == golden["panel"]


def test_steps_run_keeps_its_bits(golden):
    assert steps_hashes() == golden["steps"]["hashes"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {
            "blas": blas(),
            "audit": AUDIT,
            "hashes": {f"{s}/{c}": audit_hashes(s, c, os.path.join(tmp, f"{s}-{c}"))
                       for s, c in CASES},
            "experiments": {"params": EXPERIMENT,
                            "hashes": {name: experiment_hashes(name, os.path.join(tmp, name))
                                       for name in EXPERIMENT_NAMES}},
            "frozen": {"params": EXPERIMENT, "hashes": frozen_hashes()},
            "panel": panel_hashes(),
            "steps": {"params": STEPS, "hashes": steps_hashes()},
        }
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
