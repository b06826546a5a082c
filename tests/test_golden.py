"""Seed-7 golden hashes of the staleness audit.

``golden_seed7.json`` holds, for the dense and incremental estimators under
each combinator mode, the sha256 of every file the audit writes and the two
content hashes its summary reports.  A change that keeps every artifact's
bits passes unchanged; a change that moves a bit fails here and has to name
the move.  The hashes were taken on the BLAS the file records.  Elsewhere a
dot product may round differently, so on another BLAS the test is skipped.

Regenerate (only for a named move) with ``python tests/test_golden.py``.
"""
from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from songoku.combinators import MODES
from songoku.config import parse_config
from songoku.experiments import run_experiment

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_seed7.json")
SKETCH_MODES = ("dense", "incremental")
FILES = ("run.csv", "run_record.csv", "summary.json")
AUDIT = {
    "experiment": "staleness_audit", "seed": 7, "K": 24, "d": 64, "steps": 128,
    "R": 16, "f_min": 2, "beta": 0.9, "tau_star": 0.2, "gamma": 0.1,
    "sigma": 0.02, "m0": 1.0, "groups": 4,
}


def blas() -> dict:
    dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": dep["name"], "version": dep["version"]}


def audit_hashes(sketch_mode: str, combinator_mode: str, out_dir: str) -> dict:
    cfg = parse_config(None, dict(AUDIT, sketch_mode=sketch_mode,
                                  combinator_mode=combinator_mode))
    summary = run_experiment("staleness_audit", cfg, out_dir)
    hashes = {"content_hash": summary["content_hash"],
              "run_content_hash": summary["results"]["run_content_hash"]}
    for name in FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


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


@pytest.mark.parametrize("sketch_mode,combinator_mode", CASES)
def test_audit_artifacts_keep_their_bits(golden, tmp_path, sketch_mode, combinator_mode):
    got = audit_hashes(sketch_mode, combinator_mode, str(tmp_path))
    assert got == golden["hashes"][f"{sketch_mode}/{combinator_mode}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {
            "blas": blas(),
            "audit": AUDIT,
            "hashes": {f"{s}/{c}": audit_hashes(s, c, os.path.join(tmp, f"{s}-{c}"))
                       for s, c in CASES},
        }
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
