"""Run logging: per-step rows, per-window graph snapshots, and serialization.

The CSV layout is versioned with a leading comment line so downstream
consumers can detect schema drift.  Floats are written with ``repr`` to keep
round-trips bit-exact, which the determinism audit relies on.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

CSV_SCHEMA = "# run_record v1"
CSV_COLUMNS = "t,tau,m,active_mask,loss,grad_norm,refresh"


def active_mask(tasks) -> int:
    """Bitmask encoding of an active set: bit k set iff task k is active."""
    mask = 0
    for k in tasks:
        mask |= 1 << int(k)
    return mask


def activity(steps, K: int) -> np.ndarray:
    """A run's schedule as a (T, K) bool matrix: [t, k] is True iff task k is
    active at step t.  ``steps`` holds StepRows or bare masks.

    This is the one reader of the bitmask format.  Each mask is decoded once;
    a mask with a bit at or above K (or a negative one) raises ValueError.
    """
    masks = [getattr(row, "active_mask", row) for row in steps]
    for t, mask in enumerate(masks):
        if mask < 0 or mask >> K:
            raise ValueError(f"step {t}: active_mask {mask} has a bit at or above K={K}")
    width = (K + 7) // 8
    packed = b"".join(mask.to_bytes(width, "little") for mask in masks)
    octets = np.frombuffer(packed, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(octets, axis=1, bitorder="little")[:, :K].astype(bool)


def tasks_from_mask(mask: int) -> tuple:
    """The tasks whose bits are set in ``mask``, ascending."""
    return tuple(np.flatnonzero(activity([mask], mask.bit_length())[0]).tolist())


def artifact_hash(csv_text: str, config: dict) -> str:
    """Content hash of an artifact: sha256 of its CSV text plus its config
    as sorted JSON."""
    blob = csv_text + json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class StepRow:
    t: int
    tau: float
    m: int
    active_mask: int
    loss: float
    grad_norm: float
    refresh: bool

    def to_csv_row(self) -> str:
        return ",".join(
            [
                str(self.t),
                repr(self.tau),
                str(self.m),
                str(self.active_mask),
                repr(self.loss),
                repr(self.grad_norm),
                "1" if self.refresh else "0",
            ]
        )


@dataclass(frozen=True)
class WindowRecord:
    """Snapshot of one refresh window's graph, coloring, and coverage."""

    r: int
    t_start: int
    tau: float
    m: int
    edges: tuple                 # tuple of (i, j), i < j
    color_of: tuple              # 1-based colors per task
    classes: tuple               # tuple of tuples
    extra_slots: tuple           # tuple of (slot, tasks-tuple) pairs
    coverage_failures: tuple
    frozen: bool = False

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "t_start": self.t_start,
            "tau": self.tau,
            "m": self.m,
            "edges": [list(e) for e in self.edges],
            "color_of": list(self.color_of),
            "classes": [list(c) for c in self.classes],
            "extra_slots": {str(s): list(ts) for s, ts in self.extra_slots},
            "coverage_failures": list(self.coverage_failures),
            "frozen": self.frozen,
        }


@dataclass
class RunRecord:
    config: dict
    steps: list = field(default_factory=list)        # list[StepRow]
    windows: list = field(default_factory=list)      # list[WindowRecord]
    flops: dict = field(default_factory=dict)
    combinator_mode: str = "none"

    def to_csv(self) -> str:
        lines = [CSV_SCHEMA, CSV_COLUMNS]
        lines += [row.to_csv_row() for row in self.steps]
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return artifact_hash(self.to_csv(), self.config)

    def to_summary(self) -> dict:
        return {
            "schema": "run_summary v1",
            "config": self.config,
            "combinator_mode": self.combinator_mode,
            "n_steps": len(self.steps),
            "windows": [w.to_dict() for w in self.windows],
            "coverage_failures": sorted(
                {k for w in self.windows for k in w.coverage_failures}
            ),
            "flops": dict(self.flops),
            "content_hash": self.content_hash(),
        }

    def to_summary_json(self) -> str:
        return json.dumps(self.to_summary(), indent=2, sort_keys=True, default=str)


def parse_csv(text: str) -> list:
    """Inverse of :meth:`RunRecord.to_csv` (rows only, schema checked)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_SCHEMA:
        raise ValueError(f"unrecognized CSV schema header: {lines[:1]}")
    if lines[1] != CSV_COLUMNS:
        raise ValueError(f"unexpected column header: {lines[1]!r}")
    rows = []
    for ln in lines[2:]:
        t, tau, m, mask, loss, gn, rf = ln.split(",")
        rows.append(
            StepRow(
                t=int(t),
                tau=float(tau),
                m=int(m),
                active_mask=int(mask),
                loss=float(loss),
                grad_norm=float(gn),
                refresh=rf == "1",
            )
        )
    return rows
