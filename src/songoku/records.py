"""Run logging: per-step rows, per-window graph snapshots, and serialization.

The CSV layout is versioned with a leading comment line so downstream
consumers can detect schema drift.  Floats are written with ``repr`` to keep
round-trips bit-exact, which the determinism audit relies on.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain

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
    """One refresh window: its graph, coloring and coverage, which are the
    schedule ``run`` serves from step ``t_start`` until the next window.  Step
    t runs slot s = (t - t_start) % m + 1: ``classes[s - 1]`` plus slot s's
    ``extra_slots`` tasks.  A frozen window keeps the schedule it froze."""

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
            "content_hash": self.content_hash(),
        }

    def to_summary_json(self) -> str:
        return to_json(self.to_summary())


# json.dumps(x, default=str): json's own text for every scalar
_scalar = json.JSONEncoder(default=str).encode


def to_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, default=str)``, byte for
    byte, raising the same exception type where json raises.

    Any ``indent`` sends json to its pure-Python encoder.  This lays out the
    dicts, lists and tuples itself and hands every scalar and every dict key
    to json's C encoder.  A list of exact ints, or of equal-length lists of
    exact ints (a window's edges), is filled into one ``%d`` template.
    """
    return _render(obj, 0, set())


def _render(obj, depth: int, path: set) -> str:
    """The text of ``obj`` opening at ``depth``; ``path`` holds the ids of
    the containers above it, for json's circular-reference check."""
    is_list = isinstance(obj, (list, tuple))
    if not (is_list or isinstance(obj, dict)):
        return _scalar(obj)
    if is_list:
        types = set(map(type, obj))
        if types == {int}:
            return _bracket(["%d"] * len(obj), depth, "[]") % tuple(obj)
        if types <= {list, tuple} and len(lengths := set(map(len, obj))) == 1:
            flat = tuple(chain.from_iterable(obj))
            if set(map(type, flat)) <= {int}:
                row = _bracket(["%d"] * lengths.pop(), depth + 1, "[]")
                return _bracket([row] * len(obj), depth, "[]") % flat
    if id(obj) in path:
        raise ValueError("Circular reference detected")
    path.add(id(obj))
    if is_list:
        text = _bracket([_render(x, depth + 1, path) for x in obj], depth, "[]")
    else:
        text = _bracket([_key(k) + ": " + _render(v, depth + 1, path)
                         for k, v in sorted(obj.items())], depth, "{}")
    path.discard(id(obj))
    return text


def _bracket(items: list, depth: int, brackets: str) -> str:
    """The item texts ``items`` between ``brackets``, opening at ``depth``."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _key(key) -> str:
    """A dict key as json writes it: converted to a string, then encoded."""
    if isinstance(key, str):
        return _scalar(key)
    if key is None or isinstance(key, (int, float)):
        return _scalar(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def parse_csv(text: str) -> list:
    """Inverse of :meth:`RunRecord.to_csv` (rows only, schema checked)."""
    numbered = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    header = [ln for _, ln in numbered[:2]]
    if not header or header[0] != CSV_SCHEMA:
        raise ValueError(f"unrecognized CSV schema header: {header[:1]}")
    if len(header) < 2:
        raise ValueError(f"missing column header {CSV_COLUMNS!r}")
    if header[1] != CSV_COLUMNS:
        raise ValueError(f"unexpected column header: {header[1]!r}")
    width = CSV_COLUMNS.count(",") + 1
    rows = []
    for n, ln in numbered[2:]:
        fields = ln.split(",")
        if len(fields) != width:
            raise ValueError(f"line {n}: {len(fields)} fields, expected {width}")
        t, tau, m, mask, loss, gn, rf = fields
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
