"""Flat key=value configuration with a typed registry.

The file format is one ``key = value`` assignment per line (``#`` comments
and blank lines allowed).  Every key must exist in the registry; validation
failures name the field and its legal range.  ``emit_config`` produces text
that parses back to the identical dictionary (floats via repr).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .combinators import MODES as COMBINATOR_MODES
from .scheduler import ETA_RULES
from .sketch import SKETCH_MODES

EXPERIMENTS = (
    "recovery_curve",
    "sched_vs_agg",
    "convergence",
    "ablation_static",
    "ablation_singlestep",
    "staleness_audit",
    "bench",
)


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class Field:
    name: str
    kind: str               # int | float | str | bool | int_list | opt_int
    default: object
    low: float | None = None        # inclusive unless *_open set
    high: float | None = None
    low_open: bool = False
    high_open: bool = False
    choices: tuple | None = None

    def range_text(self) -> str:
        if self.choices is not None:
            return "one of " + ", ".join(str(c) for c in self.choices)
        lo = "-inf" if self.low is None else str(self.low)
        hi = "inf" if self.high is None else str(self.high)
        lb = "(" if (self.low is None or self.low_open) else "["
        rb = ")" if (self.high is None or self.high_open) else "]"
        return f"range {lb}{lo}, {hi}{rb}"

    def parse(self, raw: str):
        raw = raw.strip()
        try:
            if self.kind == "int":
                value = int(raw)
            elif self.kind == "float":
                value = float(raw)
            elif self.kind == "bool":
                if raw not in ("true", "false"):
                    raise ValueError("expected true or false")
                value = raw == "true"
            elif self.kind == "str":
                value = raw
            elif self.kind == "int_list":
                value = tuple(int(x) for x in raw.split(",") if x.strip())
                if not value:
                    raise ValueError("empty list")
            elif self.kind == "opt_int":
                value = None if raw == "none" else int(raw)
            else:                                   # pragma: no cover
                raise AssertionError(self.kind)
        except ValueError as exc:
            raise ConfigError(self.name, f"cannot parse {raw!r} as {self.kind} ({exc})")
        self.validate(value)
        return value

    def validate(self, value) -> None:
        if self.kind == "opt_int" and value is None:
            return
        if self.choices is not None and value not in self.choices:
            raise ConfigError(self.name, f"value {value!r} not allowed; {self.range_text()}")
        if self.kind in ("int", "float", "opt_int"):
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(self.name, f"value {value!r} is not finite")
            if self.low is not None and (value < self.low or (self.low_open and value == self.low)):
                raise ConfigError(self.name, f"value {value} outside legal {self.range_text()}")
            if self.high is not None and (value > self.high or (self.high_open and value == self.high)):
                raise ConfigError(self.name, f"value {value} outside legal {self.range_text()}")
        if self.kind == "int_list":
            for v in value:
                if self.low is not None and v < self.low:
                    raise ConfigError(self.name, f"element {v} outside legal {self.range_text()}")

    def emit(self, value) -> str:
        if self.kind == "float":
            return repr(float(value))
        if self.kind == "bool":
            return "true" if value else "false"
        if self.kind == "int_list":
            return ",".join(str(v) for v in value)
        if self.kind == "opt_int":
            return "none" if value is None else str(value)
        return str(value)


_FIELDS = [
    Field("experiment", "str", "staleness_audit", choices=EXPERIMENTS),
    Field("seed", "int", 0, low=0),
    Field("K", "int", 8, low=2),
    Field("d", "int", 32, low=2),
    Field("steps", "int", 512, low=0),
    Field("R", "int", 32, low=1),
    Field("beta", "float", 0.9, low=0.0, high=1.0, high_open=True),
    Field("tau_star", "float", 0.5, low=0.0, high=1.0, low_open=True),
    Field("T_warm", "int", 0, low=0),
    Field("f_min", "int", 1, low=1),
    Field("eta", "float", 0.1, low=0.0, low_open=True),
    Field("eta_rule", "str", "fixed", choices=ETA_RULES),
    Field("anneal_a", "float", 9.0, low=0.0, low_open=True),
    Field("anneal_horizon", "opt_int", None, low=1),
    Field("sigma", "float", 1.0, low=0.0),
    Field("gamma", "float", 0.3, low=0.0, high=1.0, low_open=True, high_open=True),
    Field("m0", "float", 1.0, low=0.0, low_open=True),
    Field("groups", "int", 2, low=2),
    Field("trials", "int", 500, low=1),
    Field("delta", "float", 0.1, low=0.0, high=1.0, low_open=True, high_open=True),
    Field("permute_classes", "bool", False),
    Field("combinator_mode", "str", "none", choices=COMBINATOR_MODES),
    Field("scale_ema_beta", "float", 0.9, low=0.0, high=1.0, high_open=True),
    Field("scale_floor", "float", 1e-6, low=0.0, low_open=True),
    Field("sketch_mode", "str", "dense", choices=SKETCH_MODES),
    Field("sketch_r", "int", 32, low=1),
    Field("sketch_ell", "int", 8, low=2),
    Field("sketch_epsilon", "float", 0.1, low=0.0, low_open=True),
    Field("pair_budget", "opt_int", None, low=1),
    Field("change_threshold", "float", 0.05, low=0.0),
    Field("rebuild_every", "int", 16, low=1),
    Field("flip_time", "opt_int", None, low=1),
    Field("repeats", "int", 10, low=1),
    Field("bench_steps", "int", 900, low=1),
    Field("bench_d", "int", 1024, low=1),
    Field("bench_K_values", "int_list", (3, 6, 16, 40), low=1),
    Field("bench_R_values", "int_list", (4, 32, 256), low=1),
]

REGISTRY = {f.name: f for f in _FIELDS}


def defaults() -> dict:
    return {f.name: f.default for f in _FIELDS}


def parse_kv_text(text: str) -> dict:
    """Raw key -> value-string pairs from flat config text."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        out[key.strip()] = raw.strip()
    return out


def parse_config(path: str | None = None, overrides: dict | None = None) -> dict:
    """Defaults, then file assignments, then typed overrides; fully validated.

    Unknown keys are rejected naming the key; every value failing validation
    raises ConfigError naming the field and its legal range.
    """
    cfg = defaults()
    if path is not None:
        with open(path) as fh:
            raw = parse_kv_text(fh.read())
        for key, value in raw.items():
            if key not in REGISTRY:
                known = ", ".join(sorted(REGISTRY))
                raise ConfigError(key, f"unknown config key; known keys: {known}")
            cfg[key] = REGISTRY[key].parse(value)
    if overrides:
        for key, value in overrides.items():
            if key not in REGISTRY:
                known = ", ".join(sorted(REGISTRY))
                raise ConfigError(key, f"unknown config key; known keys: {known}")
            if value is None:
                continue
            field = REGISTRY[key]
            if isinstance(value, str) and field.kind != "str":
                value = field.parse(value)
            else:
                field.validate(value)
            cfg[key] = value
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: dict) -> None:
    if cfg["steps"] > 0 and cfg["T_warm"] >= cfg["steps"]:
        raise ConfigError(
            "T_warm", f"value {cfg['T_warm']} must be < steps = {cfg['steps']}"
        )
    if cfg["K"] < cfg["groups"]:
        raise ConfigError("groups", f"value {cfg['groups']} exceeds K = {cfg['K']}")
    # edge_sample_graph refuses it at the first refresh: say so before the run
    budget = cfg["pair_budget"]
    if cfg["sketch_mode"] == "edge_sample" and budget is not None and budget < cfg["K"]:
        raise ConfigError("pair_budget", f"value {budget} outside legal range "
                          f"[{cfg['K']}, inf) for sketch_mode = edge_sample")


def emit_config(cfg: dict) -> str:
    """Canonical text form; parse_config of the result reproduces cfg."""
    lines = []
    for key in sorted(cfg):
        if key not in REGISTRY:
            raise ConfigError(key, "unknown config key")
        lines.append(f"{key} = {REGISTRY[key].emit(cfg[key])}")
    return "\n".join(lines) + "\n"
