"""Interference-aware task scheduling for multi-task gradient training.

Gradient statistics are tracked as decayed averages, turned into a pairwise
interference matrix, thresholded into a conflict graph, colored greedily, and
executed as a cyclic round-robin over the color classes with a minimum
per-cycle coverage guarantee and periodic regrouping.

The package exports the library's entry points; every other name is
imported from its own module (``songoku.sim``, ``songoku.conflict_graph``, ...).
"""

from .scheduler import SchedulerConfig, run
from .combinators import CombinatorConfig
from .sketch import SketchConfig, make_graph_builder
from .records import RunRecord
from .config import parse_config
from .experiments import run_experiment

__version__ = "0.1.0"

__all__ = [
    "CombinatorConfig",
    "RunRecord",
    "SchedulerConfig",
    "SketchConfig",
    "make_graph_builder",
    "parse_config",
    "run",
    "run_experiment",
]
