"""Scheduler benchmark on planted worlds.

    python3 schedule_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory and from nowhere else.  One process runs one
workload: set-up (imports, inputs, one warm-up round), then whole cycles of
rounds until ``--seconds`` have passed.  Every round is checked.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  End-to-end times are scaled to a reference
host speed; the lines before the JSON that start with ``measured`` give
them as timed, with the host's speed index.  See README.md for the
estimators.
"""
from __future__ import annotations

import os
import sys
import time

START_NS = time.perf_counter_ns()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads its BLAS

import argparse
import json

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def process_age_s() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return (time.perf_counter_ns() - START_NS) / 1e9


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "songoku", "__init__.py")):
        print(f"error: no program source at {SRC}/songoku; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import songoku

    if not os.path.abspath(songoku.__file__).startswith(SRC + os.sep):
        print(f"error: songoku imported from {songoku.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    out_root = os.path.join(HERE, "out")
    result, messages, measured = harness.run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), out_root, process_age_s)
    for msg in messages[:10]:
        print(msg, file=sys.stderr)
    if result is None:
        return 1
    for name, (value, unit) in measured.items():
        print(f"{'measured ' + name:44s} {value:.6g} {unit}")
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    with open(os.path.join(out_root, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
