"""crdi pipeline benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ring_report --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

With ``--trace 0`` the run measures end-to-end metrics with tracing off;
with ``--trace 1`` it traces one set-up and alternates untraced and traced
passes, and reports per-module metrics, the closed-form call-count check
and the tracing overhead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The program runs on the thread defaults its users get.
STRIPPED_ENV = ("CRDI_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
WORKLOAD_NAMES = ("ring_report", "sprite_adapt", "ring_sweep")


def run_all(args):
    """Each workload in its own process, one after another; a failed
    workload does not stop the others."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(proc.stderr[-2000:])
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{n}.{k}": v for n, r in results.items()
                                  for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    for var in STRIPPED_ENV:
        os.environ.pop(var, None)
    if not (SRC / "crdi" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no crdi sources under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import crdi
    import measure  # imports NumPy and the whole of crdi: a cost of set-up

    if SRC.resolve() not in Path(crdi.__file__).resolve().parents:
        sys.stderr.write(f"perfbench: imported crdi from {crdi.__file__}, not {SRC}\n")
        return 2
    import_s = time.perf_counter() - T_START
    result = measure.run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                             import_s, STRIPPED_ENV)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
