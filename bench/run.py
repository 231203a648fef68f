"""plantopo benchmark: run one workload and print its result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a plantopo checkout.  The workload runs in a process
of its own (``workloads.py``); before it, SETUP_PROBES processes only set
the workload up, and ``setup_s`` is the median of their set-up times, each
less the time spent sampling the CPU speed and scaled to the reference
speed by the mean of those samples (``cpuclock.py``).  With ``--trace 0``
the result carries the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  The last line of standard output is
the JSON result; check failures are listed on standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 3      # with RUN_TIMEOUT_S, a run ends within 180 s
RUN_TIMEOUT_S = 120


def child(args, timeout):
    """Run workloads.py to its end; (its result, seconds from its start
    until every instance was grounded)."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), *args],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"error: workload process exceeded {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["grounded_at"] - started


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        probe, setup = child(common + ["--setup-only"], PROBE_TIMEOUT_S)
        setups.append((setup - probe["sampling_s"]) * probe["speed"])
    result, _ = child(common + ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)], RUN_TIMEOUT_S)
    measured = dict(result["metrics"], setup_s=statistics.median(setups))
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            sys.exit(f"error: workload reported no {m['name']}")
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {measured[m['name']]:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"rounds = {result['rounds']}, attempted = {result['attempted']}, "
          f"failed = {result['failed']}, correct = {result['correct']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
