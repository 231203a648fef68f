"""Regenerate the per-instance reference figures recorded in bench/README.md.

    python3 bench/figures.py [--seed N] [--sampling-3-5]

For every operation of every workload: what it produced (states and edges,
sample rows, analysis results), its heuristic calls and distinct states,
and its time in one run.  With --sampling-3-5, also the calls of ``sample
--domain gripper --param balls=3..5 --samples 50 --h hplus`` (about 30 s).
"""

from __future__ import annotations

import argparse
import time

from workloads import ANALYZE_CAP, SAMPLES_PER_ROW, WORKLOADS, import_library, \
    operations, setup

lib = import_library()


def counting(name, counts, seen):
    """HEURISTICS[name] counting its calls and distinct (task, state) pairs."""
    inner = lib.HEURISTICS[name]

    def h(task, s):
        counts[name] = counts.get(name, 0) + 1
        seen.setdefault(name, set()).add((task.name, frozenset(s)))
        return inner(task, s)
    return h


def measure(fn):
    """(result, seconds, calls and distinct states per heuristic)."""
    counts, seen = {}, {}
    saved = dict(lib.HEURISTICS)
    lib.HEURISTICS.update({k: counting(k, counts, seen) for k in ("hplus", "hff")})
    try:
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
    finally:
        lib.HEURISTICS.update(saved)
    calls = ", ".join(f"{k} {counts[k]:,} calls / {len(seen[k]):,} distinct"
                      for k in sorted(counts))
    return result, elapsed, calls or "no heuristic calls"


def describe(kind, task, out):
    if kind == "topology":
        space, report = out
        return f"{space.size:,} states, {sum(map(len, space.transitions)):,} edges, " \
            f"mlmed {report.mlmed}, mbed {report.mbed}"
    if kind == "sample":
        return f"{out.samples} samples, valley {out.valley_percentage}%, " \
            f"max ed {out.sampled_max_exit_distance}"
    if isinstance(out, str):
        return out
    return f"FGT {lib.build_fgt(task, ANALYZE_CAP).size:,} nodes, " \
        f"{len(out.conflicts or ())} conflicts, " \
        f"{out.interaction_free_verdict} / {out.no_local_minima_verdict}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sampling-3-5", action="store_true")
    args = ap.parse_args()
    for name, (kind, _, _) in WORKLOADS.items():
        specs, tasks, malformed = setup(lib, name, args.seed)
        for i, (label, op) in enumerate(operations(lib, name, specs, tasks, malformed)):
            try:
                (out, _), seconds, calls = measure(op)
            except Exception as exc:   # the malformed parses fail today
                out, seconds, calls = f"fails: {type(exc).__name__}", 0.0, "no result"
            task = tasks[i] if i < len(tasks) else None
            print(f"{name:<19} {label:<28} {describe(kind, task, out)}; {calls}; "
                  f"{seconds:.2f} s", flush=True)
    if args.sampling_3_5:
        specs = [lib.GeneratorSpec("gripper", {"balls": b}) for b in (3, 4, 5)]
        cfg = lib.SampleConfig(SAMPLES_PER_ROW, seed=0, heuristic="hplus")
        _, seconds, calls = measure(lambda: lib.run_experiment(specs, cfg))
        print(f"sample gripper balls=3..5: {calls}; {seconds:.2f} s")


if __name__ == "__main__":
    main()
