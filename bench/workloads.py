"""One benchmark workload in its own process: set-up, timed rounds, checks.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/workloads.py --workload NAME --seed N --setup-only

``run.py`` starts this script and reads the JSON line it prints last.  The
process is single-threaded and runs a closed loop: one operation at a time,
grouped in rounds that each make the same operations.  It starts from
generated PDDL text, parses and grounds it (the set-up), then makes the
library calls of the ``topology``, ``sample`` and ``analyze`` subcommands.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

import cpuclock
from spans import Tracer, maxrss_mb, patched

ROOT = Path(__file__).resolve().parent.parent
ANALYZE_CAP = 100_000          # the CLI's default --fgt-cap
SAMPLES_PER_ROW = 50
SAMPLE_SEED = 0                # the CLI's default; see README for why fixed
SETUP_PERIOD_S = 0.005         # CPU speed sampling period of a set-up probe

# Instance make-up per workload: (family, generator parameters).  Only the
# families in SEEDED take the benchmark seed as instance seed; the others
# are unseeded generators or fixed at instance seed 0 (see README).
WORKLOADS = {
    "topology-hplus": ("topology", "hplus", [
        ("blocksworld-arm-stack", {"n": 4}),
        ("blocksworld-no-arm-stack", {"n": 3}),
        ("gripper", {"balls": 4}),
        ("tireworld", {"tires": 1}),
        ("hanoi", {"discs": 4}),
        ("ferry", {"cars": 3}),
    ]),
    "topology-hff-large": ("topology", "hff", [
        ("blocksworld-no-arm-stack", {"n": 5}),
    ]),
    "sample-hplus": ("sample", "hplus", [
        ("gripper", {"balls": 1}),
        ("gripper", {"balls": 2}),
        ("gripper", {"balls": 3}),
    ]),
    "analyze-static": ("analyze", None, [
        ("simple-tsp", {"locations": 6}),
        ("logistics", {"cities": 2, "size": 3, "packages": 3}),
    ]),
}
SEEDED = {"ferry"}

# seeded states per family on which h_plus is compared with the oracle;
# only families where the oracle takes well under a second for them
ORACLE_STATES = {"hanoi": 20, "ferry": 20, "blocksworld-no-arm-stack": 20,
                 "gripper": 5}

# Malformed PDDL, each made from the gripper domain by one edit.  Parsing
# must raise a PlantopoError; these inputs do not depend on the seed.
MALFORMED = {
    "domain-name-list": ("(domain gripper)", "(domain (x))"),
    "empty-action": ("  (:action move", "  (:action)\n  (:action move"),
    "predicates-bare-symbol": ("(:predicates (at-robby", "(:predicates p (at-robby"),
    "requirements-list": ("(:requirements :strips :typing :equality)",
                          "(:requirements (:strips))"),
}


def import_library():
    """The plantopo package of this checkout, never an installed one."""
    src = ROOT / "src"
    if not (src / "plantopo" / "__init__.py").is_file():
        sys.exit(f"error: no plantopo sources under {src}")
    sys.path.insert(0, str(src))
    import plantopo
    if Path(plantopo.__file__).resolve().parent != (src / "plantopo").resolve():
        sys.exit(f"error: imported plantopo from {plantopo.__file__}")
    return plantopo


def setup(lib, name, seed):
    """Generate, parse and ground every instance of the workload."""
    kind, _, instances = WORKLOADS[name]
    specs = [lib.GeneratorSpec(family, params, seed if family in SEEDED else 0)
             for family, params in instances]
    tasks = []
    for spec in specs:
        domain, problem = lib.pddl_texts(spec)
        tasks.append(lib.pddl.ground(lib.pddl.parse_task(domain, problem)))
    malformed = {}
    if kind == "analyze":
        domain, problem = lib.pddl_texts(lib.GeneratorSpec("gripper", {"balls": 1}))
        for label, (old, new) in MALFORMED.items():
            if old not in domain:
                raise RuntimeError(f"gripper domain text changed; cannot make {label}")
            malformed[label] = (domain.replace(old, new, 1), problem)
    return specs, tasks, malformed


def operations(lib, name, specs, tasks, malformed):
    """The round's operations as (label, callable) pairs; each callable
    returns (output, items of work done) or raises."""
    kind, heuristic, _ = WORKLOADS[name]
    ops = []
    if kind == "topology":
        def topology(task):
            space = lib.state_space.enumerate_space(
                task, lib.heuristics.HEURISTICS[heuristic])
            return (space, lib.state_space.topology_report(space)), space.size
        ops = [(task.name, lambda t=task: topology(t)) for task in tasks]
    elif kind == "sample":
        cfg = lib.SampleConfig(samples_per_instance=SAMPLES_PER_ROW,
                               seed=SAMPLE_SEED, heuristic=heuristic)
        def sample(spec):
            row = lib.sampling.run_experiment([spec], cfg).rows[0]
            if row.error:
                raise lib.PlantopoError(row.error)
            return row, row.samples
        ops = [(task.name, lambda s=spec: sample(s)) for spec, task in zip(specs, tasks)]
    else:
        def analyze(task):
            return lib.analysis.analyze_task(task, ANALYZE_CAP), 1
        def parse(domain, problem):
            try:
                lib.pddl.parse_task(domain, problem)
            except lib.PlantopoError as exc:
                return type(exc).__name__, 0
            # any other exception escapes: the operation fails
            raise lib.PlantopoError("malformed input parsed without error")
        ops = [(task.name, lambda t=task: analyze(t)) for task in tasks]
        ops += [(label, lambda d=d, p=p: parse(d, p))
                for label, (d, p) in malformed.items()]
    return ops


def run_rounds(ops, seconds, tracer, clock):
    """Whole rounds until the time spent is the multiple of the round time
    nearest to ``seconds``.  Returns (per-operation times per round, scaled
    to the reference CPU speed by ``clock``, items per round, last round
    outputs, failed per round, problems).  Only one round's outputs are
    alive at a time, so that the peak memory is the workload's own; the
    others are compared by digest."""
    times, op_times, items, failed, problems = [], [], [], [], []
    first = None
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.op = len(times)
        outputs = out = None     # the previous round is freed before this one
        outputs, done, bad, per_op = [], 0, 0, []
        t0 = time.perf_counter()
        for label, op in ops:
            mark = clock.mark()
            try:
                out, n = op()
            except Exception as exc:   # an operation's failure is counted, not fatal
                out, n = f"{label}: {type(exc).__name__}: {exc}", 0
                bad += 1
            per_op.append(clock.elapsed(mark))
            outputs.append(out)
            done += n
        times.append(time.perf_counter() - t0)
        op_times.append(per_op)
        items.append(done)
        failed.append(bad)
        digest = _digest(outputs)
        if first is None:
            first = digest
        elif digest != first:
            problems.append(f"round {len(times)} gave other outputs than round 1")
        est = statistics.median(times)
        if time.perf_counter() - start + est / 2 > seconds:
            return op_times, items, outputs, failed, problems


def _digest(outputs):
    """Hashes of the outputs' parts, one small string at a time so that the
    digest adds little to the peak memory."""
    parts = []
    for o in outputs:
        if isinstance(o, tuple):          # (space, report)
            space, report = o
            parts += [space.states, space.transitions, space.h, space.gd,
                      report.plateaus, report.ed, report.mlmed, report.mbed,
                      report.dead_end_class, report.unrecognized_dead_end_depths]
        else:
            parts.append(o)
    return [hash(repr(p)) for p in parts]


def check(name, seed, tasks, outputs):
    # imported here, so that the set-up time does not include them
    import checks
    import reference
    kind, heuristic, instances = WORKLOADS[name]
    rng = random.Random(seed)
    problems = []
    for (family, _), task, out in zip(instances, tasks, outputs):
        if isinstance(out, str):
            continue                      # failed operation, counted already
        if kind == "topology":
            space, report = out
            problems += reference.check_space(task, space, report)[0]
            problems += checks.check_heuristic(
                task, space, heuristic, rng, ORACLE_STATES.get(family, 0))
            if heuristic == "hplus":
                problems += checks.check_taxonomy(family, report)
        elif kind == "sample":
            problems += checks.check_sample_rows([out], SAMPLES_PER_ROW)
            problems += checks.check_sampled_states(task, out, SAMPLE_SEED, seed,
                                                    SAMPLES_PER_ROW)
        else:
            problems += checks.check_analysis(task, out, ANALYZE_CAP)
    return [f"{name}: {p}" for p in problems]


def layer_metrics(tracer, distinct, n_rounds):
    """Per-layer numbers per round (median over rounds), from the spans."""
    own = tracer.self_times()
    rounds = range(n_rounds)
    per = {r: {} for r in rounds}
    durations = {}
    for i, (span_name, start, end, _, op) in enumerate(tracer.spans):
        durations.setdefault((op, span_name), []).append((end - start, own[i]))
    values = {}
    for i, key, value in tracer.values:
        span = tracer.spans[i]
        values.setdefault((span[4], span[0], key), []).append(value)

    def total(op, span_name, use_self=False):
        return sum(s if use_self else d for d, s in durations.get((op, span_name), ()))

    def pct(samples, q):
        if not samples:
            return 0.0
        samples = sorted(samples)
        return samples[min(len(samples) - 1, int(q * len(samples)))]

    for r in rounds:
        m = per[r]
        for h in ("hplus", "hff"):
            calls = [d for d, _ in durations.get((r, "heuristics." + h), ())]
            m[f"heuristics.{h}.calls"] = len(calls)
            m[f"heuristics.{h}.busy_s"] = sum(calls)
            m[f"heuristics.{h}.us_p50"] = pct(calls, 0.5) * 1e6
            if h == "hplus":
                m["heuristics.hplus.us_p99"] = pct(calls, 0.99) * 1e6
                m["heuristics.hplus.distinct_ratio"] = \
                    len(distinct.get(r, ())) / len(calls) if calls else 0.0
        m["state_space.enumerate_self_s"] = total(r, "state_space.enumerate_space", True)
        m["state_space.topology_report_s"] = total(r, "state_space.topology_report")
        m["state_space.states"] = sum(values.get((r, "state_space.enumerate_space", "states"), ()))
        m["state_space.edges"] = sum(values.get((r, "state_space.enumerate_space", "edges"), ()))
        m["search.ehc_s"] = total(r, "search.enforced_hill_climbing")
        m["search.ehc.states_evaluated"] = sum(
            values.get((r, "search.enforced_hill_climbing", "states_evaluated"), ()))
        m["sampling.walks_s"] = total(r, "sampling.sample_states", True)
        m["sampling.on_valley_s"] = total(r, "sampling.on_valley")
        m["sampling.exit_distance_s"] = total(r, "sampling.sampled_exit_distance")
        samples = _sample_times(tracer, r)
        m["sampling.sample_us_p50"] = pct(samples, 0.5) * 1e6
        m["sampling.sample_us_p90"] = pct(samples, 0.9) * 1e6
        m["analysis.check_lemmas_s"] = total(r, "analysis.check_lemmas")
        m["analysis.build_fgt_s"] = total(r, "analysis.build_fgt")
        m["analysis.build_fgt.calls"] = len(durations.get((r, "analysis.build_fgt"), ()))
        m["analysis.fgt_nodes"] = sum(values.get((r, "analysis.build_fgt", "nodes"), ()))
        m["analysis.find_conflicts_s"] = total(r, "analysis.find_conflicts")
        m["analysis.interaction_free_s"] = total(r, "analysis.interaction_free_verdict")
        m["analysis.no_local_minima_s"] = total(r, "analysis.no_local_minima_criterion", True)
    out = {key: statistics.median(per[r][key] for r in rounds) for key in per[0]}
    out["pddl.parse_s"] = total("setup", "pddl.parse_task")
    out["pddl.ground_s"] = total("setup", "pddl.ground")
    # the peak grows once per process, so the largest growth of any call
    out["analysis.no_local_minima.rss_growth_mb"] = max(
        (v for (_, n, k), vs in values.items()
         if n == "analysis.no_local_minima_criterion" for v in vs), default=0.0)
    return out


def _sample_times(tracer, r):
    """Per-sample time in ``run_experiment``: a sample's valley test, its
    heuristic evaluation and its exit-distance search, which are the direct
    children of the experiment span from one valley test to the next."""
    parents = {i for i, s in enumerate(tracer.spans)
               if s[4] == r and s[0] == "sampling.run_experiment"}
    samples = []
    for name, start, end, parent, _ in tracer.spans:
        if parent not in parents:
            continue
        if name == "sampling.on_valley":
            samples.append(0.0)
        elif name not in ("heuristics.hplus", "sampling.sampled_exit_distance"):
            continue
        samples[-1] += end - start
    return samples


def traced_library(lib, tracer, distinct):
    """The patch list that wraps every layer boundary the benchmark crosses."""
    w = tracer.wrap
    h = lib.heuristics.HEURISTICS

    def keyed(name):
        def after(args, result):
            if name == "hplus":
                distinct.setdefault(tracer.op, set()).add((args[0].name, frozenset(args[1])))
            return {}
        return w("heuristics." + name, h[name], after)

    ss, sm, an = lib.state_space, lib.sampling, lib.analysis
    return [
        (lib.pddl, "parse_task", w("pddl.parse_task", lib.pddl.parse_task)),
        (lib.pddl, "ground", w("pddl.ground", lib.pddl.ground)),
        (h, "hplus", keyed("hplus")),
        (h, "hff", keyed("hff")),
        (ss, "enumerate_space", w("state_space.enumerate_space", ss.enumerate_space,
                                  lambda a, r: {"states": r.size,
                                                "edges": sum(map(len, r.transitions))})),
        (ss, "topology_report", w("state_space.topology_report", ss.topology_report)),
        (sm, "run_experiment", w("sampling.run_experiment", sm.run_experiment)),
        (sm, "sample_states", w("sampling.sample_states", sm.sample_states)),
        (sm, "on_valley", w("sampling.on_valley", sm.on_valley)),
        (sm, "sampled_exit_distance", w("sampling.sampled_exit_distance",
                                        sm.sampled_exit_distance)),
        (sm, "enforced_hill_climbing", w("search.enforced_hill_climbing",
                                         sm.enforced_hill_climbing,
                                         lambda a, r: {"states_evaluated": r.states_evaluated})),
        (an, "check_lemmas", w("analysis.check_lemmas", an.check_lemmas)),
        (an, "build_fgt", w("analysis.build_fgt", an.build_fgt,
                            lambda a, r: {"nodes": r.size})),
        (an, "find_conflicts", w("analysis.find_conflicts", an.find_conflicts)),
        (an, "interaction_free_verdict", w("analysis.interaction_free_verdict",
                                           an.interaction_free_verdict)),
        (an, "no_local_minima_criterion", w("analysis.no_local_minima_criterion",
                                            an.no_local_minima_criterion, rss=True)),
    ]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    # from here on the CPU speed is sampled; a set-up probe samples densely
    # because its whole set-up takes about 0.1 s
    clock = cpuclock.Clock(SETUP_PERIOD_S if args.setup_only else cpuclock.PERIOD_S)

    lib = import_library()
    tracer = Tracer() if args.trace else None
    distinct = {}
    targets = traced_library(lib, tracer, distinct) if tracer else []
    with patched(targets):
        if tracer is not None:
            tracer.op = "setup"
        specs, tasks, malformed = setup(lib, args.workload, args.seed)
        grounded_at = time.monotonic()
        if args.setup_only:
            spent = clock.spent
            clock.sample()
            clock.stop()
            print(json.dumps({"grounded_at": grounded_at, "sampling_s": spent,
                              "speed": statistics.fmean(clock.speeds)}))
            return
        ops = operations(lib, args.workload, specs, tasks, malformed)
        op_times, items, outputs, failed, problems = run_rounds(
            ops, args.seconds, tracer, clock)
        clock.stop()
    peak = maxrss_mb()
    problems += check(args.workload, args.seed, tasks, outputs)
    # each operation's fastest round at the reference CPU speed (cpuclock.py)
    wall = sum(min(r[i] for r in op_times) for i in range(len(ops)))
    if tracer is None:
        metrics = {"wall_s": wall, "items_per_s": statistics.median(items) / wall,
                   "peak_rss_mb": peak}
    else:
        metrics = dict(layer_metrics(tracer, distinct, len(op_times)), **{"trace.wall_s": wall})
        tracer.write(ROOT / "bench" / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    print(json.dumps({
        "grounded_at": grounded_at,
        "correct": not problems,
        "problems": problems[:20],
        "attempted": len(ops) * len(op_times),
        "failed": sum(failed),
        "rounds": len(op_times),
        "op_times": {label: [r[i] for r in op_times] for i, (label, _) in enumerate(ops)},
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
