"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Clean outputs of small instances must pass every check.  Then faults are
planted in copies of those outputs, and each must make its check fail.
Exits 1 when a clean output is flagged or a planted fault goes unnoticed.
"""

from __future__ import annotations

import copy
import random
import sys

from workloads import import_library

lib = import_library()

import checks      # noqa: E402  (needs the library on the path)
import reference   # noqa: E402


def gripper_outputs():
    task = lib.generate(lib.GeneratorSpec("gripper", {"balls": 2}))
    space = lib.enumerate_space(task, lib.HEURISTICS["hplus"])
    return task, space, lib.topology_report(space)


def topology_problems(task, space, report):
    return reference.check_space(task, space, report)[0]


def heuristic_problems(task, space):
    return checks.check_heuristic(task, space, "hplus", random.Random(0),
                                  oracle_states=space.size)


def main():
    task, space, report = gripper_outputs()
    tsp = lib.generate(lib.GeneratorSpec("simple-tsp", {"locations": 5}))
    analysis_report = lib.analyze_task(tsp, 100_000)
    fgt = lib.build_fgt(tsp, 100_000)
    spec = lib.GeneratorSpec("gripper", {"balls": 2})
    row = lib.run_experiment([spec], lib.SampleConfig(samples_per_instance=20)).rows[0]

    def sample_problems(row):
        return checks.check_sampled_states(task, row, 0, 1, 20)

    clean = {
        "topology": topology_problems(task, space, report),
        "heuristic": heuristic_problems(task, space),
        "analysis": checks.check_analysis(tsp, analysis_report, 100_000),
        "sampling": sample_problems(row),
    }
    failures = [f"clean {k}: {p}" for k, ps in clean.items() for p in ps]
    if not analysis_report.conflicts:
        failures.append("simple-tsp-5 reports no conflict to plant a fault in")

    def planted(name, problems):
        print(f"{name}: {'caught' if problems else 'NOT CAUGHT'}"
              + (f" ({problems[0]})" if problems else ""))
        if not problems:
            failures.append(f"planted fault not caught: {name}")

    s = copy.deepcopy(space)
    sid = next(i for i in range(s.size) if s.h[i] > 0)
    s.h[sid] += 1
    planted("heuristic value off by one", heuristic_problems(task, s))

    s = copy.deepcopy(space)
    sid = next(i for i in range(s.size) if s.transitions[i])
    s.transitions[sid] = s.transitions[sid][1:]
    planted("dropped transition", topology_problems(task, s, report))

    r = copy.deepcopy(report)
    p, q = next((p, q) for p in r.plateaus for q in r.plateaus
                if p.plateau_class != q.plateau_class)
    p.plateau_class, q.plateau_class = q.plateau_class, p.plateau_class
    planted("swapped plateau class", topology_problems(task, space, r))

    r = copy.deepcopy(report)
    sid = next(iter(r.ed))
    r.ed[sid] += 1
    planted("altered exit distance", topology_problems(task, space, r))

    r = copy.deepcopy(row)
    r.sampled_max_exit_distance = 0 if r.sampled_max_exit_distance else 1
    planted("wrong sampled maximum exit distance", sample_problems(r))

    c = copy.deepcopy(analysis_report.conflicts[0])
    touched = set().union(*(x.pre | x.add | x.delete
                            for x in (tsp.actions[i] for i in c.action_ids)))
    c.fact = next(f for f in range(len(tsp.facts)) if f not in touched)
    planted("conflict with the wrong fact", checks.check_conflict(tsp, fgt, c))

    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
