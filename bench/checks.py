"""Correctness checks on the outputs of the benchmark's operations.

They compare against computations made apart from the program (the
topology reference, the iterative-deepening oracle, plan validation,
semantic mutexes read off the reachable states) or against properties the
method must have (Hoffmann 2005, "Where 'ignoring delete lists' works":
under h+ gripper and ferry have no local minima and bench exit distance at
most 1; tireworld has no local minima and bench exit distance at most 6).
Every function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import math

from plantopo import analysis, heuristics, sampling, state_space
from plantopo.task_model import is_goal, validate_plan

import reference

INF = math.inf

# family -> largest bench exit distance h+ may show; mlmed must be 0
TAXONOMY_MBED = {"gripper": 1, "ferry": 1, "tireworld": 6}

# seeded states of an hff space whose relaxed plans are validated, and on
# which h_plus is computed (h_plus takes milliseconds a state there)
FF_STATES = 300
HPLUS_STATES = 10


def check_heuristic(task, space, name, rng, oracle_states=0):
    """h=0 iff goal everywhere.  Under hplus: h <= h_ff with a valid relaxed
    plan and h <= gd on every state, h == oracle on ``oracle_states`` seeded
    states.  Under hff: the value and relaxed plan on FF_STATES seeded
    states, and h_plus <= min(h_ff, gd) on HPLUS_STATES seeded states."""
    problems = []
    for sid, s in enumerate(space.states):
        if (space.h[sid] == 0) != is_goal(task, s):
            problems.append(f"state {sid}: h={space.h[sid]} but goal={is_goal(task, s)}")
    ids = list(range(space.size))
    ff_ids = ids if name == "hplus" else rng.sample(ids, min(FF_STATES, len(ids)))
    for sid in ff_ids:
        s = space.states[sid]
        value, plan = heuristics.h_ff(task, s)
        if name == "hff" and value != space.h[sid]:
            problems.append(f"state {sid}: stored h_ff {space.h[sid]} != {value}")
        if name == "hplus" and not space.h[sid] <= value:
            problems.append(f"state {sid}: h_plus {space.h[sid]} > h_ff {value}")
        if value != INF and (len(plan.actions) != value or not validate_plan(
                task, [task.actions[a] for a in plan.actions], relaxed=True, start=s)):
            problems.append(f"state {sid}: h_ff plan is not a relaxed plan of its length")
    if name == "hplus":
        hplus = {sid: space.h[sid] for sid in ids}
        for sid in rng.sample(ids, min(oracle_states, len(ids))):
            want = heuristics.h_plus_oracle(task, space.states[sid])
            if hplus[sid] != want:
                problems.append(f"state {sid}: h_plus {hplus[sid]} != oracle {want}")
    else:
        hplus = {sid: heuristics.h_plus(task, space.states[sid])
                 for sid in rng.sample(ids, min(HPLUS_STATES, len(ids)))}
        for sid, v in hplus.items():
            if not v <= space.h[sid]:
                problems.append(f"state {sid}: h_plus {v} > h_ff {space.h[sid]}")
    for sid, v in hplus.items():
        if not v <= space.gd[sid]:
            problems.append(f"state {sid}: h_plus {v} > gd {space.gd[sid]}")
    return problems


def check_taxonomy(family, report):
    bound = TAXONOMY_MBED.get(family)
    if bound is None or (report.mlmed == 0 and report.mbed <= bound):
        return []
    return [f"{family}: mlmed={report.mlmed} mbed={report.mbed}, "
            f"h+ theory says mlmed=0 and mbed<={bound}"]


def check_sample_rows(rows, samples):
    """Gripper under h+ has no valleys and bench exit distance at most 1."""
    problems = []
    for row in rows:
        if row.error or row.samples != samples:
            problems.append(f"row {row.params}: error={row.error} samples={row.samples}")
        elif row.valley_percentage != 0 or not row.sampled_max_exit_distance <= 1:
            problems.append(f"row {row.params}: valley_pct={row.valley_percentage} "
                            f"max_ed={row.sampled_max_exit_distance}")
    return problems


def check_sampled_states(task, row, walk_seed, seed, samples):
    """The row's valley percentage and maximum exit distance equal the ones
    read off the task's enumerated space for the states its walks (seed
    ``walk_seed``) reach.  On the walks of ``seed``, each valley test and
    sampled exit distance equals the value read off the space."""
    h = heuristics.HEURISTICS["hplus"]
    space = state_space.enumerate_space(task, h)
    problems, succ = reference.check_space(task, space, state_space.topology_report(space))
    ed = reference.exit_distances(space.states, succ, space.h)

    def walks(s):
        return [space.index[x] for x in sampling.sample_states(task, sampling.SampleConfig(
            samples_per_instance=samples, seed=s, heuristic="hplus"))]

    ids = walks(walk_seed)
    valley_pct = 100.0 * sum(_on_valley(task, space, succ, sid) for sid in ids) / len(ids)
    max_ed = max((ed[sid] for sid in ids if space.h[sid] not in (0, INF)), default=0)
    if (row.valley_percentage, row.sampled_max_exit_distance) != (valley_pct, max_ed):
        problems.append(f"row {row.params}: valley_pct={row.valley_percentage} "
                        f"max_ed={row.sampled_max_exit_distance}, the space gives "
                        f"{valley_pct} and {max_ed}")
    for sid in walks(seed):
        s = space.states[sid]
        if sampling.on_valley(task, s, h) != _on_valley(task, space, succ, sid):
            problems.append(f"state {sid}: valley test disagrees with the space")
        if space.h[sid] not in (0, INF) and \
                sampling.sampled_exit_distance(task, s, h) != ed[sid]:
            problems.append(f"state {sid}: sampled exit distance != {ed[sid]}")
    return problems


def _on_valley(task, space, succ, sid):
    """No goal reachable along a path whose h never increases."""
    seen = {sid}
    stack = [sid]
    while stack:
        v = stack.pop()
        if is_goal(task, space.states[v]):
            return False
        for _, t in succ[v]:
            if t not in seen and space.h[t] <= space.h[v]:
                seen.add(t)
                stack.append(t)
    return True


def check_analysis(task, report, cap):
    """Positive verdicts hold on the enumerated space, invertibility
    witnesses meet their definition under the semantic mutexes of the
    reachable states, every conflict meets its definition.  The space is
    evaluated under h_plus only when a positive verdict speaks of h_plus
    (logistics cities=2 size=3 packages=3 has 13,122 states)."""
    equals_gd = report.interaction_free_verdict in (
        analysis.VERDICT_HPLUS_EQUALS_GD, analysis.VERDICT_HPLUS_EQUALS_GD_VIA_REPAIRS)
    no_minima = report.no_local_minima_verdict == analysis.VERDICT_NO_LOCAL_MINIMA
    name = "hplus" if equals_gd or no_minima else "goalcount"
    space = state_space.enumerate_space(task, heuristics.HEURISTICS[name])
    succ, problems = reference.derive_transitions(task, space.states)
    problems += reference.check_goal_distances(task, space.states, succ, space.gd)
    topo = reference.topology(space.states, succ, space.h, space.gd)
    bad = sum(h != d for h, d in zip(space.h, space.gd))
    if equals_gd and bad:
        problems.append(f"{report.interaction_free_verdict} but h_plus != gd on {bad} states")
    if no_minima and any(k == reference.LOCAL_MINIMUM for _, _, k in topo["plateaus"]):
        problems.append("NoLocalMinima but the space has a local minimum")
    if report.lemma1 and topo["dead_end_class"] != "Undirected":
        problems.append(f"all actions invertible but class {topo['dead_end_class']}")
    if report.lemma2 and topo["dead_end_class"] not in ("Undirected", "Harmless"):
        problems.append(f"lemma2 holds but class {topo['dead_end_class']}")
    problems += check_witnesses(task, report.flags, space.states)
    if report.conflicts is not None:
        fgt = analysis.build_fgt(task, cap)
        problems += [p for c in report.conflicts for p in check_conflict(task, fgt, c)]
    return problems


def check_witnesses(task, flags, states):
    mask = [0] * len(task.facts)
    for i, s in enumerate(states):
        for f in s:
            mask[f] |= 1 << i

    def mutex_with_pre(f, a):
        return any(not mask[f] & mask[p] for p in a.pre)

    problems = []
    for fl in flags:
        a = task.actions[fl.action_id]
        after = (a.pre | a.add) - a.delete
        if fl.invertible is not None:
            b = task.actions[fl.invertible]
            if not (b.pre <= after and a.delete <= a.pre and b.add == a.delete
                    and b.delete == a.add
                    and all(mutex_with_pre(f, a) for f in a.add)):
                problems.append(f"{a.name}: {b.name} is no inverse")
        if fl.at_least_invertible is not None:
            b = task.actions[fl.at_least_invertible]
            if not (b.pre <= after and b.add >= a.delete
                    and all(mutex_with_pre(f, a) for f in b.delete)):
                problems.append(f"{a.name}: {b.name} is no at-least-inverse")
    return problems


def check_conflict(task, fgt, c):
    """A conflict meets its definition on the regression tree it came from."""
    nodes, f = c.node_ids, c.fact
    if any(fgt.kinds[n] != 'A' for n in nodes) or \
            tuple(fgt.labels[n] for n in nodes) != tuple(c.action_ids):
        return [f"conflict {c}: nodes do not carry its actions"]

    def sets(n):
        if fgt.labels[n] is None:
            return task.goal, frozenset(), frozenset()
        a = task.actions[fgt.labels[n]]
        return a.pre, a.add, a.delete

    def ancestors(n):
        out = []
        while fgt.parents[n] is not None:
            n = fgt.parents[n]
            out.append(n)
        return out

    def unprotected(deleter, above):
        """f deleted at ``deleter``, needed by ``above``, re-added nowhere
        strictly between them."""
        chain = ancestors(deleter)
        between = chain[:chain.index(above)]
        return (f in sets(deleter)[2] and f in sets(above)[0]
                and not any(fgt.kinds[m] == 'A' and f in sets(m)[1] for m in between))

    if c.kind == analysis.CONFLICT_GOAL_DELETE:
        ok = len(nodes) == 1 and unprotected(nodes[0], 0)
    elif c.kind == analysis.CONFLICT_ALLIED and len(nodes) == 2:
        n1, n2 = nodes
        if n2 in ancestors(n1):
            ok = fgt.labels[n1] != fgt.labels[n2] and unprotected(n1, n2)
        else:
            up1 = [n1] + ancestors(n1)
            w = next(m for m in [n2] + ancestors(n2) if m in up1)
            (p1, _, d1), (p2, _, d2) = sets(n1), sets(n2)
            ok = w not in nodes and fgt.kinds[w] == 'A' and f in (d1 & p2) | (d2 & p1)
        if ok and c.repairable != _repairable(task, c.action_ids, f):
            return [f"conflict {c}: repairable should be {not c.repairable}"]
    else:
        ok = False
    return [] if ok else [f"conflict {c}: does not meet its definition"]


def _repairable(task, action_ids, f):
    """Each direction in which one action deletes f that the other needs has
    a substitute applicable right after the deleter adding all the victim
    adds."""
    a, b = (task.actions[i] for i in action_ids)
    for deleter, victim in ((a, b), (b, a)):
        if f in deleter.delete and f in victim.pre:
            after = (deleter.pre | deleter.add) - deleter.delete
            if not any(x.pre <= after and x.add >= victim.add for x in task.actions):
                return False
    return True
