"""Independent reference for the topology of an enumerated state space.

Recomputes, with code of its own, everything ``state_space`` derives:
transitions (through ``task_model.apply``), goal distances (by the BFS
property), plateaus (Kosaraju SCCs per heuristic level), plateau classes
(from the definitions, over each level's condensation), exit distances (one
multi-source reverse BFS per level), mlmed/mbed, the dead-end class and the
unrecognized dead-end depths.  Nothing here imports ``state_space``.

Every ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import math
from collections import deque

from plantopo.task_model import UNDEFINED, apply, is_goal

INF = math.inf

LOCAL_MINIMUM = "LocalMinimum"
BENCH = "Bench"
CONTOUR = "Contour"
GLOBAL_MINIMUM = "GlobalMinimum"
RECOGNIZED_DEAD_END = "RecognizedDeadEnd"


def derive_transitions(task, states):
    """(per-state successor sets of (action id, state id), problems)."""
    index = {s: i for i, s in enumerate(states)}
    problems = []
    if len(index) != len(states):
        problems.append("duplicate states in the enumeration")
    if not states or states[0] != frozenset(task.init):
        problems.append("state 0 is not the initial state")
    succ = []
    for s in states:
        out = set()
        for a in task.actions:
            t = apply(task, s, a)
            if t is UNDEFINED:
                continue
            nid = index.get(t)
            if nid is None:
                problems.append("a successor of an enumerated state is missing")
                continue
            out.add((a.id, nid))
        succ.append(out)
    seen = {0}
    queue = deque([0])
    while queue:
        for _, nid in succ[queue.popleft()]:
            if nid not in seen:
                seen.add(nid)
                queue.append(nid)
    if len(seen) != len(states):
        problems.append(f"{len(states) - len(seen)} enumerated states are unreachable")
    return succ, problems


def check_goal_distances(task, states, succ, gd):
    """gd is the goal distance iff gd=0 exactly on goals, gd[s] <= gd[t]+1 on
    every edge, and every state with finite gd > 0 has a successor at gd-1."""
    problems = []
    for sid, s in enumerate(states):
        d = gd[sid]
        if (d == 0) != is_goal(task, s):
            problems.append(f"state {sid}: gd={d} but goal={is_goal(task, s)}")
        nds = [gd[nid] for _, nid in succ[sid]]
        if any(d > nd + 1 for nd in nds):
            problems.append(f"state {sid}: gd={d} exceeds a successor's gd+1")
        if d != 0 and d != INF and d - 1 not in nds:
            problems.append(f"state {sid}: gd={d} has no successor at gd-1")
    return problems


def _components(nodes, edges):
    """Kosaraju SCCs of the graph restricted to ``nodes``; components come
    out in topological order of the condensation (sources first)."""
    nodes = sorted(nodes)
    member = set(nodes)
    fwd = {v: [w for w in edges(v) if w in member] for v in nodes}
    rev = {v: [] for v in nodes}
    for v in nodes:
        for w in fwd[v]:
            rev[w].append(v)
    order, seen = [], set()
    for root in nodes:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(fwd[root]))]
        while stack:
            v, it = stack[-1]
            w = next((w for w in it if w not in seen), None)
            if w is None:
                stack.pop()
                order.append(v)
            else:
                seen.add(w)
                stack.append((w, iter(fwd[w])))
    comp_of, comps = {}, []
    for root in reversed(order):
        if root in comp_of:
            continue
        comp = [root]
        comp_of[root] = len(comps)
        for v in comp:
            for w in rev[v]:
                if w not in comp_of:
                    comp_of[w] = len(comps)
                    comp.append(w)
        comps.append(frozenset(comp))
    return comps, comp_of


def topology(states, succ, h, gd):
    """Reference topology: plateaus as (level, members, class), exit
    distances, mlmed, mbed, dead-end class and unrecognized depths."""
    by_level = {}
    for sid in range(len(states)):
        by_level.setdefault(h[sid], []).append(sid)
    plateaus = []
    for level, members in by_level.items():
        comps, comp_of = _components(members, lambda v: [t for _, t in succ[v]])
        exits = {v for v in members if any(h[t] < level for _, t in succ[v])}
        if level == INF:
            classes = [RECOGNIZED_DEAD_END] * len(comps)
        elif level == 0:
            classes = [GLOBAL_MINIMUM] * len(comps)
        else:
            # a plateau reaches an exit along flat paths iff its component
            # or a component below it in the condensation holds one
            reaches = [False] * len(comps)
            for ci in range(len(comps) - 1, -1, -1):
                reaches[ci] = any(v in exits for v in comps[ci]) or any(
                    comp_of[t] != ci and reaches[comp_of[t]]
                    for v in comps[ci] for _, t in succ[v] if t in comp_of)
            classes = [LOCAL_MINIMUM if not reaches[ci]
                       else CONTOUR if comps[ci] <= exits else BENCH
                       for ci in range(len(comps))]
        plateaus += [(level, c, k) for c, k in zip(comps, classes)]
    every_ed = exit_distances(states, succ, h)
    ed = {v: every_ed[v] for _, c, k in plateaus if k in (LOCAL_MINIMUM, BENCH)
          for v in c}
    lm = [ed[v] for lvl, c, k in plateaus if k == LOCAL_MINIMUM for v in c]
    bench = [ed[v] for lvl, c, k in plateaus if k == BENCH for v in c]
    return {
        "plateaus": plateaus,
        "ed": ed,
        "mlmed": max(lm, default=0),
        "mbed": max(bench, default=0),
        "dead_end_class": _dead_end_class(succ, h, gd),
        "unrecognized_depths": _unrecognized_depths(succ, h, gd),
    }


def _predecessors(succ):
    pred = [[] for _ in succ]
    for v, out in enumerate(succ):
        for _, t in out:
            pred[t].append(v)
    return pred


def _reverse_bfs(pred, sources):
    dist = {v: 0 for v in sources}
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        for u in pred[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def exit_distances(states, succ, h):
    """Distance from every state with finite, nonzero h to the nearest exit
    at its own level, over all transitions (INF when none is reachable)."""
    n = len(states)
    pred = _predecessors(succ)
    out = {}
    for level in {v for v in h if v not in (0, INF)}:
        exits = {v for v in range(n)
                 if h[v] == level and any(h[t] < level for _, t in succ[v])}
        dist = _reverse_bfs(pred, exits)
        for v in range(n):
            if h[v] == level:
                out[v] = dist.get(v, INF)
    return out


def _dead_end_class(succ, h, gd):
    edges = {(v, t) for v in range(len(succ)) for _, t in succ[v]}
    if all((t, v) in edges for v, t in edges if v != t):
        return "Undirected"
    dead = [v for v in range(len(gd)) if gd[v] == INF]
    if not dead:
        return "Harmless"
    if all(h[v] == INF for v in dead):
        return "Recognized"
    return "Unrecognized"


def _unrecognized_depths(succ, h, gd):
    members = {v for v in range(len(gd)) if gd[v] == INF and h[v] != INF}
    depths = {}
    for v in members:
        seen = {v}
        stack = [v]
        while stack:
            for _, t in succ[stack.pop()]:
                if t in members and t not in seen:
                    seen.add(t)
                    stack.append(t)
        depths[v] = len(seen)
    return depths


def check_space(task, space, report):
    """Every problem found in an enumerated space and its topology report;
    returns (problems, re-derived successor sets)."""
    succ, problems = derive_transitions(task, space.states)
    if [set(t) for t in space.transitions] != succ or any(
            len(set(t)) != len(t) for t in space.transitions):
        problems.append("transitions differ from the ones task_model.apply gives")
    problems += check_goal_distances(task, space.states, succ, space.gd)
    ref = topology(space.states, succ, space.h, space.gd)
    got = {(p.level, frozenset(p.member_state_ids)): p.plateau_class
           for p in report.plateaus}
    want = {(lvl, c): k for lvl, c, k in ref["plateaus"]}
    if set(got) != set(want) or len(got) != len(report.plateaus):
        problems.append("plateaus differ from the SCCs of each heuristic level")
    else:
        wrong = sum(got[key] != want[key] for key in want)
        if wrong:
            problems.append(f"{wrong} plateaus have the wrong class")
    for p in report.plateaus:
        if any(report.plateau_of.get(v) != p.id for v in p.member_state_ids):
            problems.append(f"plateau_of disagrees with plateau {p.id}")
            break
    if report.ed != ref["ed"]:
        bad = sum(report.ed.get(v) != d for v, d in ref["ed"].items())
        problems.append(f"exit distances differ on {bad} states "
                        f"({len(report.ed)} reported, {len(ref['ed'])} expected)")
    for key in ("mlmed", "mbed", "dead_end_class"):
        if getattr(report, key) != ref[key]:
            problems.append(f"{key} is {getattr(report, key)}, expected {ref[key]}")
    if report.unrecognized_dead_end_depths != ref["unrecognized_depths"]:
        problems.append("unrecognized dead-end depths differ")
    return problems, succ
