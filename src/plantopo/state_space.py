"""Exhaustive reachable state-space enumeration and topology classification.

A state space carries, per state, the chosen heuristic value and the true
goal distance.  Plateaus are strongly connected components of the subgraph
induced on states sharing a heuristic value; each plateau is classified as
recognized dead end, local minimum, bench, contour, or global minimum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ResourceExhausted
from .heuristics import INF, column, format_value
from .task_model import Task, is_goal, successors

PLATEAU_RECOGNIZED_DEAD_END = "RecognizedDeadEnd"
PLATEAU_LOCAL_MINIMUM = "LocalMinimum"
PLATEAU_BENCH = "Bench"
PLATEAU_CONTOUR = "Contour"
PLATEAU_GLOBAL_MINIMUM = "GlobalMinimum"

DEAD_END_UNDIRECTED = "Undirected"
DEAD_END_HARMLESS = "Harmless"
DEAD_END_RECOGNIZED = "Recognized"
DEAD_END_UNRECOGNIZED = "Unrecognized"

DEFAULT_MAX_STATES = 200_000


@dataclass
class StateSpace:
    task: Task
    states: list                 # State (frozenset of fact ids), id 0 = init
    transitions: list            # per state id: list of (action id, succ id)
    h: list                      # per state id: heuristic value
    gd: list                     # per state id: goal distance or INF
    preds: list = field(repr=False)  # per state id: predecessor ids, one per edge
    index: dict = field(repr=False, default_factory=dict)  # State -> id

    @property
    def size(self):
        return len(self.states)

    @cached_property
    def exits(self) -> dict:
        """Per heuristic level, the states at that level with a strictly
        better successor (the level's exits); built once per space."""
        h = self.h
        exits = {}
        for sid, succs in enumerate(self.transitions):
            if any(h[nid] < h[sid] for _, nid in succs):
                exits.setdefault(h[sid], set()).add(sid)
        return exits


@dataclass
class Plateau:
    id: int
    level: object                # heuristic value shared by all members
    member_state_ids: frozenset
    plateau_class: str


@dataclass
class TopologyReport:
    dead_end_class: str
    plateaus: list
    ed: dict                     # state id -> exit distance (local-min/bench states)
    mlmed: object
    mbed: object
    unrecognized_dead_end_depths: dict
    plateau_of: dict             # state id -> plateau id


def enumerate_space(task: Task, heuristic, max_states: int = DEFAULT_MAX_STATES) -> StateSpace:
    """Breadth-first expansion from init in action-id order; ids are handed
    out in breadth-first order, so the search walks the list of states by
    id.  ``heuristics.column`` evaluates the space under ``heuristic``, a
    callable (task, state) -> value.  Each transition is also recorded in
    its target's predecessor list, which the space keeps; goal distances
    come from a backward breadth-first search over those lists from all
    goal states."""
    init = frozenset(task.init)
    states = [init]
    index = {init: 0}
    transitions = []
    preds = [[]]
    for sid, s in enumerate(states):
        succs = []
        for a, ns in successors(task, s):
            nid = index.get(ns)
            if nid is None:
                if len(states) >= max_states:
                    raise ResourceExhausted(
                        f"state cap of {max_states} exceeded during enumeration")
                nid = len(states)
                index[ns] = nid
                states.append(ns)
                preds.append([])
            succs.append((a.id, nid))
            preds[nid].append(sid)
        transitions.append(succs)

    h = column(task, heuristic, states, transitions)
    gd = _distances_to(preds, [sid for sid, s in enumerate(states)
                               if is_goal(task, s)])
    return StateSpace(task, states, transitions, h, gd, preds, index)


def _distances_to(preds, targets) -> list:
    """Per state id, the breadth-first distance to the nearest of the
    ``targets`` over all transitions (a backward search over the
    predecessor lists ``preds``); INF when none is reachable."""
    dist = [INF] * len(preds)
    for sid in targets:
        dist[sid] = 0
    queue = deque(targets)
    while queue:
        sid = queue.popleft()
        d = dist[sid] + 1
        for pid in preds[sid]:
            if dist[pid] == INF:
                dist[pid] = d
                queue.append(pid)
    return dist


def dead_end_class(space: StateSpace) -> str:
    for sid, succs in enumerate(space.transitions):
        back = set(space.preds[sid])     # nid -> sid is a transition iff nid in back
        if any(nid != sid and nid not in back for _, nid in succs):
            break
    else:
        return DEAD_END_UNDIRECTED
    if all(d != INF for d in space.gd):
        return DEAD_END_HARMLESS
    if all(space.h[sid] == INF for sid in range(space.size) if space.gd[sid] == INF):
        return DEAD_END_RECOGNIZED
    return DEAD_END_UNRECOGNIZED


def _sccs(nodes, succ, size):
    """Iterative Tarjan strongly-connected components over the given nodes,
    state ids below ``size``, yielded as sets in reverse topological order:
    every component that a component's edges lead into is yielded before it
    (Tarjan 1972)."""
    indexed = [-1] * size
    lowlink = [0] * size
    on_stack = [False] * size
    stack = []
    counter = 0
    for root in nodes:
        if indexed[root] >= 0:
            continue
        work = [(root, iter(succ(root)))]
        indexed[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if indexed[w] < 0:
                    indexed[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                elif on_stack[w]:
                    if indexed[w] < lowlink[v]:
                        lowlink[v] = indexed[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]
            if lowlink[v] == indexed[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.add(w)
                    if w == v:
                        break
                yield comp


def plateaus(space: StateSpace) -> list:
    """Plateau partition: SCCs of each heuristic level's induced subgraph,
    in increasing level order.

    One ``_sccs`` pass over all states on flat edges (to a state of the
    same level).  Flat edges never leave a level, so each level's SCCs come
    in the order of a pass over that level alone, and a stable sort by
    level numbers them.  Each SCC is classified as it comes: it reaches an
    exit of its level when a member is one, or when a flat edge leads into
    an SCC already found to reach one; SCCs come sinks first, so those are
    all classified by then."""
    h, exits = space.h, space.exits
    flat = [[nid for _, nid in succs if h[nid] == h[sid]]
            for sid, succs in enumerate(space.transitions)]
    found = []
    escaping = set()             # states whose flat paths reach an exit
    for comp in _sccs(range(space.size), flat.__getitem__, space.size):
        level = h[next(iter(comp))]
        level_exits = exits.get(level, set())
        if level == INF:
            cls = PLATEAU_RECOGNIZED_DEAD_END
        elif level == 0:
            cls = PLATEAU_GLOBAL_MINIMUM
        elif (not level_exits.isdisjoint(comp)
              or any(nid in escaping for sid in comp for nid in flat[sid])):
            escaping |= comp
            cls = PLATEAU_CONTOUR if comp <= level_exits else PLATEAU_BENCH
        else:
            cls = PLATEAU_LOCAL_MINIMUM
        found.append((level, comp, cls))
    found.sort(key=lambda f: f[0])
    return [Plateau(pid, level, frozenset(comp), cls)
            for pid, (level, comp, cls) in enumerate(found)]


def exit_distances(space: StateSpace, level) -> list:
    """Per state id, the breadth-first distance (over all transitions) to the
    nearest exit at the given heuristic level; INF when none is reachable.
    One multi-source search from the exits over the predecessor lists."""
    return _distances_to(space.preds, space.exits.get(level, ()))


def exit_distance(space: StateSpace, sid: int):
    """Breadth-first distance (over all transitions) from sid to the nearest
    exit at sid's heuristic level; INF when unreachable."""
    return exit_distances(space, space.h[sid])[sid]


def _unrecognized_depths(space: StateSpace):
    """For every unrecognized dead end, the number of unrecognized dead ends
    reachable through paths that stay within unrecognized dead ends (each
    state reaches itself).

    One ``_sccs`` pass over the unrecognized dead ends: an SCC's bitmask
    (one bit per dead end) is its members plus the masks of the SCCs its
    edges lead into, which come first."""
    h, gd, transitions = space.h, space.gd, space.transitions
    members = [sid for sid in range(space.size) if gd[sid] == INF and h[sid] != INF]
    bit = {sid: 1 << i for i, sid in enumerate(members)}

    def succ(sid):
        return [nid for _, nid in transitions[sid] if nid in bit]

    reach = {}
    depths = {}
    for comp in _sccs(members, succ, space.size):
        mask = 0
        for sid in comp:
            mask |= bit[sid]
            for nid in succ(sid):
                mask |= reach.get(nid, 0)
        depth = mask.bit_count()
        for sid in comp:
            reach[sid] = mask
            depths[sid] = depth
    return depths


def topology_report(space: StateSpace) -> TopologyReport:
    plist = plateaus(space)
    plateau_of = {}
    for p in plist:
        for sid in p.member_state_ids:
            plateau_of[sid] = p.id
    ed = {}
    mlmed = 0
    mbed = 0
    level = dist = None
    for p in plist:
        if p.plateau_class not in (PLATEAU_LOCAL_MINIMUM, PLATEAU_BENCH):
            continue
        if p.level != level:         # plateaus come in level order
            level = p.level
            dist = exit_distances(space, level)
        for sid in p.member_state_ids:
            d = dist[sid]
            ed[sid] = d
            if p.plateau_class == PLATEAU_LOCAL_MINIMUM:
                mlmed = max(mlmed, d)
            else:
                mbed = max(mbed, d)
    return TopologyReport(
        dead_end_class=dead_end_class(space),
        plateaus=plist,
        ed=ed,
        mlmed=mlmed,
        mbed=mbed,
        unrecognized_dead_end_depths=_unrecognized_depths(space),
        plateau_of=plateau_of,
    )


def export_dot(space: StateSpace) -> str:
    """Deterministic DOT rendering; states sharing an h value share a rank.
    Edges are labelled with their action names, with ``\\`` and ``"``
    escaped inside the quoted label."""
    lines = ["digraph statespace {", "  rankdir=TB;"]
    by_level = {}
    for sid in range(space.size):
        by_level.setdefault(space.h[sid], []).append(sid)
    for level in sorted(by_level):
        ids = sorted(by_level[level])
        label = format_value(level)
        for sid in ids:
            shape = ' shape=doublecircle' if is_goal(space.task, space.states[sid]) else ""
            lines.append(f'  s{sid} [label="s{sid} h={label}"{shape}];')
        lines.append("  { rank=same; " + " ".join(f"s{sid};" for sid in ids) + " }")
    for sid, succs in enumerate(space.transitions):
        for aid, nid in succs:
            name = space.task.actions[aid].name
            name = name.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  s{sid} -> s{nid} [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
