"""Heuristic evaluators over grounded tasks.

Provides the exact optimal relaxed-plan length (``h_plus``), a brute-force
iterative-deepening oracle for it (``h_plus_oracle``), the layered
relaxed-planning-graph heuristic with backward plan extraction (``h_ff``),
and the goal-count heuristic (``h_goalcount``).  ``h_plus_column`` and
``h_ff_column`` evaluate every state of an enumerated space.

Values are naturals, with ``INF`` (float infinity) for unsolvable states.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading
from dataclasses import dataclass

from .errors import PlantopoError, ResourceExhausted
from .task_model import Tables, Task

INF = float("inf")


def format_value(v) -> str:
    """A value as printed: ``inf`` for infinity, else ``str(v)``."""
    return "inf" if v == INF else str(v)

DEFAULT_ORACLE_BUDGET = 10_000_000


@dataclass
class RelaxedPlan:
    actions: list            # ordered list of distinct action ids


def h_goalcount(task: Task, s):
    """Number of goal facts false in s; never infinite."""
    return len(task.goal - s)


# LM-cut over the delete relaxation (Helmert & Domshlak 2009) at unit
# action costs, on the task's ``Tables``.
#
# ``_cut`` starts from the h_max values of one exploration (``levels``),
# with the last precondition of every action to be reached as its
# supporter.  Each round collects the zone of facts connected to the
# costliest goal fact through supporter steps of freed actions (those in
# an earlier cut, now of cost 0), and cuts the other achievers of zone
# facts whose supporter lies outside the zone.  Every relaxed plan must use
# an action of each cut, so the number of cuts is an admissible estimate
# that dominates h_max.  After a cut only the cut actions got cheaper, so
# ``_lower`` propagates the decrease from them and recomputes the maximum
# of an action only when its supporter got cheaper.


def levels(tables: Tables, s):
    """The relaxed planning graph from s (Bonet & Geffner 2001): unit-cost
    h_max by a breadth-first pass, one layer at a time.  Returns (val,
    supp): val[f] is the layer fact f first appears in (INF when
    unreached), and supp[aid] is the last precondition of action aid to
    be reached (-1 when aid is unreached), a costliest one, so
    val[supp[aid]] is the first layer aid is applicable in."""
    val = [INF] * (tables.top + 1)
    layer = list(s)
    layer.append(tables.top)
    for f in layer:
        val[f] = 0
    remaining = tables.pre_count[:]
    supp = [-1] * len(remaining)
    pre_index, adds = tables.pre_index, tables.adds
    d = 0
    while layer:
        d += 1
        reached = []
        for f in layer:
            for aid in pre_index[f]:
                remaining[aid] -= 1
                if remaining[aid] == 0:
                    supp[aid] = f
                    for g in adds[aid]:
                        if val[g] == INF:
                            val[g] = d
                            reached.append(g)
        layer = reached
    return val, supp


def _lower(tables: Tables, val, supp, freed, cut):
    """Bring val and supp up to date after the actions of ``cut`` were
    freed (``freed[aid]``: cost 0, else 1): only facts whose value drops
    are queued, and an action's maximum is recomputed (ties to the
    highest fact id) only when its supporter drops."""
    pres, adds, pre_index = tables.pres, tables.adds, tables.pre_index
    buckets = []
    for aid in cut:
        v = val[supp[aid]]
        for g in adds[aid]:
            if v < val[g]:
                val[g] = v
                while len(buckets) <= v:
                    buckets.append([])
                buckets[v].append(g)
    d = 0
    while d < len(buckets):
        for f in buckets[d]:
            if val[f] != d:
                continue
            for aid in pre_index[f]:
                if supp[aid] != f:
                    continue    # a cheaper non-supporter leaves the max
                p, vp = f, d
                for q in pres[aid]:
                    vq = val[q]
                    if vq > vp or (vq == vp and q > p):
                        p, vp = q, vq
                supp[aid] = p
                v = vp if freed[aid] else vp + 1
                for g in adds[aid]:
                    if v < val[g]:
                        val[g] = v
                        while len(buckets) <= v:
                            buckets.append([])
                        buckets[v].append(g)
        d += 1


def _cut(tables: Tables, val, supp, limit=INF, seed=()):
    """LM-cut rounds from the ``levels`` output ``val``/``supp``, which
    they consume.  Returns the cuts in the order found, each a sorted list
    of action ids; they are pairwise disjoint, every relaxed plan uses an
    action of each, and there are none when the goal holds in the state or
    is unreachable.  The rounds stop as soon as there are ``limit`` cuts:
    fewer than ``limit`` cuts are all of them.

    ``seed`` holds pairwise disjoint landmarks of the state, each a sorted
    list of action ids, such as a predecessor's cuts (see
    ``h_plus_column``).  Their members that ``levels`` left unreached are
    dropped, since no relaxed plan uses them; the rest are freed in one
    ``_lower`` call and come first among the cuts.  A round never cuts a
    freed action, so the cuts stay pairwise disjoint."""
    achievers = tables.achievers
    freed = [False] * len(supp)
    cuts = []
    if seed:
        members = []
        for cut in seed:
            cuts.append([aid for aid in cut if supp[aid] >= 0])
            if len(cuts) >= limit:
                return cuts
            members += cuts[-1]
        for aid in members:
            freed[aid] = True
        _lower(tables, val, supp, freed, members)
    while True:
        gc, gf = max(((val[g], g) for g in tables.goal), default=(0, -1))
        if gc == 0:
            return cuts
        zone = {gf}
        stack = [gf]
        entering = []
        while stack:
            f = stack.pop()
            for aid in achievers[f]:
                p = supp[aid]
                if p < 0:
                    continue
                if freed[aid]:
                    if p not in zone:
                        zone.add(p)
                        stack.append(p)
                else:
                    entering.append(aid)
        cut = sorted({aid for aid in entering if supp[aid] not in zone})
        if not cut:
            return cuts     # no achiever of an unreachable goal fact is reached
        cuts.append(cut)
        if len(cuts) >= limit:
            return cuts
        for aid in cut:
            freed[aid] = True
        _lower(tables, val, supp, freed, cut)


def h_plus_oracle(task: Task, s, budget: int = DEFAULT_ORACLE_BUDGET):
    """Iterative-deepening DFS over relaxed action sequences.

    Every applied action must add at least one fact not yet in the relaxed
    state (a minimal relaxed plan has no redundant step).  Exponential; meant
    as ground truth on small inputs only.
    """
    val, _ = levels(task.tables, s)
    if any(val[g] == INF for g in task.goal):
        return INF
    expanded = [0]

    def dfs(state, depth_left):
        if task.goal <= state:
            return True
        if depth_left == 0:
            return False
        expanded[0] += 1
        if expanded[0] > budget:
            raise ResourceExhausted(f"oracle budget of {budget} nodes exceeded")
        for a in task.actions:
            if a.pre <= state and not a.add <= state:
                if dfs(state | a.add, depth_left - 1):
                    return True
        return False

    start = frozenset(s)
    depth = 0
    while True:
        if dfs(start, depth):
            return depth
        depth += 1


def h_ff(task: Task, s, tie_break=None):
    """Relaxed-Graphplan heuristic: (value, RelaxedPlan or None).

    Backward extraction from the first goal layer of the relaxed planning
    graph, whose layers are the unit-cost h_max values over the task's
    ``tables`` (see ``levels``).  An open goal at layer i is
    satisfied by a no-op whenever it already appears at layer i-1;
    otherwise by an achiever applicable at layer i-1 minimizing the summed
    first-appearance layers of its preconditions, ties broken by lowest
    action id (``tie_break`` may override the choice among equal-weight
    achievers, for determinism experiments).  Goals are processed highest
    layer first, FIFO within a layer; facts added by an action already
    selected at the same layer need no achiever of their own.  An achiever
    chosen at layer i first applies at layer i-1, so each action is chosen
    once, at its first layer plus one, and the plan lists the layers in
    order; no selection is ever pulled forward to an earlier layer.
    """
    val, supp = levels(task.tables, s)
    return _relaxed_plan(task, val, supp, tie_break)


def _relaxed_plan(task: Task, val, supp, tie_break=None):
    """``h_ff``'s extraction over ``levels`` output (val, supp).

    An open goal g at layer i with val[g] == i takes an achiever whose layer
    is exactly i-1 (an earlier one would put g below i), and that selection
    stamps all its adds at layer i, so it is never chosen again.  The
    artificial precondition of a precondition-free action has layer 0 and
    is passed down as a no-op."""
    tables = task.tables
    m = max((val[g] for g in tables.goal), default=0)
    if m == INF:
        return INF, None
    pres, adds, achievers = tables.pres, tables.adds, tables.achievers
    open_goals = [[] for _ in range(m + 1)]
    open_goals[m].extend(tables.goal)
    selected_at = [[] for _ in range(m + 1)]    # layer -> action ids, selection order
    stamp = [0] * len(val)                      # fact -> layer of its last selected adder
    for i in range(m, 0, -1):
        below = open_goals[i - 1]
        selected = selected_at[i]
        for g in open_goals[i]:
            if stamp[g] == i:
                continue
            if val[g] < i:
                below.append(g)                 # no-op preferred
                continue
            # the lightest achiever applicable at layer i-1, first in id order
            best_w = INF
            for aid in achievers[g]:
                p = supp[aid]
                if p < 0 or val[p] >= i:
                    continue
                w = sum(map(val.__getitem__, pres[aid]))
                if w < best_w:
                    best_w, choice = w, aid
                    if tie_break is not None:
                        ties = [aid]
                elif w == best_w and tie_break is not None:
                    ties.append(aid)
            if tie_break is not None and len(ties) > 1:
                choice = tie_break(task, g, ties)
            selected.append(choice)
            for f in adds[choice]:
                stamp[f] = i
            below.extend(pres[choice])
    plan = [aid for layer in selected_at for aid in layer]
    return len(plan), RelaxedPlan(plan)


def _pruned_plan(tables: Tables, s, plan):
    """A relaxed plan from s (a list of action ids) less redundant actions.

    Drops the actions one at a time, last first, whenever the rest still
    reach the goal from s in the delete-relaxed fixpoint; no single action
    can be dropped from the result, which need not be minimum.  Each test
    counts down the preconditions missing in s of every kept action, over
    the plan's own index of them.  Returns the kept actions in plan order."""
    s = frozenset(s)
    pres, adds = tables.pres, tables.adds
    missing = []                    # plan position -> preconditions not in s
    users = {}                      # fact not in s -> plan positions needing it
    for i, aid in enumerate(plan):
        m = 0
        for p in pres[aid]:
            if p not in s and p != tables.top:
                m += 1
                users.setdefault(p, []).append(i)
        missing.append(m)
    open_goals = [g for g in tables.goal if g not in s]

    def reaches(keep):
        """Whether the kept actions reach the goal from s."""
        left = missing[:]
        stack = [i for i, k in enumerate(keep) if k and not left[i]]
        reached = set()
        while stack:
            for f in adds[plan[stack.pop()]]:
                if f not in s and f not in reached:
                    reached.add(f)
                    for j in users.get(f, ()):
                        left[j] -= 1
                        if not left[j] and keep[j]:
                            stack.append(j)
        return all(g in reached for g in open_goals)

    keep = [True] * len(plan)
    for i in range(len(plan) - 1, -1, -1):
        keep[i] = False
        keep[i] = not reaches(keep)
    return [aid for aid, k in zip(plan, keep) if k]


def _hitting_set(landmarks, size, allowance=INF):
    """A set of at most ``size`` actions that hits every landmark, or None
    when there is none; and the number of search nodes it took.  Sets of
    actions, the landmarks included, are int masks over action ids.

    A branch-and-bound over the members of the unhit landmark with the
    fewest members not banned.  They are tried in order of how many unhit
    landmarks they hit, most first, and each one tried is banned from the
    later children, which partitions the candidate sets.  A member that
    hits only landmarks an earlier one hits is banned without a child: a
    hitting set through it stays one with the earlier member in its place.
    A node is pruned when a greedy packing of pairwise disjoint unhit
    landmarks (less the banned members) needs more actions than it may
    still take.  The search gives up, returning None, once it has made
    more than ``allowance`` nodes."""
    nodes = 0

    def search(hit, banned, size):
        nonlocal nodes
        nodes += 1
        if nodes > allowance:
            return None
        left = sorted((lm & ~banned for lm in landmarks if not lm & hit),
                      key=int.bit_count)
        if not left:
            return hit
        used = need = 0
        for lm in left:
            if not lm & used:
                used |= lm
                need += 1
                if need > size:
                    return None
        branch = left[0]
        hits = {}               # member -> the unhit landmarks it hits, as bits
        for i, lm in enumerate(left):
            common = lm & branch
            while common:
                member = common & -common
                common ^= member
                hits[member] = hits.get(member, 0) | 1 << i
        tried = []
        for member, its in sorted(hits.items(), key=lambda kv: -kv[1].bit_count()):
            if all(its & ~other for other in tried):
                found = search(hit | member, banned, size - 1)
                if found is not None:
                    return found
                tried.append(its)
            banned |= member
        return None

    return search(0, 0, size), nodes


def _landmark(tables: Tables, s, hit):
    """None when the actions of ``hit`` (an int mask over action ids) reach
    the goal from s under the delete relaxation; otherwise a landmark that
    ``hit`` misses, as an int mask.

    ``hit`` grows greedily, in action id order, into a maximal set M of
    actions whose relaxed closure from s misses the goal: a candidate
    joins M unless it completes the goal.  Every relaxed plan therefore
    has an action outside M, and the actions outside M, exactly the
    candidates turned down, are the landmark.  The closure is a count of
    missing preconditions per action, decremented as facts are reached; a
    candidate that completes the goal is taken back by undoing the facts
    it reached, from a log."""
    adds, pre_index = tables.adds, tables.pre_index
    reached = [False] * (tables.top + 1)
    missing = tables.pre_count[:]
    for f in (*s, tables.top):
        reached[f] = True
        for b in pre_index[f]:
            missing[b] -= 1
    wanted = [False] * (tables.top + 1)
    for g in tables.goal:
        wanted[g] = True
    goal_left = sum(not reached[g] for g in tables.goal)
    member = [False] * len(missing)
    log = []

    def fire(aid):
        """Apply aid and every member it enables; whether the goal holds."""
        nonlocal goal_left
        stack = [aid]
        while stack:
            for f in adds[stack.pop()]:
                if not reached[f]:
                    reached[f] = True
                    log.append(f)
                    goal_left -= wanted[f]
                    for b in pre_index[f]:
                        missing[b] -= 1
                        if not missing[b] and member[b]:
                            stack.append(b)
            if not goal_left:
                return True
        return False

    while hit:
        low = hit & -hit
        hit ^= low
        aid = low.bit_length() - 1
        member[aid] = True
        if not missing[aid] and fire(aid):
            return None
    landmark = 0
    for aid in range(len(missing)):
        if member[aid]:
            continue
        if missing[aid]:
            member[aid] = True      # adds nothing to the closure as it is
            continue
        mark = len(log)
        if fire(aid):
            for f in log[mark:]:
                reached[f] = False
                goal_left += wanted[f]
                for b in pre_index[f]:
                    missing[b] += 1
            del log[mark:]
            landmark |= 1 << aid
        else:
            member[aid] = True
    return landmark


def h_plus(task: Task, s, budget: int | None = None):
    """Exact optimal relaxed-plan length: a root of cheap bounds, then an
    implicit hitting set over relaxed landmarks (Bonet & Helmert, ECAI
    2010; Haslum, Slaney & Thiebaux, ICAPS 2012).

    The root explores once at unit costs (``levels``): h_ff's relaxed plan
    is extracted from those levels, and the LM-cut rounds (``_cut``)
    continue from them.  The incumbent is h_ff, and it is the value when
    the LM-cut bound, the number of cuts, meets it.  Otherwise it is
    lowered to the length of h_ff's plan less its redundant actions
    (``_pruned_plan``), which is the value when the bound meets that.

    Otherwise the loop runs.  Its landmarks (sets of actions every relaxed
    plan uses one of) start as the root's cuts, which are pairwise
    disjoint.  Each round searches for a set H of at most ``best - 1``
    actions that hits every landmark (``_hitting_set``).  If there is none,
    no relaxed plan is shorter than ``best``, which is the value.  If H
    reaches the goal from s, it is a relaxed plan and ``best`` becomes its
    size.  Otherwise H grows into a maximal set whose closure misses the
    goal, and the actions outside it form a new landmark (``_landmark``),
    which H misses, so no round repeats.

    ``budget`` bounds the work: the root counts as one unit and each
    hitting-set search node as one more, so a root that closes never
    raises ``ResourceExhausted``.  Agrees with h_plus_oracle everywhere.
    """
    return _h_plus(task, s, budget, 0, ())[0]


def _h_plus(task: Task, s, budget, lower, seed):
    """``h_plus`` with a known lower bound ``lower`` on the value and a
    root LM-cut that starts from the landmarks ``seed`` of s (see
    ``_cut``).  Returns (value, cuts): pairwise disjoint landmarks of s, as
    sorted lists of action ids, to pass on to successors.  A return before
    the rounds passes on ``seed``.

    The value is returned as soon as the incumbent meets ``lower``.  A
    predecessor gives such a bound: for a transition p -> s by action a,
    h+(p) <= 1 + h+(s), since a followed by a relaxed plan for s is a
    relaxed plan for p.  With a valid bound the value is the same as
    without it; only the work shrinks.

    A seed can steer the rounds to fewer cuts than a fresh root finds.  So
    when a seeded root leaves the loop to run, the unseeded rounds run once
    too: the value is ``best`` if they meet it, and otherwise their cuts
    join the loop's landmarks."""
    tables = task.tables
    val, supp = levels(tables, s)
    best, plan = _relaxed_plan(task, val, supp)
    if best == INF or best <= lower:
        return best, seed
    cuts = _cut(tables, val, supp, best, seed)
    if len(cuts) >= best:
        return best, cuts
    best = len(_pruned_plan(tables, s, plan.actions))
    if len(cuts) >= best or best <= lower:
        return best, cuts
    landmarks = [sum(1 << aid for aid in cut) for cut in cuts]
    if seed:
        fresh = _cut(tables, *levels(tables, s), best)
        if len(fresh) >= best:
            return best, fresh
        landmarks += [sum(1 << aid for aid in cut) for cut in fresh]
    nodes = 1
    while True:
        allowance = INF if budget is None else budget - nodes
        hit, n = _hitting_set(landmarks, best - 1, allowance)
        nodes += n
        if n > allowance:
            raise ResourceExhausted(f"h_plus budget of {budget} nodes exceeded")
        if hit is None:
            return best, cuts
        landmark = _landmark(tables, s, hit)
        if landmark is None:
            best = hit.bit_count()
            if best <= lower:
                return best, cuts
        else:
            landmarks.append(landmark)


def h_plus_column(task: Task, states, transitions) -> list:
    """``h_plus`` of every state of a space, in id order;
    ``transitions[sid]`` lists the (action id, successor id) pairs of state
    sid.  The values are the same as from plain calls.

    Each state passes bounds on to its successors of higher id.  For a
    transition p -> s by action a, a followed by a relaxed plan for s is a
    relaxed plan for p.  So h+(s) >= h+(p) - 1, which is passed on as
    ``lower``, and every relaxed landmark of p that misses a is one of s.
    The cuts of p's root LM-cut that miss a are the seed of s's root
    (Pommerening & Helmert, ICAPS 2013): s keeps those of the predecessor
    with the most of them, the first in id order on a tie, until it is
    evaluated.  The landmarks the hitting-set loop adds are not passed on.

    A column that ``_split`` splits runs one layer at a time: a run of ids
    that ends where the successors of the run before it end, which in a
    breadth-first space is one depth.  Each process evaluates its half of
    the layer (``_Link.half``), and a state passes its bounds on at once to
    its successors in its own half.  At the end of the layer the halves
    swap their values and cuts, and both processes pass the bounds of the
    layer's states on to later layers, in id order, so both hold the same
    bounds.  Only a push from the first half of a layer to the second is
    lost: where no edge joins two states of one layer, every state gets the
    bounds of the walk in id order, and the work is that of one process."""
    size = len(states)
    lower = [0] * size
    seeds = [()] * size

    def push(sid, value, cuts, start, stop):
        for aid, nid in transitions[sid]:
            if start <= nid < stop:
                if value - 1 > lower[nid]:
                    lower[nid] = value - 1
                kept = [cut for cut in cuts if aid not in cut]
                if len(kept) > len(seeds[nid]):
                    seeds[nid] = kept

    def evaluate(start, stop):
        values, cuts = [], []
        for sid in range(start, stop):
            value, passed = _h_plus(task, states[sid], None, lower[sid], seeds[sid])
            seeds[sid] = ()
            push(sid, value, passed, sid + 1, stop)
            values.append(value)
            cuts.append(passed)
        return values, cuts

    def work(link):
        if link is None:
            return evaluate(0, size)[0]
        h = []
        start, stop = 0, 1
        while start < size:
            values, cuts = evaluate(*link.half(start, stop))
            if link.child:
                link.send(values, cuts)
                if stop == size:
                    return None
                first = link.receive()
                values, cuts = first[0] + values, first[1] + cuts
            else:
                second = link.receive()
                if stop < size:
                    link.send(values, cuts)
                values, cuts = values + second[0], cuts + second[1]
            h += values
            seeds[start:stop] = [()] * (stop - start)
            for sid, value, passed in zip(range(start, stop), values, cuts):
                push(sid, value, passed, stop, size)
            reach = max((nid + 1 for sid in range(start, stop)
                         for _, nid in transitions[sid]), default=0)
            start, stop = stop, min(size, max(stop + 1, reach))
        return h

    return _split(size, work)


def h_ff_value(task: Task, s):
    """The value of ``h_ff`` without its relaxed plan."""
    return h_ff(task, s)[0]


def h_ff_column(task: Task, states) -> list:
    """``h_ff_value`` of every state of a space, in id order.  Each value
    depends on its state alone, so a column that ``_split`` splits is
    halved by id, the second half in the child."""
    def work(link):
        if link is None:
            return [h_ff_value(task, s) for s in states]
        start, stop = link.half(0, len(states))
        values = [h_ff_value(task, s) for s in states[start:stop]]
        if link.child:
            link.send(values, None)
            return None
        return values + link.receive()[0]

    return _split(len(states), work)


# The fewest states whose column is split between two processes.  On a
# 2-vCPU Xeon virtual machine, each process takes a page fault of 5-11 us
# on each of the 450-2,100 shared pages it first writes to after the fork,
# and a CPU-bound loop ran up to 45% slower while the other vCPU was busy.
# There, in wall time, the split h+ column was slower on ferry-3 (40
# states), blocksworld-no-arm-stack n=3 (73), hanoi-4 (81) and gripper-4
# (256), about even on hanoi-5 (243) and no-arm-stack n=4 (501), and
# faster on gripper-5 (704) and arm-stack n=4 (866).
FORK_MIN_STATES = 500


class _Link:
    """This process's ends of the two pipes between the processes of a
    split column; ``child`` tells which of the two this is.  Where both
    write, the child writes first and the parent reads before it writes,
    so no write waits on one from the other side, whatever its size.  The
    child leaves after its last write, without waiting for the parent's."""

    def __init__(self, child, reader, writer):
        self.child = child
        self._reader = reader
        self._writer = writer

    def half(self, start, stop):
        """This process's half of the ids start..stop-1, as (start, stop):
        the lower ids in the parent, which takes one more of an odd
        count."""
        mid = start + (stop - start + 1) // 2
        return (mid, stop) if self.child else (start, mid)

    def send(self, values, data):
        """Writes ``values`` and ``data`` for the other process."""
        marshal.dump((values, data), self._writer)
        self._writer.flush()

    def receive(self):
        """The other process's next (values, data), with each infinite
        value mapped back to ``INF``."""
        values, data = marshal.load(self._reader)
        return [INF if v == INF else v for v in values], data


def _split(size, work):
    """What ``work(link)`` returns in this process.

    A column of at least ``FORK_MIN_STATES`` states is split in two when
    the process can fork, may run on two or more CPUs and has one thread
    (forking a threaded process can deadlock the child).  Then ``work``
    runs here and in one forked child, each with its ``_Link`` to the
    other, and each process keeps to its own half of the CPUs the process
    may run on until the column is done: a kernel that does not balance
    load leaves a forked child on its parent's CPU.  Otherwise
    ``work(None)`` runs here alone.

    The child always leaves by ``os._exit``, so it runs no exit handler and
    flushes no inherited buffer.  It is reaped before the call returns or
    raises, and killed first when this process's call raises.  A child
    that fails, or that leaves while this process still reads from or
    writes to it, raises ``PlantopoError``."""
    cpus = sorted(os.sched_getaffinity(0)) if (
        size >= FORK_MIN_STATES and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity") and threading.active_count() == 1) else ()
    if len(cpus) < 2:
        return work(None)
    up_read, up_write = os.pipe()
    down_read, down_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (up_read, up_write, down_read, down_write):
            os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(up_read)
            os.close(down_write)
            with open(down_read, "rb") as reader, open(up_write, "wb") as writer:
                os.sched_setaffinity(0, cpus[len(cpus) // 2:])
                work(_Link(True, reader, writer))
            status = 0
        finally:
            os._exit(status)
    os.close(up_write)      # so that a read ends when the child has left
    os.close(down_read)     # and a write fails
    lost = None
    try:
        try:
            with open(up_read, "rb") as reader, open(down_write, "wb") as writer:
                os.sched_setaffinity(0, cpus[:len(cpus) // 2])
                result = work(_Link(False, reader, writer))
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.sched_setaffinity(0, cpus)
            _, status = os.waitpid(pid, 0)
    except (EOFError, BrokenPipeError) as exc:
        lost = exc
    if lost is not None or status != 0:
        raise PlantopoError(
            f"the child process of a {size}-state column ended (wait status "
            f"{status}) before it delivered its half") from lost
    return result


# Every entry is a module-level function, so that it pickles by name.
HEURISTICS = {
    "hplus": h_plus,
    "hff": h_ff_value,
    "goalcount": h_goalcount,
    "oracle": h_plus_oracle,
}


class HeuristicMemo:
    """``heuristic`` bound to one task: each distinct state, keyed by its
    frozenset, is evaluated once.  Called like a ``HEURISTICS`` entry; a call
    with any other task goes to ``heuristic`` unmemoized."""

    def __init__(self, heuristic, task: Task):
        self.heuristic = heuristic
        self.task = task
        self.values = {}

    def __call__(self, task: Task, s):
        if task is not self.task:
            return self.heuristic(task, s)
        key = frozenset(s)
        v = self.values.get(key)
        if v is None:
            v = self.values[key] = self.heuristic(task, key)
        return v


def memoized(heuristic, task: Task) -> HeuristicMemo:
    """``heuristic`` memoized on ``task``.  A memo already bound to ``task``
    is returned unchanged, so callers that pass it on share its values."""
    if isinstance(heuristic, HeuristicMemo) and heuristic.task is task:
        return heuristic
    return HeuristicMemo(heuristic, task)
