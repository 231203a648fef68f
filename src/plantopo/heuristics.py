"""Heuristic evaluators over grounded tasks.

Provides the exact optimal relaxed-plan length (``h_plus``), a brute-force
iterative-deepening oracle for it (``h_plus_oracle``), the layered
relaxed-planning-graph heuristic with backward plan extraction (``h_ff``),
and the goal-count heuristic (``h_goalcount``).

Values are naturals, with ``INF`` (float infinity) for unsolvable states.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceExhausted
from .task_model import Task

INF = float("inf")

DEFAULT_ORACLE_BUDGET = 10_000_000


@dataclass
class RelaxedPlanningGraph:
    fact_layers: list        # list of frozenset, monotonically growing
    action_layers: list      # action_layers[i] = sorted action ids applicable at layer i
    first_level: dict        # fact id -> first layer index of appearance
    goal_layer: int | None   # first layer containing the goal, None if never


@dataclass
class RelaxedPlan:
    actions: list            # ordered list of distinct action ids

    @property
    def length(self):
        return len(self.actions)


def build_rpg(task: Task, s) -> RelaxedPlanningGraph:
    """Layered delete-free fixpoint from s; stops at goal or fixpoint."""
    facts = frozenset(s)
    fact_layers = [facts]
    action_layers = []
    first_level = {f: 0 for f in facts}
    goal_layer = 0 if task.goal <= facts else None
    applied = set()
    while goal_layer is None:
        layer_actions = []
        new_facts = set()
        for a in task.actions:
            if a.id not in applied and a.pre <= facts:
                applied.add(a.id)
            if a.id in applied:
                layer_actions.append(a.id)
                new_facts |= a.add - facts
        action_layers.append(layer_actions)
        if not new_facts:
            break
        facts = facts | new_facts
        for f in facts:
            first_level.setdefault(f, len(fact_layers))
        fact_layers.append(facts)
        if task.goal <= facts:
            goal_layer = len(fact_layers) - 1
    return RelaxedPlanningGraph(fact_layers, action_layers, first_level, goal_layer)


def h_goalcount(task: Task, s):
    """Number of goal facts false in s; never infinite."""
    return len(task.goal - s)


class _LandmarkCutter:
    """LM-cut over the delete relaxation, with tables built once per task.

    The tables are lists indexed by action or fact id: each action's
    preconditions and add effects, and per fact the actions that need it
    (``pre_index``) and the actions that add it (``achievers``).  A
    precondition-free action gets the artificial fact ``len(task.facts)``,
    true in every state, as its one precondition.

    ``rounds`` repeatedly takes h_max values under the current action
    costs, with a costliest precondition of every action as its supporter,
    collects the zone of facts connected to the costliest goal fact through
    zero-cost supporter steps, and cuts the positive-cost achievers of zone
    facts whose supporter lies outside the zone.  Every relaxed plan must
    use an action of each cut, so charging and removing the cut's minimum
    cost yields an admissible lower bound that dominates h_max.  A call
    runs one full exploration; after a cut only the cut actions got
    cheaper, so ``_lower`` propagates the decrease from them and recomputes
    the maximum of an action only when its supporter got cheaper.
    """

    def __init__(self, task: Task):
        self.task = task
        self.top = top = len(task.facts)
        self.goal = sorted(task.goal)
        self.pres = [sorted(a.pre) or [top] for a in task.actions]
        self.adds = [sorted(a.add) for a in task.actions]
        self.pre_count = [len(pre) for pre in self.pres]
        self.pre_index = [[] for _ in range(top + 1)]
        self.achievers = [[] for _ in range(top + 1)]
        for aid, (pre, add) in enumerate(zip(self.pres, self.adds)):
            for p in pre:
                self.pre_index[p].append(aid)
            for f in add:
                self.achievers[f].append(aid)

    def _explore(self, s, cost):
        """h_max from state s; cost[aid] is None for excluded actions.
        Returns (val, supp): per fact its value (INF when unreached), per
        action its supporter (-1 when unreached or excluded).

        Costs are naturals, so facts wait in one list per value (a bucket
        queue) and leave in order of value."""
        val = [INF] * (self.top + 1)
        first = list(s)
        first.append(self.top)
        for f in first:
            val[f] = 0
        buckets = [first]
        remaining = self.pre_count[:]
        supp = [-1] * len(remaining)
        pre_index, adds = self.pre_index, self.adds
        d = 0
        while d < len(buckets):
            for f in buckets[d]:
                if val[f] != d:
                    continue
                for aid in pre_index[f]:
                    remaining[aid] -= 1
                    # the last precondition to leave is a costliest one
                    if remaining[aid] == 0 and cost[aid] is not None:
                        supp[aid] = f
                        v = cost[aid] + d
                        for g in adds[aid]:
                            if v < val[g]:
                                val[g] = v
                                while len(buckets) <= v:
                                    buckets.append([])
                                buckets[v].append(g)
            d += 1
        return val, supp

    def _lower(self, val, supp, cost, cut):
        """Bring val and supp up to date after the costs of ``cut`` fell:
        only facts whose value drops are queued, and an action's maximum is
        recomputed (ties to the highest fact id) only when its supporter
        drops."""
        pres, adds, pre_index = self.pres, self.adds, self.pre_index
        buckets = []
        for aid in cut:
            v = cost[aid] + val[supp[aid]]
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
                    v = cost[aid] + vp
                    for g in adds[aid]:
                        if v < val[g]:
                            val[g] = v
                            while len(buckets) <= v:
                                buckets.append([])
                            buckets[v].append(g)
            d += 1

    def rounds(self, s, cost):
        """Run cut rounds from state s on (and consume) ``cost``, where
        cost[aid] is a natural, or None for excluded actions.

        Returns (total charged cost, first cut found).  Total is INF when
        the goal is unreachable with the non-excluded actions.
        """
        if self.task.goal.issubset(s):
            return 0, None
        val, supp = self._explore(s, cost)
        achievers = self.achievers
        total = 0
        first_cut = None
        while True:
            gc, gf = max((val[g], g) for g in self.goal)
            if gc == INF:
                return INF, None
            if gc == 0:
                return total, first_cut
            zone = {gf}
            stack = [gf]
            entering = []
            while stack:
                f = stack.pop()
                for aid in achievers[f]:
                    p = supp[aid]
                    if p < 0:
                        continue
                    if cost[aid] == 0:
                        if p not in zone:
                            zone.add(p)
                            stack.append(p)
                    else:
                        entering.append(aid)
            cut = sorted({aid for aid in entering if supp[aid] not in zone})
            if not cut:
                return total, first_cut
            if first_cut is None:
                first_cut = cut
            m = min(cost[aid] for aid in cut)
            total += m
            for aid in cut:
                cost[aid] -= m
            self._lower(val, supp, cost, cut)


_last_cutter = None


def _cutter(task: Task) -> _LandmarkCutter:
    """The cutter of ``task``; only the last task's tables are kept."""
    global _last_cutter
    cutter = _last_cutter
    if cutter is None or cutter.task is not task:
        cutter = _last_cutter = _LandmarkCutter(task)
    return cutter


def _h_landmark_cut(task: Task, s):
    """Landmark lower bound for the optimal relaxed-plan length."""
    return _cutter(task).rounds(s, [1] * len(task.actions))[0]


def h_plus_oracle(task: Task, s, budget: int = DEFAULT_ORACLE_BUDGET):
    """Iterative-deepening DFS over relaxed action sequences.

    Every applied action must add at least one fact not yet in the relaxed
    state (a minimal relaxed plan has no redundant step).  Exponential; meant
    as ground truth on small inputs only.
    """
    rpg = build_rpg(task, s)
    if rpg.goal_layer is None:
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

    Backward extraction from the first goal layer.  An open goal at layer i
    is satisfied by a no-op whenever it already appears at layer i-1;
    otherwise by an achiever from action layer i-1 minimizing the summed
    first-appearance layers of its preconditions, ties broken by lowest
    action id (``tie_break`` may override the choice among equal-weight
    achievers, for determinism experiments).  Goals are processed highest
    layer first, FIFO within a layer; facts added by an action already
    selected at the same layer need no achiever of their own.
    """
    rpg = build_rpg(task, s)
    if rpg.goal_layer is None:
        return INF, None
    m = rpg.goal_layer
    first = rpg.first_level
    open_goals = {i: [] for i in range(m + 1)}
    for g in sorted(task.goal):
        open_goals[m].append(g)
    selected_at = {i: [] for i in range(m + 1)}   # layer -> action ids, selection order
    added_at = {i: set() for i in range(m + 1)}   # facts added by selections at layer
    selected_layer = {}                           # action id -> layer of its selection

    def weight(aid):
        return sum(first[p] for p in task.actions[aid].pre)

    for i in range(m, 0, -1):
        queue = open_goals[i]
        k = 0
        while k < len(queue):
            g = queue[k]
            k += 1
            if g in added_at[i]:
                continue
            if g in rpg.fact_layers[i - 1]:
                open_goals[i - 1].append(g)     # no-op preferred
                continue
            candidates = [aid for aid in rpg.action_layers[i - 1]
                          if g in task.actions[aid].add]
            best_w = min(weight(aid) for aid in candidates)
            best = [aid for aid in candidates if weight(aid) == best_w]
            if tie_break is not None and len(best) > 1:
                choice = tie_break(task, g, best)
            else:
                choice = min(best)
            prev = selected_layer.get(choice)
            if prev is None:
                selected_layer[choice] = i
                selected_at[i].append(choice)
                added_at[i] |= task.actions[choice].add
                for p in sorted(task.actions[choice].pre):
                    open_goals[i - 1].append(p)
            elif prev > i:
                # Already selected for a later layer; pull it forward so that
                # its single occurrence precedes this goal's consumer, and
                # re-open its preconditions at the earlier position.
                selected_at[prev].remove(choice)
                selected_layer[choice] = i
                selected_at[i].append(choice)
                added_at[i] |= task.actions[choice].add
                for p in sorted(task.actions[choice].pre):
                    open_goals[i - 1].append(p)
    plan = []
    for i in range(1, m + 1):
        plan.extend(selected_at[i])
    return len(plan), RelaxedPlan(plan)


def h_plus(task: Task, s, budget: int | None = None):
    """Exact optimal relaxed-plan length via landmark branch-and-bound.

    A minimal relaxed plan is a set of actions; every disjunctive action
    landmark (cut) must contribute at least one member.  The search
    branches over the members of the first cut: branch i commits member i
    into the plan (its cost drops to zero) and bans members 0..i-1, which
    partitions the candidate plans.  A branch closes when the goal becomes
    reachable through committed actions alone, and is pruned when the paid
    cost plus the landmark bound reaches the incumbent (seeded by h_ff).
    Each node's bound and cut come from one ``rounds`` call on the task's
    ``_LandmarkCutter``, whose tables are built once per task: one full
    h_max exploration per node, then incremental updates after each cut.
    Agrees with h_plus_oracle everywhere.
    """
    ub, _ = h_ff(task, s)
    if ub == INF:
        return INF
    cutter = _cutter(task)
    n = len(task.actions)
    lb0, _ = cutter.rounds(s, [1] * n)
    if lb0 == ub:
        return ub
    best = [ub]
    expanded = [0]

    def bb(included, excluded, paid):
        if budget is not None:
            expanded[0] += 1
            if expanded[0] > budget:
                raise ResourceExhausted(f"h_plus budget of {budget} nodes exceeded")
        cost = [0 if aid in included else (None if aid in excluded else 1)
                for aid in range(n)]
        total, cut = cutter.rounds(s, cost)
        if total == INF or paid + total >= best[0]:
            return
        if total == 0:
            # goal reachable through committed actions only
            best[0] = paid
            return
        banned = set(excluded)
        for aid in cut:
            bb(included | {aid}, frozenset(banned), paid + 1)
            banned.add(aid)

    bb(frozenset(), frozenset(), 0)
    return best[0]


def h_ff_value(task: Task, s):
    """The value of ``h_ff`` without its relaxed plan."""
    return h_ff(task, s)[0]


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
