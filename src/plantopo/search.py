"""Enforced hill-climbing and the invert-and-replay plan constructor."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import PreconditionViolated
from .heuristics import INF
from .task_model import Task, is_goal, successors

OUTCOME_SOLVED = "Solved"
OUTCOME_FAILED = "Failed"
OUTCOME_EXHAUSTED = "ResourceExhausted"

DEFAULT_BUDGET = 1_000_000      # states evaluated


@dataclass
class SearchResult:
    outcome: str
    plan: list = field(default_factory=list)     # action ids when Solved
    states_evaluated: int = 0
    episode_depths: list = field(default_factory=list)
    best_state: object = None                    # diagnostics on Failed

    @property
    def max_depth(self):
        return max(self.episode_depths, default=0)


def enforced_hill_climbing(task: Task, heuristic,
                           budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Iterated breadth-first search for a strictly better-valued state.

    Successors are expanded in action-id order; states with infinite
    heuristic value are pruned; duplicates are skipped within the current
    episode only.  Fails when an episode exhausts, gives up when more than
    ``budget`` states are evaluated.
    """
    current = frozenset(task.init)
    evaluated = 1
    if evaluated > budget:
        return SearchResult(OUTCOME_EXHAUSTED, states_evaluated=evaluated)
    current_h = heuristic(task, current)
    plan = []
    depths = []
    while True:
        if is_goal(task, current):
            return SearchResult(OUTCOME_SOLVED, plan, evaluated, depths)
        # one breadth-first episode searching for h < current_h
        closed = {current}
        queue = deque([(current, [])])
        found = None
        while queue and found is None:
            s, path = queue.popleft()
            for a, ns in successors(task, s):
                if ns in closed:
                    continue
                closed.add(ns)
                evaluated += 1
                if evaluated > budget:
                    return SearchResult(OUTCOME_EXHAUSTED,
                                        states_evaluated=evaluated,
                                        episode_depths=depths,
                                        best_state=current)
                nh = heuristic(task, ns)
                if nh == INF:
                    continue
                if nh < current_h:
                    found = (ns, path + [a.id], nh)
                    break
                queue.append((ns, path + [a.id]))
        if found is None:
            return SearchResult(OUTCOME_FAILED, states_evaluated=evaluated,
                                episode_depths=depths, best_state=current)
        current, path, current_h = found
        depths.append(len(path))
        plan.extend(path)


def invert_and_replay(task: Task, trace, base_plan, flags) -> list:
    """Rebuild a plan from the end of ``trace`` by undoing invertible steps
    and replaying ``base_plan``, skipping the memory set of non-invertible
    actions.

    ``trace`` and ``base_plan`` are action id lists; ``flags`` is the
    per-action property table from domain analysis.  Requires every action
    of the task to be at least invertible or to combine static add effects
    with no relevant delete effects.
    """
    for af in flags:
        if not (af.at_least_invertible is not None
                or (af.static_add_effects and not af.relevant_delete_effects)):
            raise PreconditionViolated(
                f"action {task.actions[af.action_id].name} is neither at least "
                "invertible nor static-add/irrelevant-delete")
    memory = set()
    out = []
    for aid in reversed(trace):
        witness = flags[aid].at_least_invertible
        if witness is not None:
            if witness not in memory:
                out.append(witness)
        else:
            memory.add(aid)
    out.extend(aid for aid in base_plan if aid not in memory)
    return out
