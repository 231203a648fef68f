"""Grounded STRIPS task representation and transition semantics.

States are frozensets of dense fact ids.  Applying an action with an unmet
precondition yields ``UNDEFINED`` (an explicit sentinel value, never an
exception and never a fake state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


class _Undefined:
    """Result of applying an action whose precondition does not hold."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Undefined"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()


@dataclass(frozen=True)
class Fact:
    id: int
    name: str


@dataclass(frozen=True)
class GroundAction:
    id: int
    name: str
    pre: frozenset
    add: frozenset
    # Normalized so that add and del never overlap: when a ground action both
    # adds and deletes a fact, the add wins (effects apply adds first, then
    # deletes only what was not just added), so the fact is dropped from del.
    delete: frozenset

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Task:
    facts: tuple          # tuple of Fact, index == Fact.id
    actions: tuple        # tuple of GroundAction, index == GroundAction.id
    init: frozenset       # fact ids true initially
    goal: frozenset       # set of fact ids
    name: str = "task"
    fact_by_name: dict = field(default_factory=dict, compare=False, repr=False)
    action_by_name: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def tables(self) -> Tables:
        return Tables(self)


class Tables:
    """The derived tables of a task that the heuristics and the analysis
    read, built once per ``Task`` object (``task.tables``, on first use; a
    task made by ``dataclasses.replace`` builds its own).  Lists indexed by
    action or fact id: per action its preconditions (``pres``; the
    artificial fact ``top``, ``len(task.facts)``, true in every state, for
    a precondition-free action), add effects (``adds``) and
    ``pre_count``; per fact, ``top`` included, the actions that need it
    (``pre_index``) and that add it (``achievers``), in id order;
    and the int fact masks ``pre_mask``, ``add_mask`` and ``del_mask``,
    without ``top``, in which index ``len(task.actions)`` is the goal
    pseudo-action: it requires the goal and adds and deletes nothing."""

    def __init__(self, task: Task):
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

        def mask(facts):
            return sum(1 << f for f in facts)

        self.pre_mask = [mask(a.pre) for a in task.actions] + [mask(task.goal)]
        self.add_mask = [mask(a.add) for a in task.actions] + [0]
        self.del_mask = [mask(a.delete) for a in task.actions] + [0]


def make_task(fact_names, actions_raw, init_names, goal_names, name="task") -> Task:
    """Build a Task from symbolic descriptions.

    ``actions_raw`` is a list of (name, pre_names, add_names, del_names).
    Fact ids follow the order of ``fact_names``; action ids follow list order.
    Add/delete overlap is normalized away (add wins).
    """
    facts = tuple(Fact(i, n) for i, n in enumerate(fact_names))
    by_name = {f.name: f.id for f in facts}
    if len(by_name) != len(facts):
        raise ValueError("duplicate fact names")

    def ids(names):
        return frozenset(by_name[n] for n in names)

    actions = []
    for i, (aname, pre, add, dele) in enumerate(actions_raw):
        add_ids = ids(add)
        del_ids = ids(dele) - add_ids
        actions.append(GroundAction(i, aname, ids(pre), add_ids, del_ids))
    action_by_name = {a.name: a.id for a in actions}
    if len(action_by_name) != len(actions):
        raise ValueError("duplicate action names")
    return Task(
        facts=facts,
        actions=tuple(actions),
        init=ids(init_names),
        goal=ids(goal_names),
        name=name,
        fact_by_name=by_name,
        action_by_name=action_by_name,
    )


def apply(task: Task, s, a: GroundAction):
    """Transition function: (s | add) - del if pre holds, else UNDEFINED."""
    if not isinstance(a, GroundAction):
        raise TypeError("expected a GroundAction")
    owned = task.actions[a.id]
    if not (owned is a or owned == a or relax(owned) == a):
        raise ValueError("action does not belong to this task")
    if not a.pre <= s:
        return UNDEFINED
    return frozenset((s | a.add) - a.delete)


def successors(task: Task, s):
    """Yield (action, successor) for each action applicable in s, in
    action-id order; the successor is computed as in ``apply``."""
    for a in task.actions:
        if a.pre <= s:
            yield a, frozenset((s | a.add) - a.delete)


def apply_sequence(task: Task, s, seq):
    """Left fold of apply over a sequence; UNDEFINED is absorbing."""
    cur = s
    for a in seq:
        cur = apply(task, cur, a)
        if cur is UNDEFINED:
            return UNDEFINED
    return cur


def relax(a: GroundAction) -> GroundAction:
    """Delete relaxation of a single action: same pre/add, empty delete list."""
    if not a.delete:
        return a
    return GroundAction(a.id, a.name, a.pre, a.add, frozenset())


def is_goal(task: Task, s) -> bool:
    return task.goal <= s


def validate_plan(task: Task, seq, relaxed: bool = False, start=None) -> bool:
    """Check that seq is applicable from ``start`` (default init) and reaches
    the goal, optionally under the delete relaxation."""
    s = task.init if start is None else start
    actions = [relax(a) if relaxed else a for a in seq]
    end = apply_sequence(task, s, actions)
    if end is UNDEFINED:
        return False
    return is_goal(task, end)
