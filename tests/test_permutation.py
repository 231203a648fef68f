"""Renumbering facts and actions must not change what the library reports.

Every measure is compared per state keyed by fact names, and conflicts by
fact and action names, so a result that leaks fact or action ids (say,
through a tie broken by id) shows up as a mismatch.  ``h_ff`` breaks ties
by action id and is exempt.
"""

import random
from collections import Counter

import pytest

from plantopo.analysis import build_fgt, find_conflicts, \
    interaction_free_verdict, no_local_minima_criterion
from plantopo.generators import GeneratorSpec, generate
from plantopo.heuristics import HEURISTICS
from plantopo.state_space import enumerate_space, topology_report
from plantopo.task_model import make_task

from conftest import random_task

H_PLUS = HEURISTICS["hplus"]


def renumbered(task, rng):
    """``task`` rebuilt through ``make_task`` with its facts and its actions
    in shuffled order."""
    def names(ids):
        return [task.facts[f].name for f in ids]

    facts = names(range(len(task.facts)))
    rng.shuffle(facts)
    actions = list(task.actions)
    rng.shuffle(actions)
    return make_task(
        facts,
        [(a.name, names(a.pre), names(a.add), names(a.delete)) for a in actions],
        names(task.init), names(task.goal), name=task.name)


def profile(task):
    """Everything compared, with each state named by its facts."""
    space = enumerate_space(task, H_PLUS)
    rep = topology_report(space)
    cls = {p.id: p.plateau_class for p in rep.plateaus}

    def key(sid):
        return frozenset(task.facts[f].name for f in space.states[sid])

    per_state = {key(sid): (space.h[sid], space.gd[sid],
                            cls[rep.plateau_of[sid]], rep.ed.get(sid))
                 for sid in range(space.size)}
    depths = {key(sid): d for sid, d in rep.unrecognized_dead_end_depths.items()}
    return (per_state, rep.dead_end_class, rep.mlmed, rep.mbed, depths,
            conflicts(task),
            interaction_free_verdict(task), no_local_minima_criterion(task))


def conflicts(task):
    """``find_conflicts`` as a multiset of (kind, fact name, action names,
    repairable); node ids and the order of the list depend on numbering."""
    return Counter(
        (c.kind, task.facts[c.fact].name,
         tuple(sorted(task.actions[aid].name for aid in c.action_ids)),
         c.repairable)
        for c in find_conflicts(build_fgt(task), task))


def test_renumbering_random_tasks():
    verdicts = set()
    n_conflicts = 0
    for seed in range(300):
        t = random_task(seed)
        expected = profile(t)
        verdicts.add(expected[-2:])
        n_conflicts += sum(expected[-3].values())
        rng = random.Random(seed)
        for _ in range(2):
            assert profile(renumbered(t, rng)) == expected, t.name
    assert len(verdicts) == 5       # every verdict combination is exercised
    assert n_conflicts > 300


@pytest.mark.parametrize("family,params", [
    ("blocksworld-arm-stack", {"n": 3}), ("blocksworld-no-arm-stack", {"n": 3}),
    ("destructive-detour", {}), ("hanoi", {"discs": 3}),
    ("simple-tsp", {"locations": 3}),
])
def test_renumbering_named_families(family, params):
    t = generate(GeneratorSpec(family, params, 0))
    expected = profile(t)
    rng = random.Random(0)
    for _ in range(2):
        assert profile(renumbered(t, rng)) == expected
