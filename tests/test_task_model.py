"""State transition semantics, relaxation, and plan validation."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from plantopo.analysis import analyze_task, compute_mutexes, \
    validate_rp_irrelevant_deletes
from plantopo.generators import DOMAINS, GeneratorSpec, generate
from plantopo.heuristics import h_ff, h_plus
from plantopo.task_model import UNDEFINED, GroundAction, Tables, apply, \
    apply_sequence, is_goal, make_task, relax, successors, validate_plan

from conftest import random_task, random_walk_state, reachable_states

import random


def act(task, name):
    return task.actions[task.action_by_name[name]]


def fid(task, name):
    return task.fact_by_name[name]


def names(task, state):
    return sorted(task.facts[f].name for f in state)


class TestApply:
    def test_transport_load_from_init(self, transport_task):
        t = transport_task
        s = apply(t, frozenset(t.init), act(t, "load(o1,v,l1)"))
        assert names(t, s) == ["at(o2,l2)", "at(v,l1)", "in(o1,v)"]
        assert str(act(t, "load(o1,v,l1)")) == "load(o1,v,l1)"

    def test_readd_of_held_fact_is_identity(self):
        t = make_task(["p", "q"], [("a", ["p"], ["p"], [])], ["p"], ["q"])
        s = frozenset({t.fact_by_name["p"]})
        assert apply(t, s, t.actions[0]) == s

    def test_unmet_precondition_is_undefined(self, transport_task):
        t = transport_task
        assert apply(t, frozenset(t.init), act(t, "unload(o1,v,l1)")) is UNDEFINED
        assert repr(UNDEFINED) == "Undefined"
        assert bool(UNDEFINED) is False

    def test_foreign_action_rejected(self, transport_task, held_arm_task):
        with pytest.raises(ValueError):
            apply(transport_task, frozenset(transport_task.init), held_arm_task.actions[0])
        with pytest.raises(TypeError):
            apply(transport_task, frozenset(transport_task.init), "load(o1,v,l1)")


class TestApplySequence:
    def test_transport_delivery(self, transport_task):
        t = transport_task
        seq = [act(t, n) for n in
               ("load(o1,v,l1)", "move(v,l1,l2)", "unload(o1,v,l2)")]
        s = apply_sequence(t, frozenset(t.init), seq)
        assert names(t, s) == ["at(o1,l2)", "at(o2,l2)", "at(v,l2)"]

    def test_empty_sequence(self, transport_task):
        s = frozenset(transport_task.init)
        assert apply_sequence(transport_task, s, []) == s

    def test_undefined_is_absorbing(self, transport_task):
        t = transport_task
        seq = [act(t, "unload(o1,v,l1)"), act(t, "load(o1,v,l1)")]
        assert apply_sequence(t, frozenset(t.init), seq) is UNDEFINED


class TestRelax:
    def test_move_loses_delete_list(self, transport_task):
        a = act(transport_task, "move(v,l1,l2)")
        r = relax(a)
        assert r.pre == a.pre and r.add == a.add and r.delete == frozenset()
        assert r.id == a.id and r.name == a.name

    def test_delete_free_action_unchanged(self):
        a = GroundAction(0, "a", frozenset({0}), frozenset({1}), frozenset())
        assert relax(a) is a

    def test_idempotent(self, transport_task):
        a = act(transport_task, "move(v,l1,l2)")
        assert relax(relax(a)) == relax(a)


class TestIsGoal:
    def test_goal_state(self, transport_task):
        t = transport_task
        s = frozenset({fid(t, "at(v,l2)"), fid(t, "at(o1,l2)"),
                       fid(t, "at(o2,l1)")})
        assert is_goal(t, s)

    def test_init_is_not_goal(self, transport_task):
        assert not is_goal(transport_task, frozenset(transport_task.init))

    def test_empty_goal_vacuous(self):
        t = make_task(["p"], [("a", [], ["p"], [])], [], [])
        assert is_goal(t, frozenset())


class TestValidatePlan:
    SWAP = ("load(o1,v,l1)", "move(v,l1,l2)", "unload(o1,v,l2)",
            "load(o2,v,l2)", "unload(o2,v,l1)")

    def test_relaxed_swap_plan_valid(self, transport_task):
        t = transport_task
        seq = [act(t, n) for n in self.SWAP]
        assert validate_plan(t, seq, relaxed=True)

    def test_real_swap_plan_invalid(self, transport_task):
        t = transport_task
        seq = [act(t, n) for n in self.SWAP]
        assert not validate_plan(t, seq, relaxed=False)

    def test_empty_plan_on_satisfied_goal(self):
        t = make_task(["p"], [("a", [], ["p"], [])], ["p"], ["p"])
        assert validate_plan(t, [], relaxed=False)


class TestNormalization:
    def test_add_wins_over_delete(self):
        t = make_task(["p", "q"], [("a", [], ["p"], ["p"])], [], ["p"])
        a = t.actions[0]
        assert a.add == frozenset({t.fact_by_name["p"]})
        assert a.delete == frozenset()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="fact"):
            make_task(["p", "p"], [], [], [])
        with pytest.raises(ValueError, match="action"):
            make_task(["p"], [("a", [], ["p"], []), ("a", [], [], ["p"])], [], [])

    def test_add_delete_disjoint_everywhere(self):
        for seed in range(30):
            t = random_task(seed)
            for a in t.actions:
                assert not (a.add & a.delete)


def _bits(facts):
    return sum(1 << f for f in facts)


def _assert_tables(t):
    """``t.tables`` against lists built here from the ``GroundAction``s;
    returns the number of precondition-free actions."""
    tables, n, top = t.tables, len(t.actions), len(t.facts)
    pre_index = [[] for _ in range(top + 1)]
    achievers = [[] for _ in range(top + 1)]
    free = 0
    for a in t.actions:                     # in id order
        pres = sorted(a.pre) if a.pre else [top]
        free += not a.pre
        assert tables.pres[a.id] == pres
        assert tables.adds[a.id] == sorted(a.add)
        assert tables.pre_count[a.id] == len(pres)
        assert tables.pre_mask[a.id] == _bits(a.pre)    # never the top bit
        assert tables.add_mask[a.id] == _bits(a.add)
        assert tables.del_mask[a.id] == _bits(a.delete)
        for p in pres:
            pre_index[p].append(a.id)
        for f in a.add:
            achievers[f].append(a.id)
    assert tables.top == top
    assert tables.goal == sorted(t.goal)
    assert tables.pre_index == pre_index
    assert tables.achievers == achievers
    # the goal pseudo-action: requires the goal, adds and deletes nothing
    assert len(tables.pre_mask) == len(tables.add_mask) == len(tables.del_mask) == n + 1
    assert (tables.pre_mask[n], tables.add_mask[n], tables.del_mask[n]) == \
        (_bits(t.goal), 0, 0)
    return free


class TestTables:
    def test_contents_on_random_tasks(self):
        assert sum(_assert_tables(random_task(seed)) for seed in range(200)) > 50

    @pytest.mark.parametrize("family", sorted(DOMAINS))
    def test_contents_on_families(self, family):
        _assert_tables(generate(GeneratorSpec(family, {}, 0)))

    def test_built_once_per_task(self, monkeypatch):
        built = []
        init = Tables.__init__

        def counted(self, task):
            built.append(task)
            init(self, task)

        monkeypatch.setattr(Tables, "__init__", counted)
        a = generate(GeneratorSpec("blocksworld-arm-stack", {"n": 3}, 0))
        b = generate(GeneratorSpec("gripper", {"balls": 2}, 0))
        for sa, sb in zip(*(sorted(reachable_states(t), key=sorted)[:4]
                            for t in (a, b))):
            analyze_task(a)
            h_plus(b, sb)
            h_ff(a, sa)
            compute_mutexes(b)
            analyze_task(b)
            h_plus(a, sa)
            h_ff(b, sb)
            compute_mutexes(a)
        assert len(built) == 2 and built[0] is a and built[1] is b

        # an equal task made by replace builds its own tables
        c = dataclasses.replace(a, goal=frozenset(a.init))
        assert c.tables is not a.tables and len(built) == 3
        assert c.tables.pre_mask[-1] != a.tables.pre_mask[-1]
        assert c.tables.pre_mask[:-1] == a.tables.pre_mask[:-1]

        # each restricted task builds its own, the caller's are built once
        del built[:]
        s = frozenset(b.init)
        applicable = [act for act, _ in successors(b, s)]
        d = dataclasses.replace(b)
        for act in applicable:
            validate_rp_irrelevant_deletes(d, s, act)
        assert len(applicable) > 1
        assert sum(t is d for t in built) == 1
        assert len(built) > 2


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), walk=st.integers(0, 10_000))
def test_successors_are_the_defined_applications(seed, walk):
    t = random_task(seed)
    s = random_walk_state(t, random.Random(walk))
    listed = list(successors(t, s))
    assert [a.id for a, _ in listed] == \
        [a.id for a in t.actions if apply(t, s, a) is not UNDEFINED]
    for a, ns in listed:
        assert ns == apply(t, s, a)
        assert type(ns) is frozenset


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), walk=st.integers(0, 10_000))
def test_relaxed_apply_is_superset(seed, walk):
    t = random_task(seed)
    s = random_walk_state(t, random.Random(walk))
    for a in t.actions:
        if a.pre <= s:
            real = apply(t, s, a)
            relaxed = frozenset(s | a.add)
            assert real <= relaxed


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), walk=st.integers(0, 10_000))
def test_relaxed_sequences_are_monotone(seed, walk):
    t = random_task(seed)
    rng = random.Random(walk)
    s = frozenset(t.init)
    for _ in range(6):
        applicable = [a for a in t.actions if a.pre <= s]
        if not applicable:
            break
        a = rng.choice(applicable)
        ns = frozenset(s | relax(a).add)
        assert s <= ns
        s = ns


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), walk=st.integers(0, 10_000))
def test_real_plans_are_relaxed_plans(seed, walk):
    t = random_task(seed)
    rng = random.Random(walk)
    seq = []
    s = frozenset(t.init)
    for _ in range(6):
        applicable = [a for a in t.actions if a.pre <= s]
        if not applicable:
            break
        a = rng.choice(applicable)
        seq.append(a)
        s = apply(t, s, a)
    if validate_plan(t, seq, relaxed=False):
        assert validate_plan(t, seq, relaxed=True)
