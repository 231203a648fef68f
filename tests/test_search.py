"""Hill-climbing with breadth-first escape episodes, and plan reconstruction."""

import pytest

from plantopo.analysis import action_flags, compute_mutexes
from plantopo.errors import PreconditionViolated
from plantopo.generators import GeneratorSpec, generate
from plantopo.heuristics import HEURISTICS, INF
from plantopo.search import OUTCOME_EXHAUSTED, OUTCOME_FAILED, \
    OUTCOME_SOLVED, enforced_hill_climbing, invert_and_replay
from plantopo.task_model import apply_sequence, make_task, validate_plan

H_PLUS = HEURISTICS["hplus"]
H_FF = HEURISTICS["hff"]


def flags_of(task):
    return action_flags(task, compute_mutexes(task))


class TestEnforcedHillClimbing:
    def test_gripper_two_balls(self):
        t = generate(GeneratorSpec("gripper", {"balls": 2}, 0))
        res = enforced_hill_climbing(t, H_PLUS)
        assert res.outcome == OUTCOME_SOLVED
        assert len(res.plan) == 5
        assert res.max_depth <= 2
        assert validate_plan(t, [t.actions[a] for a in res.plan])

    def test_blocksworld_held_state_needs_depth_three(self, held_arm_task):
        res = enforced_hill_climbing(held_arm_task, H_PLUS)
        assert res.outcome == OUTCOME_SOLVED
        assert res.max_depth == 3
        assert validate_plan(held_arm_task,
                             [held_arm_task.actions[a] for a in res.plan])

    def test_satisfied_init(self):
        t = make_task(["p"], [("a", ["p"], ["p"], [])], ["p"], ["p"])
        res = enforced_hill_climbing(t, H_PLUS)
        assert res.outcome == OUTCOME_SOLVED and res.plan == []

    def test_shallow_episodes_on_benign_domains(self):
        cases = [("gripper", {"balls": 3}), ("logistics", {"cities": 1}),
                 ("ferry", {"cars": 2}), ("simple-tsp", {"locations": 4}),
                 ("movie", {"items": 2})]
        for domain, params in cases:
            t = generate(GeneratorSpec(domain, params, 0))
            res = enforced_hill_climbing(t, H_PLUS)
            assert res.outcome == OUTCOME_SOLVED, domain
            assert res.max_depth <= 2, domain

    def test_deterministic(self):
        t = generate(GeneratorSpec("logistics", {"cities": 2}, 4))
        a = enforced_hill_climbing(t, H_FF)
        b = enforced_hill_climbing(t, H_FF)
        assert a.plan == b.plan
        assert a.states_evaluated == b.states_evaluated
        assert a.episode_depths == b.episode_depths

    def test_budget_exhaustion(self):
        t = generate(GeneratorSpec("gripper", {"balls": 3}, 0))
        for budget in (0, 1, 2):
            res = enforced_hill_climbing(t, H_PLUS, budget=budget)
            assert res.outcome == OUTCOME_EXHAUSTED, budget
            assert res.states_evaluated == budget + 1, budget
            assert res.plan == [] and res.episode_depths == [], budget
            if budget == 0:
                assert res.best_state is None
            else:
                assert res.best_state == frozenset(t.init)

    def test_fails_on_unsolvable(self):
        t = make_task(["p", "g"], [("a", ["p"], ["p"], [])], ["p"], ["g"])
        res = enforced_hill_climbing(t, H_PLUS)
        assert res.outcome == OUTCOME_FAILED
        assert res.best_state is not None

    def test_infinite_successor_is_pruned(self):
        # d and e are dead ends; the goal lies past a plateau of value 1
        t = make_task(["a", "b", "c", "d", "e", "g"], [
            ("trap", ["a"], ["d"], ["a"]), ("trap-on", ["d"], ["e"], ["d"]),
            ("step", ["a"], ["b"], ["a"]), ("step-on", ["b"], ["c"], ["b"]),
            ("finish", ["c"], ["g"], ["c"])], ["a"], ["g"])
        dead = {t.fact_by_name["d"], t.fact_by_name["e"]}
        seen = []

        def h(task, s):
            seen.append(s)
            return 0 if task.goal <= s else INF if s & dead else 1

        res = enforced_hill_climbing(t, h)
        assert res.outcome == OUTCOME_SOLVED
        assert [t.actions[a].name for a in res.plan] == \
            ["step", "step-on", "finish"]
        assert frozenset({t.fact_by_name["d"]}) in seen
        assert frozenset({t.fact_by_name["e"]}) not in seen


class TestInvertAndReplay:
    BASE = ("load(o1,v,l1)", "move(v,l1,l2)", "unload(o1,v,l2)",
            "load(o2,v,l2)", "move(v,l2,l1)", "unload(o2,v,l1)")

    def test_transport_one_step_trace(self, transport_task):
        t = transport_task
        base = [t.action_by_name[n] for n in self.BASE]
        trace = [t.action_by_name["load(o1,v,l1)"]]
        out = invert_and_replay(t, trace, base, flags_of(t))
        assert out == [t.action_by_name["unload(o1,v,l1)"]] + base
        traced = apply_sequence(t, frozenset(t.init),
                                [t.actions[a] for a in trace])
        assert validate_plan(t, [t.actions[a] for a in out], start=traced)

    def test_empty_trace(self, transport_task):
        t = transport_task
        base = [t.action_by_name[n] for n in self.BASE]
        assert invert_and_replay(t, [], base, flags_of(t)) == base

    def test_tireworld_inflate_lands_in_memory(self):
        t = generate(GeneratorSpec("tireworld", {"tires": 1}, 0))
        flags = flags_of(t)
        res = enforced_hill_climbing(t, H_FF)
        assert res.outcome == OUTCOME_SOLVED
        base = res.plan
        inflate = t.action_by_name["inflate(spare1)"]
        assert inflate in base
        # walk a prefix of the plan through the inflate step, then rebuild
        cut = base.index(inflate) + 1
        trace = base[:cut]
        out = invert_and_replay(t, trace, base, flags)
        assert out.count(inflate) == 0
        traced = apply_sequence(t, frozenset(t.init),
                                [t.actions[a] for a in trace])
        assert validate_plan(t, [t.actions[a] for a in out], start=traced)

    def test_rejects_tasks_without_inverse_cover(self, toll_graph_task):
        t = toll_graph_task
        with pytest.raises(PreconditionViolated):
            invert_and_replay(t, [], [], flags_of(t))

    def test_random_traces_replay_validly(self):
        t = generate(GeneratorSpec("gripper", {"balls": 2}, 0))
        flags = flags_of(t)
        res = enforced_hill_climbing(t, H_FF)
        base = res.plan
        for cut in range(len(base) + 1):
            trace = base[:cut]
            out = invert_and_replay(t, trace, base, flags)
            traced = apply_sequence(t, frozenset(t.init),
                                    [t.actions[a] for a in trace])
            assert validate_plan(t, [t.actions[a] for a in out], start=traced)
