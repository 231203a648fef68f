"""Heuristic evaluators: exact relaxed length, oracle, layered extraction."""

import dataclasses
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from plantopo import heuristics
from plantopo.errors import ResourceExhausted
from plantopo.generators import GeneratorSpec, generate
from plantopo.heuristics import HEURISTICS, INF, _pruned_plan, h_ff, \
    h_goalcount, h_plus, h_plus_oracle, levels
from plantopo.state_space import enumerate_space
from plantopo.task_model import make_task, successors, validate_plan

from conftest import random_shared_enabler_task, random_single_achiever_task, \
    random_task, random_unary_task, random_walk_state, reachable_states

# h_plus's hitting-set loop runs on 0.3% of the random tasks' states and
# on 12% of the shared-enabler tasks' (first 40 reachable states of seeds
# 0-299)
ORACLE_TASKS = st.sampled_from([random_task, random_shared_enabler_task])


def rounds(tables, s, limit=INF, seed=()):
    """LM-cut from state s: one unit-cost h_max exploration, then the cut
    rounds, from the landmarks ``seed`` of s freed.  Returns the cuts."""
    return heuristics._cut(tables, *heuristics.levels(tables, s), limit, seed)


def _counted_searches(monkeypatch):
    """Count the hitting-set searches of the loop, and their nodes, from
    here on, in the returned dict {"searches": n, "nodes": n}."""
    counts = {"searches": 0, "nodes": 0}
    search = heuristics._hitting_set

    def counted(*args):
        found, nodes = search(*args)
        counts["searches"] += 1
        counts["nodes"] += nodes
        return found, nodes

    monkeypatch.setattr(heuristics, "_hitting_set", counted)
    return counts


def _recorded_landmarks(monkeypatch):
    """Record every ``_landmark`` call from here on in the returned list,
    as (hitting set, landmark or None)."""
    calls = []
    landmark = heuristics._landmark

    def recorded(tables, s, hit):
        lm = landmark(tables, s, hit)
        calls.append((hit, lm))
        return lm

    monkeypatch.setattr(heuristics, "_landmark", recorded)
    return calls


class TestHPlus:
    def test_blocksworld_held_state(self, held_arm_task):
        assert h_plus(held_arm_task, frozenset(held_arm_task.init)) == 3

    def test_goal_state_is_zero(self, transport_task):
        t = transport_task
        goalish = frozenset(t.goal) | frozenset(t.init)
        assert h_plus(t, goalish) == 0

    def test_toll_graph_without_money(self, toll_graph_task):
        t = toll_graph_task
        s = frozenset({t.fact_by_name["at(a)"]})
        assert h_plus(t, s) == 4

    def test_unreachable_goal_is_infinite(self):
        t = make_task(["p", "g"], [("a", ["p"], ["p"], [])], [], ["g"])
        assert h_plus(t, frozenset(t.init)) is INF

    def test_budget_never_returns_wrong_value(self, monkeypatch):
        # a task whose bounds do not close without search
        t = random_task(9)
        s = frozenset(t.init)
        assert h_ff(t, s)[0] > h_plus(t, s)
        with pytest.raises(ResourceExhausted):
            h_plus(t, s, budget=0)
        # the root counts as one unit, so budget 0 raises exactly where the
        # loop runs, that is where the unit-cost LM-cut bound stays below
        # the incumbent, h_ff's plan less its redundant actions; each
        # hitting-set search node counts as one more unit
        counts = _counted_searches(monkeypatch)
        rng = random.Random(0)
        cases = [(t, random_walk_state(t, rng)) for seed in range(200)
                 for t in [random_task(seed)] for _ in range(3)]
        t = generate(GeneratorSpec("blocksworld-arm-stack", {"n": 3}, 0))
        cases += [(t, s) for s in reachable_states(t)]
        branched = 0
        for t, s in cases:
            plan = h_ff(t, s)[1]
            counts["nodes"] = 0
            value = h_plus(t, s)
            nodes = counts["nodes"]
            if plan is not None and len(rounds(t.tables, s)) < \
                    len(_pruned_plan(t.tables, s, plan.actions)):
                branched += 1
                with pytest.raises(ResourceExhausted):
                    h_plus(t, s, budget=0)
                with pytest.raises(ResourceExhausted):
                    h_plus(t, s, budget=nodes)
                assert h_plus(t, s, budget=1 + nodes) == value
            else:
                assert nodes == 0
                assert h_plus(t, s, budget=0) == value
        assert 0 < branched < len(cases)

    def test_lower_bound_met_by_the_pruned_plan_closes_the_root(self):
        # where h_ff's plan is longer than h+ but the plan less its
        # redundant actions is not, a lower bound of h+ closes the root
        # without the loop, so budget 0 does not raise
        t = generate(GeneratorSpec("blocksworld-arm-stack", {"n": 4}, 0))
        closed = 0
        for s in reachable_states(t):
            ff, plan = h_ff(t, s)
            value = h_plus(t, s)
            if ff > value == len(_pruned_plan(t.tables, s, plan.actions)) > \
                    len(rounds(t.tables, s)):
                with pytest.raises(ResourceExhausted):
                    h_plus(t, s, budget=0)
                assert heuristics._h_plus(t, s, 0, value, ())[0] == value
                closed += 1
        assert closed == 4

    @pytest.mark.parametrize("family,cap,landmark_cap", [
        ("blocksworld-arm-stack", 2.0, 4.0),
        ("blocksworld-no-arm-stack", 1.8, 6.0),
    ], ids=["blocksworld-arm-stack-2.0", "blocksworld-no-arm-stack-1.8"])
    def test_explorations_per_state(self, monkeypatch, family, cap,
                                    landmark_cap):
        # counts work rather than timing it: one h_max exploration for the
        # root of each state (two where a root that inherits cuts reaches
        # the loop), and for each hard state (one whose root leaves the
        # hitting-set loop to run) the landmarks the loop adds.  The
        # counters see this process only, so the column stays in it: no
        # space is split
        t = generate(GeneratorSpec(family, {"n": 4}, 0))
        monkeypatch.setattr(heuristics, "FORK_MIN_STATES", math.inf)
        calls = [0]
        roots = []
        explore, solve = heuristics.levels, heuristics._h_plus

        def counted(tables, s):
            calls[0] += 1
            return explore(tables, s)

        def recorded(task, s, budget, lower, seed):
            roots.append(s)
            return solve(task, s, budget, lower, seed)

        monkeypatch.setattr(heuristics, "levels", counted)
        monkeypatch.setattr(heuristics, "_h_plus", recorded)
        space = enumerate_space(t, h_plus)
        assert roots == space.states        # one root per state, in id order
        assert calls[0] / len(space.states) <= cap
        landmarks = _recorded_landmarks(monkeypatch)
        counts = _counted_searches(monkeypatch)
        hard = 0
        for s in space.states:
            before = counts["searches"]
            h_plus(t, s)
            hard += counts["searches"] > before
        added = sum(lm is not None for _, lm in landmarks)
        assert hard > 10
        assert added / hard <= landmark_cap

    @pytest.mark.parametrize("seed", [1, 9, 72, 124])
    def test_hitting_set_lowers_an_inexact_incumbent(self, seed, monkeypatch):
        # each task has a state where h_ff's pruned plan is longer than h+:
        # there a hitting set of the landmarks reaches the goal, and its
        # size lowers the incumbent
        t = random_task(seed)
        landmarks = _recorded_landmarks(monkeypatch)
        lowered = 0
        for s in sorted(reachable_states(t), key=sorted):
            plan = h_ff(t, s)[1]
            if plan is None:
                continue
            landmarks.clear()
            value = h_plus(t, s)
            assert value == h_plus_oracle(t, s)
            if len(_pruned_plan(t.tables, s, plan.actions)) > value:
                reached = [hit for hit, lm in landmarks if lm is None]
                assert reached and value == reached[-1].bit_count()
                lowered += 1
        assert lowered > 0

    def test_added_landmarks_are_landmarks(self, monkeypatch):
        # every landmark the loop adds is missed by the hitting set it came
        # from and hit by every relaxed plan: the actions outside it do not
        # reach the goal.  On random tasks, where few states need the loop,
        # every optimal relaxed plan (each set of h+ actions, h+ from the
        # oracle, that reaches the goal) is also checked to hit it
        landmarks = _recorded_landmarks(monkeypatch)
        cases = [(random_task(seed), True) for seed in range(1000)]
        cases += [(generate(GeneratorSpec(family, params, 0)), False)
                  for family, params in [("hanoi", {"discs": 4}),
                                         ("blocksworld-arm-stack", {"n": 4})]]
        added = on_random = 0
        for t, brute_force in cases:
            actions = set(range(len(t.actions)))
            for s in reachable_states(t):
                landmarks.clear()
                value = h_plus(t, s)
                new = [(hit, lm) for hit, lm in landmarks if lm is not None]
                for hit, lm in new:
                    members = {a for a in actions if lm >> a & 1}
                    assert members and not hit & lm
                    assert not _relaxed_reaches(t, s, actions - members)
                added += len(new)
                if brute_force and new:
                    assert value == h_plus_oracle(t, s)
                    optimal = [plan for plan in itertools.combinations(actions, value)
                               if _relaxed_reaches(t, s, plan)]
                    assert optimal
                    for _, lm in new:
                        assert all(any(lm >> a & 1 for a in plan) for plan in optimal)
                    on_random += len(new)
        assert on_random > 20 and added > 150

    def test_inherited_cuts_are_landmarks(self, monkeypatch):
        # every cut the h column passes on is a landmark of the state that
        # inherits it: the actions outside it do not reach the goal.  The
        # inherited cuts, and the cuts each state passes on in turn, are
        # pairwise disjoint.  The recorder sees this process only, so the
        # column stays in it: no space is split
        monkeypatch.setattr(heuristics, "FORK_MIN_STATES", math.inf)
        calls = []
        solve = heuristics._h_plus

        def recorded(task, s, budget, lower, seed):
            value, cuts = solve(task, s, budget, lower, seed)
            calls.append((s, seed, cuts))
            return value, cuts

        monkeypatch.setattr(heuristics, "_h_plus", recorded)
        inherited = 0
        for seed in range(300):
            for t in (random_task(seed), random_shared_enabler_task(seed)):
                actions = set(range(len(t.actions)))
                calls.clear()
                space = enumerate_space(t, h_plus)
                assert [s for s, _, _ in calls] == space.states   # one root per state
                for s, seed_cuts, cuts in calls:
                    for family in (seed_cuts, cuts):
                        members = [a for cut in family for a in cut]
                        assert len(members) == len(set(members))
                        for cut in family:
                            assert not _relaxed_reaches(t, s, actions - set(cut))
                    inherited += len(seed_cuts)
        assert inherited > 10000


def _h_max_by_value_iteration(task, s, cost):
    """Fact values and, per action, its maximum precondition value (0
    without preconditions, None when unreached), by plain value iteration
    under the natural costs ``cost``."""
    val = {f: 0 for f in s}
    changed = True
    while changed:
        changed = False
        for a in task.actions:
            if not a.pre <= val.keys():
                continue
            v = cost[a.id] + max((val[p] for p in a.pre), default=0)
            for g in a.add:
                if v < val.get(g, INF):
                    val[g] = v
                    changed = True
    pre_max = [max((val[p] for p in a.pre), default=0)
               if a.pre <= val.keys() else None for a in task.actions]
    return val, pre_max


class TestLandmarkCutter:
    def test_incremental_h_max_matches_fresh_exploration(self, monkeypatch):
        # after the exploration every action costs 1; after each cut the
        # actions of all cuts so far (freed) cost 0.  A seeded call frees
        # all its seed's cuts at once: those of a predecessor that miss the
        # transition's action
        rng = random.Random(11)
        cuts = [0]
        bulk = 0
        explore, lower = heuristics.levels, heuristics._lower

        def check(t, s, cost, val, supp):
            fresh_val, fresh_pre_max = _h_max_by_value_iteration(t, s, cost)
            assert val[len(t.facts)] == 0       # the artificial fact
            assert {f: v for f, v in enumerate(val[:-1]) if v != INF} == fresh_val
            # every reached action's supporter is a costliest precondition
            assert [val[p] if p >= 0 else None for p in supp] == fresh_pre_max

        def explored(tables, s_):
            val, supp = explore(tables, s_)
            check(t, s, [1] * len(t.actions), val, supp)
            return val, supp

        def lowered(tables, val, supp, freed, cut):
            assert all(freed[aid] for aid in cut)
            lower(tables, val, supp, freed, cut)
            check(t, s, [0 if f else 1 for f in freed], val, supp)
            cuts[0] += 1

        monkeypatch.setattr(heuristics, "levels", explored)
        monkeypatch.setattr(heuristics, "_lower", lowered)
        for seed in range(200):
            for t in (random_task(seed), random_shared_enabler_task(seed)):
                for _ in range(3):
                    s = random_walk_state(t, rng)
                    found = rounds(t.tables, s)
                    steps = list(successors(t, s))
                    if not steps:
                        continue
                    a, s = rng.choice(steps)
                    inherited = [cut for cut in found if a.id not in cut]
                    found = rounds(t.tables, s, INF, inherited)
                    members = [aid for cut in found for aid in cut]
                    assert len(members) == len(set(members))
                    assert all(set(cut) <= set(old) for cut, old in zip(found, inherited))
                    bulk += len(inherited) > 1
        assert cuts[0] > 500 and bulk > 200
        # b adds both goal facts but needs q, which nothing adds: b is
        # dropped from the seed {a, b}, not freed at val[-1], the
        # artificial fact's 0, which would put h at 0 and leave c uncut
        t = make_task(["q", "g", "h"], [("a", [], ["g"], []),
                                        ("b", ["q"], ["g", "h"], []),
                                        ("c", [], ["h"], [])], [], ["g", "h"])
        s = frozenset()
        a, b, c = (t.action_by_name[name] for name in "abc")
        assert rounds(t.tables, s, INF, [[a, b]]) == [[a], [c]]

    def test_rounds_stop_at_the_limit(self):
        # the rounds stop at the cut that reaches the limit, or at the
        # first one when the limit is below 1, so fewer cuts than the
        # limit are all of them
        rng = random.Random(5)
        stopped = 0
        for seed in range(200):
            for t in (random_task(seed), random_shared_enabler_task(seed)):
                for _ in range(2):
                    s = random_walk_state(t, rng)
                    full = rounds(t.tables, s)
                    for limit in range(-1, 6):
                        cuts = rounds(t.tables, s, limit)
                        assert cuts == full[:max(limit, 1)]
                        stopped += cuts != full
        assert stopped > 200

    def test_unit_cost_cuts_are_disjoint_landmarks(self):
        # the full rounds hand back pairwise disjoint cuts, each one a
        # landmark: without its actions the goal is out of reach; there is
        # no cut exactly where the goal holds or is out of reach
        rng = random.Random(6)
        cuts_seen = 0
        for seed in range(200):
            t = random_task(seed)
            actions = set(range(len(t.actions)))
            for _ in range(3):
                s = random_walk_state(t, rng)
                cuts = rounds(t.tables, s)
                members = [a for cut in cuts for a in cut]
                assert len(members) == len(set(members))
                for cut in cuts:
                    assert not _relaxed_reaches(t, s, actions - set(cut))
                assert (not cuts) == (t.goal <= s or
                                      not _relaxed_reaches(t, s, actions))
                cuts_seen += len(cuts)
        assert cuts_seen > 150

    def test_alternating_tasks_give_fresh_values(self):
        # same facts and actions, another goal: tables kept for the wrong
        # task would give wrong values without failing; h_ff reads its
        # layers off the same per-task tables as h_plus
        a = generate(GeneratorSpec("blocksworld-arm-stack", {"n": 4}, 0))
        b = dataclasses.replace(
            a, goal=random_walk_state(a, random.Random(99), 20))
        rng = random.Random(3)
        states = [random_walk_state(a, rng, 12) for _ in range(40)]

        def ff(t, s):
            value, plan = h_ff(t, s)
            return value, plan.actions

        def fresh(h, t, s):
            return h(dataclasses.replace(t), s)

        expected = [(fresh(ff, a, s), fresh(h_plus, b, s),
                     fresh(ff, b, s), fresh(h_plus, a, s)) for s in states]
        assert sum(r[1] != r[3] for r in expected) > 10
        assert sum(r[0][0] != r[2][0] for r in expected) > 10
        assert [(ff(a, s), h_plus(b, s), ff(b, s), h_plus(a, s))
                for s in states] == expected

    @pytest.mark.parametrize("family,params", [
        ("blocksworld-arm-stack", {"n": 3}),
        ("blocksworld-no-arm-stack", {"n": 3}),
        ("gripper", {"balls": 3}),
    ])
    def test_h_plus_matches_oracle_on_whole_space(self, family, params):
        t = generate(GeneratorSpec(family, params, 0))
        for s in reachable_states(t):
            assert h_plus(t, s) == h_plus_oracle(t, s)


class TestHittingSet:
    @staticmethod
    def families(rng, n_families):
        """Random landmark families: int masks over up to 8 actions."""
        for _ in range(n_families):
            n = rng.randint(1, 8)
            yield n, [sum(1 << a for a in
                          rng.sample(range(n), rng.randint(1, min(4, n))))
                      for _ in range(rng.randint(0, 7))]

    def test_matches_a_brute_force_minimum(self):
        rng = random.Random(7)
        for n, family in self.families(rng, 400):
            minimum = next(
                k for k in range(n + 1)
                if any(all(lm & sum(1 << a for a in members) for lm in family)
                       for members in itertools.combinations(range(n), k)))
            for size in range(n + 1):
                found, nodes = heuristics._hitting_set(family, size)
                assert nodes >= 1
                if size < minimum:
                    assert found is None
                else:
                    assert found is not None and found.bit_count() <= size
                    assert all(lm & found for lm in family)

    def test_gives_up_past_its_allowance(self):
        rng = random.Random(8)
        for n, family in self.families(rng, 200):
            for size in range(n + 1):
                full = heuristics._hitting_set(family, size)
                assert heuristics._hitting_set(family, size, full[1]) == full
                for allowance in range(full[1]):
                    found, nodes = heuristics._hitting_set(family, size, allowance)
                    assert found is None and nodes > allowance


class TestOracle:
    def test_transport_init(self, transport_task):
        assert h_plus_oracle(transport_task, frozenset(transport_task.init)) == 5

    def test_shared_enabler_from_empty(self, shared_enabler_task):
        assert h_plus_oracle(shared_enabler_task, frozenset()) == 3

    def test_gripper_two_balls(self):
        t = generate(GeneratorSpec("gripper", {"balls": 2}, 0))
        assert h_plus_oracle(t, frozenset(t.init)) == 5

    def test_budget_raises(self, transport_task):
        with pytest.raises(ResourceExhausted):
            h_plus_oracle(transport_task, frozenset(transport_task.init), budget=1)


def _goal_layer(t, s):
    """The first layer of ``levels`` from s that holds the goal: the highest
    value over the goal, INF when the goal is unreachable."""
    val, _ = levels(t.tables, s)
    return max((val[g] for g in t.tables.goal), default=0)


def _fact_layer(t, val, i):
    """Layer i of the relaxed planning graph: the facts of value at most i."""
    return frozenset(f for f, v in enumerate(val[:t.tables.top]) if v <= i)


class TestRpg:
    """The relaxed planning graph is ``levels``: fact f is in layer i when
    val[f] <= i, and action aid applies from layer val[supp[aid]] on."""

    def test_shared_enabler_layers(self, shared_enabler_task):
        t = shared_enabler_task
        val, _ = levels(t.tables, frozenset())
        layer_names = [sorted(t.facts[f].name for f in _fact_layer(t, val, i))
                       for i in range(3)]
        assert layer_names == [[], ["p", "p2"], ["g1", "g2", "p", "p2"]]
        assert _goal_layer(t, frozenset()) == 2

    def test_goal_state_stops_immediately(self, transport_task):
        t = transport_task
        s = frozenset(t.goal) | frozenset(t.init)
        assert _goal_layer(t, s) == 0
        # no action layer lies below the goal layer, so none is selected
        assert h_ff(t, s)[1].actions == []

    def test_dead_fixpoint_misses_goal(self):
        t = make_task(["p", "g"], [("a", ["p"], ["g"], [])], [], ["g"])
        assert _goal_layer(t, frozenset()) == INF

    def test_layers_grow_monotonically(self):
        # every layer up to the fixpoint adds a fact, and a fact not in the
        # state enters one layer after its first achiever applies
        for seed in range(20):
            t = random_task(seed)
            s = frozenset(t.init)
            val, supp = levels(t.tables, s)
            last = max(v for v in val if v < INF)
            layers = [_fact_layer(t, val, i) for i in range(last + 1)]
            for lo, hi in zip(layers, layers[1:]):
                assert lo < hi
            for f in range(t.tables.top):
                if f not in s:
                    assert val[f] == min((val[supp[aid]] + 1
                                          for aid in t.tables.achievers[f]
                                          if supp[aid] >= 0), default=INF)


def _reference_rpg(task, s):
    """The relaxed planning graph by its definition: apply every applicable
    action at each layer until the goal holds or nothing new appears."""
    facts = frozenset(s)
    fact_layers = [facts]
    action_layers = []
    first_level = {f: 0 for f in facts}
    goal_layer = 0 if task.goal <= facts else None
    while goal_layer is None:
        layer_actions = [a.id for a in task.actions if a.pre <= facts]
        action_layers.append(layer_actions)
        new_facts = set()
        for aid in layer_actions:
            new_facts |= task.actions[aid].add - facts
        if not new_facts:
            break
        facts = facts | new_facts
        for f in new_facts:
            first_level[f] = len(fact_layers)
        fact_layers.append(facts)
        if task.goal <= facts:
            goal_layer = len(fact_layers) - 1
    return fact_layers, action_layers, first_level, goal_layer


def _reference_h_ff(task, s, tie_break=None, pulled=None):
    """FF's backward extraction over ``_reference_rpg``, written out
    independently of the library's layers.  Each selection it pulls forward
    to a lower layer is appended to ``pulled``, when given."""
    fact_layers, action_layers, first, m = _reference_rpg(task, s)
    if m is None:
        return INF, None
    open_goals = {i: [] for i in range(m + 1)}
    open_goals[m] = sorted(task.goal)
    selected_at = {i: [] for i in range(m + 1)}
    added_at = {i: set() for i in range(m + 1)}
    selected_layer = {}

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
            if g in fact_layers[i - 1]:
                open_goals[i - 1].append(g)
                continue
            candidates = [aid for aid in action_layers[i - 1]
                          if g in task.actions[aid].add]
            best_w = min(weight(aid) for aid in candidates)
            best = [aid for aid in candidates if weight(aid) == best_w]
            if tie_break is not None and len(best) > 1:
                choice = tie_break(task, g, best)
            else:
                choice = min(best)
            prev = selected_layer.get(choice)
            if prev is None or prev > i:
                if prev is not None:
                    if pulled is not None:
                        pulled.append(choice)
                    selected_at[prev].remove(choice)
                selected_layer[choice] = i
                selected_at[i].append(choice)
                added_at[i] |= task.actions[choice].add
                open_goals[i - 1].extend(sorted(task.actions[choice].pre))
    plan = [aid for i in range(1, m + 1) for aid in selected_at[i]]
    return len(plan), plan


# An open goal g at layer i is given an achiever only when g first appears at
# layer i, and every candidate applies at layer i-1 and adds g, so it first
# applies exactly at layer i-1.  Each action can thus be selected only at its
# first layer plus one, where its selection marks all its adds, and the
# reference's pull-forward branch never runs.
_NOTHING_PULLED_FORWARD = "a selection was pulled forward to a lower layer"


def _recording(pick):
    """A tie-break that logs every (goal, candidates) call it gets."""
    calls = []

    def tie_break(task, goal, candidates):
        calls.append((goal, list(candidates)))
        return pick(candidates)
    return tie_break, calls


def _assert_extraction_invariants(val, supp, plan):
    """Each action of an ``h_ff`` plan is distinct, and its first applicable
    layer plus 1 (the layer it was chosen at) never falls along the plan."""
    if plan is None:
        return
    assert len(set(plan.actions)) == len(plan.actions)
    chosen_at = [val[supp[aid]] + 1 for aid in plan.actions]
    assert chosen_at == sorted(chosen_at)


def _assert_matches_reference(t, s, pulled=None):
    val, supp = levels(t.tables, s)
    fact_layers, action_layers, first_level, goal_layer = _reference_rpg(t, s)
    m = _goal_layer(t, s)
    assert m == (INF if goal_layer is None else goal_layer)
    assert {f: v for f, v in enumerate(val[:t.tables.top])
            if v <= m and v < INF} == first_level
    assert fact_layers == [_fact_layer(t, val, i) for i in range(len(fact_layers))]
    assert action_layers == [[aid for aid, p in enumerate(supp) if p >= 0 and val[p] <= i]
                             for i in range(len(action_layers))]
    value, plan = h_ff(t, s)
    assert (value, plan and plan.actions) == _reference_h_ff(t, s, pulled=pulled)
    _assert_extraction_invariants(val, supp, plan)
    for pick in (min, max):
        lib_tb, lib_calls = _recording(pick)
        ref_tb, ref_calls = _recording(pick)
        value, plan = h_ff(t, s, tie_break=lib_tb)
        assert (value, plan and plan.actions) == _reference_h_ff(t, s, ref_tb, pulled)
        assert lib_calls == ref_calls
        _assert_extraction_invariants(val, supp, plan)
    return len(lib_calls)


class TestRpgFromLevels:
    """``levels`` and ``h_ff`` give the relaxed planning graph as the
    unit-cost h_max over the task's tables; it must equal the layer-by-layer
    definition."""

    def test_goal_in_state(self, transport_task):
        t = transport_task
        _assert_matches_reference(t, frozenset(t.goal) | frozenset(t.init))

    def test_unreachable_goal(self):
        t = make_task(["p", "q", "g"], [("a", [], ["q"], []),
                                        ("b", ["p"], ["g"], [])], [], ["g"])
        assert _goal_layer(t, frozenset()) == INF
        _assert_matches_reference(t, frozenset())

    def test_empty_goal(self):
        t = make_task(["p"], [("a", [], ["p"], [])], [], [])
        _assert_matches_reference(t, frozenset())
        assert _goal_layer(t, frozenset()) == 0
        assert h_ff(t, frozenset())[0] == 0
        assert h_plus(t, frozenset()) == h_plus_oracle(t, frozenset()) == 0

    def test_precondition_free_actions(self):
        t = make_task(["p", "q", "r", "g"], [
            ("free-p", [], ["p"], []), ("free-q", [], ["q", "p"], []),
            ("pq", ["p", "q"], ["r"], []), ("r", ["r"], ["g"], []),
            ("free-g", [], ["g"], ["p"])], [], ["g", "r"])
        _assert_matches_reference(t, frozenset())
        _assert_matches_reference(t, frozenset({t.fact_by_name["p"]}))

    def test_achiever_of_the_same_layer_is_no_candidate(self):
        # "b" adds g with a lighter weight than "a", but only from layer 2,
        # the layer g itself first appears in
        t = make_task(["p", "q", "r", "y", "g"], [
            ("init", [], ["p", "q", "r"], []), ("a", ["p", "q", "r"], ["g"], []),
            ("b", ["y"], ["g"], []), ("c", ["p"], ["y"], [])], [], ["g"])
        _assert_matches_reference(t, frozenset())
        value, plan = h_ff(t, frozenset())
        assert [t.actions[aid].name for aid in plan.actions] == ["init", "a"]

    def test_random_tasks(self):
        rng = random.Random(5)
        ties = unreachable = 0
        pulled = []
        for seed in range(400):
            t = random_task(seed)
            for _ in range(3):
                s = random_walk_state(t, rng)
                ties += _assert_matches_reference(t, s, pulled)
                unreachable += _goal_layer(t, s) == INF
        assert ties > 50 and unreachable > 50
        assert pulled == [], _NOTHING_PULLED_FORWARD

    @pytest.mark.parametrize("family,params", [
        ("blocksworld-arm-stack", {"n": 3}),
        ("gripper", {"balls": 3}),
    ])
    def test_whole_space(self, family, params):
        t = generate(GeneratorSpec(family, params, 0))
        pulled = []
        ties = sum(_assert_matches_reference(t, s, pulled) for s in reachable_states(t))
        assert ties > 0
        assert pulled == [], _NOTHING_PULLED_FORWARD


class TestHff:
    def test_default_tie_break_three_steps(self, shared_enabler_task):
        value, plan = h_ff(shared_enabler_task, frozenset())
        assert value == 3
        names = [shared_enabler_task.actions[a].name for a in plan.actions]
        assert names == ["op-p", "op-g1", "op-g2-p"]

    def test_adversarial_tie_break_four_steps(self, shared_enabler_task):
        t = shared_enabler_task
        prefer = t.action_by_name["op-g2-p2"]

        def adversarial(task, goal, candidates):
            return prefer if prefer in candidates else min(candidates)

        value, plan = h_ff(t, frozenset(), tie_break=adversarial)
        assert value == 4
        names = [t.actions[a].name for a in plan.actions]
        assert sorted(names) == ["op-g1", "op-g2-p2", "op-p", "op-p2"]

    def test_goal_state(self, transport_task):
        t = transport_task
        s = frozenset(t.goal) | frozenset(t.init)
        value, plan = h_ff(t, s)
        assert value == 0 and plan.actions == []

    def test_unreachable_returns_none_plan(self):
        t = make_task(["p", "g"], [("a", ["p"], ["g"], [])], [], ["g"])
        value, plan = h_ff(t, frozenset())
        assert value is INF and plan is None

    def test_plan_is_valid_relaxed_and_distinct(self):
        rng = random.Random(42)
        for seed in range(60):
            t = random_task(seed)
            s = random_walk_state(t, rng)
            value, plan = h_ff(t, s)
            if value == INF:
                continue
            assert len(plan.actions) == value
            assert len(set(plan.actions)) == len(plan.actions)
            assert validate_plan(t, [t.actions[a] for a in plan.actions],
                                 relaxed=True, start=s)


class TestGoalCount:
    def test_transport_init(self, transport_task):
        assert h_goalcount(transport_task, frozenset(transport_task.init)) == 2

    def test_goal_state(self, transport_task):
        t = transport_task
        assert h_goalcount(t, frozenset(t.goal)) == 0

    def test_hanoi_initial(self):
        t = generate(GeneratorSpec("hanoi", {"discs": 3}, 0))
        assert h_goalcount(t, frozenset(t.init)) == 1


@pytest.mark.parametrize("name", sorted(HEURISTICS))
def test_heuristic_entries_pickle(name, transport_task):
    h = HEURISTICS[name]
    s = frozenset(transport_task.init)
    assert pickle.loads(pickle.dumps(h))(transport_task, s) == h(transport_task, s)


@settings(max_examples=80, deadline=None)
@given(make=ORACLE_TASKS, seed=st.integers(0, 100_000),
       walk=st.integers(0, 100_000))
def test_h_plus_matches_oracle(make, seed, walk):
    t = make(seed)
    s = random_walk_state(t, random.Random(walk))
    assert h_plus(t, s) == h_plus_oracle(t, s)


@settings(max_examples=80, deadline=None)
@given(make=ORACLE_TASKS, seed=st.integers(0, 100_000),
       walk=st.integers(0, 100_000))
def test_h_plus_bounds_keep_the_value(make, seed, walk):
    t = make(seed)
    s = random_walk_state(t, random.Random(walk))
    hp = h_plus(t, s)
    for k in range(3):
        assert heuristics._h_plus(t, s, None, hp - k, ())[0] == hp


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000), walk=st.integers(0, 100_000))
def test_h_ff_dominates_h_plus_and_agrees_on_infinity(seed, walk):
    t = random_task(seed)
    s = random_walk_state(t, random.Random(walk))
    hp = h_plus(t, s)
    ff, plan = h_ff(t, s)
    if hp == INF:
        assert ff is INF and plan is None
    else:
        assert ff >= hp
        assert validate_plan(t, [t.actions[a] for a in plan.actions],
                             relaxed=True, start=s)


def _relaxed_reaches(task, s, aids):
    """Whether the actions ``aids``, in any order, reach the goal from s
    under the delete relaxation: plain passes until nothing is added."""
    state = set(s)
    changed = True
    while changed:
        changed = False
        for aid in aids:
            a = task.actions[aid]
            if a.pre <= state and not a.add <= state:
                state |= a.add
                changed = True
    return task.goal <= state


def _assert_pruned_plan(t, s, exact):
    """h_ff's plan from s less redundant actions is a relaxed plan from s,
    in plan order, from which no single action can be dropped, and no
    shorter than ``exact(t, s)``.  Returns how many were dropped."""
    ff, plan = h_ff(t, s)
    if plan is None:
        return 0
    pruned = _pruned_plan(t.tables, s, plan.actions)
    assert pruned == [a for a in plan.actions if a in pruned]
    assert _relaxed_reaches(t, s, pruned)
    for i in range(len(pruned)):
        assert not _relaxed_reaches(t, s, pruned[:i] + pruned[i + 1:])
    assert len(pruned) >= exact(t, s)
    return ff - len(pruned)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000), walk=st.integers(0, 100_000))
def test_pruned_plan_is_a_relaxed_plan_without_redundant_actions(seed, walk):
    t = random_task(seed)
    _assert_pruned_plan(t, random_walk_state(t, random.Random(walk)), h_plus_oracle)


@pytest.mark.parametrize("family,params", [
    ("blocksworld-arm-stack", {"n": 3}),
    ("gripper", {"balls": 3}),
])
def test_pruned_plan_on_whole_space(family, params):
    # random tasks rarely give h_ff a redundant action; these spaces do
    t = generate(GeneratorSpec(family, params, 0))
    dropped = [_assert_pruned_plan(t, s, h_plus) for s in reachable_states(t)]
    assert sum(d > 0 for d in dropped) >= 5


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), walk=st.integers(0, 100_000))
def test_zero_law(seed, walk):
    t = random_task(seed)
    s = random_walk_state(t, random.Random(walk))
    goal_holds = t.goal <= s
    assert (h_plus(t, s) == 0) == goal_holds
    assert (h_ff(t, s)[0] == 0) == goal_holds
    assert (h_goalcount(t, s) == 0) == goal_holds


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_single_achiever_tasks_extract_exactly(seed):
    t = random_single_achiever_task(seed)
    s = frozenset(t.init)
    assert h_ff(t, s)[0] == h_plus(t, s)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_unary_tasks_extract_exactly(seed):
    t = random_unary_task(seed)
    s = frozenset(t.init)
    assert h_ff(t, s)[0] == h_plus(t, s)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), walk=st.integers(0, 100_000))
def test_lower_bounds_are_admissible(seed, walk):
    t = random_task(seed)
    s = random_walk_state(t, random.Random(walk))
    exact = h_plus(t, s)
    goal_layer = _reference_rpg(t, s)[3]
    cuts = rounds(t.tables, s)
    # h_max and h+ are infinite together, and then there is no cut
    assert (goal_layer is None) == (exact == INF)
    if exact == INF:
        assert cuts == []
    else:
        assert goal_layer <= len(cuts) <= exact   # LM-cut dominates h_max


def oracle_sweep(seeds, states=40):
    """``_h_plus`` against the oracle under the bounds ``lower`` = 0 (as
    ``h_plus`` calls it), h-1 and h-2, on the first ``states`` reachable
    states, in sorted order, of the random, unary, single-achiever and
    shared-enabler tasks of each seed.  Returns how many states it
    checked."""
    checked = 0
    for make in (random_task, random_unary_task, random_single_achiever_task,
                 random_shared_enabler_task):
        for seed in seeds:
            t = make(seed)
            for s in sorted(reachable_states(t), key=sorted)[:states]:
                exact = h_plus_oracle(t, s)
                for lower in (0, exact - 1, exact - 2):
                    assert heuristics._h_plus(t, s, None, lower, ())[0] == exact, \
                        (make.__name__, seed, sorted(s), lower)
                checked += 1
    return checked


def test_h_plus_matches_oracle_on_a_deterministic_sweep(monkeypatch):
    # CI runs the same sweep over seeds 0-2,999; most of the landmarks the
    # hitting-set loop adds come from the shared-enabler tasks
    landmarks = _recorded_landmarks(monkeypatch)
    assert oracle_sweep(range(300)) > 12000
    assert sum(lm is not None for _, lm in landmarks) > 1000
