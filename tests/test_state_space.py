"""Exhaustive enumeration and topology classification."""

import math
import os
import threading
from collections import deque
from functools import cached_property

import pytest

from plantopo import heuristics
from plantopo.errors import PlantopoError, ResourceExhausted
from plantopo.generators import GeneratorSpec, generate
from plantopo.heuristics import HEURISTICS, INF, h_ff_value, h_plus
from plantopo.pddl import ground, parse_task
from plantopo.state_space import StateSpace, dead_end_class, enumerate_space, \
    exit_distance, exit_distances, export_dot, plateaus, topology_report
from plantopo.task_model import make_task

from conftest import random_task

H_PLUS = HEURISTICS["hplus"]
H_FF = HEURISTICS["hff"]


def space_of(domain, params, h=H_PLUS, seed=0, max_states=200_000):
    task = generate(GeneratorSpec(domain, params, seed))
    return task, enumerate_space(task, h, max_states)


class TestEnumerate:
    def test_transport_reachable_state_count(self, transport_task):
        # 2 vehicle positions x 3 positions for each of the 2 objects,
        # and every combination is reachable
        space = enumerate_space(transport_task, H_PLUS)
        assert len(space.states) == 18

    def test_init_is_state_zero(self, transport_task):
        space = enumerate_space(transport_task, H_PLUS)
        assert space.states[0] == frozenset(transport_task.init)
        assert space.index[frozenset(transport_task.init)] == 0

    def test_transitions_match_apply(self, transport_task):
        t = transport_task
        space = enumerate_space(t, H_PLUS)
        for sid, succs in enumerate(space.transitions):
            for aid, nid in succs:
                a = t.actions[aid]
                assert a.pre <= space.states[sid]
                expected = frozenset((space.states[sid] | a.add) - a.delete)
                assert space.states[nid] == expected

    def test_cap_raises(self, transport_task):
        with pytest.raises(ResourceExhausted):
            enumerate_space(transport_task, H_PLUS, max_states=3)

    def test_goal_init_space(self):
        t = make_task(["p"], [("a", ["p"], ["p"], [])], ["p"], ["p"])
        space = enumerate_space(t, H_PLUS)
        assert space.gd[0] == 0

    def test_gd_matches_forward_shortest_path(self):
        for seed in (1, 5, 12, 33):
            t = random_task(seed, max_facts=7, max_actions=8)
            space = enumerate_space(t, H_FF, max_states=20_000)
            # forward BFS from every state over the recorded transitions
            n = len(space.states)
            for sid in range(n):
                dist = {sid: 0}
                queue = deque([sid])
                found = INF
                while queue:
                    u = queue.popleft()
                    if t.goal <= space.states[u]:
                        found = dist[u]
                        break
                    for _, v in space.transitions[u]:
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            queue.append(v)
                assert space.gd[sid] == found


class TestDeadEndClass:
    def test_gripper_undirected(self):
        _, space = space_of("gripper", {"balls": 2})
        assert dead_end_class(space) == "Undirected"

    def test_tsp_harmless(self):
        _, space = space_of("simple-tsp", {"locations": 3})
        assert dead_end_class(space) == "Harmless"

    def test_single_goal_state_vacuously_undirected(self):
        t = make_task(["p"], [("a", ["p"], ["p"], [])], ["p"], ["p"])
        space = enumerate_space(t, H_PLUS)
        assert dead_end_class(space) == "Undirected"

    def test_two_way_edges_and_a_self_loop_are_undirected(self):
        t = make_task(["p", "q"], [("ab", ["p"], ["q"], ["p"]),
                                   ("ba", ["q"], ["p"], ["q"]),
                                   ("stay", ["p"], ["p"], [])], ["p"], ["q"])
        space = enumerate_space(t, H_FF)
        assert space.size == 2
        assert dead_end_class(space) == "Undirected"

    @pytest.mark.parametrize("actions, expected", [
        # p -> q has no way back, every state still reaches the goal
        ([("ab", ["p"], ["q"], ["p"]), ("fin", ["q"], ["g"], [])], "Harmless"),
        # the one-way trap p -> r ends where even the relaxation fails
        ([("go", ["p"], ["g"], ["p"]), ("trap", ["p"], ["r"], ["p"])],
         "Recognized"),
        # p -> q is a dead end whose relaxation still reaches g via r
        ([("go", ["p"], ["g"], ["p"]), ("step", ["p"], ["q"], ["p"]),
          ("mk", ["q"], ["r"], ["q"]), ("fin", ["q", "r"], ["g"], [])],
         "Unrecognized"),
    ], ids=["harmless", "recognized", "unrecognized"])
    def test_one_way_edge(self, actions, expected):
        t = make_task(["g", "p", "q", "r"], actions, ["p"], ["g"])
        space = enumerate_space(t, H_FF)
        edges = {(sid, nid) for sid, succs in enumerate(space.transitions)
                 for _, nid in succs}
        assert any((nid, sid) not in edges for sid, nid in edges)
        assert dead_end_class(space) == expected


class TestPlateaus:
    def test_hanoi_has_no_local_minima(self):
        _, space = space_of("hanoi", {"discs": 3})
        for p in plateaus(space):
            assert p.plateau_class in {"Bench", "Contour", "GlobalMinimum"}

    def test_goal_plateaus_are_global_minima(self, transport_task):
        space = enumerate_space(transport_task, H_PLUS)
        for p in plateaus(space):
            if p.level == 0:
                assert p.plateau_class == "GlobalMinimum"

    def test_blocksworld_held_state_on_local_minimum(self, held_arm_task):
        space = enumerate_space(held_arm_task, H_PLUS)
        init_sid = space.index[frozenset(held_arm_task.init)]
        assert space.h[init_sid] == 3
        plist = plateaus(space)
        mine = [p for p in plist if init_sid in p.member_state_ids]
        assert len(mine) == 1
        assert mine[0].level == 3
        assert mine[0].plateau_class == "LocalMinimum"

    def test_partition(self):
        for seed in (2, 7, 21):
            t = random_task(seed, max_facts=7, max_actions=8)
            space = enumerate_space(t, H_FF, max_states=20_000)
            seen = {}
            for p in plateaus(space):
                for sid in p.member_state_ids:
                    assert sid not in seen
                    seen[sid] = p.id
                    assert space.h[sid] == p.level
            assert len(seen) == len(space.states)

    def test_ids_go_up_with_the_level(self, random_spaces):
        for space in random_spaces[::10]:
            plist = plateaus(space)
            assert [p.id for p in plist] == list(range(len(plist)))
            assert [p.level for p in plist] == sorted(p.level for p in plist)


class TestExitDistance:
    def test_blocksworld_held_state(self, held_arm_task):
        space = enumerate_space(held_arm_task, H_PLUS)
        init_sid = space.index[frozenset(held_arm_task.init)]
        assert exit_distance(space, init_sid) == 2

    def test_zero_iff_exit(self):
        for seed in (3, 9):
            t = random_task(seed, max_facts=7, max_actions=8)
            space = enumerate_space(t, H_FF, max_states=20_000)
            for sid in range(len(space.states)):
                h = space.h[sid]
                if h == INF or h == 0:
                    continue
                is_exit = any(space.h[v] < h for _, v in space.transitions[sid])
                assert (exit_distance(space, sid) == 0) == is_exit

    @staticmethod
    def forward_exit_distance(space, sid):
        """Shortest path over all transitions from sid to a state at sid's
        level that has a strictly better successor; INF if there is none."""
        level = space.h[sid]
        dist = {sid: 0}
        queue = deque([sid])
        while queue:
            u = queue.popleft()
            if space.h[u] == level and any(space.h[v] < level
                                           for _, v in space.transitions[u]):
                return dist[u]
            for _, v in space.transitions[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return INF

    def check_against_forward_search(self, space):
        rep = topology_report(space)
        want = {sid: self.forward_exit_distance(space, sid)
                for p in rep.plateaus if p.plateau_class in ("LocalMinimum", "Bench")
                for sid in p.member_state_ids}
        assert rep.ed == want
        for cls, got in (("LocalMinimum", rep.mlmed), ("Bench", rep.mbed)):
            assert got == max((want[sid] for p in rep.plateaus if p.plateau_class == cls
                               for sid in p.member_state_ids), default=0)
        for sid in range(space.size):
            assert exit_distance(space, sid) == self.forward_exit_distance(space, sid)
        return want

    def test_report_matches_forward_search_on_random_tasks(self):
        distances = []
        for seed in range(30):
            t = random_task(seed, max_facts=7, max_actions=8)
            distances += self.check_against_forward_search(
                enumerate_space(t, H_FF, max_states=20_000)).values()
        assert INF in distances and any(0 < d < INF for d in distances)

    def test_report_matches_forward_search_on_gripper(self):
        _, space = space_of("gripper", {"balls": 3})
        assert any(d > 0 for d in self.check_against_forward_search(space).values())

    def test_exit_distances_per_level_match_exit_distance(self):
        spaces = [space_of("gripper", {"balls": 2})[1],
                  space_of("blocksworld-no-arm-stack", {"n": 3}, H_FF)[1]]
        spaces += [enumerate_space(random_task(seed, max_facts=7, max_actions=8),
                                   H_FF, max_states=20_000) for seed in range(10)]
        for space in spaces:
            for level in set(space.h):
                dist = exit_distances(space, level)
                assert len(dist) == space.size
                for sid in range(space.size):
                    if space.h[sid] == level:
                        assert dist[sid] == exit_distance(space, sid)
                    elif level not in space.exits:
                        assert dist[sid] == INF


class TestExits:
    def test_exits_are_the_states_with_a_better_successor(self):
        _, space = space_of("gripper", {"balls": 2}, H_FF)
        want = {}
        for sid in range(space.size):
            if any(space.h[nid] < space.h[sid] for _, nid in space.transitions[sid]):
                want.setdefault(space.h[sid], set()).add(sid)
        assert space.exits == want and 0 not in want

    def test_built_once_per_space(self, monkeypatch):
        builds = []
        build = StateSpace.exits.func
        counted = cached_property(lambda space: builds.append(space) or build(space))
        counted.__set_name__(StateSpace, "exits")
        monkeypatch.setattr(StateSpace, "exits", counted)
        _, space = space_of("gripper", {"balls": 2}, H_FF)
        _, other = space_of("simple-tsp", {"locations": 3}, H_FF)
        for s in (space, other):
            topology_report(s)
            plateaus(s)
            for level in set(s.h):
                exit_distances(s, level)
        assert builds == [space, other]

    def test_plateaus_distances_and_report_read_it(self):
        # with the exits emptied, every finite nonzero level is a local
        # minimum and no exit is reachable
        _, space = space_of("gripper", {"balls": 2}, H_FF)
        space.exits.clear()
        assert {p.plateau_class for p in plateaus(space)} == \
            {"LocalMinimum", "GlobalMinimum"}
        assert set(exit_distances(space, space.h[0])) == {INF}
        rep = topology_report(space)
        assert rep.mlmed == INF and rep.mbed == 0


class TestTopologyReport:
    def test_gripper_three_balls(self):
        _, space = space_of("gripper", {"balls": 3})
        rep = topology_report(space)
        assert rep.dead_end_class == "Undirected"
        assert rep.mlmed == 0
        assert rep.mbed <= 1

    def test_tsp_four_locations_exact(self):
        _, space = space_of("simple-tsp", {"locations": 4})
        rep = topology_report(space)
        assert rep.mlmed == 0 and rep.mbed == 0
        assert all(space.h[i] == space.gd[i] for i in range(len(space.states)))

    def test_tsp_two_locations_all_near_goal(self):
        _, space = space_of("simple-tsp", {"locations": 2})
        assert all(g is not INF and g <= 1 for g in space.gd)

    def test_no_arm_stack_fixture(self):
        task, space = space_of("blocksworld-no-arm-stack", {"n": 4})
        rep = topology_report(space)
        init_sid = space.index[frozenset(task.init)]
        assert rep.mlmed == 0
        assert space.h[init_sid] == 4
        # the nearest level-4 exit precedes the first strictly improving
        # state, which lies a full unstack-and-restack prefix of 4 steps away
        assert rep.ed[init_sid] == 3

    def test_unrecognized_dead_ends_force_infinite_mlmed(self):
        checked = 0
        for seed in range(40):
            t = random_task(seed, max_facts=7, max_actions=8)
            space = enumerate_space(t, H_FF, max_states=20_000)
            rep = topology_report(space)
            if rep.dead_end_class == "Unrecognized":
                checked += 1
                assert rep.mlmed is INF
                assert rep.unrecognized_dead_end_depths
        assert checked > 0


@pytest.fixture(scope="module")
def random_spaces():
    return [enumerate_space(random_task(seed), HEURISTICS[name], max_states=20_000)
            for name in ("hff", "goalcount") for seed in range(400)]


class TestSccPasses:
    """``plateaus`` and the unrecognized dead-end depths each come from one
    pass over the SCCs; compare them with a search from every SCC or state."""

    @staticmethod
    def flat_search_class(space, level, members):
        """The class of one plateau by a breadth-first search from its
        members over transitions that stay at its level."""
        if level == INF:
            return "RecognizedDeadEnd"
        if level == 0:
            return "GlobalMinimum"
        exits = {sid for sid in range(space.size) if space.h[sid] == level
                 and any(space.h[nid] < level for _, nid in space.transitions[sid])}
        seen = set(members)
        queue = deque(members)
        while queue:
            sid = queue.popleft()
            if sid in exits:
                return "Contour" if members <= exits else "Bench"
            for _, nid in space.transitions[sid]:
                if nid not in seen and space.h[nid] == level:
                    seen.add(nid)
                    queue.append(nid)
        return "LocalMinimum"

    def test_plateau_classes_match_flat_search(self, random_spaces):
        seen = set()
        for space in random_spaces:
            for p in plateaus(space):
                want = self.flat_search_class(space, p.level, p.member_state_ids)
                assert p.plateau_class == want
                seen.add(want)
        assert seen == {"RecognizedDeadEnd", "LocalMinimum", "Bench", "Contour",
                        "GlobalMinimum"}

    def test_unrecognized_depths_match_forward_search(self, random_spaces):
        deepest = 0
        for space in random_spaces:
            dead = {sid for sid in range(space.size)
                    if space.gd[sid] == INF and space.h[sid] != INF}
            want = {}
            for sid in dead:
                seen = {sid}
                queue = deque([sid])
                while queue:
                    for _, nid in space.transitions[queue.popleft()]:
                        if nid in dead and nid not in seen:
                            seen.add(nid)
                            queue.append(nid)
                want[sid] = len(seen)
            assert topology_report(space).unrecognized_dead_end_depths == want
            deepest = max([deepest, *want.values()])
        assert deepest > 2


# the unpatched functions, so that each check wraps them only once
_COUNTED = {name: getattr(heuristics, name) for name in ("_lower", "_hitting_set")}


def _work(name, result):
    """The work one call of a counted function did: one cut round (a
    ``_lower`` call), or the nodes of one hitting-set search."""
    return result[1] if name == "_hitting_set" else 1


class TestHPlusColumn:
    """Under ``h_plus`` itself, ``enumerate_space`` bounds each call below
    by the predecessors already evaluated and starts its root LM-cut from
    the cuts of one of them; any other callable is called plainly.  Both
    give the same column."""

    @staticmethod
    def check(task, monkeypatch):
        """Both columns of ``task`` agree; returns, per counted function of
        ``heuristics``, the work each column made as a (bounded, plain)
        pair.  ``_lower`` runs once per cut round, and once more per root
        that inherits cuts; ``_hitting_set`` (counted in search nodes) runs
        in the loop of each root that no bound closes.  The inherited
        landmarks never add nodes to a task's loop.  They can add rounds,
        since a root that inherits cuts and still reaches the loop runs its
        rounds once more without them."""
        counts = {name: [] for name in _COUNTED}
        for name, calls in counts.items():
            def counted(*args, _name=name, _calls=calls):
                result = _COUNTED[_name](*args)
                _calls[-1] += _work(_name, result)
                return result

            monkeypatch.setattr(heuristics, name, counted)
        plain_calls = []

        def wrapper(task, s):
            plain_calls.append(s)
            return h_plus(task, s)

        for calls in counts.values():
            calls.append(0)
        bounded = enumerate_space(task, h_plus)
        for calls in counts.values():
            calls.append(0)
        plain = enumerate_space(task, wrapper)
        assert plain_calls == plain.states   # one plain call per state, in id order
        assert bounded.states == plain.states
        assert bounded.h == plain.h
        b, p = counts["_hitting_set"]
        assert b <= p
        return counts

    def test_random_tasks(self, monkeypatch):
        totals = {name: [0, 0] for name in _COUNTED}
        for seed in range(400):
            for name, (b, p) in self.check(random_task(seed), monkeypatch).items():
                totals[name][0] += b
                totals[name][1] += p
        for bounded, plain in totals.values():
            assert bounded < plain

    @pytest.mark.parametrize("family,params,seed", [
        ("blocksworld-arm-stack", {"n": 4}, 0),
        ("blocksworld-no-arm-stack", {"n": 3}, 0),
        ("gripper", {"balls": 4}, 0),
        ("tireworld", {"tires": 1}, 0),
        ("hanoi", {"discs": 4}, 0),
        ("ferry", {"cars": 3}, 0),
        ("ferry", {"cars": 3}, 7),
    ])
    def test_topology_families(self, family, params, seed, monkeypatch):
        counts = self.check(generate(GeneratorSpec(family, params, seed)),
                            monkeypatch)
        if family in ("blocksworld-arm-stack", "tireworld"):
            # inherited cuts leave few rounds to compute: 871 against
            # 6,028 plain on arm-stack, and 465 against 8,256 on tireworld,
            # where most roots also close on the predecessor bound
            bounded, plain = counts["_lower"]
            assert 5 * bounded < plain
        if family == "gripper":
            # the bounds also close loops: 148 hitting-set nodes against
            # 778 plain
            bounded, plain = counts["_hitting_set"]
            assert bounded < plain


TWO_CPUS = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the h_ff column forks only where the process may run on two CPUs")


def _counted_forks(monkeypatch):
    """The list that gets one entry per ``os.fork`` call from here on."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(heuristics.os, "fork", counted)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestHffColumn:
    """Under ``h_ff_value`` itself, ``enumerate_space`` evaluates the second
    half of a space of at least ``heuristics.FORK_MIN_STATES`` states in one
    forked child, and any other callable plainly.  Both give the per-state
    values, ``INF`` objects included, and no child outlives the call."""

    @TWO_CPUS
    def test_large_space_forks_once(self, monkeypatch):
        forks = _counted_forks(monkeypatch)
        cpus = os.sched_getaffinity(0)
        t = generate(GeneratorSpec("blocksworld-no-arm-stack", {"n": 5}, 0))
        space = enumerate_space(t, H_FF)
        assert space.size == 4051 >= heuristics.FORK_MIN_STATES
        assert len(forks) == 1
        assert space.h == [h_ff_value(t, s) for s in space.states]
        assert os.sched_getaffinity(0) == cpus
        _assert_no_child_left()

    @pytest.mark.parametrize("case", ["small-space", "wrapper", "second-thread"])
    def test_serial_column(self, case, monkeypatch):
        t = generate(GeneratorSpec("blocksworld-no-arm-stack", {"n": 4}, 0))
        forks = _counted_forks(monkeypatch)
        if case != "small-space":
            monkeypatch.setattr(heuristics, "FORK_MIN_STATES", 2)
        if case == "second-thread":
            release = threading.Event()
            waiter = threading.Thread(target=release.wait)
            waiter.start()
            try:
                space = enumerate_space(t, H_FF)
            finally:
                release.set()
                waiter.join(timeout=10)
            assert not waiter.is_alive()
        elif case == "wrapper":
            space = enumerate_space(t, lambda task, s: h_ff_value(task, s))
        else:
            space = enumerate_space(t, H_FF)
        if case == "small-space":
            assert space.size == 501 < heuristics.FORK_MIN_STATES
        assert space.h == [h_ff_value(t, s) for s in space.states]
        assert forks == []

    @TWO_CPUS
    def test_unsolvable_values_are_the_module_inf(self, monkeypatch):
        monkeypatch.setattr(heuristics, "FORK_MIN_STATES", 2)
        forks = _counted_forks(monkeypatch)
        for seed in (0, 30):        # unsolvable states in both halves
            t = random_task(seed)
            space = enumerate_space(t, H_FF)
            plain = [h_ff_value(t, s) for s in space.states]
            half = space.size // 2
            assert INF in plain[:half] and INF in plain[half:]
            assert space.h == plain
            assert [v is INF for v in space.h] == [v == INF for v in plain]
        assert len(forks) == 2
        _assert_no_child_left()

    @TWO_CPUS
    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_a_failing_half_leaves_no_child(self, failing, monkeypatch):
        t = generate(GeneratorSpec("blocksworld-no-arm-stack", {"n": 4}, 0))
        monkeypatch.setattr(heuristics, "FORK_MIN_STATES", 2)
        cpus = os.sched_getaffinity(0)
        pid = os.getpid()
        levels = heuristics.levels

        def broken(tables, s):
            if (os.getpid() != pid) == (failing == "child"):
                raise RuntimeError("broken levels")
            return levels(tables, s)

        monkeypatch.setattr(heuristics, "levels", broken)
        with pytest.raises(PlantopoError if failing == "child" else RuntimeError):
            enumerate_space(t, H_FF)
        assert os.sched_getaffinity(0) == cpus
        _assert_no_child_left()


class TestInfinity:
    def test_math_inf_heuristic_gives_the_stock_topology(self, detour_task):
        def h_math_inf(task, s):
            v = H_FF(task, s)
            return math.inf if v == INF else v

        stock = enumerate_space(detour_task, H_FF)
        other = enumerate_space(detour_task, h_math_inf)
        assert INF in stock.h and any(v is math.inf for v in other.h)
        a, b = topology_report(stock), topology_report(other)
        assert dead_end_class(other) == dead_end_class(stock) == "Recognized"
        assert [(p.level, p.member_state_ids, p.plateau_class) for p in b.plateaus] \
            == [(p.level, p.member_state_ids, p.plateau_class) for p in a.plateaus]
        assert (b.mlmed, b.mbed, b.ed) == (a.mlmed, a.mbed, a.ed)


class TestExportDot:
    def test_single_state_space(self):
        t = make_task(["p"], [("a", ["p"], ["p"], [])], ["p"], ["p"])
        space = enumerate_space(t, H_PLUS)
        text = export_dot(space)
        assert text.startswith("digraph")
        assert "rank" in text

    def test_action_names_are_escaped_in_labels(self):
        # the PDDL tokenizer takes any run of characters other than
        # whitespace, parentheses and ";" as a name, quotes included
        domain = """(define (domain d) (:predicates (at ?x))
          (:action mv :parameters (?a ?b) :precondition (at ?a)
           :effect (and (at ?b) (not (at ?a)))))"""
        problem = r"""(define (problem p) (:domain d)
          (:objects a"b c\d) (:init (at a"b)) (:goal (at c\d)))"""
        t = ground(parse_task(domain, problem))
        text = export_dot(enumerate_space(t, H_FF))
        assert r'[label="mv(a\"b,c\\d)"];' in text
        assert r'[label="mv(c\\d,a\"b)"];' in text
        # outside the escapes, every label's quotes pair up
        for line in text.splitlines():
            assert line.replace('\\\\', "").replace('\\"', "").count('"') % 2 == 0

    def test_levels_share_ranks(self):
        _, space = space_of("gripper", {"balls": 1})
        text = export_dot(space)
        levels = {v for v in space.h if v != INF}
        assert text.count("rank=same") == len(levels)

    def test_deterministic(self, held_arm_task):
        a = export_dot(enumerate_space(held_arm_task, H_PLUS))
        b = export_dot(enumerate_space(held_arm_task, H_PLUS))
        assert a == b
        assert '"s0' in a or "s0" in a
