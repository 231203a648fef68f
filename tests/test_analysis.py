"""Static analysis: mutexes, action properties, regression-tree conflicts,
verdicts, and the space-backed validators."""

import dataclasses
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from plantopo import analysis
from plantopo.analysis import CONFLICT_ALLIED, CONFLICT_GOAL_DELETE, \
    Conflict, UNKNOWN, VERDICT_HPLUS_EQUALS_GD, \
    VERDICT_HPLUS_EQUALS_GD_VIA_REPAIRS, VERDICT_NO_LOCAL_MINIMA, \
    action_flags, analyze_task, build_fgt, check_lemmas, compute_mutexes, \
    find_conflicts, interaction_free_verdict, no_local_minima_criterion, \
    repairable, validate_respected, validate_rp_irrelevant_deletes
from plantopo.analysis import _deletion_pairs
from plantopo.errors import PreconditionViolated, Truncated
from plantopo.generators import GeneratorSpec, generate
from plantopo.heuristics import HEURISTICS, INF, h_plus
from plantopo.state_space import dead_end_class, enumerate_space, plateaus
from plantopo.task_model import apply_sequence, make_task

from conftest import random_task, reachable_states

H_PLUS = HEURISTICS["hplus"]


def _tree_test_tasks():
    """random_task seeds 0-399 and the named families; hanoi discs=3 and
    random_task(12) are trees whose ancestor conflicts come out in another
    order when a deleter's facts are visited in ascending id order rather
    than in the order of its delete set."""
    return ([random_task(seed, max_facts=7, max_actions=8)
             for seed in range(400)] + [random_task(12)]
            + [generate(GeneratorSpec(domain, params, 0)) for domain, params
               in (("movie", {}), ("road-graph", {}), ("toll-road-graph", {}),
                   ("transport-swap", {}), ("gripper", {"balls": 3}),
                   ("simple-tsp", {"locations": 5}), ("hanoi", {"discs": 3}))])


def _root_path(fgt, n):
    """n and its ancestors, n first."""
    path = [n]
    while fgt.parents[n] is not None:
        n = fgt.parents[n]
        path.append(n)
    return path


def _tree_by_definition(task):
    """(kinds, labels, parents, children) of the regression tree built
    recursively, in pre-order, from the two pruning rules of the ``Fgt``
    docstring alone."""
    kinds, labels, parents, children = [], [], [], []

    def node(kind, label, parent):
        nid = len(kinds)
        kinds.append(kind)
        labels.append(label)
        parents.append(parent)
        children.append([])
        if parent is not None:
            children[parent].append(nid)
        return nid

    def action(label, parent, facts_above, required_above):
        nid = node('A', label, parent)
        pre = task.goal if label is None else task.actions[label].pre
        # rule 2: a fact some action strictly above requires is not reopened
        for p in sorted(pre - required_above):
            fact(p, nid, facts_above, required_above | pre)

    def fact(label, parent, facts_above, required_above):
        nid = node('F', label, parent)
        on_path = facts_above | {label}
        for a in task.actions:
            # rule 1: no achiever needing a fact that labels the root path
            if label in a.add and not a.pre & on_path:
                action(a.id, nid, on_path, required_above)

    action(None, None, frozenset(), frozenset())
    return kinds, labels, parents, children


def _lca_by_ancestor_sets(fgt):
    """Lowest common ancestor from parents alone: the deepest node of the
    intersection of both ancestor sets."""
    ancestors = [frozenset(_root_path(fgt, n)) for n in range(fgt.size)]

    def lca(u, v):
        return max(ancestors[u] & ancestors[v], key=lambda n: len(ancestors[n]))

    return lca


def _ancestor_conflicts_by_paths(fgt, task):
    """(deleter d, ancestor a, fact f) for each action node d in depth-first
    order, each fact f it deletes and each action node a above it whose
    precondition (the goal, for the root) holds f, where no action strictly
    between them adds f and the two labels differ."""
    def pre(n):
        label = fgt.labels[n]
        return task.goal if label is None else task.actions[label].pre

    found = []
    for d in range(1, fgt.size):
        if fgt.kinds[d] != 'A':
            continue
        above = [n for n in reversed(_root_path(fgt, d)[1:])
                 if fgt.kinds[n] == 'A']          # root first
        label = fgt.labels[d]
        for f in task.actions[label].delete:
            for i, a in enumerate(above):
                if (f in pre(a) and fgt.labels[a] != label
                        and not any(f in task.actions[fgt.labels[b]].add
                                    for b in above[i + 1:])):
                    found.append((d, a, f))
    return found


def _chain_task(n):
    """One step action per edge of the path o0 -> ... -> on; the goal is
    at(on)."""
    facts = [f"at(o{i})" for i in range(n + 1)]
    steps = [(f"step(o{i},o{i + 1})", [facts[i]], [facts[i + 1]], [facts[i]])
             for i in range(n)]
    return make_task(facts, steps, [facts[0]], [facts[n]], name=f"chain-{n}")


def _all_pairs_action_flags(task, mx):
    """``action_flags`` as a plain search: every action is tried as the
    witness of every other, in id order."""
    def inconsistent(f, facts):
        return any(mx.inconsistent(f, g) for g in facts)

    flags = []
    for a in task.actions:
        after = (a.pre | a.add) - a.delete
        inv = ali = None
        for b in task.actions:
            if not b.pre <= after:
                continue
            if (inv is None and a.delete <= a.pre
                    and all(inconsistent(f, a.pre) for f in a.add)
                    and b.add == a.delete and b.delete == a.add):
                inv = b.id
            if (ali is None and b.add >= a.delete
                    and all(inconsistent(f, a.pre) for f in b.delete)):
                ali = b.id
        static_add = not any(a.add & b.delete for b in task.actions)
        relevant = any(f in task.goal or any(f in b.pre for b in task.actions
                                             if b is not a)
                       for f in a.delete)
        flags.append(analysis.ActionFlags(a.id, inv, ali, static_add, relevant))
    return flags


def _nodes_by_label(fgt):
    nodes_of = {}
    for nid in range(1, fgt.size):
        nodes_of.setdefault((fgt.kinds[nid], fgt.labels[nid]), []).append(nid)
    return nodes_of


def _reference_mutexes(task):
    """The pairwise reachability fixpoint written out plainly: repeated
    passes over all actions, each add fact tried against every reachable
    fact, until a pass changes nothing.  Returns (pairs, facts)."""
    facts_r = set(task.init)
    pairs_r = {frozenset((p, q)) for p in task.init for q in task.init if p != q}

    def pre_ok(a):
        if not all(f in facts_r for f in a.pre):
            return False
        pre = sorted(a.pre)
        for i, p in enumerate(pre):
            for q in pre[i + 1:]:
                if frozenset((p, q)) not in pairs_r:
                    return False
        return True

    changed = True
    while changed:
        changed = False
        for a in task.actions:
            if not pre_ok(a):
                continue
            add = sorted(a.add)
            for i, p in enumerate(add):
                if p not in facts_r:
                    facts_r.add(p)
                    changed = True
                for q in add[i + 1:]:
                    pair = frozenset((p, q))
                    if pair not in pairs_r:
                        pairs_r.add(pair)
                        changed = True
                for q in list(facts_r):
                    if q == p or q in a.delete or q in a.add:
                        continue
                    pair = frozenset((p, q))
                    if pair in pairs_r:
                        continue
                    if all(frozenset((q, r)) in pairs_r for r in a.pre if r != q):
                        pairs_r.add(pair)
                        changed = True
    return pairs_r, facts_r


class TestMutexes:
    def test_matches_the_plain_fixpoint(self):
        tasks = [generate(GeneratorSpec(family, params, 0)) for family, params in [
            ("logistics", {"cities": 2, "size": 2, "packages": 2}),
            ("simple-tsp", {"locations": 4}),
            ("blocksworld-arm-stack", {"n": 4}),
            ("gripper", {"balls": 3}),
            ("tireworld", {"tires": 1}),
        ]]
        # each step deletes its one precondition, so every fact after the
        # first is reached with no partner at all
        tasks.append(_chain_task(40))
        for seed in range(300):
            tasks += [random_task(seed), random_task(seed, max_facts=16, max_actions=24)]
        for t in tasks:
            mx = compute_mutexes(t)
            pairs = [(p, q) for p, qs in enumerate(mx.partners) for q in qs]
            assert all(p in mx.partners[q] for p, q in pairs)     # symmetric
            assert ({frozenset(pair) for pair in pairs}, mx.reachable_facts) == \
                _reference_mutexes(t)

    def test_transport_vehicle_position(self, transport_task):
        t = transport_task
        mx = compute_mutexes(t)
        assert mx.inconsistent(t.fact_by_name["at(v,l1)"],
                               t.fact_by_name["at(v,l2)"])

    def test_transport_objects_compatible(self, transport_task):
        t = transport_task
        mx = compute_mutexes(t)
        assert not mx.inconsistent(t.fact_by_name["at(o1,l1)"],
                                   t.fact_by_name["at(o2,l2)"])

    def test_transport_carried_object(self, transport_task):
        t = transport_task
        mx = compute_mutexes(t)
        assert mx.inconsistent(t.fact_by_name["at(o1,l1)"],
                               t.fact_by_name["in(o1,v)"])

    def test_sound_against_exhaustive_reachability(self):
        for seed in range(30):
            t = random_task(seed, max_facts=7, max_actions=8)
            mx = compute_mutexes(t)
            for s in reachable_states(t, cap=20_000):
                facts = sorted(s)
                for i, p in enumerate(facts):
                    for q in facts[i + 1:]:
                        assert not mx.inconsistent(p, q)


class TestActionFlags:
    def test_transport_move_invertible(self, transport_task):
        t = transport_task
        flags = action_flags(t, compute_mutexes(t))
        move = t.action_by_name["move(v,l1,l2)"]
        back = t.action_by_name["move(v,l2,l1)"]
        assert flags[move].invertible == back
        assert flags[move].at_least_invertible is not None

    def test_tsp_move_only_at_least_invertible(self):
        t = generate(GeneratorSpec("simple-tsp", {"locations": 3}, 0))
        flags = action_flags(t, compute_mutexes(t))
        mv = flags[t.action_by_name["move(loc0,loc1)"]]
        assert mv.invertible is None
        assert mv.at_least_invertible == t.action_by_name["move(loc1,loc0)"]

    def test_tireworld_inflate(self):
        t = generate(GeneratorSpec("tireworld", {"tires": 1}, 0))
        flags = action_flags(t, compute_mutexes(t))
        inflate = flags[t.action_by_name["inflate(spare1)"]]
        assert inflate.static_add_effects
        assert not inflate.relevant_delete_effects

    def test_matches_the_all_pairs_search(self):
        tasks = [random_task(seed, max_facts=5) for seed in range(300)]
        tasks += [generate(GeneratorSpec(family, params, 0)) for family, params in [
            ("gripper", {"balls": 2}), ("simple-tsp", {"locations": 3}),
            ("transport-swap", {}), ("movie", {}), ("tireworld", {"tires": 1}),
            ("blocksworld-arm", {"blocks": 3}),
            ("ferry", {"cars": 2, "locations": 3})]]
        tasks.append(_chain_task(300))
        witnesses = [0, 0]
        for t in tasks:
            mx = compute_mutexes(t)
            flags = action_flags(t, mx)
            assert flags == _all_pairs_action_flags(t, mx)
            witnesses[0] += sum(f.invertible is not None for f in flags)
            witnesses[1] += sum(f.invertible != f.at_least_invertible for f in flags)
        assert min(witnesses) > 50

    def test_first_applicable_inverse_in_id_order(self):
        # three actions undo "go"; the first needs r, which never holds after
        # it, and the other two apply right after it
        t = make_task(["p", "q", "r"], [
            ("go", ["p"], ["q"], ["p"]), ("back-r", ["r"], ["p"], ["q"]),
            ("back", ["q"], ["p"], ["q"]), ("back-too", ["q"], ["p"], ["q"])],
            ["p"], ["q"])
        mx = compute_mutexes(t)
        flags = action_flags(t, mx)
        assert flags == _all_pairs_action_flags(t, mx)
        back = t.action_by_name["back"]
        go = flags[t.action_by_name["go"]]
        assert go.invertible == go.at_least_invertible == back

    def test_invertible_implies_at_least_invertible(self):
        for seed in range(30):
            t = random_task(seed)
            for f in action_flags(t, compute_mutexes(t)):
                if f.invertible is not None:
                    assert f.at_least_invertible is not None


class TestCheckLemmas:
    def test_gripper_fully_invertible(self):
        t = generate(GeneratorSpec("gripper", {"balls": 2}, 0))
        assert check_lemmas(t).lemma1

    def test_movie_harmless_effects(self):
        t = generate(GeneratorSpec("movie", {}, 0))
        rep = check_lemmas(t)
        assert not rep.lemma1
        assert rep.lemma2

    def test_plain_graph_single_preconditions(self, graph_task):
        rep = check_lemmas(graph_task)
        assert rep.prop3 and rep.prop4

    def test_transport_fails_structural_props(self, transport_task):
        rep = check_lemmas(transport_task)
        assert not rep.prop2 and not rep.prop3 and not rep.prop4


class TestBuildFgt:
    def node_of(self, fgt, task, kind, name):
        table = task.action_by_name if kind == 'A' else task.fact_by_name
        return [n for n in range(1, fgt.size)
                if fgt.kinds[n] == kind and fgt.labels[n] == table[name]]

    def test_toll_graph_shape(self, toll_graph_task):
        t = toll_graph_task
        fgt = build_fgt(t)
        # single goal fact under the root, single achiever below it
        assert [fgt.labels[c] for c in fgt.children[0]] == \
            [t.fact_by_name["at(e)"]]
        mvde = self.node_of(fgt, t, 'A', "mv-d-e")
        assert len(mvde) == 1
        child_facts = {fgt.labels[c] for c in fgt.children[mvde[0]]}
        assert child_facts == {t.fact_by_name["at(d)"],
                               t.fact_by_name["toll-token"]}
        # rule 1: the move back from e never appears below at(e)
        assert self.node_of(fgt, t, 'A', "mv(e,d)") == []
        # rule 2: at(d) is not re-opened below the token purchase
        mvdc = self.node_of(fgt, t, 'A', "mv-d-c")
        assert len(mvdc) == 1
        assert all(fgt.labels[c] != t.fact_by_name["at(d)"]
                   for c in fgt.children[mvdc[0]])
        assert not fgt.truncated

    def test_detour_task_omits_the_restoring_action(self, detour_task):
        t = detour_task
        fgt = build_fgt(t)
        opp = t.action_by_name["opp"]
        assert all(not (fgt.kinds[n] == 'A' and fgt.labels[n] == opp)
                   for n in range(1, fgt.size))

    def test_empty_goal(self):
        t = make_task(["p"], [("a", [], ["p"], [])], [], [])
        fgt = build_fgt(t)
        assert fgt.size == 1 and fgt.children[0] == []

    def test_cap_sets_truncation(self, transport_task):
        fgt = build_fgt(transport_task, node_cap=4)
        assert fgt.truncated

    def test_shape_follows_the_pruning_rules(self):
        for t in _tree_test_tasks():
            fgt = build_fgt(t)
            assert (fgt.kinds, fgt.labels, fgt.parents, fgt.children) == \
                _tree_by_definition(t), t.name
            assert not fgt.truncated, t.name

    def test_cap_keeps_a_preorder_prefix(self):
        for t in _tree_test_tasks():
            full = build_fgt(t)
            for k in {1, 2, 10, full.size // 2, full.size - 1, full.size,
                      full.size + 1}:
                if k < 1:
                    continue
                fgt = build_fgt(t, node_cap=k)
                n = min(k, full.size)
                assert fgt.truncated == (full.size > k), (t.name, k)
                assert (fgt.kinds, fgt.labels, fgt.parents) == \
                    (full.kinds[:n], full.labels[:n], full.parents[:n]), \
                    (t.name, k)
                assert fgt.children == [[c for c in cs if c < n]
                                        for cs in full.children[:n]], (t.name, k)
                assert fgt.ends == [min(e, n) for e in full.ends[:n]], (t.name, k)
                assert fgt.ancestor_conflicts == \
                    [c for c in full.ancestor_conflicts if c[0] < n], (t.name, k)

    def test_indexes_match_the_tree(self):
        for t in _tree_test_tasks():
            fgt = build_fgt(t)
            # each subtree is the id range n .. ends[n] - 1
            ends = list(range(1, fgt.size + 1))
            for m in range(fgt.size):
                for n in _root_path(fgt, m):
                    ends[n] = max(ends[n], m + 1)
            assert fgt.ends == ends, t.name
            assert fgt.nodes_of == _nodes_by_label(fgt), t.name
            assert fgt.ancestor_conflicts == \
                _ancestor_conflicts_by_paths(fgt, t), t.name
            # every pair on small trees, a spread of nodes on large ones
            sample = range(0, fgt.size, max(1, fgt.size // 100))
            lca = _lca_by_ancestor_sets(fgt)
            for u in sample:
                for v in sample:
                    assert fgt.lca(u, v) == lca(u, v), (t.name, u, v)

    def test_no_action_appears_below_itself(self):
        # so an ancestor conflict never pairs an action with itself
        pairs = 0
        for t in _tree_test_tasks() + [
                generate(GeneratorSpec("blocksworld-arm", {}, 0)),
                generate(GeneratorSpec("logistics", {}, 0))]:
            fgt = build_fgt(t)
            for n in range(1, fgt.size):
                if fgt.kinds[n] == 'A':
                    below = [m for m in range(n + 1, fgt.ends[n])
                             if fgt.kinds[m] == 'A']
                    pairs += len(below)
                    assert all(fgt.labels[m] != fgt.labels[n] for m in below), t.name
            assert all(fgt.labels[d] != fgt.labels[a]
                       for d, a, _ in fgt.ancestor_conflicts), t.name
        assert pairs > 10_000


class TestFindConflicts:
    def test_toll_graph_single_allied_conflict(self, toll_graph_task):
        t = toll_graph_task
        conflicts = find_conflicts(build_fgt(t), t)
        assert len(conflicts) == 1
        c = conflicts[0]
        assert c.kind == CONFLICT_ALLIED
        assert set(c.action_ids) == {t.action_by_name["mv-d-c"],
                                     t.action_by_name["mv-d-e"]}
        assert c.fact == t.fact_by_name["at(d)"]
        assert c.repairable is False

    def test_tsp_conflicts_all_repairable(self):
        t = generate(GeneratorSpec("simple-tsp", {"locations": 3}, 0))
        conflicts = find_conflicts(build_fgt(t), t)
        assert conflicts
        assert all(c.kind == CONFLICT_ALLIED and c.repairable is True
                   for c in conflicts)

    def test_plain_graph_conflict_free(self, graph_task):
        assert find_conflicts(build_fgt(graph_task), graph_task) == []

    def test_truncated_tree_rejected(self, transport_task):
        fgt = build_fgt(transport_task, node_cap=4)
        with pytest.raises(Truncated):
            find_conflicts(fgt, transport_task)

    def test_deletion_pairs_match_all_pairs(self):
        for t in _tree_test_tasks():
            want = [(a.id, b.id) for a in t.actions for b in t.actions
                    if a.id < b.id and (a.delete & b.pre or b.delete & a.pre)]
            assert _deletion_pairs(t) == want


class TestRepairable:
    def test_tsp_witness_exists(self):
        t = generate(GeneratorSpec("simple-tsp", {"locations": 3}, 0))
        a = t.action_by_name["move(loc0,loc1)"]
        b = t.action_by_name["move(loc0,loc2)"]
        c = Conflict(CONFLICT_ALLIED, (1, 2), (a, b),
                     t.fact_by_name["at(loc0)"])
        assert repairable(c, t) is True

    def test_toll_graph_has_no_substitute(self, toll_graph_task):
        t = toll_graph_task
        c = Conflict(CONFLICT_ALLIED, (1, 2),
                     (t.action_by_name["mv-d-c"], t.action_by_name["mv-d-e"]),
                     t.fact_by_name["at(d)"])
        assert repairable(c, t) is False

    def test_other_kinds_stay_unknown(self, toll_graph_task):
        t = toll_graph_task
        c = Conflict(CONFLICT_GOAL_DELETE, (1,),
                     (t.action_by_name["mv-d-c"],), t.fact_by_name["at(d)"])
        assert repairable(c, t) is UNKNOWN


class TestInteractionFreeVerdict:
    def test_plain_graph_exact(self, graph_task):
        assert interaction_free_verdict(graph_task) == VERDICT_HPLUS_EQUALS_GD

    def test_tsp_exact_via_repairs(self):
        for n in (3, 4, 5, 6):
            t = generate(GeneratorSpec("simple-tsp", {"locations": n}, 0))
            assert interaction_free_verdict(t) == \
                VERDICT_HPLUS_EQUALS_GD_VIA_REPAIRS

    def test_toll_graph_unknown(self, toll_graph_task):
        assert interaction_free_verdict(toll_graph_task) == UNKNOWN

    def test_agrees_with_explicit_tree(self):
        # the virtual traversal may only be more cautious than the explicit
        # tree, never more permissive
        positives = 0
        for seed in range(60):
            t = random_task(seed, max_facts=7, max_actions=8)
            verdict = interaction_free_verdict(t)
            fgt = build_fgt(t)
            if fgt.truncated:
                continue
            conflicts = find_conflicts(fgt, t)
            if not conflicts:
                explicit = VERDICT_HPLUS_EQUALS_GD
            elif all(c.kind == CONFLICT_ALLIED and c.repairable is True
                     for c in conflicts):
                explicit = VERDICT_HPLUS_EQUALS_GD_VIA_REPAIRS
            else:
                explicit = UNKNOWN
            assert verdict in (explicit, UNKNOWN)
            if verdict != UNKNOWN:
                positives += 1
        assert positives > 0


class TestNoLocalMinimaCriterion:
    def test_movie(self):
        t = generate(GeneratorSpec("movie", {}, 0))
        assert no_local_minima_criterion(t) == VERDICT_NO_LOCAL_MINIMA

    def test_single_city_logistics(self):
        t = generate(GeneratorSpec(
            "logistics",
            {"cities": 1, "size": 2, "packages": 1}, 0))
        assert no_local_minima_criterion(t) == VERDICT_NO_LOCAL_MINIMA

    def test_toll_graph_unknown(self, toll_graph_task):
        assert no_local_minima_criterion(toll_graph_task) == UNKNOWN

    def test_streaming_scan_matches_eager_reference(self):
        verdicts = set()
        for t in _tree_test_tasks():
            verdict = no_local_minima_criterion(t)
            assert verdict == _eager_no_local_minima(t), t.name
            verdicts.add(verdict)
        assert verdicts == {UNKNOWN, VERDICT_NO_LOCAL_MINIMA}

    def test_tsp6_scan_stays_small_in_memory(self):
        t = generate(GeneratorSpec("simple-tsp", {"locations": 6}, 0))
        tracemalloc.start()
        try:
            verdict = no_local_minima_criterion(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict == UNKNOWN
        assert peak < 32 * 2**20


def _eager_no_local_minima(task):
    """The criterion as a full list-building scan: for each action, every
    conflict instance of the pruned tree is collected before any candidate
    leaf is checked against it."""
    if any(f.at_least_invertible is None
           for f in action_flags(task, compute_mutexes(task))):
        return UNKNOWN
    fgt = build_fgt(task)
    if fgt.truncated:
        return UNKNOWN
    lca = _lca_by_ancestor_sets(fgt)
    nodes_of = _nodes_by_label(fgt)

    def compatible_leaf(nf, conflict_nodes):
        for n in conflict_nodes:
            w = lca(nf, n)
            if w == nf or (w != n and fgt.kinds[w] != 'A'):
                return False
        return True

    for a in task.actions:
        if not a.delete:
            continue
        excluded = [False] * fgt.size
        for nid in range(1, fgt.size):
            excluded[nid] = excluded[fgt.parents[nid]] or (
                fgt.kinds[nid] == 'A' and fgt.labels[nid] == a.id)
        candidates = [nid for f in sorted(a.delete)
                      for nid in nodes_of.get(('F', f), ())
                      if not excluded[nid]]
        instances = [(d, anc) for d, anc, _ in fgt.ancestor_conflicts
                     if not excluded[d]]
        for aid, bid in _deletion_pairs(task):
            instances += [
                (n1, n2) for n1 in nodes_of.get(('A', aid), ())
                for n2 in nodes_of.get(('A', bid), ())
                if not (excluded[n1] or excluded[n2])
                and lca(n1, n2) not in (n1, n2)
                and fgt.kinds[lca(n1, n2)] == 'A']
        if any(compatible_leaf(nf, nodes)
               for nodes in instances for nf in candidates):
            return UNKNOWN
    return VERDICT_NO_LOCAL_MINIMA


class TestAnalyzeTask:
    def test_full_report_on_toll_graph(self, toll_graph_task):
        rep = analyze_task(toll_graph_task)
        assert rep.conflicts is not None and len(rep.conflicts) == 1
        assert rep.interaction_free_verdict == UNKNOWN
        assert rep.no_local_minima_verdict == UNKNOWN

    def test_tiny_cap_leaves_conflicts_unset(self, transport_task):
        rep = analyze_task(transport_task, cap=4)
        assert rep.conflicts is None
        assert rep.interaction_free_verdict == UNKNOWN
        assert rep.no_local_minima_verdict == UNKNOWN

    def test_lists_the_conflicts_of_any_complete_tree(self):
        # 78,277 nodes, under the command line's default --fgt-cap
        t = generate(GeneratorSpec("blocksworld-no-arm", {"blocks": 5}, 0))
        fgt = build_fgt(t, 100_000)
        assert fgt.size > 50_000 and not fgt.truncated
        rep = analyze_task(t, 100_000)
        assert rep.conflicts == find_conflicts(fgt, t) and rep.conflicts

    @pytest.mark.parametrize("family,params", [
        ("movie", {}), ("toll-road-graph", {}), ("simple-tsp", {"locations": 5}),
        ("logistics", {"cities": 1, "size": 3, "packages": 2}),
    ])
    def test_builds_the_regression_tree_once(self, monkeypatch, family, params):
        t = generate(GeneratorSpec(family, params, 0))
        standalone = no_local_minima_criterion(t)
        calls = []
        monkeypatch.setattr(analysis, "build_fgt",
                            lambda *a: calls.append(a) or build_fgt(*a))
        assert analyze_task(t).no_local_minima_verdict == standalone
        assert len(calls) == 1

    def test_computes_mutexes_and_flags_once(self, monkeypatch, toll_graph_task):
        t = toll_graph_task
        standalone = no_local_minima_criterion(t)
        calls = []
        monkeypatch.setattr(analysis, "compute_mutexes",
                            lambda *a: calls.append("mutexes") or compute_mutexes(*a))
        monkeypatch.setattr(analysis, "action_flags",
                            lambda *a: calls.append("flags") or action_flags(*a))
        assert analyze_task(t).no_local_minima_verdict == standalone
        assert calls == ["mutexes", "flags"]

    def test_interleaved_tasks_read_their_own_tables(self):
        # analysis reads the same per-task tables as h_plus: alternating
        # tasks must never see another task's tables
        a = generate(GeneratorSpec("blocksworld-arm-stack", {"n": 3}, 0))
        b = generate(GeneratorSpec("gripper", {"balls": 2}, 0))
        calls = []
        for sa, sb in zip(*(sorted(reachable_states(t), key=sorted)[:4]
                            for t in (a, b))):
            calls += [(analyze_task, a), (h_plus, b, sb), (compute_mutexes, a),
                      (analyze_task, b), (h_plus, a, sa), (compute_mutexes, b)]

        def fresh(f, t, *args):
            return f(dataclasses.replace(t), *args)

        expected = [fresh(*c) for c in calls]
        assert [f(*args) for f, *args in calls] == expected


class TestLongChain:
    """Regression depth beyond the interpreter's recursion limit."""

    def test_tree_and_virtual_walk(self):
        t = _chain_task(2000)
        assert sys.getrecursionlimit() < 4000
        fgt = build_fgt(t)
        assert fgt.size == 4002 and not fgt.truncated
        # one chain: every node's subtree runs to the last node
        assert fgt.ends == [fgt.size] * fgt.size
        assert fgt.ancestor_conflicts == []
        assert interaction_free_verdict(t) == VERDICT_HPLUS_EQUALS_GD

    def test_analyze_task(self):
        # the per-action passes index their candidates, so a chain as long as
        # the tree test's analyzes in well under a second
        assert sys.getrecursionlimit() < 4000
        rep = analyze_task(_chain_task(2000))
        assert rep.conflicts == []
        assert rep.interaction_free_verdict == VERDICT_HPLUS_EQUALS_GD
        assert rep.no_local_minima_verdict == UNKNOWN


class TestValidateRespected:
    def test_transport_all_respected(self, transport_task):
        space = enumerate_space(transport_task, H_PLUS)
        out = validate_respected(transport_task, space)
        assert all(v["respected"] for v in out.values())

    def test_blocksworld_putdown_counterexample(self, held_arm_task):
        t = held_arm_task
        space = enumerate_space(t, H_PLUS)
        out = validate_respected(t, space)
        init_sid = space.index[frozenset(t.init)]
        bad = out[t.action_by_name["putdown(c)"]]
        assert not bad["respected"]
        assert init_sid in bad["counterexamples"]

    def test_tsp_all_respected(self):
        t = generate(GeneratorSpec("simple-tsp", {"locations": 3}, 0))
        space = enumerate_space(t, H_PLUS)
        out = validate_respected(t, space)
        assert all(v["respected"] for v in out.values())

    def test_matches_per_action_scan(self, transport_task, held_arm_task):
        tasks = [transport_task, held_arm_task,
                 generate(GeneratorSpec("simple-tsp", {"locations": 3}, 0)),
                 # several counterexamples per action, so their order counts
                 generate(GeneratorSpec("blocksworld-arm-stack", {"n": 3}, 0))]
        tasks += [random_task(seed) for seed in range(30)]
        for t in tasks:
            space = enumerate_space(t, H_PLUS)
            out = validate_respected(t, space)
            assert list(out.items()) == \
                list(_respected_per_action_scan(t, space).items()), t.name


def _respected_per_action_scan(task, space):
    """validate_respected's reference: one scan over the states per action,
    re-deriving each successor and looking it up in the space's index."""
    out = {}
    for a in task.actions:
        counterexamples = []
        for sid, s in enumerate(space.states):
            if space.gd[sid] == INF or not a.pre <= s:
                continue
            nid = space.index[frozenset((s | a.add) - a.delete)]
            if space.gd[nid] != space.gd[sid] - 1:
                continue
            if 1 + h_plus(task, s | a.add) != space.h[sid]:
                counterexamples.append(sid)
        out[a.id] = {"respected": not counterexamples,
                     "counterexamples": counterexamples}
    return out


class TestRpIrrelevantDeletes:
    def test_transport_move_deletes_matter(self, transport_task):
        t = transport_task
        s = apply_sequence(t, frozenset(t.init),
                           [t.actions[t.action_by_name["load(o1,v,l1)"]]])
        move = t.actions[t.action_by_name["move(v,l1,l2)"]]
        assert validate_rp_irrelevant_deletes(t, s, move) is False

    def test_transport_unload_deletes_do_not(self, transport_task):
        t = transport_task
        seq = [t.actions[t.action_by_name[n]]
               for n in ("load(o1,v,l1)", "move(v,l1,l2)")]
        s = apply_sequence(t, frozenset(t.init), seq)
        unload = t.actions[t.action_by_name["unload(o1,v,l2)"]]
        assert validate_rp_irrelevant_deletes(t, s, unload) is True

    def test_movie_rewind_deletes_the_goal(self):
        t = generate(GeneratorSpec("movie", {}, 0))
        rewind = t.actions[t.action_by_name["rewind-movie"]]
        assert validate_rp_irrelevant_deletes(
            t, frozenset(t.init), rewind) is False

    def test_inapplicable_action_rejected(self, transport_task):
        t = transport_task
        unload = t.actions[t.action_by_name["unload(o1,v,l1)"]]
        with pytest.raises(PreconditionViolated):
            validate_rp_irrelevant_deletes(t, frozenset(t.init), unload)

    def test_state_without_relaxed_plan_rejected(self):
        t = make_task(["a", "b", "g"], [("x", ["a"], ["b"], ["a"])],
                      ["a"], ["g"])
        with pytest.raises(PreconditionViolated, match="no relaxed solution"):
            validate_rp_irrelevant_deletes(t, frozenset(t.init), t.actions[0])


# ---------------------------------------------------------------------------
# Verdicts as executable theorems


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_positive_verdict_means_exact_heuristic(seed):
    t = random_task(seed, max_facts=7, max_actions=8)
    if interaction_free_verdict(t) == UNKNOWN:
        return
    space = enumerate_space(t, H_PLUS, max_states=20_000)
    for sid in range(len(space.states)):
        assert space.h[sid] == space.gd[sid]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_no_local_minima_verdict_means_none_exist(seed):
    t = random_task(seed, max_facts=7, max_actions=8)
    if no_local_minima_criterion(t) != VERDICT_NO_LOCAL_MINIMA:
        return
    space = enumerate_space(t, H_PLUS, max_states=20_000)
    assert all(p.plateau_class != "LocalMinimum" for p in plateaus(space))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_lemma_verdicts_match_enumerated_classes(seed):
    t = random_task(seed, max_facts=7, max_actions=8)
    rep = check_lemmas(t)
    if not (rep.lemma1 or rep.lemma2):
        return
    space = enumerate_space(t, H_PLUS, max_states=20_000)
    cls = dead_end_class(space)
    if rep.lemma1:
        assert cls == "Undirected"
    # the recoverability guarantee presupposes a solvable instance
    if rep.lemma2 and space.gd[0] != INF:
        assert cls in {"Undirected", "Harmless"}


def test_respect_plus_inversion_forbids_local_minima():
    # domains where every action is respected and at least invertible or
    # free of relevant deletes must show no local minima when enumerated
    for domain, params in (("gripper", {"balls": 2}),
                           ("movie", {}),
                           ("simple-tsp", {"locations": 3})):
        t = generate(GeneratorSpec(domain, params, 0))
        flags = action_flags(t, compute_mutexes(t))
        space = enumerate_space(t, H_PLUS)
        out = validate_respected(t, space)
        assert all(v["respected"] for v in out.values()), domain
        assert all(f.at_least_invertible is not None
                   or not f.relevant_delete_effects for f in flags), domain
        assert all(p.plateau_class != "LocalMinimum"
                   for p in plateaus(space)), domain
