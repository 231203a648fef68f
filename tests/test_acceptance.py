"""End-to-end checks combining fixture point values with property suites.

Exit distances here count the steps to the nearest state that has a strictly
improving successor; the improving state itself lies one step further.
"""

import random
import time

from plantopo.analysis import CONFLICT_ALLIED, UNKNOWN, \
    VERDICT_HPLUS_EQUALS_GD_VIA_REPAIRS, VERDICT_NO_LOCAL_MINIMA, \
    action_flags, build_fgt, check_lemmas, compute_mutexes, find_conflicts, \
    interaction_free_verdict, no_local_minima_criterion, validate_respected
from plantopo.generators import GeneratorSpec, generate
from plantopo.heuristics import HEURISTICS, INF, h_ff, h_plus, h_plus_oracle
from plantopo.sampling import SampleConfig, on_valley, sample_states, \
    sampled_exit_distance
from plantopo.search import OUTCOME_SOLVED, enforced_hill_climbing, \
    invert_and_replay
from plantopo.state_space import PLATEAU_LOCAL_MINIMUM, dead_end_class, \
    enumerate_space, plateaus, topology_report
from plantopo.task_model import apply, apply_sequence, validate_plan

from conftest import random_single_achiever_task, random_task, \
    random_unary_task, random_walk_state

H_PLUS = HEURISTICS["hplus"]
H_FF = HEURISTICS["hff"]


def gen(domain, **params):
    return generate(GeneratorSpec(domain, params, 0))


def test_blocksworld_held_block_sits_on_a_local_minimum(held_arm_task):
    t = held_arm_task
    s = frozenset(t.init)
    assert h_plus(t, s) == 3
    after_putdown = apply(t, s, t.actions[t.action_by_name["putdown(c)"]])
    assert h_plus(t, after_putdown) == 4
    after_stack = apply(t, s, t.actions[t.action_by_name["stack(c,b)"]])
    assert h_plus(t, after_stack) == 3

    space = enumerate_space(t, H_PLUS)
    rep = topology_report(space)
    init_sid = space.index[s]
    pid = rep.plateau_of[init_sid]
    assert rep.plateaus[pid].plateau_class == PLATEAU_LOCAL_MINIMUM
    assert rep.ed[init_sid] == 2


def test_transport_swap_is_undirected_and_fully_respected(transport_task):
    t = transport_task
    space = enumerate_space(t, H_PLUS)
    rep = topology_report(space)
    assert rep.dead_end_class == "Undirected"
    assert space.h[0] == 5 and space.gd[0] == 6
    assert rep.mlmed == 0 and rep.mbed <= 1
    assert all(v["respected"]
               for v in validate_respected(t, space).values())

    flags = action_flags(t, compute_mutexes(t))
    result = enforced_hill_climbing(t, H_PLUS)
    assert result.outcome == OUTCOME_SOLVED
    base = result.plan
    trace = base[:2]
    rebuilt = invert_and_replay(t, trace, base, flags)
    traced = apply_sequence(t, frozenset(t.init),
                            [t.actions[a] for a in trace])
    assert validate_plan(t, [t.actions[a] for a in rebuilt], start=traced)


def test_shared_enabler_extraction_gap(shared_enabler_task):
    t = shared_enabler_task
    s = frozenset()
    assert h_plus(t, s) == 3
    prefer = t.action_by_name["op-g2-p2"]

    def adversarial(task, goal, candidates):
        return prefer if prefer in candidates else min(candidates)

    assert h_ff(t, s, tie_break=adversarial)[0] == 4
    first = h_ff(t, s)
    second = h_ff(t, s)
    assert first[0] == second[0] and first[1].actions == second[1].actions
    assert first[0] >= h_plus(t, s)


def test_toll_graph_regression_tree_and_verdicts(toll_graph_task):
    t = toll_graph_task
    assert h_plus(t, frozenset({t.fact_by_name["at(a)"]})) == 4

    fgt = build_fgt(t)
    labels_a = [fgt.labels[n] for n in range(1, fgt.size)
                if fgt.kinds[n] == 'A']
    assert t.action_by_name["mv(e,d)"] not in labels_a
    mvdc = next(n for n in range(1, fgt.size) if fgt.kinds[n] == 'A'
                and fgt.labels[n] == t.action_by_name["mv-d-c"])
    assert all(fgt.labels[c] != t.fact_by_name["at(d)"]
               for c in fgt.children[mvdc])

    conflicts = find_conflicts(fgt, t)
    assert len(conflicts) == 1
    c = conflicts[0]
    assert c.kind == CONFLICT_ALLIED
    assert set(c.action_ids) == {t.action_by_name["mv-d-c"],
                                 t.action_by_name["mv-d-e"]}
    assert c.repairable is False
    assert no_local_minima_criterion(t) == UNKNOWN


def test_detour_task_short_plan_hides_from_regression(detour_task):
    t = detour_task
    plan = [t.actions[t.action_by_name[n]] for n in ("opp", "opg2", "opg1")]
    assert validate_plan(t, plan)
    space = enumerate_space(t, H_PLUS)
    assert space.gd[0] == 3
    fgt = build_fgt(t)
    opp = t.action_by_name["opp"]
    assert all(not (fgt.kinds[n] == 'A' and fgt.labels[n] == opp)
               for n in range(1, fgt.size))


def test_gripper_family_has_benign_topology():
    for balls in (1, 2, 3, 4):
        t = gen("gripper", balls=balls)
        space = enumerate_space(t, H_PLUS)
        rep = topology_report(space)
        assert rep.dead_end_class == "Undirected"
        assert rep.mlmed == 0 and rep.mbed <= 1

        result = enforced_hill_climbing(t, H_PLUS)
        assert result.outcome == OUTCOME_SOLVED
        assert result.max_depth <= 2

        for h in (H_PLUS, H_FF):
            cfg = SampleConfig(samples_per_instance=30, seed=balls)
            for s in sample_states(t, cfg):
                assert not on_valley(t, s, h)
                hv = h(t, s)
                if hv != INF and hv != 0:
                    assert sampled_exit_distance(t, s, h) <= 1


def test_tsp_heuristic_is_exact_and_analysis_is_fast():
    for n in (2, 3, 4, 5, 6):
        t = gen("simple-tsp", locations=n)
        space = enumerate_space(t, H_PLUS)
        for sid in range(len(space.states)):
            assert space.h[sid] == space.gd[sid]
        rep = topology_report(space)
        assert rep.mbed == 0
    for n in (3, 4, 5, 6):
        assert interaction_free_verdict(gen("simple-tsp", locations=n)) == \
            VERDICT_HPLUS_EQUALS_GD_VIA_REPAIRS
    start = time.monotonic()
    interaction_free_verdict(gen("simple-tsp", locations=8))
    assert time.monotonic() - start < 5.0


def test_movie_criterion_is_positive_and_fast():
    t = gen("movie")
    start = time.monotonic()
    assert no_local_minima_criterion(t) == VERDICT_NO_LOCAL_MINIMA
    assert time.monotonic() - start < 1.0
    rep = topology_report(enumerate_space(t, H_PLUS))
    assert rep.mlmed == 0 and rep.mbed <= 1


def discs_out_of_position(task, s, n):
    """Discs not in their final place: the largest on the last peg, every
    other one directly on its successor, transitively."""
    in_pos = task.fact_by_name[f"on(d{n},p3)"] in s
    count = 0 if in_pos else 1
    for i in range(n - 1, 0, -1):
        in_pos = in_pos and task.fact_by_name[f"on(d{i},d{i + 1})"] in s
        count += 0 if in_pos else 1
    return count


def test_hanoi_heuristic_counts_misplaced_discs():
    for n in (3, 4):
        t = gen("hanoi", discs=n)
        space = enumerate_space(t, H_PLUS)
        for sid, s in enumerate(space.states):
            assert space.h[sid] == discs_out_of_position(t, s, n)
        rep = topology_report(space)
        assert rep.mlmed == 0
        # the nearest exit from the initial bench precedes the first
        # strictly improving state of the 2^(n-1)-step unlocking prefix
        assert rep.ed[space.index[frozenset(t.init)]] == 2 ** (n - 1) - 1


def test_tireworld_is_recoverable():
    t = gen("tireworld", tires=1)
    rep = topology_report(enumerate_space(t, H_PLUS))
    assert rep.mlmed == 0 and rep.mbed <= 6
    lemmas = check_lemmas(t)
    assert lemmas.lemma2

    flags = action_flags(t, compute_mutexes(t))
    result = enforced_hill_climbing(t, H_FF)
    assert result.outcome == OUTCOME_SOLVED
    base = result.plan
    inflate = t.action_by_name["inflate(spare1)"]
    assert inflate in base
    trace = base[:base.index(inflate) + 1]
    rebuilt = invert_and_replay(t, trace, base, flags)
    traced = apply_sequence(t, frozenset(t.init),
                            [t.actions[a] for a in trace])
    assert validate_plan(t, [t.actions[a] for a in rebuilt], start=traced)


def test_logistics_criterion_and_two_city_topology():
    single = generate(GeneratorSpec(
        "logistics", {"cities": 1, "size": 2, "packages": 1}, 0))
    assert no_local_minima_criterion(single) == VERDICT_NO_LOCAL_MINIMA
    two = generate(GeneratorSpec(
        "logistics", {"cities": 2, "size": 2, "packages": 1}, 0))
    rep = topology_report(enumerate_space(two, H_PLUS))
    assert rep.dead_end_class == "Undirected"
    assert rep.mlmed == 0 and rep.mbed <= 1


def test_stacking_local_minima_deepen_with_tower_height():
    depths = []
    for n in (3, 4, 5):
        t = gen("blocksworld-arm-stack", n=n)
        rep = topology_report(enumerate_space(t, H_PLUS))
        assert any(p.plateau_class == PLATEAU_LOCAL_MINIMUM
                   for p in rep.plateaus)
        depths.append(rep.mlmed)
    assert depths[0] < depths[1] < depths[2]

    t = gen("blocksworld-no-arm-stack", n=4)
    space = enumerate_space(t, H_PLUS)
    rep = topology_report(space)
    init_sid = space.index[frozenset(t.init)]
    assert rep.mlmed == 0
    assert space.h[init_sid] == 4
    # the whole 4-step restacking prefix stays level, so the nearest exit
    # sits 3 steps out and the improving state one step beyond it
    assert rep.ed[init_sid] == 3


def test_random_task_property_suite():
    rng = random.Random(2024)
    for seed in range(200):
        t = random_task(seed)
        s = random_walk_state(t, rng)
        exact = h_plus(t, s)
        assert exact == h_plus_oracle(t, s)
        ff, plan = h_ff(t, s)
        if exact == INF:
            assert ff is INF and plan is None
        else:
            assert ff >= exact
            assert validate_plan(t, [t.actions[a] for a in plan.actions],
                                 relaxed=True, start=s)

        space = enumerate_space(t, H_FF, max_states=50_000)
        rep = topology_report(space)
        if rep.dead_end_class == "Unrecognized":
            assert rep.mlmed is INF

        mx = compute_mutexes(t)
        for state in space.states:
            facts = sorted(state)
            for i, p in enumerate(facts):
                for q in facts[i + 1:]:
                    assert not mx.inconsistent(p, q)

    for seed in range(100):
        t = random_single_achiever_task(seed)
        s = frozenset(t.init)
        assert h_ff(t, s)[0] == h_plus(t, s)
        t = random_unary_task(seed)
        s = frozenset(t.init)
        assert h_ff(t, s)[0] == h_plus(t, s)


def test_static_verdicts_hold_as_theorems():
    corroborated = {"lemma1": 0, "lemma2": 0, "nlm": 0}
    named = [gen("gripper", balls=2), gen("movie"),
             gen("simple-tsp", locations=3), gen("ferry", cars=2)]
    randoms = [random_task(seed, max_facts=7, max_actions=8)
               for seed in range(60)]
    for t in named + randoms:
        rep = check_lemmas(t)
        nlm = no_local_minima_criterion(t)
        if not (rep.lemma1 or rep.lemma2 or nlm == VERDICT_NO_LOCAL_MINIMA):
            continue
        space = enumerate_space(t, H_PLUS, max_states=50_000)
        cls = dead_end_class(space)
        if rep.lemma1:
            assert cls == "Undirected"
            corroborated["lemma1"] += 1
        if rep.lemma2 and space.gd[0] != INF:
            assert cls in {"Undirected", "Harmless"}
            corroborated["lemma2"] += 1
        if nlm == VERDICT_NO_LOCAL_MINIMA:
            assert all(p.plateau_class != PLATEAU_LOCAL_MINIMUM
                       for p in plateaus(space))
            corroborated["nlm"] += 1
    assert all(v > 0 for v in corroborated.values())
