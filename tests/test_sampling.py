"""Random-walk sampling, valley detection, and sampled exit distances."""

from collections import Counter

import pytest

from plantopo import sampling
from plantopo.errors import NoReferencePlan, PreconditionViolated, \
    ResourceExhausted
from plantopo.generators import GeneratorSpec, generate
from plantopo.heuristics import HEURISTICS, INF, memoized
from plantopo.sampling import SampleConfig, on_valley, run_experiment, \
    sample_states, sampled_exit_distance
from plantopo.state_space import enumerate_space, exit_distance, plateaus
from plantopo.task_model import make_task

from conftest import reachable_states

H_PLUS = HEURISTICS["hplus"]
H_FF = HEURISTICS["hff"]


class TestSampleStates:
    def test_zero_factor_yields_init(self, transport_task):
        cfg = SampleConfig(samples_per_instance=10, walk_length_factor=0)
        samples = sample_states(transport_task, cfg)
        assert samples == [frozenset(transport_task.init)] * 10

    def test_gripper_reproducible_and_reachable(self):
        t = generate(GeneratorSpec("gripper", {"balls": 2}, 0))
        cfg = SampleConfig(samples_per_instance=100, seed=7)
        a = sample_states(t, cfg)
        b = sample_states(t, cfg)
        assert a == b and len(a) == 100
        reachable = reachable_states(t, cap=50_000)
        assert all(s in reachable for s in a)

    def test_walks_stop_at_stuck_states(self):
        t = make_task(["p", "g"],
                      [("go", ["p"], ["g"], ["p"])], ["p"], ["g"])
        cfg = SampleConfig(samples_per_instance=20, walk_length_factor=10.0)
        for s in sample_states(t, cfg):
            assert s in (frozenset({t.fact_by_name["p"]}),
                         frozenset({t.fact_by_name["g"]}))

    def test_unsolvable_task_has_no_reference_plan(self):
        t = make_task(["p", "g"], [("a", ["p"], ["p"], [])], ["p"], ["g"])
        with pytest.raises(NoReferencePlan):
            sample_states(t, SampleConfig())


class TestOnValley:
    def test_blocksworld_held_state(self, held_arm_task):
        assert on_valley(held_arm_task, frozenset(held_arm_task.init), H_PLUS)

    def test_goal_state(self, transport_task):
        t = transport_task
        goalish = frozenset(t.goal) | frozenset(t.init)
        assert not on_valley(t, goalish, H_PLUS)

    def test_gripper_samples_never_on_valleys(self):
        t = generate(GeneratorSpec("gripper", {"balls": 2}, 0))
        cfg = SampleConfig(samples_per_instance=50, seed=3)
        for s in sample_states(t, cfg):
            assert not on_valley(t, s, H_FF)

    def test_matches_exhaustive_plateau_classes(self):
        for domain, params in (("blocksworld-arm-held", {}),
                               ("simple-tsp", {"locations": 3}),
                               ("gripper", {"balls": 1})):
            t = generate(GeneratorSpec(domain, params, 0))
            space = enumerate_space(t, H_PLUS)
            for p in plateaus(space):
                for sid in p.member_state_ids:
                    s = space.states[sid]
                    if p.plateau_class == "LocalMinimum":
                        assert on_valley(t, s, H_PLUS), domain
                    elif p.plateau_class in {"Bench", "Contour",
                                             "GlobalMinimum"}:
                        assert not on_valley(t, s, H_PLUS), domain


class TestSampledExitDistance:
    def test_gripper_max_is_one(self):
        t = generate(GeneratorSpec("gripper", {"balls": 2}, 0))
        cfg = SampleConfig(samples_per_instance=50, seed=5)
        distances = []
        for s in sample_states(t, cfg):
            hv = H_FF(t, s)
            if hv != INF and hv != 0:
                distances.append(sampled_exit_distance(t, s, H_FF))
        assert distances and max(distances) == 1

    def test_tireworld_bounded(self):
        t = generate(GeneratorSpec("tireworld", {"tires": 1}, 0))
        cfg = SampleConfig(samples_per_instance=30, seed=11)
        for s in sample_states(t, cfg):
            hv = H_FF(t, s)
            if hv != INF and hv != 0:
                assert sampled_exit_distance(t, s, H_FF) <= 6

    def test_exit_state_is_zero(self, transport_task):
        t = transport_task
        s = frozenset(t.init)
        assert H_PLUS(t, s) == 5
        assert sampled_exit_distance(t, s, H_PLUS) == 0

    def test_no_exit_at_the_level_is_infinite(self):
        # under goal count the start (1 goal open) is left only upward, via
        # b (2 open), so no state at level 1 has a better successor
        t = make_task(["a", "b", "g1", "g2"], [
            ("swap", ["g1", "a"], ["b"], ["g1", "a"]),
            ("finish", ["b"], ["g1", "g2"], [])], ["g1", "a"], ["g1", "g2"])
        assert sampled_exit_distance(t, frozenset(t.init),
                                     HEURISTICS["goalcount"]) == INF

    def test_goal_level_rejected(self, transport_task):
        t = transport_task
        goalish = frozenset(t.goal) | frozenset(t.init)
        with pytest.raises(PreconditionViolated):
            sampled_exit_distance(t, goalish, H_PLUS)

    def test_matches_exhaustive_exit_distance(self):
        for domain, params in (("blocksworld-arm-held", {}),
                               ("simple-tsp", {"locations": 3})):
            t = generate(GeneratorSpec(domain, params, 0))
            space = enumerate_space(t, H_PLUS)
            for sid, s in enumerate(space.states):
                hv = space.h[sid]
                if hv == INF or hv == 0:
                    continue
                assert sampled_exit_distance(t, s, H_PLUS) == \
                    exit_distance(space, sid), domain


class TestSearchBudget:
    """Both searches stop with ResourceExhausted past the state budget; from
    gripper's initial state under goal count, each sees more than three
    states before it meets a goal or an exit."""

    @pytest.mark.parametrize("search", [on_valley, sampled_exit_distance])
    def test_exceeding_the_budget_raises(self, monkeypatch, search):
        t = generate(GeneratorSpec("gripper", {"balls": 2}, 0))
        monkeypatch.setattr(sampling, "DEFAULT_MAX_STATES", 3)
        with pytest.raises(ResourceExhausted, match="exceeded 3 states"):
            search(t, frozenset(t.init), HEURISTICS["goalcount"])


class TestRunExperiment:
    def test_gripper_groups_show_zero_valleys(self):
        specs = [GeneratorSpec("gripper", (("balls", n),), 0)
                 for n in (1, 2, 3)]
        rep = run_experiment(specs, SampleConfig(samples_per_instance=20))
        assert len(rep.rows) == 3
        for row in rep.rows:
            assert row.error is None
            assert row.valley_percentage == 0.0
        for means in rep.group_means.values():
            assert means["valley_pct"] == 0.0

    def test_no_arm_blocksworld_distance_grows(self):
        cfg = SampleConfig(samples_per_instance=20, seed=2)
        means = []
        for n in (2, 4):
            specs = [GeneratorSpec("blocksworld-no-arm", (("blocks", n),), s)
                     for s in range(3)]
            rep = run_experiment(specs, cfg)
            key = ("blocksworld-no-arm", (("blocks", n),))
            means.append(rep.group_means[key]["max_exit_distance"])
        assert means[0] < means[1]

    def test_empty_spec_list(self):
        rep = run_experiment([], SampleConfig())
        assert rep.rows == [] and rep.group_means == {}

    def test_deterministic_reports(self):
        specs = [GeneratorSpec("simple-tsp", (("locations", 3),), 1)]
        cfg = SampleConfig(samples_per_instance=15, seed=9)
        a = run_experiment(specs, cfg)
        b = run_experiment(specs, cfg)
        assert a.to_csv() == b.to_csv()
        assert a.group_means == b.group_means

    def test_flagged_error_rows_do_not_abort(self):
        specs = [GeneratorSpec("gripper", (("balls", 1),), 0),
                 GeneratorSpec("gripper", (("balls", 0),), 0)]
        rep = run_experiment(specs, SampleConfig(samples_per_instance=5))
        assert rep.rows[0].error is None
        assert rep.rows[1].error.startswith("PreconditionViolated:")

    @pytest.mark.parametrize("bad", [
        {"samples_per_instance": 0},
        {"samples_per_instance": -3},
        {"heuristic": "nope"},
        {"walk_length_factor": 0},
        {"walk_length_factor": -1.5},
        {"walk_length_factor": float("nan")},
        {"samples_per_instance": 2.5},
        {"walk_length_factor": "2"},
        {"walk_length_factor": float("inf")},
    ], ids=["no-samples", "negative-samples", "unknown-heuristic",
            "zero-factor", "negative-factor", "nan-factor", "float-samples",
            "string-factor", "infinite-factor"])
    def test_bad_config_raises_before_any_instance(self, monkeypatch, bad):
        generated = []
        monkeypatch.setattr(sampling, "generate", generated.append)
        specs = [GeneratorSpec("gripper", (("balls", 1),), 0)]
        with pytest.raises(PreconditionViolated):
            run_experiment(specs, SampleConfig(**bad))
        assert generated == []

    def test_csv_shape(self):
        specs = [GeneratorSpec("movie", (), 0)]
        rep = run_experiment(specs, SampleConfig(samples_per_instance=10))
        lines = rep.to_csv().splitlines()
        assert lines[0] == ("domain,params,instance_seed,valley_pct,"
                            "max_exit_distance,samples,flagged_errors")
        assert lines[1].startswith("movie,")


class TestHeuristicMemo:
    @pytest.mark.parametrize("name, specs", [
        ("hplus", [GeneratorSpec("gripper", (("balls", n),), 0)
                   for n in (1, 2, 3)]),
        # valleys: the valley search prunes on the memo's values
        ("hff", [GeneratorSpec("blocksworld-arm-stack", (("n", 3),), 0)]),
    ])
    def test_run_experiment_evaluates_each_state_once_per_row(
            self, monkeypatch, name, specs):
        cfg = SampleConfig(samples_per_instance=50, heuristic=name)
        inner = HEURISTICS[name]
        calls = []

        def counting(task, s):
            calls.append((task, frozenset(s)))
            return inner(task, s)

        plan_length = sampling.reference_plan_length

        def uncounted_plan_length(task):
            # the reference plan's hill-climbing is not part of the row
            with monkeypatch.context() as m:
                m.setitem(HEURISTICS, name, inner)
                return plan_length(task)

        monkeypatch.setattr(sampling, "reference_plan_length",
                            uncounted_plan_length)
        monkeypatch.setitem(HEURISTICS, name, counting)
        rep = run_experiment(specs, cfg)
        monkeypatch.undo()

        per_row = Counter((id(task), s) for task, s in calls)
        assert calls and max(per_row.values()) == 1
        assert len({id(task) for task, _ in calls}) == len(specs)
        for spec, row in zip(specs, rep.rows):
            task = generate(spec)
            states = sample_states(task, cfg)
            valleys = sum(on_valley(task, s, inner) for s in states)
            eds = [sampled_exit_distance(task, s, inner) for s in states
                   if inner(task, s) not in (0, INF)]
            assert (row.valley_percentage, row.sampled_max_exit_distance,
                    row.samples, row.error) == \
                (100.0 * valleys / len(states), max(eds, default=0),
                 len(states), None)
        if name == "hff":
            assert rep.rows[0].valley_percentage > 0

    def test_memo_never_crosses_tasks(self):
        # same facts and actions, different goals: a state's key collides
        a = generate(GeneratorSpec("blocksworld-arm", (("blocks", 4),), 0))
        b = generate(GeneratorSpec("blocksworld-arm", (("blocks", 4),), 1))
        assert a.facts == b.facts and a.goal != b.goal
        states = sample_states(b, SampleConfig(samples_per_instance=30))
        memo = memoized(H_FF, a)
        for s in states:
            memo(a, s)
        assert memoized(memo, a) is memo and memoized(memo, b) is not memo
        for s in states:
            assert memo(b, s) == H_FF(b, s)
            assert on_valley(b, s, memo) == on_valley(b, s, H_FF)
            if H_FF(b, s) not in (0, INF):
                assert sampled_exit_distance(b, s, memo) == \
                    sampled_exit_distance(b, s, H_FF)
