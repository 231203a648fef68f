"""Shared helpers: seeded random task generators and small-space utilities."""

import random
from collections import deque

import pytest

from plantopo.task_model import make_task


def random_task(seed, max_facts=10, max_actions=12):
    """A small random STRIPS task; identical seed gives an identical task."""
    rng = random.Random(seed)
    n_facts = rng.randint(3, max_facts)
    facts = [f"f{i}" for i in range(n_facts)]
    actions = []
    for j in range(rng.randint(2, max_actions)):
        pre = rng.sample(facts, rng.randint(0, min(3, n_facts)))
        add = rng.sample(facts, rng.randint(1, min(2, n_facts)))
        dele = rng.sample(facts, rng.randint(0, min(2, n_facts)))
        actions.append((f"a{j}", pre, add, dele))
    init = rng.sample(facts, rng.randint(1, min(3, n_facts)))
    goal = rng.sample(facts, rng.randint(1, min(3, n_facts)))
    return make_task(facts, actions, init, goal, name=f"random-{seed}")


def random_single_achiever_task(seed, max_facts=8, max_actions=10):
    """Random task where every fact has at most one achiever."""
    rng = random.Random(seed)
    n_facts = rng.randint(3, max_facts)
    facts = [f"f{i}" for i in range(n_facts)]
    unclaimed = list(range(n_facts))
    rng.shuffle(unclaimed)
    actions = []
    for j in range(rng.randint(2, max_actions)):
        if not unclaimed:
            break
        k = rng.randint(1, min(2, len(unclaimed)))
        add = [facts[unclaimed.pop()] for _ in range(k)]
        pre = rng.sample(facts, rng.randint(0, min(3, n_facts)))
        dele = rng.sample(facts, rng.randint(0, min(2, n_facts)))
        actions.append((f"a{j}", pre, add, dele))
    init = rng.sample(facts, rng.randint(1, min(3, n_facts)))
    goal = rng.sample(facts, rng.randint(1, min(2, n_facts)))
    return make_task(facts, actions, init, goal, name=f"single-achiever-{seed}")


def random_unary_task(seed, max_facts=8, max_actions=10):
    """Random task with a single goal fact and single-fact preconditions."""
    rng = random.Random(seed)
    n_facts = rng.randint(3, max_facts)
    facts = [f"f{i}" for i in range(n_facts)]
    actions = []
    for j in range(rng.randint(2, max_actions)):
        pre = rng.sample(facts, rng.randint(0, 1))
        add = rng.sample(facts, rng.randint(1, min(2, n_facts)))
        dele = rng.sample(facts, rng.randint(0, min(2, n_facts)))
        actions.append((f"a{j}", pre, add, dele))
    init = rng.sample(facts, rng.randint(1, min(3, n_facts)))
    goal = rng.sample(facts, 1)
    return make_task(facts, actions, init, goal, name=f"unary-{seed}")


def random_shared_enabler_task(seed, max_enablers=4, max_goals=4):
    """Random task whose goal facts have several achievers each, which
    share enabler preconditions: a shortest relaxed plan picks the
    enablers that serve the most goals, a choice that LM-cut's cuts and
    h_ff's extraction often miss, so h_plus's hitting-set loop runs."""
    rng = random.Random(seed)
    enablers = [f"e{i}" for i in range(rng.randint(2, max_enablers))]
    goals = [f"g{i}" for i in range(rng.randint(2, max_goals))]
    base = ["b0", "b1"]
    facts = base + enablers + goals
    actions = []
    for i, e in enumerate(enablers):
        pre = rng.sample(base + enablers[:i], rng.randint(0, 1))
        dele = rng.sample(enablers, rng.randint(0, 1))
        actions.append((f"en{i}", pre, [e], dele))
    for i, g in enumerate(goals):
        for j in range(rng.randint(2, 3)):
            pre = rng.sample(enablers, rng.randint(1, 2))
            add = [g, *rng.sample(goals, rng.randint(0, 1))]
            dele = rng.sample(facts, rng.randint(0, 1))
            actions.append((f"ach{i}-{j}", pre, add, dele))
    init = rng.sample(base, rng.randint(1, 2))
    return make_task(facts, actions, init, goals,
                     name=f"shared-enabler-{seed}")


def reachable_states(task, cap=50_000):
    """Plain breadth-first reachability, independent of the library's
    enumeration code, for cross-checks."""
    init = frozenset(task.init)
    seen = {init}
    queue = deque([init])
    while queue:
        s = queue.popleft()
        for a in task.actions:
            if a.pre <= s:
                ns = frozenset((s | a.add) - a.delete)
                if ns not in seen:
                    seen.add(ns)
                    if len(seen) > cap:
                        raise RuntimeError("reachability cap exceeded")
                    queue.append(ns)
    return seen


def random_walk_state(task, rng, max_steps=8):
    """Endpoint of a short random applicable-action walk from init."""
    s = frozenset(task.init)
    for _ in range(rng.randint(0, max_steps)):
        applicable = [a for a in task.actions if a.pre <= s]
        if not applicable:
            break
        a = rng.choice(applicable)
        s = frozenset((s | a.add) - a.delete)
    return s


@pytest.fixture(scope="session")
def transport_task():
    from plantopo.generators import GeneratorSpec, generate
    return generate(GeneratorSpec("transport-swap", {}, 0))


@pytest.fixture(scope="session")
def held_arm_task():
    from plantopo.generators import GeneratorSpec, generate
    return generate(GeneratorSpec("blocksworld-arm-held", {}, 0))


@pytest.fixture(scope="session")
def shared_enabler_task():
    from plantopo.generators import GeneratorSpec, generate
    return generate(GeneratorSpec("shared-enabler-goals", {}, 0))


@pytest.fixture(scope="session")
def toll_graph_task():
    from plantopo.generators import GeneratorSpec, generate
    return generate(GeneratorSpec("toll-road-graph", {}, 0))


@pytest.fixture(scope="session")
def detour_task():
    from plantopo.generators import GeneratorSpec, generate
    return generate(GeneratorSpec("destructive-detour", {}, 0))


@pytest.fixture(scope="session")
def graph_task():
    from plantopo.generators import GeneratorSpec, generate
    return generate(GeneratorSpec("road-graph", {}, 0))
