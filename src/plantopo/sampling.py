"""Random-walk state sampling, valley detection, and sampled exit distances.

A sample is the endpoint of a random applicable-action walk from the initial
state, with walk length drawn uniformly between zero and a factor times a
reference plan length.  A state lies on a valley when no goal state can be
reached along a path whose heuristic value never increases.  Sampled exit
distances replicate the exhaustive definition, breadth-first from the state,
without enumerating the whole space.
"""

from __future__ import annotations

import csv
import io
import random
from collections import deque
from dataclasses import dataclass, field
from functools import partial

from .errors import NoReferencePlan, PlantopoError, PreconditionViolated, \
    ResourceExhausted
from .generators import generate
from .heuristics import HEURISTICS, INF, format_value, memoized
from .search import OUTCOME_SOLVED, enforced_hill_climbing
from .state_space import DEFAULT_MAX_STATES
from .task_model import Task, apply, is_goal, successors


@dataclass
class SampleConfig:
    samples_per_instance: int = 100
    walk_length_factor: float = 2.0
    seed: int = 0
    heuristic: str = "hff"


@dataclass
class InstanceResult:
    domain: str
    params: tuple
    instance_seed: int
    samples: int = 0
    valley_count: int = 0
    valley_percentage: float = 0.0
    sampled_max_exit_distance: object = 0
    error: str | None = None


@dataclass
class SampleReport:
    rows: list = field(default_factory=list)
    group_means: dict = field(default_factory=dict)   # (domain, params) -> means

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["domain", "params", "instance_seed", "valley_pct",
                         "max_exit_distance", "samples", "flagged_errors"])
        for row in self.rows:
            params = ";".join(f"{k}={v}" for k, v in row.params)
            writer.writerow([
                row.domain, params, row.instance_seed,
                f"{row.valley_percentage:.1f}",
                format_value(row.sampled_max_exit_distance),
                row.samples, row.error or "",
            ])
        return buf.getvalue()


def reference_plan_length(task: Task) -> int:
    """Plan length used to scale walks: hill-climbing under the relaxed-plan
    heuristic, falling back to the exact relaxed-length heuristic."""
    result = enforced_hill_climbing(task, HEURISTICS["hff"])
    if result.outcome != OUTCOME_SOLVED:
        result = enforced_hill_climbing(task, HEURISTICS["hplus"])
    if result.outcome != OUTCOME_SOLVED:
        raise NoReferencePlan(f"no reference plan found for {task.name}")
    return len(result.plan)


def sample_states(task: Task, cfg: SampleConfig) -> list:
    """Endpoints of seeded random walks; a walk stuck in a state without
    applicable actions ends there early."""
    length = reference_plan_length(task)
    horizon = int(cfg.walk_length_factor * length)
    rng = random.Random(f"{cfg.seed}|{task.name}|walks")
    samples = []
    init = frozenset(task.init)
    for _ in range(cfg.samples_per_instance):
        steps = rng.randint(0, horizon) if horizon > 0 else 0
        s = init
        for _ in range(steps):
            applicable = [a for a in task.actions if a.pre <= s]
            if not applicable:
                break
            s = apply(task, s, rng.choice(applicable))
        samples.append(s)
    return samples


def _nearest(task: Task, start, target, admit, what):
    """Breadth-first distance from ``start`` to the nearest state where
    ``target`` holds, over transitions u -> v where ``admit(u, v)`` holds;
    INF when none is reachable.  Past ``DEFAULT_MAX_STATES`` seen states
    the ``what`` search raises ResourceExhausted."""
    if target(start):
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        u, d = queue.popleft()
        for _, v in successors(task, u):
            if v in seen or not admit(u, v):
                continue
            if target(v):
                return d + 1
            seen.add(v)
            if len(seen) > DEFAULT_MAX_STATES:
                raise ResourceExhausted(
                    f"{what} search exceeded {DEFAULT_MAX_STATES} states")
            queue.append((v, d + 1))
    return INF


def on_valley(task: Task, s, heuristic) -> bool:
    """True iff no goal state is reachable from s along a path on which the
    heuristic value is monotonically non-increasing."""
    h = memoized(heuristic, task)
    return _nearest(task, frozenset(s), partial(is_goal, task),
                    lambda u, v: h(task, u) >= h(task, v), "valley") == INF


def sampled_exit_distance(task: Task, s, heuristic):
    """Distance to the nearest exit at s's heuristic level, breadth-first
    over all transitions from s, without full enumeration."""
    h = memoized(heuristic, task)
    start = frozenset(s)
    level = h(task, start)
    if level == INF or level == 0:
        raise PreconditionViolated(
            "exit distance requires a finite, nonzero heuristic value")

    def is_exit(u):
        return h(task, u) == level and \
            any(h(task, v) < level for _, v in successors(task, u))

    return _nearest(task, start, is_exit, lambda u, v: True, "exit-distance")


def run_experiment(specs: list, cfg: SampleConfig) -> SampleReport:
    """Sample every instance, flag per-instance failures instead of aborting,
    and aggregate means per (domain, parameters) group.  One heuristic memo
    serves each instance's valley tests, heuristic values and exit-distance
    searches, so each distinct state of an instance is evaluated once.
    A config with an unknown heuristic, a sample count per instance that
    is no integer of at least 1, or a walk length factor that is no
    positive finite number raises PreconditionViolated before any instance
    is generated."""
    if cfg.heuristic not in HEURISTICS:
        raise PreconditionViolated(
            f"unknown heuristic {cfg.heuristic!r}; known: "
            + ", ".join(sorted(HEURISTICS)))
    n, factor = cfg.samples_per_instance, cfg.walk_length_factor
    if not isinstance(n, int) or n < 1:
        raise PreconditionViolated(
            f"samples_per_instance must be an integer of at least 1, not {n!r}")
    if not isinstance(factor, (int, float)) or not 0 < factor < INF:
        raise PreconditionViolated(
            f"walk_length_factor must be a positive finite number, not {factor!r}")
    heuristic = HEURISTICS[cfg.heuristic]
    report = SampleReport()
    groups = {}
    for spec in specs:
        row = InstanceResult(spec.domain_name, spec.params, spec.seed)
        try:
            task = generate(spec)
            states = sample_states(task, cfg)
            row.samples = len(states)
            max_ed = 0
            h = memoized(heuristic, task)
            for s in states:
                if on_valley(task, s, h):
                    row.valley_count += 1
                hv = h(task, s)
                if hv != INF and hv != 0:
                    ed = sampled_exit_distance(task, s, h)
                    max_ed = max(max_ed, ed)
            row.valley_percentage = 100.0 * row.valley_count / len(states)
            row.sampled_max_exit_distance = max_ed
        except PlantopoError as exc:
            row.error = f"{type(exc).__name__}: {exc}"
        report.rows.append(row)
        if row.error is None:
            groups.setdefault((spec.domain_name, spec.params), []).append(row)
    for key, rows in groups.items():
        eds = [r.sampled_max_exit_distance for r in rows]
        report.group_means[key] = {
            "valley_pct": sum(r.valley_percentage for r in rows) / len(rows),
            "max_exit_distance":
                INF if any(e == INF for e in eds) else sum(eds) / len(rows),
        }
    return report
