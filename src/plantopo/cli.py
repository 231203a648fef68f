"""Command-line front end: generation, parsing, heuristics, topology,
planning, sampling, static analysis, and per-domain taxonomy cards."""

from __future__ import annotations

import csv
import io
import os
import sys
from dataclasses import dataclass, field

import click

from . import __version__, pddl
from .analysis import DEFAULT_NODE_CAP, UNKNOWN, VERDICT_HPLUS_EQUALS_GD, \
    VERDICT_HPLUS_EQUALS_GD_VIA_REPAIRS, VERDICT_NO_LOCAL_MINIMA, \
    analyze_task, check_lemmas, interaction_free_verdict, \
    no_local_minima_criterion, validate_respected
from .errors import PlantopoError
from .generators import DOMAINS, GeneratorSpec, generate, pddl_texts
from .heuristics import HEURISTICS, format_value, h_ff
from .sampling import SampleConfig, run_experiment
from .search import DEFAULT_BUDGET, OUTCOME_SOLVED, enforced_hill_climbing
from .state_space import DEAD_END_HARMLESS, DEAD_END_RECOGNIZED, \
    DEAD_END_UNDIRECTED, DEAD_END_UNRECOGNIZED, DEFAULT_MAX_STATES, \
    PLATEAU_LOCAL_MINIMUM, enumerate_space, export_dot, topology_report
from .task_model import Task

# taxonomy merges its sizes field by field: the worst value in each order
_SEVERITY = [DEAD_END_UNDIRECTED, DEAD_END_HARMLESS,
             DEAD_END_RECOGNIZED, DEAD_END_UNRECOGNIZED]
_INTERACTION_FREE = [VERDICT_HPLUS_EQUALS_GD,
                     VERDICT_HPLUS_EQUALS_GD_VIA_REPAIRS, UNKNOWN]
_NO_LOCAL_MINIMA = [VERDICT_NO_LOCAL_MINIMA, UNKNOWN]


@dataclass
class TaxonomyCard:
    domain: str
    size_param: str
    sizes: list
    dead_end_class: str                  # worst observed over instances
    mlmed: object
    mbed: object
    per_size: list = field(default_factory=list)   # (size, class, mlmed, mbed)
    lemma1: bool = False
    lemma2: bool = False
    interaction_free: str = UNKNOWN
    no_local_minima: str = UNKNOWN
    local_minimum_seen: bool = False


def _check_card(card: TaxonomyCard):
    """Observed values must never contradict a positive static verdict."""
    if card.lemma1 and card.dead_end_class != DEAD_END_UNDIRECTED:
        raise PlantopoError("taxonomy inconsistency: invertibility verdict "
                            f"vs observed class {card.dead_end_class}")
    if card.lemma2 and card.dead_end_class in (DEAD_END_RECOGNIZED,
                                               DEAD_END_UNRECOGNIZED):
        raise PlantopoError("taxonomy inconsistency: at-least-invertibility "
                            f"verdict vs observed class {card.dead_end_class}")
    if card.no_local_minima == VERDICT_NO_LOCAL_MINIMA and card.local_minimum_seen:
        raise PlantopoError("taxonomy inconsistency: no-local-minima verdict "
                            "vs an observed local minimum")
    if card.interaction_free != UNKNOWN and card.local_minimum_seen:
        raise PlantopoError("taxonomy inconsistency: interaction-freeness "
                            "verdict vs an observed local minimum")


def emit_report(card: TaxonomyCard, format: str = "text") -> str:
    _check_card(card)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["domain", "size_param", "sizes", "dead_end_class",
                         "mlmed", "mbed", "lemma1", "lemma2",
                         "interaction_free", "no_local_minima"])
        writer.writerow([
            card.domain, card.size_param,
            ";".join(str(s) for s in card.sizes), card.dead_end_class,
            format_value(card.mlmed), format_value(card.mbed),
            card.lemma1, card.lemma2,
            card.interaction_free, card.no_local_minima,
        ])
        return buf.getvalue()
    lines = [
        f"domain: {card.domain}",
        f"sizes examined ({card.size_param}): "
        + ", ".join(str(s) for s in card.sizes),
        f"observed dead-end class (worst): {card.dead_end_class}",
        f"observed mlmed: {format_value(card.mlmed)}",
        f"observed mbed: {format_value(card.mbed)}",
        f"all actions invertible: {card.lemma1}",
        f"all actions at least invertible or harmless: {card.lemma2}",
        f"interaction-freeness verdict: {card.interaction_free}",
        f"no-local-minima verdict: {card.no_local_minima}",
    ]
    for size, cls, mlmed, mbed in card.per_size:
        lines.append(f"  size {size}: class={cls} "
                     f"mlmed={format_value(mlmed)} mbed={format_value(mbed)}")
    return "\n".join(lines) + "\n"


def _out_path(path):
    """Relative output files land in $PLANTOPO_OUTPUT_DIR when it is set."""
    base = os.environ.get("PLANTOPO_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write(path, text):
    with open(_out_path(path), "w") as fh:
        fh.write(text)


def _load_task(domain_path, problem_path) -> Task:
    with open(domain_path) as fh:
        domain_text = fh.read()
    with open(problem_path) as fh:
        problem_text = fh.read()
    return pddl.ground(pddl.parse_task(domain_text, problem_text))


def _parse_params(params):
    out = {}
    for item in params:
        if "=" not in item:
            raise click.UsageError(f"parameter {item!r} is not key=value")
        key, _, value = item.partition("=")
        out[key] = value
    return out


def _int(text, what):
    try:
        return int(text)
    except ValueError:
        raise click.UsageError(f"{what}: {text!r} is not an integer") from None


def _int_range(text, what):
    """``n`` or ``lo..hi`` as the list of integers it names; a malformed
    integer or an empty range is a usage error."""
    lo, dots, hi = text.partition("..")
    values = list(range(_int(lo, what), _int(hi if dots else lo, what) + 1))
    if not values:
        raise click.UsageError(f"{what}: {text!r} is an empty range")
    return values


class _Main(click.Group):
    """The CLI's one error boundary: a ``PlantopoError`` from any subcommand
    ends the run with ``error: <message>`` on stderr and exit status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PlantopoError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="plantopo")
def main():
    """Local-search topology laboratory for STRIPS planning tasks."""


@main.command()
@click.option("--domain", "domain_name", required=True)
@click.option("--param", "params", multiple=True, help="key=value")
@click.option("--seed", default=0, show_default=True)
@click.option("--domain-file", type=click.Path(), default=None)
@click.option("--problem-file", type=click.Path(), default=None)
def gen(domain_name, params, seed, domain_file, problem_file):
    """Emit PDDL for a generated instance."""
    values = {k: _int(v, k) for k, v in _parse_params(params).items()}
    domain_text, problem_text = pddl_texts(
        GeneratorSpec(domain_name, values, seed))
    if domain_file:
        _write(domain_file, domain_text)
    else:
        click.echo(";; domain")
        click.echo(domain_text, nl=False)
    if problem_file:
        _write(problem_file, problem_text)
    else:
        click.echo(";; problem")
        click.echo(problem_text, nl=False)


@main.command()
@click.argument("domain_path", type=click.Path(exists=True))
@click.argument("problem_path", type=click.Path(exists=True))
def parse(domain_path, problem_path):
    """Parse and ground a task, printing a summary."""
    task = _load_task(domain_path, problem_path)
    click.echo(f"task: {task.name}")
    click.echo(f"facts: {len(task.facts)}")
    click.echo(f"actions: {len(task.actions)}")
    click.echo(f"init size: {len(task.init)}")
    click.echo(f"goal size: {len(task.goal)}")


@main.command()
@click.argument("domain_path", type=click.Path(exists=True))
@click.argument("problem_path", type=click.Path(exists=True))
@click.option("--h", "heuristic", default="hff", show_default=True,
              type=click.Choice(sorted(HEURISTICS)))
@click.option("--show-plan", is_flag=True,
              help="print the extracted relaxed plan (hff only)")
def heuristic(domain_path, problem_path, heuristic, show_plan):
    """Evaluate a heuristic at the initial state."""
    task = _load_task(domain_path, problem_path)
    value, plan = h_ff(task, task.init) if heuristic == "hff" \
        else (HEURISTICS[heuristic](task, task.init), None)
    click.echo(f"{heuristic}(init) = {format_value(value)}")
    if show_plan and plan is not None:
        for aid in plan.actions:
            click.echo(task.actions[aid].name)


@main.command()
@click.argument("domain_path", type=click.Path(exists=True))
@click.argument("problem_path", type=click.Path(exists=True))
@click.option("--h", "heuristic", default="hplus", show_default=True,
              type=click.Choice(sorted(HEURISTICS)))
@click.option("--max-states", default=DEFAULT_MAX_STATES, show_default=True,
              type=click.IntRange(min=1))
@click.option("--dot", "dot_file", type=click.Path(), default=None)
@click.option("--csv", "csv_file", type=click.Path(), default=None)
def topology(domain_path, problem_path, heuristic, max_states, dot_file,
             csv_file):
    """Enumerate the state space and classify its plateaus."""
    task = _load_task(domain_path, problem_path)
    space = enumerate_space(task, HEURISTICS[heuristic], max_states)
    report = topology_report(space)
    counts = {}
    for p in report.plateaus:
        counts[p.plateau_class] = counts.get(p.plateau_class, 0) + 1
    click.echo(f"states: {space.size}")
    click.echo(f"dead-end class: {report.dead_end_class}")
    for cls in sorted(counts):
        click.echo(f"plateaus[{cls}]: {counts[cls]}")
    click.echo(f"mlmed: {format_value(report.mlmed)}")
    click.echo(f"mbed: {format_value(report.mbed)}")
    if dot_file:
        _write(dot_file, export_dot(space))
    if csv_file:
        classes = {p.id: p.plateau_class for p in report.plateaus}
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["state_id", "h", "gd", "plateau_id",
                         "plateau_class", "exit_distance"])
        for sid in range(space.size):
            pid = report.plateau_of[sid]
            writer.writerow([sid, format_value(space.h[sid]),
                             format_value(space.gd[sid]), pid, classes[pid],
                             format_value(report.ed.get(sid, ""))])
        _write(csv_file, buf.getvalue())


@main.command()
@click.argument("domain_path", type=click.Path(exists=True))
@click.argument("problem_path", type=click.Path(exists=True))
@click.option("--h", "heuristic", default="hff", show_default=True,
              type=click.Choice(sorted(HEURISTICS)))
@click.option("--budget", default=DEFAULT_BUDGET, show_default=True,
              type=click.IntRange(min=1))
def plan(domain_path, problem_path, heuristic, budget):
    """Plan with enforced hill-climbing."""
    task = _load_task(domain_path, problem_path)
    result = enforced_hill_climbing(task, HEURISTICS[heuristic], budget)
    click.echo(f"outcome: {result.outcome}")
    click.echo(f"states evaluated: {result.states_evaluated}")
    if result.outcome == OUTCOME_SOLVED:
        click.echo(f"plan length: {len(result.plan)}")
        for aid in result.plan:
            click.echo(task.actions[aid].name)
    else:
        sys.exit(1)


@main.command()
@click.option("--domain", "domain_name", required=True)
@click.option("--param", "params", multiple=True,
              help="key=value or key=lo..hi")
@click.option("--per-group", default=1, show_default=True,
              type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True)
@click.option("--h", "heuristic", default="hff", show_default=True,
              type=click.Choice(sorted(HEURISTICS)))
@click.option("--samples", default=100, show_default=True,
              type=click.IntRange(min=1))
@click.option("--factor", default=2.0, show_default=True,
              type=click.FloatRange(min=0, min_open=True))
@click.option("--csv", "csv_file", type=click.Path(), default=None)
def sample(domain_name, params, per_group, seed, heuristic, samples, factor,
           csv_file):
    """Random-walk sampling over generated instance groups.  An instance
    that fails is flagged in its row; a domain error when all of them do."""
    ranges = {k: _int_range(v, k) for k, v in _parse_params(params).items()}
    groups = [{}]
    for key in sorted(ranges):
        groups = [dict(g, **{key: v}) for g in groups for v in ranges[key]]
    specs = [GeneratorSpec(domain_name, g, seed + i)
             for g in groups for i in range(per_group)]
    cfg = SampleConfig(samples_per_instance=samples,
                       walk_length_factor=factor, seed=seed,
                       heuristic=heuristic)
    report = run_experiment(specs, cfg)
    if all(row.error for row in report.rows):
        raise PlantopoError("no instance could be sampled; first error: "
                            f"{report.rows[0].error}")
    text = report.to_csv()
    if csv_file:
        _write(csv_file, text)
    else:
        click.echo(text, nl=False)


@main.command()
@click.argument("domain_path", type=click.Path(exists=True))
@click.argument("problem_path", type=click.Path(exists=True))
@click.option("--fgt-cap", "cap", default=DEFAULT_NODE_CAP, show_default=True,
              type=click.IntRange(min=1),
              help="node cap for the goal regression tree")
@click.option("--with-space", is_flag=True,
              help="also enumerate the space and check respectedness")
def analyze(domain_path, problem_path, cap, with_space):
    """Static analysis: action properties, conflicts, verdicts."""
    task = _load_task(domain_path, problem_path)
    report = analyze_task(task, cap)
    click.echo("action flags (invertible / at-least-invertible / "
               "static-adds / relevant-deletes):")
    for f in report.flags:
        inv = "-" if f.invertible is None else task.actions[f.invertible].name
        alinv = "-" if f.at_least_invertible is None \
            else task.actions[f.at_least_invertible].name
        click.echo(f"  {task.actions[f.action_id].name}: {inv} / {alinv} / "
                   f"{f.static_add_effects} / {f.relevant_delete_effects}")
    click.echo(f"all actions invertible: {report.lemma1}")
    click.echo(f"all actions at least invertible or harmless: {report.lemma2}")
    click.echo(f"single achievers: {report.prop2}")
    click.echo(f"single goal and single preconditions: {report.prop3}")
    click.echo(f"deletes within preconditions too: {report.prop4}")
    if report.conflicts is None:
        click.echo("conflicts: not enumerated (tree too large)")
    else:
        click.echo(f"conflicts: {len(report.conflicts)}")
        for c in report.conflicts:
            names = "/".join("goal" if aid is None else task.actions[aid].name
                             for aid in c.action_ids)
            click.echo(f"  {c.kind}: {names} on {task.facts[c.fact].name} "
                       f"(repairable: {c.repairable})")
    click.echo(f"interaction-freeness verdict: {report.interaction_free_verdict}")
    click.echo(f"no-local-minima verdict: {report.no_local_minima_verdict}")
    if with_space:
        space = enumerate_space(task, HEURISTICS["hplus"])
        respected = validate_respected(task, space)
        bad = sorted(aid for aid, v in respected.items()
                     if not v["respected"])
        click.echo(f"states enumerated: {space.size}")
        if bad:
            for aid in bad:
                count = len(respected[aid]["counterexamples"])
                click.echo(f"not respected: {task.actions[aid].name} "
                           f"({count} counterexample states)")
        else:
            click.echo("all actions respected by the relaxation")


@main.command()
@click.argument("domain_name")
@click.option("--sizes", required=True, help="lo..hi for the size parameter")
@click.option("--seed", default=0, show_default=True)
@click.option("--max-states", default=DEFAULT_MAX_STATES, show_default=True,
              type=click.IntRange(min=1))
@click.option("--cap", default=DEFAULT_NODE_CAP, show_default=True,
              type=click.IntRange(min=1))
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["text", "csv"]))
def taxonomy(domain_name, sizes, seed, max_states, cap, fmt):
    """Classify a generated family by exhaustive topology plus static
    verdicts, at the examined sizes only."""
    size_params = {name: next(iter(params))
                   for name, (_, params) in DOMAINS.items() if params}
    if domain_name not in size_params:
        raise PlantopoError(f"no generator for {domain_name!r}; supported: "
                            + ", ".join(sorted(size_params)))
    size_param = size_params[domain_name]
    size_list = _int_range(sizes, "--sizes")
    card = TaxonomyCard(domain_name, size_param, size_list,
                        DEAD_END_UNDIRECTED, 0, 0, lemma1=True, lemma2=True,
                        interaction_free=VERDICT_HPLUS_EQUALS_GD,
                        no_local_minima=VERDICT_NO_LOCAL_MINIMA)
    for size in size_list:
        task = generate(GeneratorSpec(domain_name, {size_param: size}, seed))
        space = enumerate_space(task, HEURISTICS["hplus"], max_states)
        report = topology_report(space)
        card.dead_end_class = max(card.dead_end_class, report.dead_end_class,
                                  key=_SEVERITY.index)
        card.mlmed = max(card.mlmed, report.mlmed)
        card.mbed = max(card.mbed, report.mbed)
        card.per_size.append((size, report.dead_end_class,
                              report.mlmed, report.mbed))
        if any(p.plateau_class == PLATEAU_LOCAL_MINIMUM
               for p in report.plateaus):
            card.local_minimum_seen = True
        lemmas = check_lemmas(task)
        card.lemma1 = card.lemma1 and lemmas.lemma1
        card.lemma2 = card.lemma2 and lemmas.lemma2
        card.interaction_free = max(
            card.interaction_free, interaction_free_verdict(task, cap),
            key=_INTERACTION_FREE.index)
        card.no_local_minima = max(
            card.no_local_minima,
            no_local_minima_criterion(task, cap, flags=lemmas.flags),
            key=_NO_LOCAL_MINIMA.index)
    click.echo(emit_report(card, fmt), nl=False)


if __name__ == "__main__":
    sys.exit(main())
