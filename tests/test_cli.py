"""End-to-end command-line runs checked against golden output files."""

import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest
from click.testing import CliRunner

from plantopo import cli
from plantopo.analysis import UNKNOWN, VERDICT_HPLUS_EQUALS_GD, \
    VERDICT_HPLUS_EQUALS_GD_VIA_REPAIRS, VERDICT_NO_LOCAL_MINIMA, \
    interaction_free_verdict
from plantopo.cli import TaxonomyCard, emit_report, main
from plantopo.errors import PlantopoError
from plantopo.generators import DOMAINS
from plantopo.state_space import DEAD_END_HARMLESS, DEAD_END_RECOGNIZED, \
    DEAD_END_UNDIRECTED

HERE = pathlib.Path(__file__).parent
ROOT = HERE.parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"


@pytest.fixture()
def runner():
    return CliRunner()


def task_args(name):
    return [str(DATA / f"{name}-domain.pddl"),
            str(DATA / f"{name}-problem.pddl")]


def src_env():
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def check_golden(result, golden_name):
    assert result.exit_code == 0, result.output
    assert result.output == (GOLDEN / golden_name).read_text()


class TestGen:
    def test_movie_to_stdout(self, runner):
        check_golden(runner.invoke(main, ["gen", "--domain", "movie"]),
                     "gen_movie.txt")

    def test_files_written(self, runner, tmp_path):
        dom = tmp_path / "d.pddl"
        prob = tmp_path / "p.pddl"
        res = runner.invoke(main, ["gen", "--domain", "gripper",
                                   "--param", "balls=1",
                                   "--domain-file", str(dom),
                                   "--problem-file", str(prob)])
        assert res.exit_code == 0
        assert "(define (domain" in dom.read_text()
        assert "(define (problem" in prob.read_text()

    def test_output_dir_env(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("PLANTOPO_OUTPUT_DIR", str(tmp_path))
        res = runner.invoke(main, ["gen", "--domain", "movie",
                                   "--domain-file", "d.pddl",
                                   "--problem-file", "p.pddl"])
        assert res.exit_code == 0
        assert (tmp_path / "d.pddl").exists()
        assert (tmp_path / "p.pddl").exists()

    def test_bad_parameter_exits_one(self, runner):
        res = runner.invoke(main, ["gen", "--domain", "gripper",
                                   "--param", "balls=0"])
        assert res.exit_code == 1

    def test_misspelled_parameter_exits_one(self, runner):
        res = runner.invoke(main, ["gen", "--domain", "logistics",
                                   "--param", "city_size=5"])
        assert res.exit_code == 1
        assert "city_size" in res.output
        assert "accepted: airplanes, cities, packages, size" in res.output

    def test_malformed_parameter_exits_two(self, runner):
        res = runner.invoke(main, ["gen", "--domain", "gripper",
                                   "--param", "balls"])
        assert res.exit_code == 2


class TestParse:
    def test_transport_summary(self, runner):
        check_golden(runner.invoke(main, ["parse"] + task_args("transport")),
                     "parse_transport.txt")

    def test_missing_file_exits_two(self, runner):
        res = runner.invoke(main, ["parse", "no-such.pddl", "also-no.pddl"])
        assert res.exit_code == 2

    def test_broken_pddl_exits_one(self, runner, tmp_path):
        bad = tmp_path / "bad.pddl"
        bad.write_text("(define (domain broken")
        res = runner.invoke(main, ["parse", str(bad), str(bad)])
        assert res.exit_code == 1

    def test_malformed_section_exits_one_without_traceback(self, tmp_path):
        domain = (DATA / "transport-domain.pddl").read_text()
        assert "(:requirements" in domain
        bad = tmp_path / "bad.pddl"
        bad.write_text(domain.replace("(:requirements", "(:requirements (:strips)", 1))
        res = subprocess.run(
            [sys.executable, "-m", "plantopo.cli", "parse", str(bad),
             str(DATA / "transport-problem.pddl")],
            capture_output=True, text=True, env=src_env(), timeout=120)
        assert res.returncode == 1
        assert res.stderr.startswith("error: ")
        assert "Traceback" not in res.stderr + res.stdout


class TestHeuristic:
    def test_relaxed_plan_with_listing(self, runner):
        check_golden(
            runner.invoke(main, ["heuristic"] + task_args("transport")
                          + ["--h", "hff", "--show-plan"]),
            "heuristic_transport.txt")

    def test_exact_relaxed_length(self, runner):
        check_golden(
            runner.invoke(main, ["heuristic"] + task_args("toll")
                          + ["--h", "hplus"]),
            "heuristic_toll.txt")


class TestTopology:
    def test_blocksworld_summary(self, runner):
        check_golden(
            runner.invoke(main, ["topology"] + task_args("blocks-held")
                          + ["--h", "hplus"]),
            "topology_blocks_held.txt")

    def test_csv_and_dot_files(self, runner, tmp_path):
        csv_file = tmp_path / "space.csv"
        dot_file = tmp_path / "space.dot"
        res = runner.invoke(main, ["topology"] + task_args("blocks-held")
                            + ["--h", "hplus", "--csv", str(csv_file),
                               "--dot", str(dot_file)])
        assert res.exit_code == 0
        lines = csv_file.read_text().splitlines()
        assert lines[0] == ("state_id,h,gd,plateau_id,plateau_class,"
                            "exit_distance")
        assert len(lines) == 23        # header plus the 22 states
        assert dot_file.read_text().startswith("digraph")

    def test_state_cap_exits_one(self, runner):
        res = runner.invoke(main, ["topology"] + task_args("gripper2")
                            + ["--max-states", "3"])
        assert res.exit_code == 1


class TestPlan:
    def test_gripper_solved(self, runner):
        check_golden(
            runner.invoke(main, ["plan"] + task_args("gripper2")
                          + ["--h", "hplus"]),
            "plan_gripper2.txt")

    def test_budget_failure_exits_one(self, runner):
        res = runner.invoke(main, ["plan"] + task_args("gripper2")
                            + ["--budget", "1"])
        assert res.exit_code == 1
        assert "ResourceExhausted" in res.output


class TestSample:
    def test_gripper_group_csv(self, runner):
        check_golden(
            runner.invoke(main, ["sample", "--domain", "gripper",
                                 "--param", "balls=1..2",
                                 "--samples", "20", "--seed", "3"]),
            "sample_gripper.csv")

    def test_seed_changes_output(self, runner):
        base = ["sample", "--domain", "simple-tsp",
                "--param", "locations=3", "--samples", "10"]
        a = runner.invoke(main, base + ["--seed", "1"])
        b = runner.invoke(main, base + ["--seed", "1"])
        c = runner.invoke(main, base + ["--seed", "2"])
        assert a.exit_code == b.exit_code == c.exit_code == 0
        assert a.output == b.output
        assert a.output.splitlines()[0] == c.output.splitlines()[0]

    def test_csv_file_written(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        res = runner.invoke(main, ["sample", "--domain", "movie",
                                   "--samples", "5", "--csv", str(out)])
        assert res.exit_code == 0
        assert out.read_text().startswith("domain,params,")

    def test_some_failed_instances_are_flagged(self, runner):
        res = runner.invoke(main, ["sample", "--domain", "gripper",
                                   "--param", "balls=0..1", "--samples", "5"])
        assert res.exit_code == 0, res.output
        rows = res.output.splitlines()[1:]
        assert len(rows) == 2
        assert rows[0].endswith(",PreconditionViolated: gripper needs balls >= 1")
        assert rows[1].endswith(",")


class TestAnalyze:
    def test_toll_graph_report(self, runner):
        check_golden(runner.invoke(main, ["analyze"] + task_args("toll")),
                     "analyze_toll.txt")

    def test_with_space_reports_unrespected(self, runner):
        res = runner.invoke(main, ["analyze"] + task_args("blocks-held")
                            + ["--with-space"])
        assert res.exit_code == 0
        assert "not respected: putdown(c)" in res.output

    def test_with_space_reports_all_respected(self, runner):
        res = runner.invoke(main, ["analyze"] + task_args("gripper2")
                            + ["--with-space"])
        assert res.exit_code == 0
        assert res.output.endswith("states enumerated: 28\n"
                                   "all actions respected by the relaxation\n")

    def test_tiny_cap_skips_conflicts(self, runner):
        res = runner.invoke(main, ["analyze"] + task_args("transport")
                            + ["--fgt-cap", "4"])
        assert res.exit_code == 0
        assert "conflicts: not enumerated" in res.output


class TestTaxonomy:
    def test_gripper_card(self, runner):
        check_golden(
            runner.invoke(main, ["taxonomy", "gripper", "--sizes", "1..3"]),
            "taxonomy_gripper.txt")

    def test_tsp_card_csv(self, runner):
        check_golden(
            runner.invoke(main, ["taxonomy", "simple-tsp", "--sizes", "2..4",
                                 "--format", "csv"]),
            "taxonomy_tsp.csv")

    def test_unknown_family_lists_supported(self, runner):
        res = runner.invoke(main, ["taxonomy", "warehouse", "--sizes", "1"])
        assert res.exit_code == 1
        assert "gripper" in res.output

    def test_bad_size_exits_one(self, runner):
        res = runner.invoke(main, ["taxonomy", "gripper", "--sizes", "0"])
        assert res.exit_code == 1
        assert res.output.startswith("error: ")

    @pytest.mark.parametrize("family", sorted(
        name for name, (_, params) in DOMAINS.items() if not params))
    def test_fixture_has_no_size_to_vary(self, runner, family):
        res = runner.invoke(main, ["taxonomy", family, "--sizes", "1"])
        assert res.exit_code == 1
        assert res.output.startswith(f"error: no generator for {family!r}")
        assert "gripper" in res.output

    def test_card_combines_the_sizes(self, runner, monkeypatch):
        # blocksworld-arm reads HplusEqualsGd at size 1 and Unknown at size
        # 2, and size 3 has a local minimum
        verdicts, cards = [], []
        monkeypatch.setattr(cli, "interaction_free_verdict", lambda *a: (
            verdicts.append(interaction_free_verdict(*a)) or verdicts[-1]))
        monkeypatch.setattr(cli, "emit_report", lambda card, fmt: (
            cards.append(card) or emit_report(card, fmt)))
        res = runner.invoke(main, ["taxonomy", "blocksworld-arm",
                                   "--sizes", "1..3"])
        assert res.exit_code == 0, res.output
        assert verdicts[:2] == [VERDICT_HPLUS_EQUALS_GD, UNKNOWN]
        assert [m for _, _, m, _ in cards[0].per_size] == [0, 0, 4]
        assert cards[0].interaction_free == UNKNOWN
        assert cards[0].local_minimum_seen

    @pytest.mark.parametrize("verdict, observed", [
        ({"lemma1": True}, {"dead_end_class": DEAD_END_HARMLESS}),
        ({"lemma2": True}, {"dead_end_class": DEAD_END_RECOGNIZED}),
        ({"no_local_minima": VERDICT_NO_LOCAL_MINIMA},
         {"local_minimum_seen": True}),
        ({"interaction_free": VERDICT_HPLUS_EQUALS_GD_VIA_REPAIRS},
         {"local_minimum_seen": True}),
    ], ids=["invertibility", "at-least-invertibility", "no-local-minima",
            "interaction-freeness"])
    def test_contradictory_card_is_refused(self, verdict, observed):
        fields = {"dead_end_class": DEAD_END_UNDIRECTED, **verdict}
        card = TaxonomyCard("d", "n", [1], mlmed=0, mbed=0, **fields)
        emit_report(card)
        card = TaxonomyCard("d", "n", [1], mlmed=0, mbed=0,
                            **{**fields, **observed})
        with pytest.raises(PlantopoError, match="taxonomy inconsistency"):
            emit_report(card)


class TestErrorBoundary:
    """Every domain error leaves through the one boundary in ``main``: exit
    status 1 and a single ``error: `` line on stderr, never a traceback."""

    BAD = "<broken.pddl>"           # replaced by a file holding broken PDDL
    FREE = "<free-variable.pddl>"   # gripper whose move compares ?from with
                                    # an undeclared variable
    ILL_TYPED = "<ill-typed.pddl>"  # gripper problem whose robot starts at
                                    # a ball
    COMMA = "<comma.pddl>"          # gripper problem with objects x,y z and
                                    # x y,z: both would name at(x,y,z)
    RETYPED = "<retyped.pddl>"      # gripper domain declaring ball twice,
                                    # the second time below room
    ROOTED = "<rooted.pddl>"        # gripper domain giving the root type
                                    # object a parent, room
    ELSEWHERE = "<elsewhere.pddl>"  # gripper problem for the domain ferry

    @pytest.mark.parametrize("args", [
        ["gen", "--domain", "gripper", "--param", "balls=0"],
        ["parse", BAD, BAD],
        ["heuristic", BAD, BAD],
        ["topology", BAD, BAD],
        ["plan", BAD, BAD],
        ["analyze", BAD, BAD],
        ["topology"] + task_args("gripper2") + ["--max-states", "3"],
        ["taxonomy", "warehouse", "--sizes", "1"],
        ["taxonomy", "gripper", "--sizes", "0"],
        ["sample", "--domain", "warehouse", "--samples", "5"],
        ["sample", "--domain", "gripper", "--param", "balls=0", "--samples", "5"],
        ["parse", FREE, str(DATA / "gripper2-problem.pddl")],
        ["parse", str(DATA / "gripper2-domain.pddl"), ILL_TYPED],
        ["parse", str(DATA / "gripper2-domain.pddl"), COMMA],
        ["gen", "--domain", "logistics", "--param", "size=1"],
        ["parse", RETYPED, str(DATA / "gripper2-problem.pddl")],
        ["parse", ROOTED, str(DATA / "gripper2-problem.pddl")],
        ["parse", str(DATA / "gripper2-domain.pddl"), ELSEWHERE],
        ["sample", "--domain", "gripper", "--param", "balls=1", "--samples", "2",
         "--factor", "inf"],
    ], ids=["gen-balls-0", "parse", "heuristic", "topology", "plan",
            "analyze", "topology-state-cap", "taxonomy-unknown-family",
            "taxonomy-size-0", "sample-unknown-family", "sample-balls-0",
            "parse-free-variable", "parse-ill-typed-init",
            "parse-comma-in-object-name", "gen-logistics-one-location",
            "parse-conflicting-type-declarations", "parse-parent-of-object",
            "parse-problem-for-another-domain", "sample-infinite-factor"])
    def test_exits_one_with_one_error_line(self, runner, tmp_path, args):
        bad = tmp_path / "bad.pddl"
        bad.write_text("(define (domain broken")
        free = tmp_path / "free-variable.pddl"
        free.write_text((DATA / "gripper2-domain.pddl").read_text().replace(
            "(not (= ?from ?to))", "(not (= ?from ?zz))"))
        ill_typed = tmp_path / "ill-typed.pddl"
        ill_typed.write_text((DATA / "gripper2-problem.pddl").read_text()
                             .replace("(at-robby rooma)", "(at-robby ball1)"))
        comma = tmp_path / "comma.pddl"
        comma.write_text((DATA / "gripper2-problem.pddl").read_text().replace(
            "rooma roomb - room ball1 ball2 - ball",
            "rooma roomb y,z z - room ball1 ball2 x x,y - ball"))
        retyped = tmp_path / "retyped.pddl"
        retyped.write_text((DATA / "gripper2-domain.pddl").read_text().replace(
            "(:types room ball gripper)",
            "(:types room ball gripper - object ball - room)"))
        rooted = tmp_path / "rooted.pddl"
        rooted.write_text((DATA / "gripper2-domain.pddl").read_text().replace(
            "(:types room ball gripper)",
            "(:types room ball gripper - object object - room)"))
        elsewhere = tmp_path / "elsewhere.pddl"
        elsewhere.write_text((DATA / "gripper2-problem.pddl").read_text().replace(
            "(:domain gripper)", "(:domain ferry)"))
        args = [str(bad) if a == self.BAD else
                str(free) if a == self.FREE else
                str(ill_typed) if a == self.ILL_TYPED else
                str(comma) if a == self.COMMA else
                str(retyped) if a == self.RETYPED else
                str(rooted) if a == self.ROOTED else
                str(elsewhere) if a == self.ELSEWHERE else a for a in args]
        res = runner.invoke(main, args)
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
        assert "Traceback" not in res.output


class TestIntegerArguments:
    """A malformed integer, an empty range or a count, factor or cap below
    its minimum is a usage error."""

    @pytest.mark.parametrize("args", [
        ["gen", "--domain", "gripper", "--param", "balls=abc"],
        ["sample", "--domain", "gripper", "--param", "balls=a..2"],
        ["sample", "--domain", "gripper", "--param", "balls=2..1"],
        ["sample", "--domain", "gripper", "--samples", "0"],
        ["taxonomy", "gripper", "--sizes", "abc"],
        ["taxonomy", "gripper", "--sizes", "3..1"],
        ["sample", "--domain", "gripper", "--per-group", "0"],
        ["sample", "--domain", "gripper", "--factor", "0"],
        ["sample", "--domain", "gripper", "--factor", "-1"],
        ["analyze"] + task_args("transport") + ["--fgt-cap", "0"],
        ["taxonomy", "gripper", "--sizes", "1..1", "--cap", "0"],
        ["topology"] + task_args("gripper2") + ["--max-states", "-3"],
        ["taxonomy", "gripper", "--sizes", "1..1", "--max-states", "0"],
        ["plan"] + task_args("gripper2") + ["--budget", "0"],
    ])
    def test_exits_two_without_traceback(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output


class TestDispatch:
    def test_unknown_subcommand_exits_two(self, runner):
        res = runner.invoke(main, ["frobnicate"])
        assert res.exit_code == 2

    def test_version(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0
        assert "plantopo" in res.output

    def test_version_matches_pyproject(self):
        import plantopo
        text = (ROOT / "pyproject.toml").read_text()
        table = re.search(r"(?ms)^\[project\]\s*$(.*?)(?:^\[|\Z)", text)
        assert table is not None
        version = re.search(r'(?m)^version\s*=\s*"([^"]+)"', table.group(1))
        assert version is not None
        assert plantopo.__version__ == version.group(1)

    def test_entry_point_installed(self):
        # The target that [project.scripts] declares, started the way the
        # installed wrapper starts it; then the installed script, if any.
        text = (ROOT / "pyproject.toml").read_text()
        table = re.search(r"(?ms)^\[project\.scripts\]\s*$(.*?)(?:^\[|\Z)",
                          text)
        assert table is not None
        entry = re.search(r'(?m)^plantopo\s*=\s*"([^"]+)"', table.group(1))
        assert entry is not None
        module, _, attr = entry.group(1).partition(":")
        code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        runs = [([sys.executable, "-c", code, "--version"], src_env())]
        exe = shutil.which("plantopo")
        if exe is not None:
            assert os.access(exe, os.X_OK)
            runs.append(([exe, "--version"], None))
        for cmd, run_env in runs:
            res = subprocess.run(cmd, capture_output=True, text=True,
                                 env=run_env, timeout=120)
            assert res.returncode == 0, res.stderr
            assert "plantopo" in res.stdout
