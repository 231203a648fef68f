"""Parser, grounder, and serializer for the PDDL subset."""

import dataclasses
import pathlib
import random
import re

import pytest

from plantopo.errors import ParseError, PlantopoError, PreconditionViolated, \
    UnsupportedFeature
from plantopo.generators import DOMAINS, GeneratorSpec, generate, pddl_texts
from plantopo.pddl import ground, parse_task, serialize

DATA = pathlib.Path(__file__).parent / "data"

MINI_DOMAIN = """
(define (domain mini)
  (:requirements :strips)
  (:predicates (at ?x) (linked ?x ?y))
  (:action go
    :parameters (?from ?to)
    :precondition (and (at ?from) (linked ?from ?to))
    :effect (and (at ?to) (not (at ?from)))))
"""

MINI_PROBLEM = """
(define (problem mini-1) (:domain mini)
  (:objects a b)
  (:init (at a) (linked a b))
  (:goal (at b)))
"""

EQ_DOMAIN = MINI_DOMAIN.replace("(:requirements :strips)",
                                "(:requirements :strips :equality)")


class TestParse:
    def test_minimal_domain(self):
        lifted = parse_task(MINI_DOMAIN, MINI_PROBLEM)
        assert len(lifted.schemata) == 1
        assert lifted.schemata[0].name == "go"

    def test_forall_rejected(self):
        bad = MINI_DOMAIN.replace("(and (at ?to)", "(and (forall (?z) (at ?z))")
        with pytest.raises(UnsupportedFeature):
            parse_task(bad, MINI_PROBLEM)

    def test_negative_precondition_rejected(self):
        bad = MINI_DOMAIN.replace("(and (at ?from)",
                                  "(and (not (at ?to)) (at ?from)")
        with pytest.raises(UnsupportedFeature):
            parse_task(bad, MINI_PROBLEM)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError):
            parse_task("(define (domain broken", MINI_PROBLEM)

    def test_case_insensitive(self):
        lifted = parse_task(MINI_DOMAIN.upper(), MINI_PROBLEM.upper())
        assert len(lifted.schemata) == 1

    def test_comments_line_ends_tabs_and_case_parse_like_clean_text(self):
        def noisy(text):
            lines = text.strip().splitlines()
            lines = [line.replace("  ", "\t").upper() + " ; inline (comment"
                     for line in lines]
            return "; full-line comment )\r\n" + "\r\n".join(lines) + \
                "\r\n\t; comment at end of file"

        dom, prob = (DATA / "gripper2-domain.pddl").read_text(), \
            (DATA / "gripper2-problem.pddl").read_text()
        assert parse_task(noisy(dom), noisy(prob)) == parse_task(dom, prob)

    @pytest.mark.parametrize("text, message, line, column", [
        ("\n  ) (define (domain d))", "unexpected '\\)'", 2, 3),
        ("(define (domain d))\n\t; comment\n  x", "trailing input", 3, 3),
        ("(define\n (domain d)\n  (:predicates (p)", "unbalanced", 3, 3),
    ], ids=["unexpected-close", "trailing-input", "unbalanced-open"])
    def test_syntax_error_position(self, text, message, line, column):
        with pytest.raises(ParseError, match=message) as exc:
            parse_task(text, MINI_PROBLEM)
        assert (exc.value.line, exc.value.column) == (line, column)

    @pytest.mark.parametrize("old, new", [
        ("(domain mini)", "(domain (x))"),
        ("  (:action go", "  (:action)\n  (:action go"),
        ("(:predicates (at ?x)", "(:predicates p (at ?x)"),
        ("(:requirements :strips)", "(:requirements (:strips))"),
        ("(domain mini)", "(domain mini) " + "(" * 3000 + ")" * 3000),
        ("  (:action go", "  (:action go :parameters (?x) :effect (at ?x))\n"
                          "  (:action go"),
    ], ids=["domain-name-list", "empty-action", "predicates-bare-symbol",
            "requirements-list", "deeply-nested-parens", "duplicate-action"])
    def test_malformed_section_is_a_parse_error(self, old, new):
        assert old in MINI_DOMAIN
        with pytest.raises(ParseError):
            parse_task(MINI_DOMAIN.replace(old, new, 1), MINI_PROBLEM)

    @pytest.mark.parametrize("new, message", [
        ("(:domain other)", "problem is for domain other, not mini"),
        ("(:domain)", "has no name"),
        ("(:domain (mini))", "expected a symbol"),
    ], ids=["another-domain", "no-name", "name-list"])
    def test_problem_for_another_domain_is_a_parse_error(self, new, message):
        assert "(:domain mini)" in MINI_PROBLEM
        with pytest.raises(ParseError, match=message):
            parse_task(MINI_DOMAIN, MINI_PROBLEM.replace("(:domain mini)", new, 1))

    def test_deeply_nested_and_parses_like_the_flat_form(self):
        def nest(text):
            for _ in range(1200):
                text = f"(and {text})"
            return text

        nested = MINI_DOMAIN.replace(
            "(and (at ?from) (linked ?from ?to))",
            f"(and {nest('(at ?from)')} (linked ?from ?to))").replace(
            "(and (at ?to) (not (at ?from)))",
            f"(and (at ?to) {nest('(not (at ?from))')})")
        assert nested.count("(and") > 2400
        assert parse_task(nested, MINI_PROBLEM).schemata == \
            parse_task(MINI_DOMAIN, MINI_PROBLEM).schemata

    def test_cyclic_type_hierarchy_is_a_parse_error(self):
        # grounding would otherwise climb a -> b -> a forever looking for c
        dom = """(define (domain d) (:requirements :strips :typing)
                 (:types a - b b - a c) (:predicates (p ?x - c))
                 (:action go :parameters (?x - c) :precondition (p ?x)
                  :effect (not (p ?x))))"""
        prob = """(define (problem q) (:domain d) (:objects o - a k - c)
                  (:init (p k)) (:goal (p k)))"""
        with pytest.raises(ParseError):
            parse_task(dom, prob)

    def test_parent_of_the_root_type_is_a_parse_error(self):
        # the cycle t -> object -> t passes through the root, where the
        # cycle walk stops; the declared parent of object used to be
        # ignored, and go(o) grounded
        dom = """(define (domain d) (:requirements :strips :typing)
                 (:types t - object object - t) (:predicates (p ?x - t))
                 (:action go :parameters (?x - t) :precondition (p ?x)
                  :effect (not (p ?x))))"""
        prob = """(define (problem q) (:domain d) (:objects o - t)
                  (:init (p o)) (:goal (p o)))"""
        with pytest.raises(ParseError, match="type object is the root type"):
            parse_task(dom, prob)
        # object declared without a parent, or as its own, is the root still
        for types in ("(:types t - object object)", "(:types t object - object)"):
            task = ground(parse_task(dom.replace(
                "(:types t - object object - t)", types), prob))
            assert [a.name for a in task.actions] == ["go(o)"]

    @pytest.mark.parametrize("old, new", [
        ("(not (= ?from ?to))", "(not (= ?from ?zz))"),
        ("(not (= ?from ?to))", "(= ?from ?zz)"),
        ("(not (= ?from ?to))", "(not (= ?from nowhere))"),
        ("(and (at-robby ?from)", "(and (at-robby nowhere)"),
        ("(and (at-robby ?to)", "(and (at-robby nowhere)"),
        ("?from ?to - room", "?from ?to - rooom"),
        ("?from ?to - room", "?from ?to ?to - room"),
    ], ids=["neq-free-variable", "eq-free-variable", "neq-unknown-constant",
            "pre-unknown-constant", "add-unknown-constant",
            "parameter-undeclared-type", "parameter-repeated"])
    def test_gripper_move_rejects_what_would_ground_wrong(self, old, new):
        dom, prob = (DATA / "gripper2-domain.pddl").read_text(), \
            (DATA / "gripper2-problem.pddl").read_text()
        assert old in dom
        with pytest.raises(ParseError):
            parse_task(dom.replace(old, new, 1), prob)

    @pytest.mark.parametrize("part, old, new", [
        ("domain", "(at-robby ?r - room)", "(at-robby ?r - rooom)"),
        ("problem", "(at-robby rooma)", "(at-robby ball1)"),
        ("problem", "(at ball1 roomb)", "(at ball1 left)"),
        ("domain", ":parameters (?b - ball ?r - room",
         ":parameters (?b - object ?r - room"),
    ], ids=["predicate-undeclared-type", "init-ill-typed", "goal-ill-typed",
            "action-parameter-wider-than-predicate"])
    def test_gripper_ill_typed_atom_is_a_parse_error(self, part, old, new):
        texts = {"domain": (DATA / "gripper2-domain.pddl").read_text(),
                 "problem": (DATA / "gripper2-problem.pddl").read_text()}
        assert old in texts[part]
        texts[part] = texts[part].replace(old, new, 1)
        with pytest.raises(ParseError):
            parse_task(texts["domain"], texts["problem"])

    def test_object_of_undeclared_type_is_a_parse_error(self):
        dom, prob = (DATA / "gripper2-domain.pddl").read_text(), \
            (DATA / "gripper2-problem.pddl").read_text()
        with pytest.raises(ParseError):
            parse_task(dom, prob.replace("left right - gripper",
                                         "left right - grippr"))

    def test_declared_constants_and_parent_types_are_accepted(self):
        dom = """(define (domain d) (:requirements :strips :typing :equality)
                 (:types car - vehicle place) (:constants depot - place)
                 (:predicates (at ?v - vehicle ?p - place))
                 (:action park :parameters (?v - car ?p - place)
                  :precondition (and (at ?v ?p) (not (= ?p depot)))
                  :effect (and (at ?v depot) (not (at ?v ?p)))))"""
        prob = """(define (problem q) (:domain d) (:objects c - car x - place)
                  (:init (at c x)) (:goal (at c depot)))"""
        task = ground(parse_task(dom, prob))
        assert [a.name for a in task.actions] == ["park(c,x)"]

    TYPED_DOMAIN = """(define (domain d) (:requirements :strips :typing)
        (:types t u - object) (:constants c - t) (:predicates (p ?x - object))
        (:action go :parameters (?x - t) :precondition (p ?x)
         :effect (not (p ?x))))"""
    TYPED_PROBLEM = """(define (problem q) (:domain d) (:objects o - t)
        (:init (p o) (p c)) (:goal (p o)))"""

    @pytest.mark.parametrize("part, old, new", [
        ("problem", "(:objects o - t)", "(:objects o - t o - u)"),
        ("problem", "(:objects o - t)", "(:objects o - t c - u)"),
        ("domain", "(:predicates (p ?x - object))",
         "(:predicates (p ?x - t) (p ?x - object))"),
        ("domain", "(:types t u - object)", "(:types t u - object t - u)"),
    ], ids=["object-retyped", "constant-retyped-by-object",
            "predicate-redeclared", "type-reparented"])
    def test_conflicting_redeclaration_is_a_parse_error(self, part, old, new):
        # each used to be resolved silently, the last declaration winning
        texts = {"domain": self.TYPED_DOMAIN, "problem": self.TYPED_PROBLEM}
        assert old in texts[part]
        texts[part] = texts[part].replace(old, new, 1)
        with pytest.raises(ParseError, match="conflicting declarations"):
            parse_task(texts["domain"], texts["problem"])

    @pytest.mark.parametrize("part, old, new", [
        ("problem", "(:objects o - t)", "(:objects o - t o - t c - t)"),
        ("domain", "(:constants c - t)", "(:constants c - t c - t)"),
        ("domain", "(:predicates (p ?x - object))",
         "(:predicates (p ?x - object) (p ?x - object))"),
        ("domain", "(:types t u - object)", "(:types t u - object t)"),
    ], ids=["object", "constant", "predicate", "type"])
    def test_unchanged_redeclaration_is_accepted(self, part, old, new):
        texts = {"domain": self.TYPED_DOMAIN, "problem": self.TYPED_PROBLEM}
        want = ground(parse_task(texts["domain"], texts["problem"]))
        assert [a.name for a in want.actions] == ["go(c)", "go(o)"]
        texts[part] = texts[part].replace(old, new, 1)
        assert ground(parse_task(texts["domain"], texts["problem"])) == want

    @pytest.mark.parametrize("domain, problem, error, message", [
        ("; a comment and nothing else", MINI_PROBLEM, ParseError,
         "unexpected end of input"),
        (EQ_DOMAIN.replace("(linked ?from ?to))", "(linked ?from ?to) (= ?from))"),
         MINI_PROBLEM, ParseError, "takes exactly two terms"),
        (MINI_DOMAIN.replace(":parameters (?from ?to)", ":parameters ?from"),
         MINI_PROBLEM, ParseError, "expected a typed parameter list"),
        (MINI_DOMAIN.replace(":strips)", ":strips :adl)"), MINI_PROBLEM,
         UnsupportedFeature, "requirement :adl"),
        (MINI_DOMAIN.replace("(:action", "(:functions (cost)) (:action"),
         MINI_PROBLEM, UnsupportedFeature, "numeric fluents"),
        (MINI_DOMAIN.replace("(:action", "(:derived (at ?x) (linked ?x ?x)) (:action"),
         MINI_PROBLEM, UnsupportedFeature, "derived predicates"),
        (MINI_DOMAIN.replace(":parameters", ":duration 1 :parameters"),
         MINI_PROBLEM, UnsupportedFeature, "action keyword :duration"),
        (MINI_DOMAIN, MINI_PROBLEM.replace("(at a)", "(not (at b)) (at a)"),
         UnsupportedFeature, "negated init atoms"),
        (EQ_DOMAIN, MINI_PROBLEM.replace("(:goal (at b))",
                                         "(:goal (and (at b) (= a a)))"),
         UnsupportedFeature, "equality in goals"),
        (MINI_DOMAIN, MINI_PROBLEM.replace(
            "(:goal (at b))", "(:goal (at b)) (:metric minimize (total-time))"),
         UnsupportedFeature, "metrics"),
        # ground atom names join their arguments with commas
        (MINI_DOMAIN, MINI_PROBLEM.replace("(:objects a b)", "(:objects a b c,d)"),
         ParseError, "object name c,d contains ','"),
        (MINI_DOMAIN.replace("(:predicates", "(:constants c,d) (:predicates"),
         MINI_PROBLEM, ParseError, "object name c,d contains ','"),
    ], ids=["empty-input", "equality-one-term", "parameters-bare-symbol",
            "requirement-adl", "functions", "derived", "action-duration",
            "negated-init-atom", "goal-equality", "metric", "comma-in-object",
            "comma-in-constant"])
    def test_rejected_input_names_its_construct(self, domain, problem, error,
                                                message):
        with pytest.raises(error, match=message):
            parse_task(domain, problem)

    def test_mutated_text_raises_only_plantopo_errors(self):
        # seeded token-level mutations of a real domain and problem
        dom, prob = pddl_texts(GeneratorSpec("gripper", {"balls": 1}, 0))
        rng = random.Random(0)
        for _ in range(400):
            texts = [dom, prob]
            k = rng.randrange(2)
            toks = re.findall(r"\(|\)|[^\s()]+", texts[k])
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(toks))
                toks[i:i + 1] = rng.choice([
                    [], ["(", toks[i]], [")", toks[i]], ["(", toks[i], ")"],
                    [rng.choice(["-", ":parameters", ":action", "()"]), toks[i]]])
            texts[k] = " ".join(toks)
            try:
                parse_task(*texts)
            except PlantopoError:
                pass

    def test_gripper_has_three_schemata(self):
        dom, prob = pddl_texts(GeneratorSpec("gripper", {"balls": 1}, 0))
        lifted = parse_task(dom, prob)
        assert sorted(s.name for s in lifted.schemata) == \
            ["drop", "move", "pick"]


class TestGround:
    def test_minimal_instance(self):
        task = ground(parse_task(MINI_DOMAIN, MINI_PROBLEM))
        # static pruning: only go(a,b) survives (linked holds for (a,b) only)
        assert [a.name for a in task.actions] == ["go(a,b)"]

    def test_equality_keeps_only_equal_bindings(self):
        dom = MINI_DOMAIN.replace("(:requirements :strips)",
                                  "(:requirements :strips :equality)").replace(
            "(linked ?from ?to))", "(= ?from ?to))")
        task = ground(parse_task(dom, MINI_PROBLEM))
        assert [a.name for a in task.actions] == ["go(a,a)", "go(b,b)"]

    def test_transport_action_count(self, transport_task):
        kinds = {}
        for a in transport_task.actions:
            kinds.setdefault(a.name.split("(")[0], []).append(a.name)
        assert len(kinds["move"]) == 2
        assert len(kinds["load"]) == 4
        assert len(kinds["unload"]) == 4

    def test_tsp_ordered_pairs(self):
        task = generate(GeneratorSpec("simple-tsp", {"locations": 3}, 0))
        moves = [a for a in task.actions if a.name.startswith("move")]
        assert len(moves) == 6

    def test_deterministic_ids(self):
        a = generate(GeneratorSpec("logistics", {"cities": 2}, 3))
        b = generate(GeneratorSpec("logistics", {"cities": 2}, 3))
        assert [f.name for f in a.facts] == [f.name for f in b.facts]
        assert [x.name for x in a.actions] == [x.name for x in b.actions]
        assert a.init == b.init and a.goal == b.goal

    def test_static_predicates_follow_the_schemata(self):
        # without move, at-robby is static: pick and drop survive only in
        # rooma, the robot's room, and lose their at-robby precondition
        lifted = parse_task(*pddl_texts(GeneratorSpec("gripper", {"balls": 1}, 0)))
        fixed = dataclasses.replace(lifted, schemata=[
            s for s in lifted.schemata if s.name != "move"])
        task = ground(fixed)
        assert [a.name for a in task.actions if "roomb" in a.name] == []
        again = ground(parse_task(*serialize(fixed)))
        assert [(a.name, a.pre, a.add, a.delete) for a in task.actions] == \
            [(a.name, a.pre, a.add, a.delete) for a in again.actions]

    def test_zero_operator_domain(self):
        dom = """(define (domain empty) (:requirements :strips)
                 (:predicates (p ?x)))"""
        prob = """(define (problem e1) (:domain empty)
                  (:objects a) (:init (p a)) (:goal (p a)))"""
        task = ground(parse_task(dom, prob))
        assert list(task.actions) == []


class TestRoundTrip:
    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_serialize_reparse_reground(self, domain):
        def shape(task):
            return ([f.name for f in task.facts],
                    [(a.name, a.pre, a.add, a.delete) for a in task.actions],
                    task.init, task.goal)

        spec = GeneratorSpec(domain, {}, 5)
        task = generate(spec)
        dom, prob = pddl_texts(spec)
        dom2, prob2 = serialize(parse_task(dom, prob))
        assert shape(ground(parse_task(dom2, prob2))) == shape(task)
        # the domain's constants stay in the domain: each serialized text
        # also pairs with the other original one
        assert shape(ground(parse_task(dom2, prob))) == shape(task)
        assert shape(ground(parse_task(dom, prob2))) == shape(task)

    def test_lifted_serializer_round_trips(self):
        lifted = parse_task(MINI_DOMAIN, MINI_PROBLEM)
        dom, prob = serialize(lifted)
        again = ground(parse_task(dom, prob))
        direct = ground(lifted)
        assert [a.name for a in again.actions] == \
            [a.name for a in direct.actions]
        assert again.init == direct.init and again.goal == direct.goal


class TestGeneratorContracts:
    def test_unknown_domain_lists_supported(self):
        with pytest.raises(PreconditionViolated) as exc:
            pddl_texts(GeneratorSpec("warehouse", {}, 0))
        assert "gripper" in str(exc.value)

    def test_out_of_range_parameter(self):
        with pytest.raises(PreconditionViolated):
            generate(GeneratorSpec("hanoi", {"discs": 0}, 0))

    def test_misspelled_parameter_names_accepted_keys(self):
        for call in (generate, pddl_texts):
            with pytest.raises(PreconditionViolated) as exc:
                call(GeneratorSpec("logistics", {"city_size": 5}, 0))
            assert "city_size" in str(exc.value)
            assert "airplanes, cities, packages, size" in str(exc.value)
        with pytest.raises(PreconditionViolated, match="accepted: none"):
            generate(GeneratorSpec("transport-swap", {"n": 1}, 0))

    def test_logistics_with_one_location_is_refused(self):
        # a package needs a goal location other than its origin
        with pytest.raises(PreconditionViolated, match="two locations"):
            generate(GeneratorSpec("logistics", {"size": 1}, 0))

    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_declared_defaults_are_the_defaults(self, domain):
        _, defaults = DOMAINS[domain]
        assert pddl_texts(GeneratorSpec(domain, defaults, 3)) == \
            pddl_texts(GeneratorSpec(domain, {}, 3))

    @pytest.mark.parametrize("domain, param", [
        (domain, param) for domain in sorted(DOMAINS)
        for param in DOMAINS[domain][1]])
    def test_each_declared_parameter_is_read(self, domain, param):
        default = DOMAINS[domain][1][param]
        other = 1 if default is None else default + 1
        # past the first line, which names the problem after its parameters
        def body(params):
            problem = pddl_texts(GeneratorSpec(domain, params, 3))[1]
            return problem.split("\n", 1)[1]
        assert body({param: other}) != body({})

    def test_gripper_shape(self):
        task = generate(GeneratorSpec("gripper", {"balls": 2}, 0))
        goal_names = sorted(task.facts[f].name for f in task.goal)
        assert goal_names == ["at(ball1,roomb)", "at(ball2,roomb)"]

    def test_hanoi_shape(self):
        task = generate(GeneratorSpec("hanoi", {"discs": 3}, 0))
        goal_names = sorted(task.facts[f].name for f in task.goal)
        assert goal_names == ["on(d1,d2)", "on(d2,d3)", "on(d3,p3)"]
        assert "on(d3,p1)" in {task.facts[f].name for f in task.init}

    def test_tsp_degenerate_single_location(self):
        task = generate(GeneratorSpec("simple-tsp", {"locations": 1}, 0))
        assert task.goal <= task.init

    def test_identical_spec_identical_task(self):
        a = generate(GeneratorSpec("blocksworld-arm", {"blocks": 4}, 11))
        b = generate(GeneratorSpec("blocksworld-arm", {"blocks": 4}, 11))
        assert a.init == b.init and a.goal == b.goal
