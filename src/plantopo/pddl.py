"""STRIPS-subset PDDL front end: parsing, grounding, serialization.

Supported requirements: :strips, :typing, :equality.  Preconditions are
conjunctions of positive atoms plus (in)equality constraints over
parameters; effects are conjunctions of add atoms and (not ...) deletes.
Quantifiers, disjunctions, conditional effects, negative preconditions,
derived predicates, and numeric fluents are rejected with
UnsupportedFeature.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import ParseError, UnsupportedFeature
from .task_model import Task, make_task

_SUPPORTED_REQUIREMENTS = {":strips", ":typing", ":equality"}
_REJECTED_HEADS = {"forall", "exists", "when", "or", "imply", ":derived",
                   "increase", "decrease", "assign", ">=", "<=", ">", "<"}


# ---------------------------------------------------------------------------
# s-expression reader

@dataclass
class _Tok:
    text: str
    line: int
    col: int


# a newline, a comment, a parenthesis or a symbol; whitespace is skipped
_TOKEN = re.compile(r"\n|;[^\n]*|[()]|[^\s();]+")


def _tokenize(text):
    """Lowercased tokens with their 1-based line and column."""
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "\n":
            line += 1
            line_start = m.end()
        elif tok[0] != ";":
            toks.append(_Tok(tok.lower(), line, m.start() - line_start + 1))
    return toks


def _parse_text(text):
    """Read the one top-level s-expression of text on an explicit stack."""
    toks = _tokenize(text)
    if not toks:
        raise ParseError("unexpected end of input")
    open_lists = []                   # (opening token, items) per open list
    for pos, t in enumerate(toks):
        if t.text == "(":
            open_lists.append((t, []))
            continue
        if t.text != ")":
            item = t
        elif open_lists:
            item = open_lists.pop()[1]
        else:
            raise ParseError("unexpected ')'", t.line, t.col)
        if open_lists:
            open_lists[-1][1].append(item)
            continue
        if pos + 1 != len(toks):
            t = toks[pos + 1]
            raise ParseError("trailing input after top-level form", t.line, t.col)
        return item
    t = open_lists[-1][0]
    raise ParseError("unbalanced parenthesis", t.line, t.col)


def _head(sexpr):
    if isinstance(sexpr, list) and sexpr and isinstance(sexpr[0], _Tok):
        return sexpr[0].text
    return None


def _where(sexpr):
    """(line, column) of the first token in an s-expression, if it has one."""
    while isinstance(sexpr, list) and sexpr:
        sexpr = sexpr[0]
    if isinstance(sexpr, _Tok):
        return sexpr.line, sexpr.col
    return None, None


def _symbol(sexpr, what):
    """The text of a bare symbol; ParseError when sexpr is anything else."""
    if not isinstance(sexpr, _Tok):
        raise ParseError(f"expected a symbol as {what}", *_where(sexpr))
    return sexpr.text


def _name_of(section, what):
    """The symbol that follows a section's head, as in (domain NAME)."""
    if len(section) < 2:
        raise ParseError(f"{what} has no name", *_where(section))
    return _symbol(section[1], f"the name of {what}")


def _atom_of(sexpr):
    """Interpret an s-expression as a positive atom (pred, args...)."""
    if not isinstance(sexpr, list) or not sexpr:
        raise ParseError("expected an atom", *_where(sexpr))
    return tuple(_symbol(item, "a predicate or term of an atom") for item in sexpr)


def _pair_of(sexpr):
    """The two terms of an (= x y) atom."""
    atom = _atom_of(sexpr)
    if len(atom) != 3:
        raise ParseError("(= ...) takes exactly two terms", *_where(sexpr))
    return atom[1], atom[2]


# ---------------------------------------------------------------------------
# lifted representation

@dataclass
class Schema:
    name: str
    params: list            # (variable, type) in declaration order
    pre: list               # positive atoms (pred, term...)
    add: list
    delete: list
    eq: list                # pairs of terms required equal
    neq: list               # pairs of terms required distinct


@dataclass
class LiftedTask:
    domain_name: str
    problem_name: str
    requirements: list
    types: dict             # type -> parent type ("object" is the root)
    predicates: dict        # name -> list of (param, type)
    constants: dict         # the domain's objects, name -> type
    objects: dict           # the problem's objects, name -> type
    schemata: list
    init: list              # ground atoms
    goal: list              # ground atoms


def _parse_typed_list(items, what="object"):
    """Parse 'a b - t c d - t2 e' into [(a,t),(b,t),(c,t2),(d,t2),(e,object)]."""
    if not isinstance(items, list):
        raise ParseError(f"expected a typed {what} list", *_where(items))
    out = []
    pending = []
    i = 0
    while i < len(items):
        tok = items[i]
        if not isinstance(tok, _Tok):
            raise ParseError(f"malformed typed {what} list")
        if tok.text == "-":
            if i + 1 >= len(items) or not isinstance(items[i + 1], _Tok):
                raise ParseError("missing type after '-'", tok.line, tok.col)
            t = items[i + 1].text
            out.extend((name, t) for name in pending)
            pending = []
            i += 2
        else:
            pending.append(tok.text)
            i += 1
    out.extend((name, "object") for name in pending)
    return out


def _declare(table, name, value, what, *earlier):
    """Record ``name -> value`` in ``table``.  A declaration repeated
    unchanged is accepted; one that differs from ``table``'s or an
    ``earlier`` table's entry for ``name`` is a ParseError, not a silent
    last-one-wins."""
    for known in (table, *earlier):
        if known.get(name, value) != value:
            raise ParseError(f"conflicting declarations of {what} {name}")
    table[name] = value


def _check_supported(sexpr):
    head = _head(sexpr)
    if head in _REJECTED_HEADS:
        tok = sexpr[0]
        raise UnsupportedFeature(
            f"'{head}' is outside the supported subset (line {tok.line})")


def _conjuncts(sexpr):
    """The items of a condition or effect, nested (and ...) flattened in
    order on an explicit stack; rejects unsupported constructs."""
    pending = [] if sexpr is None else [sexpr]
    while pending:
        item = pending.pop()
        _check_supported(item)
        if _head(item) == "and":
            pending.extend(reversed(item[1:]))
        else:
            yield item


def _parse_condition(sexpr, allow_equality):
    """Parse a precondition into (atoms, eq, neq)."""
    atoms, eqs, neqs = [], [], []
    for item in _conjuncts(sexpr):
        head = _head(item)
        if head == "not" and len(item) == 2 and _head(item[1]) == "=":
            item, pairs = item[1], neqs
        elif head == "not":
            raise UnsupportedFeature("negative preconditions are not supported")
        elif head == "=":
            pairs = eqs
        else:
            atoms.append(_atom_of(item))
            continue
        if not allow_equality:
            raise UnsupportedFeature(
                "equality used without the :equality requirement")
        pairs.append(_pair_of(item))
    return atoms, eqs, neqs


def _parse_effect(sexpr):
    adds, dels = [], []
    for item in _conjuncts(sexpr):
        if _head(item) == "not":
            if len(item) != 2:
                raise ParseError("malformed (not ...) effect")
            _check_supported(item[1])
            dels.append(_atom_of(item[1]))
        else:
            adds.append(_atom_of(item))
    return adds, dels


def parse_task(domain_text: str, problem_text: str) -> LiftedTask:
    dom = _parse_text(domain_text)
    prob = _parse_text(problem_text)
    if _head(dom) != "define":
        raise ParseError("domain file does not start with (define ...)")
    if _head(prob) != "define":
        raise ParseError("problem file does not start with (define ...)")

    domain_name = None
    requirements = []
    types = {}
    predicates = {}
    constants = {}
    schemata = []

    for section in dom[1:]:
        head = _head(section)
        if head == "domain":
            domain_name = _name_of(section, "(domain ...)")
        elif head == ":requirements":
            for r in section[1:]:
                req = _symbol(r, "a requirement")
                if req not in _SUPPORTED_REQUIREMENTS:
                    raise UnsupportedFeature(f"requirement {req} is not supported")
                requirements.append(req)
        elif head == ":types":
            for name, parent in _parse_typed_list(section[1:], "type"):
                _declare(types, name, parent, "type")
        elif head == ":constants":
            for name, t in _parse_typed_list(section[1:], "constant"):
                _declare(constants, name, t, "constant")
        elif head == ":predicates":
            for p in section[1:]:
                pname = _head(p)
                if pname is None:
                    raise ParseError("expected a (predicate ?param ...) declaration",
                                     *_where(p))
                _declare(predicates, pname, _parse_typed_list(p[1:], "parameter"),
                         "predicate")
        elif head == ":functions":
            raise UnsupportedFeature("numeric fluents are not supported")
        elif head == ":derived":
            raise UnsupportedFeature("derived predicates are not supported")
        elif head == ":action":
            name = _name_of(section, "(:action ...)")
            if any(sch.name == name for sch in schemata):
                raise ParseError(f"duplicate action {name}", *_where(section))
            params, pre, eff = [], None, None
            i = 2
            while i < len(section):
                key = _symbol(section[i], f"a keyword of action {name}")
                if i + 1 >= len(section):
                    raise ParseError(f"action keyword {key} of {name} has no value",
                                     *_where(section[i]))
                if key == ":parameters":
                    params = _parse_typed_list(section[i + 1], "parameter")
                elif key == ":precondition":
                    pre = section[i + 1]
                elif key == ":effect":
                    eff = section[i + 1]
                else:
                    raise UnsupportedFeature(f"action keyword {key} is not supported")
                i += 2
            allow_eq = ":equality" in requirements
            atoms, eqs, neqs = _parse_condition(pre, allow_eq)
            if eff is None:
                raise ParseError(f"action {name} has no effect")
            adds, dels = _parse_effect(eff)
            schemata.append(Schema(name, params, atoms, adds, dels, eqs, neqs))
        else:
            raise ParseError(f"unknown domain section {head}")

    problem_name = None
    objects = {}
    init = []
    goal = []
    for section in prob[1:]:
        head = _head(section)
        if head == "problem":
            problem_name = _name_of(section, "(problem ...)")
        elif head == ":domain":
            name = _name_of(section, "(:domain ...)")
            if domain_name is not None and name != domain_name:
                raise ParseError(f"problem is for domain {name}, not {domain_name}",
                                 *_where(section))
        elif head == ":objects":
            for name, t in _parse_typed_list(section[1:], "object"):
                _declare(objects, name, t, "object", constants)
        elif head == ":init":
            for atom in section[1:]:
                _check_supported(atom)
                if _head(atom) == "not":
                    raise UnsupportedFeature("negated init atoms are not supported")
                init.append(_atom_of(atom))
        elif head == ":goal":
            if len(section) != 2:
                raise ParseError("(:goal ...) takes exactly one condition",
                                 *_where(section))
            atoms, eqs, neqs = _parse_condition(section[1], ":equality" in requirements)
            if eqs or neqs:
                raise UnsupportedFeature("equality in goals is not supported")
            goal = atoms
        elif head == ":metric":
            raise UnsupportedFeature("metrics are not supported")
        else:
            raise ParseError(f"unknown problem section {head}")

    lifted = LiftedTask(
        domain_name=domain_name or "domain",
        problem_name=problem_name or "problem",
        requirements=requirements,
        types=types,
        predicates=predicates,
        constants=constants,
        objects=objects,
        schemata=schemata,
        init=init,
        goal=goal,
    )
    _validate_lifted(lifted)
    return lifted


def _validate_lifted(lifted: LiftedTask):
    """Reject what would otherwise ground silently wrong: a type cycle, a
    parent declared for the root type ``object`` (the cycle walk stops at
    ``object``, so it would be ignored), an undeclared type, predicate,
    variable or constant, an arity mismatch, a term whose type is not its
    predicate parameter's type or below it, an action parameter named twice
    (grounding binds the name once, so one argument would be ignored), or
    an object or constant name with a comma (ground atom names join their
    arguments with commas, so objects a,b c and a b,c would name one
    fact)."""
    if lifted.types.get("object", "object") != "object":
        raise ParseError(f"type object is the root type; it cannot be a "
                         f"{lifted.types['object']}")
    for t in lifted.types:
        chain = set()
        while t != "object":
            if t in chain:
                raise ParseError(f"type {t} is its own ancestor")
            chain.add(t)
            t = lifted.types.get(t, "object")
    known_types = {"object", *lifted.types, *lifted.types.values()}
    objects = _universe(lifted)
    for name in objects:
        if "," in name:
            raise ParseError(f"object name {name} contains ','")
    typed = [(f"object {name}", t) for name, t in objects.items()]
    typed += [(f"parameter {v} of predicate {p}", t)
              for p, params in lifted.predicates.items() for v, t in params]
    typed += [(f"parameter {v} in action {sch.name}", t)
              for sch in lifted.schemata for v, t in sch.params]
    for what, t in typed:
        if t not in known_types:
            raise ParseError(f"undeclared type {t} of {what}")
    for sch in lifted.schemata:
        names = [v for v, _ in sch.params]
        for v in names:
            if names.count(v) > 1:
                raise ParseError(f"parameter {v} repeated in action {sch.name}")

    def term_type(term, params, where):
        if term.startswith("?"):
            if term not in params:
                raise ParseError(f"free variable {term} in {where}")
            return params[term]
        if term not in objects:
            raise ParseError(f"unknown object {term} in {where}")
        return objects[term]

    # :init and :goal bind no variables
    scopes = [(f"action {sch.name}", dict(sch.params),
               sch.pre + sch.add + sch.delete, sch.eq + sch.neq)
              for sch in lifted.schemata]
    scopes += [("init", {}, lifted.init, []), ("goal", {}, lifted.goal, [])]
    for where, params, atoms, pairs in scopes:
        for atom in atoms:
            if atom[0] not in lifted.predicates:
                raise ParseError(f"undeclared predicate {atom[0]} in {where}")
            wanted = [t for _, t in lifted.predicates[atom[0]]]
            if len(atom) - 1 != len(wanted):
                raise ParseError(f"arity mismatch for {atom[0]} in {where}")
            for term, want in zip(atom[1:], wanted):
                t = term_type(term, params, where)
                if not _type_matches(lifted, t, want):
                    raise ParseError(f"{term} of type {t} is not a {want} "
                                     f"in ({' '.join(atom)}) of {where}")
        for term in itertools.chain(*pairs):
            term_type(term, params, where)


# ---------------------------------------------------------------------------
# grounding

def _type_matches(lifted, obj_type, wanted):
    t = obj_type
    while True:
        if t == wanted:
            return True
        if t == "object":
            return False
        t = lifted.types.get(t, "object")


def _universe(lifted):
    """The domain's constants and the problem's objects, name -> type."""
    return {**lifted.constants, **lifted.objects}


def _objects_of_type(lifted, wanted):
    return sorted(o for o, t in _universe(lifted).items()
                  if wanted == "object" or _type_matches(lifted, t, wanted))


def _ground_atom(atom, binding):
    return (atom[0],) + tuple(binding.get(t, t) for t in atom[1:])


def atom_name(atom) -> str:
    if len(atom) == 1:
        return atom[0]
    return f"{atom[0]}({','.join(atom[1:])})"


def ground(lifted: LiftedTask) -> Task:
    """Instantiate schemata over type-compatible object tuples.

    A ground action is pruned when a static precondition atom (its predicate
    never occurs in any add or delete list) is absent from the initial
    state; static precondition atoms that do hold initially are invariantly
    true and are dropped from the ground precondition.  The fact table holds
    the non-static atoms referenced by surviving actions plus every init and
    goal atom, with ids assigned by lexicographic name order.
    """
    static = set(lifted.predicates).difference(
        atom[0] for sch in lifted.schemata for atom in sch.add + sch.delete)
    init_atoms = set(lifted.init)
    raw_actions = []
    for sch in sorted(lifted.schemata, key=lambda s: s.name):
        domains = [_objects_of_type(lifted, t) for _, t in sch.params]
        names = [v for v, _ in sch.params]
        for combo in itertools.product(*domains):
            binding = dict(zip(names, combo))
            ok = True
            for x, y in sch.eq:
                if binding.get(x, x) != binding.get(y, y):
                    ok = False
                    break
            if ok:
                for x, y in sch.neq:
                    if binding.get(x, x) == binding.get(y, y):
                        ok = False
                        break
            if not ok:
                continue
            pre = [_ground_atom(a, binding) for a in sch.pre]
            kept_pre = []
            for atom in pre:
                if atom[0] in static:
                    if atom not in init_atoms:
                        ok = False
                        break
                else:
                    kept_pre.append(atom)
            if not ok:
                continue
            add = [_ground_atom(a, binding) for a in sch.add]
            dele = [_ground_atom(a, binding) for a in sch.delete]
            gname = atom_name((sch.name,) + combo)
            raw_actions.append((gname, kept_pre, add, dele))

    fact_atoms = set(lifted.init) | set(lifted.goal)
    for _, pre, add, dele in raw_actions:
        for atom in itertools.chain(pre, add, dele):
            fact_atoms.add(atom)
    fact_names = sorted(atom_name(a) for a in fact_atoms)
    raw_actions.sort(key=lambda r: r[0])
    actions = [
        (name,
         sorted(atom_name(a) for a in pre),
         sorted(atom_name(a) for a in add),
         sorted(atom_name(a) for a in dele))
        for name, pre, add, dele in raw_actions
    ]
    return make_task(
        fact_names,
        actions,
        sorted(atom_name(a) for a in lifted.init),
        sorted(atom_name(a) for a in lifted.goal),
        name=f"{lifted.domain_name}/{lifted.problem_name}",
    )


# ---------------------------------------------------------------------------
# serialization

def serialize(lifted: LiftedTask):
    """Render a lifted task back to (domain_text, problem_text)."""

    def typed(pairs):
        return " ".join(f"{n} - {t}" for n, t in pairs)

    out = [f"(define (domain {lifted.domain_name})"]
    if lifted.requirements:
        out.append("  (:requirements " + " ".join(lifted.requirements) + ")")
    if lifted.types:
        out.append("  (:types " + " ".join(
            f"{t} - {p}" for t, p in sorted(lifted.types.items())) + ")")
    if lifted.constants:
        out.append("  (:constants " + typed(sorted(lifted.constants.items())) + ")")
    preds = []
    for pname, params in sorted(lifted.predicates.items()):
        preds.append("(" + " ".join([pname] + [f"{v} - {t}" for v, t in params]) + ")")
    out.append("  (:predicates " + " ".join(preds) + ")")

    def atom_str(atom):
        return "(" + " ".join(atom) + ")"

    for sch in lifted.schemata:
        out.append(f"  (:action {sch.name}")
        out.append(f"    :parameters ({typed(sch.params)})")
        conj = [atom_str(a) for a in sch.pre]
        conj += [f"(= {x} {y})" for x, y in sch.eq]
        conj += [f"(not (= {x} {y}))" for x, y in sch.neq]
        out.append("    :precondition (and " + " ".join(conj) + ")")
        eff = [atom_str(a) for a in sch.add]
        eff += ["(not " + atom_str(a) + ")" for a in sch.delete]
        out.append("    :effect (and " + " ".join(eff) + "))")
    out.append(")")
    domain_text = "\n".join(out) + "\n"

    out = [f"(define (problem {lifted.problem_name})",
           f"  (:domain {lifted.domain_name})",
           "  (:objects " + typed(sorted(lifted.objects.items())) + ")",
           "  (:init " + " ".join(atom_str(a) for a in sorted(lifted.init)) + ")",
           "  (:goal (and " + " ".join(atom_str(a) for a in sorted(lifted.goal)) + "))",
           ")"]
    problem_text = "\n".join(out) + "\n"
    return domain_text, problem_text
