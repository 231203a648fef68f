"""Instance generators for the benchmark domains and hand-built fixtures.

Every generator produces PDDL text (domain, problem) which is then parsed
and grounded through the regular front end, so generated tasks exercise the
same code path as file input and round-trip by construction.

Randomized aspects (initial/goal configurations where the domain leaves
them open) are driven by a seeded ``random.Random``; the distributions are
documented on each generator and make no claim of matching any historical
instance generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from . import pddl
from .errors import PreconditionViolated
from .task_model import Task


@dataclass(frozen=True)
class GeneratorSpec:
    domain_name: str
    params: tuple = ()       # sorted (key, value) pairs; dicts accepted in ctor
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.params, dict):
            object.__setattr__(self, "params", tuple(sorted(self.params.items())))


def _require(cond, msg):
    if not cond:
        raise PreconditionViolated(msg)


# ---------------------------------------------------------------------------
# benchmark domains

_GRIPPER_DOMAIN = """
(define (domain gripper)
  (:requirements :strips :typing :equality)
  (:types room ball gripper)
  (:predicates (at-robby ?r - room) (at ?b - ball ?r - room)
               (free ?g - gripper) (carry ?b - ball ?g - gripper))
  (:action move
    :parameters (?from ?to - room)
    :precondition (and (at-robby ?from) (not (= ?from ?to)))
    :effect (and (at-robby ?to) (not (at-robby ?from))))
  (:action pick
    :parameters (?b - ball ?r - room ?g - gripper)
    :precondition (and (at ?b ?r) (at-robby ?r) (free ?g))
    :effect (and (carry ?b ?g) (not (at ?b ?r)) (not (free ?g))))
  (:action drop
    :parameters (?b - ball ?r - room ?g - gripper)
    :precondition (and (carry ?b ?g) (at-robby ?r))
    :effect (and (at ?b ?r) (free ?g) (not (carry ?b ?g))))
)
"""


def _gripper(seed, balls):
    """Two rooms, two gripper hands, ``balls`` balls to carry from roomA to
    roomB (fixed structure; no randomization)."""
    _require(balls >= 1, "gripper needs balls >= 1")
    names = [f"ball{i}" for i in range(1, balls + 1)]
    objects = "rooma roomb - room " + " ".join(names) + " - ball left right - gripper"
    init = ["(at-robby rooma)", "(free left)", "(free right)"]
    init += [f"(at {b} rooma)" for b in names]
    goal = [f"(at {b} roomb)" for b in names]
    return _GRIPPER_DOMAIN, _problem("gripper", f"gripper-{balls}", objects, init, goal)


_LOGISTICS_DOMAIN = """
(define (domain logistics)
  (:requirements :strips :typing :equality)
  (:types city location physobj - object
          package vehicle - physobj
          truck airplane - vehicle)
  (:predicates (at ?x - physobj ?l - location) (in ?p - package ?v - vehicle)
               (in-city ?l - location ?c - city) (airport ?l - location))
  (:action drive-truck
    :parameters (?t - truck ?from ?to - location ?c - city)
    :precondition (and (at ?t ?from) (in-city ?from ?c) (in-city ?to ?c)
                       (not (= ?from ?to)))
    :effect (and (at ?t ?to) (not (at ?t ?from))))
  (:action fly-airplane
    :parameters (?a - airplane ?from ?to - location)
    :precondition (and (at ?a ?from) (airport ?from) (airport ?to)
                       (not (= ?from ?to)))
    :effect (and (at ?a ?to) (not (at ?a ?from))))
  (:action load-truck
    :parameters (?p - package ?t - truck ?l - location)
    :precondition (and (at ?t ?l) (at ?p ?l))
    :effect (and (in ?p ?t) (not (at ?p ?l))))
  (:action unload-truck
    :parameters (?p - package ?t - truck ?l - location)
    :precondition (and (at ?t ?l) (in ?p ?t))
    :effect (and (at ?p ?l) (not (in ?p ?t))))
  (:action load-airplane
    :parameters (?p - package ?a - airplane ?l - location)
    :precondition (and (at ?a ?l) (at ?p ?l))
    :effect (and (in ?p ?a) (not (at ?p ?l))))
  (:action unload-airplane
    :parameters (?p - package ?a - airplane ?l - location)
    :precondition (and (at ?a ?l) (in ?p ?a))
    :effect (and (at ?p ?l) (not (in ?p ?a))))
)
"""


def _logistics(seed, cities, size, airplanes, packages):
    """``cities`` cities of ``size`` locations each (the count includes the
    airport, which is always location 1), one truck per city, ``airplanes``
    airplanes, ``packages`` packages.  Trucks start at seeded random
    locations of their city, airplanes at random airports, packages at
    random locations with random distinct goal locations.  ``airplanes``
    defaults to one when there are several cities and to none otherwise."""
    if airplanes is None:
        airplanes = 1 if cities > 1 else 0
    _require(cities >= 1 and size >= 1 and packages >= 1 and airplanes >= 0,
             "logistics needs cities,size,packages >= 1 and airplanes >= 0")
    _require(cities == 1 or airplanes >= 1,
             "logistics with several cities needs an airplane")
    _require(cities * size >= 2,
             "logistics needs two locations for distinct package goals")
    rng = random.Random(seed)
    locs = {c: [f"c{c}l{i}" for i in range(1, size + 1)]
            for c in range(1, cities + 1)}
    all_locs = [l for c in locs for l in locs[c]]
    airports = [locs[c][0] for c in locs]
    objs = [f"city{c} - city" for c in locs]
    objs += [f"{l} - location" for l in all_locs]
    objs += [f"truck{c} - truck" for c in locs]
    objs += [f"plane{i} - airplane" for i in range(1, airplanes + 1)]
    objs += [f"pkg{i} - package" for i in range(1, packages + 1)]
    init = []
    for c in locs:
        for l in locs[c]:
            init.append(f"(in-city {l} city{c})")
    init += [f"(airport {a})" for a in airports]
    for c in locs:
        init.append(f"(at truck{c} {rng.choice(locs[c])})")
    for i in range(1, airplanes + 1):
        init.append(f"(at plane{i} {rng.choice(airports)})")
    goal = []
    for i in range(1, packages + 1):
        origin = rng.choice(all_locs)
        dest = rng.choice([l for l in all_locs if l != origin])
        init.append(f"(at pkg{i} {origin})")
        goal.append(f"(at pkg{i} {dest})")
    return _LOGISTICS_DOMAIN, _problem(
        "logistics", f"logistics-{cities}-{size}", " ".join(objs), init, goal)


_FERRY_DOMAIN = """
(define (domain ferry)
  (:requirements :strips :typing :equality)
  (:types location car)
  (:predicates (at-ferry ?l - location) (at ?c - car ?l - location)
               (on ?c - car) (empty-ferry))
  (:action sail
    :parameters (?from ?to - location)
    :precondition (and (at-ferry ?from) (not (= ?from ?to)))
    :effect (and (at-ferry ?to) (not (at-ferry ?from))))
  (:action board
    :parameters (?c - car ?l - location)
    :precondition (and (at ?c ?l) (at-ferry ?l) (empty-ferry))
    :effect (and (on ?c) (not (at ?c ?l)) (not (empty-ferry))))
  (:action debark
    :parameters (?c - car ?l - location)
    :precondition (and (on ?c) (at-ferry ?l))
    :effect (and (at ?c ?l) (empty-ferry) (not (on ?c))))
)
"""


def _ferry(seed, locations, cars):
    """``locations`` locations and ``cars`` cars; the ferry starts at
    location 1; car origins and (distinct) destinations are seeded random."""
    _require(locations >= 2 and cars >= 1, "ferry needs locations >= 2 and cars >= 1")
    rng = random.Random(seed)
    locs = [f"loc{i}" for i in range(1, locations + 1)]
    names = [f"car{i}" for i in range(1, cars + 1)]
    objs = " ".join(locs) + " - location " + " ".join(names) + " - car"
    init = ["(at-ferry loc1)", "(empty-ferry)"]
    goal = []
    for c in names:
        origin = rng.choice(locs)
        dest = rng.choice([l for l in locs if l != origin])
        init.append(f"(at {c} {origin})")
        goal.append(f"(at {c} {dest})")
    return _FERRY_DOMAIN, _problem("ferry", f"ferry-{locations}-{cars}", objs,
                                   init, goal)


_TSP_DOMAIN = """
(define (domain simple-tsp)
  (:requirements :strips :typing :equality)
  (:types location)
  (:predicates (at ?l - location) (visited ?l - location))
  (:action move
    :parameters (?from ?to - location)
    :precondition (and (at ?from) (not (= ?from ?to)))
    :effect (and (at ?to) (visited ?to) (not (at ?from))))
)
"""


def _simple_tsp(seed, locations):
    """``locations`` fully connected locations, all to be visited, starting
    at location 0.  The start location counts as visited initially."""
    _require(locations >= 1, "simple-tsp needs locations >= 1")
    locs = [f"loc{i}" for i in range(locations)]
    objs = " ".join(locs) + " - location"
    init = ["(at loc0)", "(visited loc0)"]
    goal = [f"(visited {l})" for l in locs]
    return _TSP_DOMAIN, _problem("simple-tsp", f"tsp-{locations}", objs, init, goal)


_MOVIE_DOMAIN = """
(define (domain movie)
  (:requirements :strips :typing)
  (:types chips dip pop cheese crackers)
  (:predicates (movie-rewound) (counter-at-zero) (have-chips) (have-dip)
               (have-pop) (have-cheese) (have-crackers))
  (:action rewind-movie
    :parameters ()
    :precondition (and)
    :effect (and (movie-rewound) (not (counter-at-zero))))
  (:action reset-counter
    :parameters ()
    :precondition (and)
    :effect (counter-at-zero))
  (:action get-chips
    :parameters (?x - chips)
    :precondition (and)
    :effect (have-chips))
  (:action get-dip
    :parameters (?x - dip)
    :precondition (and)
    :effect (have-dip))
  (:action get-pop
    :parameters (?x - pop)
    :precondition (and)
    :effect (have-pop))
  (:action get-cheese
    :parameters (?x - cheese)
    :precondition (and)
    :effect (have-cheese))
  (:action get-crackers
    :parameters (?x - crackers)
    :precondition (and)
    :effect (have-crackers))
)
"""


def _movie(seed, items):
    """Fixed structure; ``items`` objects of each snack kind."""
    _require(items >= 1, "movie needs items >= 1")
    objs = []
    for kind in ("chips", "dip", "pop", "cheese", "crackers"):
        objs.append(" ".join(f"{kind}{i}" for i in range(1, items + 1)) + f" - {kind}")
    goal = ["(movie-rewound)", "(counter-at-zero)", "(have-chips)", "(have-dip)",
            "(have-pop)", "(have-cheese)", "(have-crackers)"]
    return _MOVIE_DOMAIN, _problem("movie", f"movie-{items}", " ".join(objs), [], goal)


_HANOI_DOMAIN = """
(define (domain hanoi)
  (:requirements :strips :equality)
  (:predicates (on ?x ?y) (clear ?x) (smaller ?x ?z))
  (:action move
    :parameters (?x ?y ?z)
    :precondition (and (on ?x ?y) (clear ?x) (clear ?z) (smaller ?x ?z)
                       (not (= ?x ?y)) (not (= ?y ?z)))
    :effect (and (on ?x ?z) (clear ?y) (not (on ?x ?y)) (not (clear ?z))))
)
"""


def _hanoi(seed, discs):
    """``discs`` discs initially stacked on peg 1, goal stack on peg 3;
    three pegs; disc i is smaller than disc j for i < j and every disc is
    smaller than every peg."""
    _require(discs >= 1, "hanoi needs discs >= 1")
    names = [f"d{i}" for i in range(1, discs + 1)]
    pegs = ["p1", "p2", "p3"]
    objs = " ".join(names + pegs)
    init = []
    for i in range(discs):
        for j in range(i + 1, discs):
            init.append(f"(smaller {names[i]} {names[j]})")
        for p in pegs:
            init.append(f"(smaller {names[i]} {p})")
    for i in range(discs - 1):
        init.append(f"(on {names[i]} {names[i + 1]})")
    init += [f"(on {names[-1]} p1)", f"(clear {names[0]})",
             "(clear p2)", "(clear p3)"]
    goal = [f"(on {names[i]} {names[i + 1]})" for i in range(discs - 1)]
    goal.append(f"(on {names[-1]} p3)")
    return _HANOI_DOMAIN, _problem("hanoi", f"hanoi-{discs}", objs, init, goal)


_TIREWORLD_DOMAIN = """
(define (domain tireworld)
  (:requirements :strips :typing)
  (:types physob - object
          fetchable nut hub - physob
          tool wheel - fetchable
          container)
  (:constants wrench pump jack - tool)
  (:predicates (open ?c - container) (closed ?c - container)
               (in ?x - fetchable ?c - container) (have ?x - physob)
               (loose ?n - nut ?h - hub) (tight ?n - nut ?h - hub)
               (on-ground ?h - hub) (jacked-up ?h - hub)
               (fastened ?h - hub) (unfastened ?h - hub)
               (on ?w - wheel ?h - hub) (free ?h - hub)
               (inflated ?w - wheel) (not-inflated ?w - wheel))
  (:action open-boot
    :parameters (?c - container)
    :precondition (closed ?c)
    :effect (and (open ?c) (not (closed ?c))))
  (:action close-boot
    :parameters (?c - container)
    :precondition (open ?c)
    :effect (and (closed ?c) (not (open ?c))))
  (:action fetch
    :parameters (?x - fetchable ?c - container)
    :precondition (and (in ?x ?c) (open ?c))
    :effect (and (have ?x) (not (in ?x ?c))))
  (:action put-away
    :parameters (?x - fetchable ?c - container)
    :precondition (and (have ?x) (open ?c))
    :effect (and (in ?x ?c) (not (have ?x))))
  (:action loosen
    :parameters (?n - nut ?h - hub)
    :precondition (and (have wrench) (tight ?n ?h) (on-ground ?h))
    :effect (and (loose ?n ?h) (not (tight ?n ?h))))
  (:action tighten
    :parameters (?n - nut ?h - hub)
    :precondition (and (have wrench) (loose ?n ?h) (on-ground ?h))
    :effect (and (tight ?n ?h) (not (loose ?n ?h))))
  (:action jack-up
    :parameters (?h - hub)
    :precondition (and (on-ground ?h) (have jack))
    :effect (and (jacked-up ?h) (not (on-ground ?h)) (not (have jack))))
  (:action jack-down
    :parameters (?h - hub)
    :precondition (jacked-up ?h)
    :effect (and (on-ground ?h) (have jack) (not (jacked-up ?h))))
  (:action undo
    :parameters (?n - nut ?h - hub)
    :precondition (and (jacked-up ?h) (loose ?n ?h) (have wrench) (fastened ?h))
    :effect (and (have ?n) (unfastened ?h) (not (loose ?n ?h)) (not (fastened ?h))))
  (:action do-up
    :parameters (?n - nut ?h - hub)
    :precondition (and (jacked-up ?h) (have wrench) (unfastened ?h) (have ?n))
    :effect (and (loose ?n ?h) (fastened ?h) (not (have ?n)) (not (unfastened ?h))))
  (:action remove-wheel
    :parameters (?w - wheel ?h - hub)
    :precondition (and (on ?w ?h) (jacked-up ?h) (unfastened ?h))
    :effect (and (have ?w) (free ?h) (not (on ?w ?h))))
  (:action put-on-wheel
    :parameters (?w - wheel ?h - hub)
    :precondition (and (have ?w) (free ?h) (jacked-up ?h) (unfastened ?h))
    :effect (and (on ?w ?h) (not (have ?w)) (not (free ?h))))
  (:action inflate
    :parameters (?w - wheel)
    :precondition (and (have pump) (not-inflated ?w))
    :effect (and (inflated ?w) (not (not-inflated ?w))))
)
"""


def _tireworld(seed, tires):
    """``tires`` flat tires to replace; tools and spares start in the closed
    boot, flats on fastened, on-ground hubs with tight nuts."""
    _require(tires >= 1, "tireworld needs tires >= 1")
    objs = ["boot - container"]
    objs += [f"hub{i} - hub" for i in range(1, tires + 1)]
    objs += [f"nut{i} - nut" for i in range(1, tires + 1)]
    objs += [f"flat{i} spare{i} - wheel" for i in range(1, tires + 1)]
    init = ["(closed boot)", "(in wrench boot)", "(in pump boot)", "(in jack boot)"]
    goal = ["(closed boot)", "(in wrench boot)", "(in pump boot)", "(in jack boot)"]
    for i in range(1, tires + 1):
        init += [f"(in spare{i} boot)", f"(not-inflated spare{i})",
                 f"(on flat{i} hub{i})", f"(on-ground hub{i})",
                 f"(fastened hub{i})", f"(tight nut{i} hub{i})"]
        goal += [f"(on spare{i} hub{i})", f"(inflated spare{i})",
                 f"(tight nut{i} hub{i})"]
    return _TIREWORLD_DOMAIN, _problem(
        "tireworld", f"tireworld-{tires}", " ".join(objs), init, goal)


_BW_ARM_DOMAIN = """
(define (domain blocksworld-arm)
  (:requirements :strips :typing :equality)
  (:types block)
  (:predicates (on ?x ?y - block) (ontable ?x - block) (clear ?x - block)
               (holding ?x - block) (arm-empty))
  (:action pickup
    :parameters (?x - block)
    :precondition (and (clear ?x) (ontable ?x) (arm-empty))
    :effect (and (holding ?x) (not (clear ?x)) (not (ontable ?x))
                 (not (arm-empty))))
  (:action putdown
    :parameters (?x - block)
    :precondition (holding ?x)
    :effect (and (clear ?x) (ontable ?x) (arm-empty) (not (holding ?x))))
  (:action stack
    :parameters (?x ?y - block)
    :precondition (and (holding ?x) (clear ?y) (not (= ?x ?y)))
    :effect (and (on ?x ?y) (clear ?x) (arm-empty)
                 (not (holding ?x)) (not (clear ?y))))
  (:action unstack
    :parameters (?x ?y - block)
    :precondition (and (on ?x ?y) (clear ?x) (arm-empty))
    :effect (and (holding ?x) (clear ?y)
                 (not (on ?x ?y)) (not (clear ?x)) (not (arm-empty))))
)
"""

_BW_NO_ARM_DOMAIN = """
(define (domain blocksworld-no-arm)
  (:requirements :strips :typing :equality)
  (:types block)
  (:predicates (on ?x ?y - block) (on-table ?x - block) (clear ?x - block))
  (:action move-from-table
    :parameters (?x ?to - block)
    :precondition (and (on-table ?x) (clear ?x) (clear ?to) (not (= ?x ?to)))
    :effect (and (on ?x ?to) (not (on-table ?x)) (not (clear ?to))))
  (:action move-to-table
    :parameters (?x ?from - block)
    :precondition (and (on ?x ?from) (clear ?x))
    :effect (and (on-table ?x) (clear ?from) (not (on ?x ?from))))
  (:action move-block
    :parameters (?x ?from ?to - block)
    :precondition (and (on ?x ?from) (clear ?x) (clear ?to)
                       (not (= ?x ?from)) (not (= ?x ?to)) (not (= ?from ?to)))
    :effect (and (on ?x ?to) (clear ?from)
                 (not (on ?x ?from)) (not (clear ?to))))
)
"""


def _random_arrangement(blocks, rng):
    """Uniformly shuffled blocks split into stacks by independent coin
    flips; returns a list of stacks, each top-to-bottom."""
    order = list(blocks)
    rng.shuffle(order)
    stacks = [[]]
    for b in order:
        if stacks[-1] and rng.random() < 0.5:
            stacks.append([])
        stacks[-1].append(b)
    return stacks


def _bw_facts(stacks, table_pred):
    facts = []
    for stack in stacks:
        facts.append(f"(clear {stack[0]})")
        for above, below in zip(stack, stack[1:]):
            facts.append(f"(on {above} {below})")
        facts.append(f"({table_pred} {stack[-1]})")
    return facts


# with_arm -> (domain name, domain text, table predicate)
_BW_VARIANTS = {True: ("blocksworld-arm", _BW_ARM_DOMAIN, "ontable"),
                False: ("blocksworld-no-arm", _BW_NO_ARM_DOMAIN, "on-table")}


def _blocksworld(seed, blocks, with_arm):
    """``blocks`` blocks; seeded random initial stacks and an independent
    random goal arrangement expressed as on-facts only (cycle-free)."""
    _require(blocks >= 1, "blocksworld needs blocks >= 1")
    dn, domain_text, table_pred = _BW_VARIANTS[with_arm]
    rng = random.Random(seed)
    names = [f"b{i}" for i in range(1, blocks + 1)]
    objs = " ".join(names) + " - block"
    init = _bw_facts(_random_arrangement(names, rng), table_pred)
    if with_arm:
        init.append("(arm-empty)")
    goal_stacks = _random_arrangement(names, rng)
    goal = [f"(on {a} {b})" for stack in goal_stacks
            for a, b in zip(stack, stack[1:])]
    if not goal:
        goal = [f"(clear {names[0]})"]
    return domain_text, _problem(dn, f"{dn}-{blocks}", objs, init, goal)


# ---------------------------------------------------------------------------
# hand-built fixtures

def _transport_swap(seed):
    """One vehicle, two locations, two objects that must swap locations."""
    domain = """
(define (domain transport)
  (:requirements :strips :typing :equality)
  (:types physobj location - object
          vehicle package - physobj)
  (:predicates (at ?x - physobj ?l - location) (in ?o - package ?v - vehicle))
  (:action move
    :parameters (?v - vehicle ?from ?to - location)
    :precondition (and (at ?v ?from) (not (= ?from ?to)))
    :effect (and (at ?v ?to) (not (at ?v ?from))))
  (:action load
    :parameters (?o - package ?v - vehicle ?l - location)
    :precondition (and (at ?v ?l) (at ?o ?l))
    :effect (and (in ?o ?v) (not (at ?o ?l))))
  (:action unload
    :parameters (?o - package ?v - vehicle ?l - location)
    :precondition (and (at ?v ?l) (in ?o ?v))
    :effect (and (at ?o ?l) (not (in ?o ?v))))
)
"""
    objs = "v - vehicle o1 o2 - package l1 l2 - location"
    init = ["(at v l1)", "(at o1 l1)", "(at o2 l2)"]
    goal = ["(at o1 l2)", "(at o2 l1)"]
    return domain, _problem("transport", "swap", objs, init, goal)


def _blocksworld_arm_held(seed):
    """Three blocks; the arm holds c, b sits on a; goal: b on the table with
    c on top of it.  The initial state sits on a local minimum."""
    objs = "a b c - block"
    init = ["(holding c)", "(on b a)", "(ontable a)", "(clear b)"]
    goal = ["(ontable b)", "(on c b)"]
    return _BW_ARM_DOMAIN, _problem("blocksworld-arm", "held", objs, init, goal)


def _shared_enabler_goals(seed):
    """Two goals; one enabler fact feeds both goals, a second enabler feeds
    only the second goal, so a bad tie-break pays for both enablers."""
    domain = """
(define (domain shared-enabler)
  (:requirements :strips)
  (:predicates (p) (p2) (g1) (g2))
  (:action op-g1
    :parameters ()
    :precondition (p)
    :effect (g1))
  (:action op-g2-p
    :parameters ()
    :precondition (p)
    :effect (g2))
  (:action op-g2-p2
    :parameters ()
    :precondition (p2)
    :effect (g2))
  (:action op-p
    :parameters ()
    :precondition (and)
    :effect (p))
  (:action op-p2
    :parameters ()
    :precondition (and)
    :effect (p2))
)
"""
    return domain, _problem("shared-enabler", "shared-enabler-1", "", [],
                            ["(g1)", "(g2)"])


def _toll_road_graph(seed):
    """Path-finding on the map a-b, b-d, c-d, d-e where entering e from d
    costs a toll token, obtainable only by the detour move from d to c."""
    domain = """
(define (domain toll-road)
  (:requirements :strips :typing)
  (:types location)
  (:constants a b c d e - location)
  (:predicates (at ?l - location) (road ?x ?y - location) (toll-token))
  (:action mv
    :parameters (?x ?y - location)
    :precondition (and (at ?x) (road ?x ?y))
    :effect (and (at ?y) (not (at ?x))))
  (:action mv-d-c
    :parameters ()
    :precondition (at d)
    :effect (and (at c) (toll-token) (not (at d))))
  (:action mv-d-e
    :parameters ()
    :precondition (and (at d) (toll-token))
    :effect (and (at e) (not (at d))))
)
"""
    init = ["(at a)", "(road a b)", "(road b a)", "(road b d)", "(road d b)",
            "(road c d)", "(road e d)"]
    return domain, _problem("toll-road", "toll-road-1", "", init, ["(at e)"])


def _road_graph(seed):
    """The same map as toll-road-graph but with plain bidirectional moves
    everywhere and no toll."""
    domain = """
(define (domain road-graph)
  (:requirements :strips :typing)
  (:types location)
  (:predicates (at ?l - location) (road ?x ?y - location))
  (:action mv
    :parameters (?x ?y - location)
    :precondition (and (at ?x) (road ?x ?y))
    :effect (and (at ?y) (not (at ?x))))
)
"""
    init = ["(at a)", "(road a b)", "(road b a)", "(road b d)", "(road d b)",
            "(road c d)", "(road d c)", "(road d e)", "(road e d)"]
    return domain, _problem("road-graph", "road-graph-1", "a b c d e - location",
                            init, ["(at e)"])


def _destructive_detour(seed):
    """Three actions; achieving the second goal destroys the first, which
    can only be rebuilt through an enabler that needed the first goal."""
    domain = """
(define (domain destructive-detour)
  (:requirements :strips)
  (:predicates (g1) (g2) (p))
  (:action opp
    :parameters ()
    :precondition (g1)
    :effect (p))
  (:action opg2
    :parameters ()
    :precondition (and)
    :effect (and (g2) (not (g1))))
  (:action opg1
    :parameters ()
    :precondition (p)
    :effect (g1))
)
"""
    return domain, _problem("destructive-detour", "destructive-detour-1", "",
                            ["(g1)"], ["(g1)", "(g2)"])


def _stack_on_extra(seed, n, with_arm):
    """n blocks stacked b1..bn (bn on the table) plus a spare block; the
    goal rebuilds the same stack on top of the spare."""
    _require(n >= 1, "stack fixture needs n >= 1")
    dn, domain_text, table_pred = _BW_VARIANTS[with_arm]
    blocks = [f"b{i}" for i in range(1, n + 2)]
    objs = " ".join(blocks) + " - block"
    init = [f"(on b{i} b{i + 1})" for i in range(1, n)]
    init += [f"({table_pred} b{n})", f"({table_pred} b{n + 1})",
             "(clear b1)", f"(clear b{n + 1})"]
    if with_arm:
        init.append("(arm-empty)")
    goal = [f"(on b{i} b{i + 1})" for i in range(1, n + 1)]
    return domain_text, _problem(dn, f"stack-{n}", objs, init, goal)


# ---------------------------------------------------------------------------
# registry

def _problem(domain, name, objects, init, goal):
    lines = [f"(define (problem {name})", f"  (:domain {domain})"]
    if objects:
        lines.append(f"  (:objects {objects})")
    lines.append("  (:init " + " ".join(init) + ")")
    lines.append("  (:goal (and " + " ".join(goal) + "))")
    lines.append(")")
    return "\n".join(lines) + "\n"


# name -> (generator, {parameter: default}), the size parameter first: the
# one `taxonomy` varies.  `pddl_texts` calls generator(seed, **parameters);
# the hand-built fixtures take none.
DOMAINS = {
    "gripper": (_gripper, {"balls": 2}),
    "logistics": (_logistics, {"cities": 1, "size": 2, "airplanes": None,
                               "packages": 1}),
    "ferry": (_ferry, {"cars": 1, "locations": 2}),
    "simple-tsp": (_simple_tsp, {"locations": 3}),
    "movie": (_movie, {"items": 1}),
    "hanoi": (_hanoi, {"discs": 3}),
    "tireworld": (_tireworld, {"tires": 1}),
    "blocksworld-arm": (partial(_blocksworld, with_arm=True), {"blocks": 3}),
    "blocksworld-no-arm": (partial(_blocksworld, with_arm=False), {"blocks": 3}),
    "blocksworld-arm-stack": (partial(_stack_on_extra, with_arm=True), {"n": 3}),
    "blocksworld-no-arm-stack": (partial(_stack_on_extra, with_arm=False),
                                 {"n": 4}),
    # hand-built fixtures
    "transport-swap": (_transport_swap, {}),
    "blocksworld-arm-held": (_blocksworld_arm_held, {}),
    "shared-enabler-goals": (_shared_enabler_goals, {}),
    "toll-road-graph": (_toll_road_graph, {}),
    "road-graph": (_road_graph, {}),
    "destructive-detour": (_destructive_detour, {}),
}


def pddl_texts(spec: GeneratorSpec):
    """The (domain, problem) PDDL texts for a generator spec."""
    if spec.domain_name not in DOMAINS:
        raise PreconditionViolated(f"unknown domain {spec.domain_name}; "
                                   f"supported: {', '.join(sorted(DOMAINS))}")
    generator, defaults = DOMAINS[spec.domain_name]
    unknown = [k for k, _ in spec.params if k not in defaults]
    _require(not unknown,
             f"{spec.domain_name} has no parameter {', '.join(unknown)}; "
             f"accepted: {', '.join(sorted(defaults)) or 'none'}")
    return generator(spec.seed, **{**defaults, **dict(spec.params)})


def generate(spec: GeneratorSpec) -> Task:
    """Grounded task for a generator spec (identical spec, identical task)."""
    domain_text, problem_text = pddl_texts(spec)
    return pddl.ground(pddl.parse_task(domain_text, problem_text))
