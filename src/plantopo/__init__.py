"""Laboratory for the local-search topology of STRIPS planning tasks.

Grounded STRIPS tasks (parsed from a PDDL subset or produced by seeded
generators) are examined under delete-relaxation heuristics: exact optimal
relaxed-plan length, the layered relaxed-graph heuristic with plan
extraction, goal counting.  Tools cover exhaustive state-space topology
(plateaus, exits, dead-end classes), enforced hill-climbing, random-walk
sampling, and static analysis up to goal-regression conflict checks.
"""

__version__ = "0.1.0"

from .errors import NoReferencePlan, ParseError, PlantopoError, \
    PreconditionViolated, ResourceExhausted, Truncated, UnsupportedFeature
from .task_model import UNDEFINED, Fact, GroundAction, Task, apply, \
    apply_sequence, is_goal, make_task, relax, validate_plan
from .heuristics import HEURISTICS, INF, RelaxedPlan, h_ff, h_goalcount, \
    h_plus, h_plus_oracle
from .state_space import Plateau, StateSpace, TopologyReport, dead_end_class, \
    enumerate_space, exit_distance, exit_distances, export_dot, plateaus, \
    topology_report
from .search import SearchResult, enforced_hill_climbing, invert_and_replay
from .analysis import ActionFlags, AnalysisReport, Conflict, Fgt, MutexTable, \
    action_flags, analyze_task, build_fgt, check_lemmas, compute_mutexes, \
    find_conflicts, interaction_free_verdict, no_local_minima_criterion, \
    repairable, validate_respected, validate_rp_irrelevant_deletes
from .sampling import SampleConfig, SampleReport, on_valley, run_experiment, \
    sample_states, sampled_exit_distance
from .generators import DOMAINS, GeneratorSpec, generate, pddl_texts
from . import pddl

__all__ = [name for name in dir() if not name.startswith("_")]
