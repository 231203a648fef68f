"""Static task analysis.

Covers fact mutexes, the four per-action properties (invertible, at least
invertible, static add effects, relevant delete effects), syntactic lemma
checks, goal regression trees with conflict detection and repair search, the
interaction-freeness and no-local-minima verdicts, and two state-space-backed
semantic validators.

All verdicts are sound: a positive answer is a theorem about the task, and
``Unknown`` is always a permissible result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import PreconditionViolated, Truncated
from .heuristics import INF, h_plus, memoized
from .state_space import StateSpace
from .task_model import GroundAction, Task

UNKNOWN = "Unknown"

CONFLICT_ALLIED = "Allied"
CONFLICT_GOAL_DELETE = "GoalDelete"

VERDICT_HPLUS_EQUALS_GD = "HplusEqualsGd"
VERDICT_HPLUS_EQUALS_GD_VIA_REPAIRS = "HplusEqualsGdViaRepairs"
VERDICT_NO_LOCAL_MINIMA = "NoLocalMinima"

DEFAULT_NODE_CAP = 100_000


# ---------------------------------------------------------------------------
# Mutexes


@dataclass
class MutexTable:
    """Sound but incomplete fact-inconsistency relation.

    A pair is inconsistent when the pairwise-reachability fixpoint never
    marked it reachable; the approximation errs only toward "possibly
    consistent".
    """
    partners: tuple                 # fact id -> frozenset of its reachable partners
    reachable_facts: frozenset      # fact ids reachable at all

    def inconsistent(self, p: int, q: int) -> bool:
        if p == q:
            return p not in self.reachable_facts
        return q not in self.partners[p]


def compute_mutexes(task: Task) -> MutexTable:
    """Pairwise reachability fixpoint seeded with the initial state.

    A pair {p, q} becomes reachable through an action a whose precondition
    facts are pairwise reachable, either because a adds both facts, or
    because a adds p while q (not deleted by a) is reachable together with
    every precondition fact of a.  Singleton reachability is tracked
    alongside.

    Each fact keeps its set of reachable partners, so the facts that
    persist through a are the intersection over its precondition facts r
    of partners[r] | {r} (every reachable fact when a has none), less a's
    deletes, plus its adds.  An action is revisited only when one of its
    precondition facts becomes reachable or gains a partner or, for a
    precondition-free one, when any fact becomes reachable.  The actions
    needing a fact are read off the task's ``tables``.
    """
    reachable = set(task.init)
    partners = [set() for _ in task.facts]
    for p in reachable:
        partners[p] = reachable - {p}
    users = task.tables.pre_index               # fact -> ids of actions needing it
    free = users[task.tables.top]               # ids of precondition-free actions
    queue = list(range(len(task.actions)))
    queued = [True] * len(queue)
    while queue:
        aid = queue.pop()
        queued[aid] = False
        a = task.actions[aid]
        if a.pre:
            persist = set.intersection(*[partners[r] | {r} for r in a.pre])
            if not (a.pre <= persist and a.pre <= reachable):
                continue
        else:
            persist = set(reachable)
        persist -= a.delete
        persist |= a.add
        grown = []
        for p in a.add:
            if p not in reachable:
                reachable.add(p)
                grown.extend(free)
                grown.extend(users[p])
            new = persist - partners[p]
            new.discard(p)
            if new:
                partners[p] |= new
                grown.extend(users[p])
                for q in new:
                    partners[q].add(p)
                    grown.extend(users[q])
        for b in grown:
            if not queued[b]:
                queued[b] = True
                queue.append(b)
    return MutexTable(tuple(map(frozenset, partners)), frozenset(reachable))


# ---------------------------------------------------------------------------
# Per-action properties


@dataclass
class ActionFlags:
    action_id: int
    invertible: int | None            # witness inverse action id
    at_least_invertible: int | None   # witness action id
    static_add_effects: bool
    relevant_delete_effects: bool


def _inconsistent_with_some(mx: MutexTable, f: int, others) -> bool:
    return any(mx.inconsistent(f, g) for g in others)


def action_flags(task: Task, mx: MutexTable) -> list:
    """Evaluate the four action properties for every ground action.

    Invertible: every add fact is inconsistent with some precondition fact,
    deletes are a subset of the precondition, and some action undoes a
    exactly (adds del(a), deletes add(a)) and is applicable right after a.
    At least invertible weakens this to add(inverse) covering del(a) with
    del(inverse) inconsistent with pre(a).  Static add effects: no action
    deletes any add fact of a.  Relevant delete effects: a delete fact
    appears in the goal or in another action's precondition.

    Each witness is the first match in id order.  The candidates are looked
    up, not scanned: an inverse by its (add, delete) pair, and an at least
    inverse among the adders of one of a's delete facts (every action when
    a deletes nothing).  An inverse is also an at least inverse.  The
    adders and needers of each fact are read off the task's ``tables``.
    """
    tables = task.tables
    all_deletes = frozenset().union(*(a.delete for a in task.actions))
    by_effects = {}                             # (add, delete) -> actions
    for a in task.actions:
        by_effects.setdefault((a.add, a.delete), []).append(a)
    flags = []
    for a in task.actions:
        after = (a.pre | a.add) - a.delete
        inv = None
        if a.delete <= a.pre and all(_inconsistent_with_some(mx, f, a.pre)
                                     for f in a.add):
            inv = next((b.id for b in by_effects.get((a.delete, a.add), ())
                        if b.pre <= after), None)
        candidates = min((tables.achievers[f] for f in a.delete), key=len,
                         default=range(len(task.actions)))
        ali = next((b.id for b in map(task.actions.__getitem__, candidates)
                    if b.pre <= after and b.add >= a.delete
                    and all(_inconsistent_with_some(mx, f, a.pre) for f in b.delete)),
                   None)
        static_add = not (a.add & all_deletes)
        # a deleted goal fact, or one that an action other than a needs
        relevant = any(f in task.goal or len(tables.pre_index[f]) > (f in a.pre)
                       for f in a.delete)
        flags.append(ActionFlags(a.id, inv, ali, static_add, relevant))
    return flags


# ---------------------------------------------------------------------------
# Lemma-style syntactic checks


@dataclass
class AnalysisReport:
    flags: list
    lemma1: bool                      # all actions invertible
    lemma2: bool                      # inverses or harmless effects everywhere
    prop2: bool                       # every fact has at most one achiever
    prop3: bool                       # single goal fact, single preconditions
    prop4: bool                       # prop3 plus deletes within preconditions
    conflicts: list | None = None     # None when the tree was truncated
    interaction_free_verdict: str | None = None
    no_local_minima_verdict: str | None = None


def check_lemmas(task: Task) -> AnalysisReport:
    flags = action_flags(task, compute_mutexes(task))
    lemma1 = all(f.invertible is not None for f in flags)
    lemma2 = all(f.at_least_invertible is not None
                 or (f.static_add_effects and not f.relevant_delete_effects)
                 for f in flags)
    prop2 = all(len(ids) <= 1 for ids in task.tables.achievers)
    prop3 = len(task.goal) <= 1 and all(len(a.pre) <= 1 for a in task.actions)
    prop4 = prop3 and all(a.delete <= a.pre for a in task.actions)
    return AnalysisReport(flags, lemma1, lemma2, prop2, prop3, prop4)


# ---------------------------------------------------------------------------
# Goal regression tree


@dataclass
class Fgt:
    """Alternating AND/OR regression tree over achievers.

    Node 0 is the artificial goal-achievement action (label None) whose
    precondition is the task goal.  Action nodes are AND nodes (children:
    precondition facts); fact nodes are OR nodes (children: achievers).
    Two pruning rules keep the tree finite: an achiever is dropped when one
    of its preconditions already labels a fact node on the root path, and a
    precondition fact is dropped when an action strictly above already
    requires it.  Nodes are numbered in pre-order, so the subtree of n is
    the id range ``n .. ends[n] - 1``.
    """
    kinds: list                       # 'A' or 'F' per node
    labels: list                      # action id / fact id; None for the root
    parents: list
    truncated: bool
    ends: list                        # 1 + the last id in each node's subtree
    nodes_of: dict                    # (kind, label) -> node ids but the root
    ancestor_conflicts: list          # (deleter, ancestor, fact), depth-first

    @property
    def size(self):
        return len(self.kinds)

    @property
    def children(self):
        """Child ids per node in id order, derived from ``parents``."""
        children = [[] for _ in self.parents]
        for nid in range(1, self.size):
            children[self.parents[nid]].append(nid)
        return children

    def lca(self, u, v):
        """Lowest common ancestor: the nearest node from u up whose subtree holds v."""
        ends, parents = self.ends, self.parents
        while not u <= v < ends[u]:
            u = parents[u]
        return u


def _bits(mask):
    """Yield the indexes of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_fgt(task: Task, node_cap: int = DEFAULT_NODE_CAP) -> Fgt:
    """Build the tree depth-first on an explicit stack of open nodes, each
    with its path context as fact masks, the frames of the virtual walk in
    ``interaction_free_verdict``; both read the action masks of
    ``task.tables``.

    Each action node records its ancestor conflicts as it is created: the
    action deletes a fact that some action node above it (the root, with
    the goal as precondition, included) requires and that no action in
    between re-adds.  The two labels always differ: rule 1 drops every
    achiever that requires a fact on the root path, so no action appears
    below itself, and the root stands for ``len(task.actions)``.
    """
    tables = task.tables
    achievers, pre_mask, add_mask, del_mask = \
        tables.achievers, tables.pre_mask, tables.add_mask, tables.del_mask
    goal = len(task.actions)
    kinds, labels, parents = ['A'], [None], [None]
    ancestor_conflicts = []
    # (node, child labels left, path facts, required facts, vulnerable facts:
    # required above and not re-added since)
    g = pre_mask[goal]
    stack = [(0, _bits(g), 0, g, g)]
    truncated = False
    while stack:
        parent, pending, on_path, pre_path, vulnerable = stack[-1]
        label = next(pending, None)
        if label is None:
            stack.pop()
            continue
        nid = len(kinds)
        if nid >= node_cap:
            truncated = True
            break
        labels.append(label)
        parents.append(parent)
        if kinds[parent] == 'A':
            kinds.append('F')
            below = on_path | (1 << label)
            kept = [aid for aid in achievers[label]
                    if not pre_mask[aid] & below]           # rule 1
            stack.append((nid, iter(kept), below, pre_path, vulnerable))
            continue
        kinds.append('A')
        if del_mask[label] & vulnerable:
            # in the order of the delete set, each fact's requirers root first
            for f in task.actions[label].delete:
                bit = 1 << f
                if not vulnerable & bit:
                    continue
                # requirers of f up to its nearest re-adder, that one included
                above, up = [], nid
                while up:
                    up = parents[parents[up]]
                    a = labels[up] if up else goal
                    if pre_mask[a] & bit:
                        above.append(up)
                    if add_mask[a] & bit:
                        break
                ancestor_conflicts.extend((nid, n, f) for n in reversed(above))
        pm = pre_mask[label]
        stack.append((nid, _bits(pm & ~pre_path), on_path,      # rule 2
                      pre_path | pm, (vulnerable & ~add_mask[label]) | pm))
    # indexed after the walk: growing more per-node lists alongside the tree
    # raised the process's peak RSS
    nodes_of = {}
    for nid in range(1, len(kinds)):
        nodes_of.setdefault((kinds[nid], labels[nid]), []).append(nid)
    ends = list(range(1, len(kinds) + 1))
    for nid in range(len(kinds) - 1, 0, -1):     # each subtree before its parent
        parent = parents[nid]
        if ends[parent] < ends[nid]:
            ends[parent] = ends[nid]
    return Fgt(kinds, labels, parents, truncated, ends, nodes_of,
               ancestor_conflicts)


def _sibling_pairs(fgt: Fgt, firsts, seconds):
    """Yield each node pair (n1, n2) from ``firsts`` x ``seconds`` whose root
    paths meet at an AND node above both (sibling branches of one action)."""
    kinds, lca = fgt.kinds, fgt.lca
    for n1 in firsts:
        for n2 in seconds:
            w = lca(n1, n2)
            if w != n1 and w != n2 and kinds[w] == 'A':
                yield n1, n2


def _deletion_pairs(task: Task):
    """Unordered action pairs ``(a, b)``, ``a < b``, in which one action
    deletes a precondition of the other, sorted.  Only the actions that
    need a deleted fact are visited."""
    needers = task.tables.pre_index
    pairs = set()
    for a in task.actions:
        for f in a.delete:
            for bid in needers[f]:
                if bid != a.id:
                    pairs.add((min(a.id, bid), max(a.id, bid)))
    return sorted(pairs)


# ---------------------------------------------------------------------------
# Conflicts


@dataclass
class Conflict:
    kind: str
    node_ids: tuple                   # (deleter node, victim node) or (node,)
    action_ids: tuple                 # matching action labels (None = root)
    fact: int
    repairable: object = UNKNOWN      # bool or "Unknown"


def _repair_exists(task: Task, deleter: GroundAction, victim: GroundAction) -> bool:
    available = (deleter.pre | deleter.add) - deleter.delete
    return any(c.pre <= available and c.add >= victim.add for c in task.actions)


def repairable(c: Conflict, task: Task):
    """Single-action repair test.

    For a pair conflict where one action deletes a precondition of the
    other, each deleting direction needs a substitute that is applicable
    right after the deleter and achieves everything the victim would have.
    Only defined for Allied conflicts; the other kinds stay Unknown.
    """
    if c.kind != CONFLICT_ALLIED:
        return UNKNOWN
    a, b = (task.actions[i] for i in c.action_ids)
    ok = True
    if c.fact in a.delete and c.fact in b.pre:
        ok = ok and _repair_exists(task, a, b)
    if c.fact in b.delete and c.fact in a.pre:
        ok = ok and _repair_exists(task, b, a)
    return ok


def find_conflicts(fgt: Fgt, task: Task) -> list:
    """Node-level conflict enumeration, deduplicated by action pair and fact.

    Three situations qualify: two action nodes that can appear in the same
    non-redundant sub-tree (root paths meeting at an AND node, which covers
    both sibling branches and ancestor chains) where one deletes a
    precondition of the other that is not re-added in between; and an
    action node deleting a goal fact that no action on its root path
    re-adds.
    """
    if fgt.truncated:
        raise Truncated("regression tree exceeded its node cap")
    conflicts = {}

    def record(kind, nodes, aids, fact):
        key = (kind, frozenset(aids), fact)
        if key not in conflicts:
            c = Conflict(kind, nodes, aids, fact)
            c.repairable = repairable(c, task)
            conflicts[key] = c

    for desc, anc, fact in fgt.ancestor_conflicts:
        if fgt.labels[anc] is None:
            record(CONFLICT_GOAL_DELETE, (desc,), (fgt.labels[desc],), fact)
        else:
            record(CONFLICT_ALLIED, (desc, anc),
                   (fgt.labels[desc], fgt.labels[anc]), fact)

    nodes_of = fgt.nodes_of
    for aid, bid in _deletion_pairs(task):
        found = next(_sibling_pairs(fgt, nodes_of.get(('A', aid), ()),
                                    nodes_of.get(('A', bid), ())), None)
        if found is None:
            continue
        a, b = task.actions[aid], task.actions[bid]
        for fact in sorted((a.delete & b.pre) | (b.delete & a.pre)):
            record(CONFLICT_ALLIED, found, (aid, bid), fact)
    return list(conflicts.values())


# ---------------------------------------------------------------------------
# Verdicts


def interaction_free_verdict(task: Task, cap: int = DEFAULT_NODE_CAP) -> str:
    """Can every minimal relaxed plan be reordered/repaired into a real one?

    Empty conflict set: relaxed plans execute as-is, so the optimal relaxed
    plan length equals the goal distance everywhere.  If the only conflicts
    are sibling-branch pairs that all admit single-action repairs, the
    equality still holds.  Anything else - a cap overrun, or a conflict
    involving an ancestor chain or a goal fact - yields Unknown.

    The regression tree is traversed virtually: a fact expands identically
    under identical path context (facts seen, preconditions required,
    vulnerable facts), so expansions are memoized on that context and
    ``cap`` bounds the number of distinct expansions rather than explicit
    tree nodes.  The goal is walked as the pseudo-action of the task's
    ``tables`` masks.
    """
    tables = task.tables
    achievers, pre_mask, add_mask, del_mask = \
        tables.achievers, tables.pre_mask, tables.add_mask, tables.del_mask

    allied = {}                       # action id -> actions in earlier siblings
    memo = {}
    expansions = 0

    def action_frame(aid, on_path, pre_path, vulnerable):
        pm = pre_mask[aid]
        return ['A', aid, on_path, pre_path | pm,
                (vulnerable & ~add_mask[aid]) | pm,
                _bits(pm & ~pre_path), 0]                   # rule 2

    # frame: [kind, action id or memo key, path facts, required facts,
    # vulnerable facts (an action frame's as passed to its children), children
    # left, mask of the actions below the children finished so far]
    stack = [action_frame(len(task.actions), 0, 0, 0)]
    while stack:
        frame = stack[-1]
        kind, _, on_path, pre_path, vulnerable, pending, _ = frame
        child = next(pending, None)
        if child is None:
            stack.pop()
            if kind == 'A':
                m = frame[6] | (1 << frame[1])
            else:
                m = memo[frame[1]] = frame[6]
            if not stack:
                break
            frame = stack[-1]
        elif kind == 'F':
            # ancestor/goal conflict: a still-needed fact of some node above
            # gets deleted with no re-achievement in between
            if del_mask[child] & vulnerable:
                return UNKNOWN
            stack.append(action_frame(child, on_path, pre_path, vulnerable))
            continue
        else:
            key = (child, on_path, pre_path, vulnerable)
            m = memo.get(key)
            if m is None:
                expansions += 1
                if expansions > cap:
                    return UNKNOWN
                below = on_path | (1 << child)
                kept = [aid for aid in achievers[child]
                        if not pre_mask[aid] & below]       # rule 1
                stack.append(['F', key, below, pre_path, vulnerable,
                              iter(kept), 0])
                continue
        # hand the finished child's mask m to the frame above it
        if frame[0] == 'A' and frame[6]:
            for bid in _bits(m):
                allied[bid] = allied.get(bid, 0) | frame[6]
        frame[6] |= m

    any_conflict = False
    for aid, m in allied.items():
        a = task.actions[aid]
        for bid in _bits(m & ~(1 << aid)):
            b = task.actions[bid]
            for deleter, victim in ((a, b), (b, a)):
                if deleter.delete & victim.pre:
                    any_conflict = True
                    if not _repair_exists(task, deleter, victim):
                        return UNKNOWN
    return VERDICT_HPLUS_EQUALS_GD_VIA_REPAIRS if any_conflict \
        else VERDICT_HPLUS_EQUALS_GD


def _conflict_instances(fgt, excluded, deletion_pairs):
    """Yield the conflict node tuples within the sub-tree that excludes the
    marked nodes; ancestor conflicts give (deleter, ancestor), sibling
    conflicts every allied pair, goal deleters (node, root)."""
    for desc, anc, _ in fgt.ancestor_conflicts:
        if not excluded[desc]:
            yield desc, anc
    for aid, bid in deletion_pairs:
        firsts = [n for n in fgt.nodes_of.get(('A', aid), ()) if not excluded[n]]
        if firsts:
            seconds = [n for n in fgt.nodes_of.get(('A', bid), ())
                       if not excluded[n]]
            yield from _sibling_pairs(fgt, firsts, seconds)


def no_local_minima_criterion(task: Task, cap: int = DEFAULT_NODE_CAP,
                              fgt: Fgt | None = None, flags: list | None = None) -> str:
    """Sufficient test for the absence of local minima under the optimal
    relaxed-plan-length heuristic.

    Requires every action to be at least invertible.  Then, per action a:
    consider the regression tree without the branches rooted at nodes
    labeled a.  The action is harmless if no conflict of that sub-tree can
    appear in a non-redundant embedding together with a deleted fact of a
    as an unexpanded leaf.  Concretely, a fails only when some conflict
    node pair and some fact node labeled with a deleted fact of a are
    pairwise compatible (root paths meeting in AND nodes or along one
    branch) with the fact node below or beside - never above - the
    conflict.  ``fgt`` and ``flags``, when given, are ``build_fgt(task,
    cap)`` and ``action_flags(task, compute_mutexes(task))`` already
    computed by the caller.
    """
    if flags is None:
        flags = action_flags(task, compute_mutexes(task))
    if any(f.at_least_invertible is None for f in flags):
        return UNKNOWN
    if fgt is None:
        fgt = build_fgt(task, cap)
    if fgt.truncated:
        return UNKNOWN
    deletion_pairs = _deletion_pairs(task)
    kinds, lca, nodes_of, ends = fgt.kinds, fgt.lca, fgt.nodes_of, fgt.ends

    def compatible_leaf(nf, conflict_nodes):
        for n in conflict_nodes:
            w = lca(nf, n)
            if w == nf:
                return False            # above the conflict: never a leaf
            if w != n and kinds[w] != 'A':
                return False            # competing choices of one OR node
        return True

    for a in task.actions:
        if not a.delete:
            continue
        excluded = bytearray(fgt.size)
        for nid in nodes_of.get(('A', a.id), ()):
            excluded[nid:ends[nid]] = b"\1" * (ends[nid] - nid)
        candidates = [nid for f in sorted(a.delete)
                      for nid in nodes_of.get(('F', f), ()) if not excluded[nid]]
        if not candidates:
            continue
        for nodes in _conflict_instances(fgt, excluded, deletion_pairs):
            if any(compatible_leaf(nf, nodes) for nf in candidates):
                return UNKNOWN
    return VERDICT_NO_LOCAL_MINIMA


def analyze_task(task: Task, cap: int = DEFAULT_NODE_CAP) -> AnalysisReport:
    """Full static report; the node-level conflict list is skipped (None)
    when the regression tree is truncated at ``cap`` nodes."""
    report = check_lemmas(task)
    fgt = build_fgt(task, cap)
    if not fgt.truncated:
        report.conflicts = find_conflicts(fgt, task)
    report.interaction_free_verdict = interaction_free_verdict(task, cap)
    report.no_local_minima_verdict = no_local_minima_criterion(
        task, cap, fgt, report.flags)
    return report


# ---------------------------------------------------------------------------
# State-space-backed validators


def validate_respected(space: StateSpace) -> dict:
    """Check, per action of the space's task, that whenever it starts an
    optimal plan from a reachable state, some optimal relaxed plan has it.

    ``space`` must carry exact optimal-relaxed-length heuristic values and
    goal distances.  Membership of a in an optimal relaxed plan for s holds
    exactly when one step plus the optimal relaxed length of s with a's add
    effects equals the optimal relaxed length of s.  Returns per action id a
    dict with ``respected`` and the counterexample state ids.
    """
    task = space.task
    h_relaxed = memoized(h_plus, task)
    counterexamples = {a.id: [] for a in task.actions}
    for sid, succs in enumerate(space.transitions):
        if space.gd[sid] == INF:
            continue
        s = space.states[sid]
        for aid, nid in succs:
            if space.gd[nid] != space.gd[sid] - 1:
                continue                       # a does not start an optimal plan
            if 1 + h_relaxed(task, s | task.actions[aid].add) != space.h[sid]:
                counterexamples[aid].append(sid)
    return {aid: {"respected": not ids, "counterexamples": ids}
            for aid, ids in counterexamples.items()}


def validate_rp_irrelevant_deletes(task: Task, s, a: GroundAction) -> bool:
    """True when a's deletes cannot matter to any optimal relaxed plan
    starting with a from s.

    Requires a applicable in s and s relaxed-solvable.  The deletes must
    avoid the goal, and the task restricted to actions whose preconditions
    avoid del(a) must still reach the goal, relaxed, from the successor of
    s in one step less than the optimal relaxed length at s.
    """
    s = frozenset(s)
    if not a.pre <= s:
        raise PreconditionViolated(
            f"action {a.name} is not applicable in the given state")
    base = h_plus(task, s)
    if base == INF:
        raise PreconditionViolated("state has no relaxed solution")
    if a.delete & task.goal:
        return False
    kept = [b for b in task.actions if not b.pre & a.delete]
    renumbered = tuple(GroundAction(i, b.name, b.pre, b.add, b.delete)
                       for i, b in enumerate(kept))
    restricted = replace(task, actions=renumbered,
                         name=task.name + "#restricted",
                         action_by_name={b.name: b.id for b in renumbered})
    start = (s | a.add) - a.delete
    return h_plus(restricted, start) <= base - 1
