"""The six reduction rules and the kernelization controller.

Each rule takes an :class:`Instance` (rules 1 and 2 also take an
optional hint) and returns a :class:`RuleOutcome`; the controller applies
the lowest-numbered applicable rule until either a verdict falls out or no
rule applies, at which point the surviving instance is a kernel with at
most ``(2d-2)*k**(d-1) + k`` vertices. Each outcome names the hints the
next pass hands the rules (only rule 2 names any); the controller passes
them on unread.

Rule order is load-bearing: each rule's correctness may assume all previous
rules are inapplicable, and the controller enforces exactly that. Quick
verdicts (empty edge set, exhausted budget, unhittable empty edge) live in
the controller, not in any rule.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from itertools import combinations, islice

from .core import Edge, Hypergraph, Instance, edges_through, subedge_groups
from .crown import HSCrown, apply_hs_crown, validate_hs_crown, _crown_via_matching
from .errors import InternalConsistencyError, InvalidCrownError
from .lp import ExactLPSolution, build_crown_lp, extract_crown_candidates, solve_exact
from . import matching  # the blossom is looked up at call time; bench/tracing.py patches it
from .matching import SimpleGraph


@dataclass(frozen=True)
class TraceStep:
    """Statistics of one rule application."""

    rule: int
    vertices_removed: int
    edges_removed: int
    edges_added: int
    k_delta: int


@dataclass
class ReductionTrace:
    """Ordered log of rule applications; the verdict is in :class:`ReduceResult`.

    ``attempts[r]`` counts the controller's calls of rule ``r``, declined
    ones included. Everything else is read off the steps, except
    ``lp_pivots``, which the steps do not hold.
    """

    steps: list[TraceStep] = field(default_factory=list)
    attempts: dict[int, int] = field(default_factory=lambda: dict.fromkeys(range(1, 7), 0))
    lp_pivots: int = 0  # simplex pivots summed over the crown LP solves

    @property
    def lp_solves(self) -> int:
        """Crown LPs solved: rule 6 records a step, an application or its
        no verdict, only after solving exactly one."""
        return sum(1 for s in self.steps if s.rule == 6)

    def rule_counts(self) -> dict[int, int]:
        counts = {r: 0 for r in range(1, 7)}
        for s in self.steps:
            counts[s.rule] += 1
        return counts

    def rule5_noops(self) -> int:
        """Rule-5 steps that removed and added nothing (counted as
        applications by :meth:`rule_counts` as well)."""
        return sum(
            1 for s in self.steps if s.rule == 5 and not (s.edges_removed or s.edges_added)
        )


@dataclass(frozen=True)
class RuleOutcome:
    """Result of attempting one rule: nothing when it declines; the
    successor and its step when it applies; a step alone when it concludes
    no. ``hints`` maps a rule to the extra argument the controller calls
    it with on the next pass (only rule 2 hands any on; its own carries
    the successor's edge set, so that a chain of rule-2 steps does not
    rebuild it); it is read, never changed, and left out of the hash.
    Rules 1-5 get theirs from :func:`_rebuild`. Rule 6 assembles its own,
    with the step counted off its crown, and additionally carries the
    crown it applied and the solution of the LP it solved, for tracing and
    debugging; that LP is ``build_crown_lp`` of the instance the rule was
    given."""

    new_instance: Instance | None = None
    step: TraceStep | None = None
    crown: HSCrown | None = None
    lp_solution: ExactLPSolution | None = None
    hints: Mapping[int, object] = field(default_factory=dict, hash=False)

    @property
    def applied(self) -> bool:
        return self.new_instance is not None

    @property
    def verdict_no(self) -> bool:
        return self.step is not None and self.new_instance is None


@dataclass(frozen=True)
class ReduceResult:
    """Outcome of a full reduction run: ``verdict`` is ``kernel``, ``yes`` or
    ``no``; ``instance`` is the kernel (or the state when the verdict fell)."""

    verdict: str
    instance: Instance
    trace: ReductionTrace


Observer = Callable[[int, Instance, RuleOutcome], None]

_NOT_APPLIED = RuleOutcome()

_UNDOMINATED: frozenset[int] = frozenset()  # rule 1's mark for a vertex it has ruled out


def vertex_bound(d: int, k: int) -> int:
    """The kernel guarantee: at most ``(2d-2)*k**(d-1) + k`` vertices.

    The CLI report evaluates the same formula on exact decimals."""
    return (2 * d - 2) * k ** (d - 1) + k


def exceeds_power(x: int, k: int, e: int) -> bool:
    """``x > k ** e`` for ``e >= 0``. When ``k >= 2`` and ``e >=
    x.bit_length()``, ``k ** e >= 2 ** e > |x|`` decides it without building
    a power that, at a huge declared ``d``, has millions of digits."""
    if k >= 2 and e >= x.bit_length():
        return False
    return x > k ** e


def exceeds_bound(n: int, d: int, k: int) -> bool:
    """``n > vertex_bound(d, k)``. The bound is at least ``k**(d-1)``, so an
    ``n`` no larger is decided without building the bound."""
    return exceeds_power(n, k, d - 1) and n > vertex_bound(d, k)


def _rebuild(
    inst: Instance,
    rule: int,
    drop: Iterable[Edge],
    add: Iterable[Edge] = (),
    *,
    remove_vertices: frozenset[int] = frozenset(),
    k_delta: int = 0,
    **events: object,
) -> RuleOutcome:
    """Assemble the successor instance and its trace step from the rule's
    delta in the current (old) ids: the edges of ``inst`` it drops and the
    canonical edges it adds. It is the one path of rules 1-5; rule 6 takes
    ``apply_hs_crown``'s successor and counts its step off its crown.
    :meth:`Instance.successor` checks and applies the delta and compacts
    the surviving vertices; a successor it refuses is the rule's fault, not
    the input's. The step counts as removed the dropped edges not added
    again, and as added the edges ``inst`` lacks: the change in the edge
    count plus the edges removed. The ``events`` (rule 2's hints) go into
    the outcome as they are.
    """
    drop, add = set(drop), set(add)
    try:
        successor = inst.successor(drop, add, inst.k + k_delta, remove_vertices)
    except ValueError as exc:
        raise InternalConsistencyError(f"rule {rule} built an invalid successor: {exc}") from exc
    removed = len(drop - add)
    step = TraceStep(
        rule=rule,
        vertices_removed=len(remove_vertices),
        edges_removed=removed,
        edges_added=successor.m - inst.m + removed,
        k_delta=k_delta,
    )
    return RuleOutcome(successor, step, **events)


def weakly_related_family(h: Hypergraph) -> list[Edge]:
    """A maximal family of edges pairwise overlapping in at most d-2 vertices,
    chosen greedily in canonical edge order (deterministic).

    Two edges overlap in more than d-2 vertices exactly when they share a
    (d-1)-subset, so an edge joins iff none of its (d-1)-subsets is taken
    yet; an edge with fewer than d-1 vertices has none and always joins,
    without a ``combinations`` call that at a huge ``d`` would allocate a
    (d-1)-long index array. That is O(m*d) subset lookups in place of a
    scan of the chosen edges.
    """
    chosen: list[Edge] = []
    taken: set[Edge] = set()
    for e in h.edges:
        subsets = list(combinations(e, h.d - 1)) if len(e) >= h.d - 1 else []
        if taken.isdisjoint(subsets):
            chosen.append(e)
            taken.update(subsets)
    return chosen


def rule1_vertex_domination(
    inst: Instance, candidates: Iterable[int] | None = None
) -> RuleOutcome:
    """Remove a dominated vertex, shrinking the edges that contained it.

    Vertex ``x`` is dominated by ``y`` when every edge through ``x`` also
    contains ``y``; then ``x`` is never needed in a solution (``y`` covers
    strictly more). ``x`` is deleted from the vertex set and from every edge,
    so edge sizes only shrink and the budget is unchanged. A dominator of
    ``x`` lies in every edge through ``x``, so ``x`` is dominated exactly
    when the intersection of those edges holds another vertex (an isolated
    ``x`` is dominated by any other vertex). The lowest dominated ``x`` is
    applied per call; which ``y`` dominates it does not affect the successor.

    Only the ``candidates`` (every vertex by default) are tested, and only
    the edges through one of them are scanned; the scan stops, declining,
    once every candidate is known to be undominated. Both the hinted scan
    and the collection of the edges through the dominated ``x`` walk
    :func:`~hskernel.core.edges_through`, which reads only the edges that
    start at or below the highest vertex asked for. The caller guarantees
    that no vertex outside ``candidates`` is dominated; then the lowest
    dominated candidate is the lowest dominated vertex.
    """
    h = inst.hypergraph
    edges: Iterable[Edge] = h.edges
    # Per vertex: None before its first edge, then the intersection of its
    # edges until only the vertex itself is left, then _UNDOMINATED; a vertex
    # that is no candidate starts as _UNDOMINATED.
    common: list[frozenset[int] | None] = [None] * h.n
    order: Iterable[int] = range(h.n)
    if candidates is not None:
        wanted = frozenset(candidates)
        edges = edges_through(edges, wanted)
        common = [_UNDOMINATED] * h.n
        for v in wanted:
            common[v] = None
        order = sorted(wanted)
    undecided = len(order)
    for e in edges:
        for v in e:
            c = common[v]
            if c is _UNDOMINATED:
                continue
            c = frozenset(e) if c is None else c.intersection(e)
            if len(c) > 1:
                common[v] = c
            else:
                common[v] = _UNDOMINATED
                undecided -= 1
                if not undecided:
                    return _NOT_APPLIED
    for x in order:
        c = common[x]
        if c is not _UNDOMINATED and (c is not None or h.n > 1):
            gone = frozenset((x,))
            through = list(edges_through(h.edges, gone))
            shrunk = [tuple(v for v in e if v != x) for e in through]
            return _rebuild(inst, 1, through, shrunk, remove_vertices=gone)
    return _NOT_APPLIED


def rule2_edge_domination(
    inst: Instance, resume: tuple[int, frozenset[Edge], int] | None = None
) -> RuleOutcome:
    """Remove one edge that strictly contains another (the superset is
    redundant: hitting the subset hits it too). Each edge's proper subsets
    are looked up in the edge set, from the least edge size upwards (no
    smaller subset can be an edge; the empty edge makes that size 0); the
    first edge in canonical order with a hit is removed. When all edges
    have one size, no edge is looked up at all.

    ``resume`` is ``(start, edges, least)``: the scan starts at the edge at
    position ``start``, looks subsets up in ``edges``, which must equal the
    set of the instance's edges, and from size ``least`` upwards. Without
    it the scan starts at the first edge and builds the set and the least
    size with a pass over the edges. The caller guarantees that no edge
    before ``start`` contains another edge; then the first hit from
    ``start`` on is the first in canonical order. ``least`` need only be a
    lower bound on the edge sizes: a smaller subset is never an edge, so
    looking it up changes no hit.

    Having removed ``e`` for its first hit ``f``, the rule hands rule 1 the
    vertices of ``e`` outside ``f`` as its only candidates, and itself
    ``(i, edges - {e}, least)``: the position ``i`` its scan reached,
    ``e``'s, which in the successor is the next edge's, the successor's
    edge set, and the same least size, still a lower bound. Under the
    controller's order rule 1 declined on this instance, and only the
    vertices of ``e`` lost an edge. A vertex of ``f`` keeps ``f``, which
    lies inside ``e``, so the intersection of its edges is the same without
    ``e``, and it stays undominated. No edge before ``e`` had a subset, and
    removing an edge gives none one. So both hinted calls return what a
    full scan of the successor would.
    """
    h = inst.hypergraph
    start, index, least = resume or (0, frozenset(h.edges), min(map(len, h.edges), default=0))
    for i, e in enumerate(islice(h.edges, start, None), start):
        f = next((s for r in range(least, len(e)) for s in combinations(e, r) if s in index), None)
        if f is not None:
            hints = {1: tuple(v for v in e if v not in f), 2: (i, index - {e}, least)}
            return _rebuild(inst, 2, (e,), hints=hints)
    return _NOT_APPLIED


def rule3_unit_edge(inst: Instance) -> RuleOutcome:
    """Take the forced vertex of a unit edge: remove it plus every edge
    through it and decrement the budget.

    Under the controller's ordering the unit edge is the only edge through
    its vertex (supersets are already gone); deleting all incident edges is
    a safety net, not a semantic change. Lowest unit edge first.
    """
    h = inst.hypergraph
    for e in h.edges:
        if len(e) == 1:
            gone = frozenset(e)
            return _rebuild(inst, 3, edges_through(h.edges, gone), remove_vertices=gone, k_delta=-1)
    return _NOT_APPLIED


def rule4_high_degree_subedge(inst: Instance) -> RuleOutcome:
    """Contract an over-packed (d-2)-subedge into an edge of its own.

    If more than ``k`` hyperedges pairwise intersect in exactly the subedge
    ``e``, any budget-k solution must hit ``e`` itself, so all edges through
    ``e`` collapse to the single new edge ``e``. The first triggering
    subedge in canonical order is applied.

    Extensions of ``e`` have one or two vertices. One-vertex extensions are
    mutually disjoint; a largest disjoint family of two-vertex extensions is
    a maximum matching ``nu`` over them. Rule 2 has already removed every
    superset, so no two-vertex extension contains a one-vertex one, and the
    packing is exactly the number of singles plus ``nu``.

    A greedy maximal matching ``M`` over the two-vertex extensions, taken in
    list order, brackets ``nu``: ``|M| <= nu <= 2|M|``. So a subedge is
    declined when singles plus ``2|M|`` is at most ``k``, applied when
    singles plus ``|M|`` exceeds ``k``, and only in between does a maximum
    blossom matching decide.
    """
    h = inst.hypergraph
    k = inst.k
    for s, containing in subedge_groups(h.edges, h.d - 2).items():
        if len(containing) <= k:
            continue
        s_set = frozenset(s)
        singles = 0  # distinct edges s + {v} have distinct v
        pair_edges: list[tuple[int, int]] = []
        matched: set[int] = set()
        for e in containing:
            ext = tuple(v for v in e if v not in s_set)
            if len(ext) == 1:
                singles += 1
            elif len(ext) == 2:
                pair_edges.append(ext)
                if matched.isdisjoint(ext):
                    matched.update(ext)
        greedy = len(matched) // 2
        if singles + 2 * greedy <= k:
            continue
        if singles + greedy <= k:
            pair_vertices = sorted({v for ext in pair_edges for v in ext})
            local = {v: i for i, v in enumerate(pair_vertices)}
            graph = SimpleGraph(
                len(local), tuple((local[u], local[v]) for u, v in pair_edges)
            )
            if singles + matching.blossom_max_matching(graph).size <= k:
                continue
        return _rebuild(inst, 4, containing, (s,))
    return _NOT_APPLIED


def rule5_weakly_related_counting(inst: Instance) -> RuleOutcome:
    """Count subedge occurrences inside a maximal weakly related family.

    A greedy maximal family ``W`` of pairwise weakly related edges (overlap
    at most d-2) is built in canonical order; then for subedge sizes ``i``
    from ``d-2`` (or the longest member's size, if smaller) down to ``1``,
    any subedge contained in more than ``k**(d-1-i)`` family members forces
    itself into every budget-k solution: all edges through it are deleted
    and the subedge becomes an edge. The family is viewed live (deleted
    edges leave it; inserted subedges do not join it) and the budget never
    changes.

    The attempt itself counts as an application even when nothing changes:
    such a no-op goes through :func:`_rebuild` like any other step, and
    since its change is empty its successor is ``inst`` itself. The rule
    keeps no gate of its own: after a no-op the controller's next pass
    starts at rule 6, as after any step whose successor is the instance it
    was given, so a no-op is never repeated on the same instance. A step
    that changes edges may be followed by rule 5 again: each subedge it
    adds replaces at least two edges, so such a step lowers the edge count.
    """
    h = inst.hypergraph
    k = inst.k
    index = frozenset(h.edges)
    family = set(weakly_related_family(h))
    live = set(index)
    # No subedge is larger than the longest family member, however large d.
    top = min(h.d - 2, max(map(len, family), default=0))
    for i in range(top, 0, -1):
        # No count exceeds the family's size, so a power above it need not be built.
        e = h.d - 1 - i
        threshold = k**e if exceeds_power(len(family), k, e) else len(family)
        for s, members in subedge_groups(sorted(family), i).items():
            # The family only shrinks, so its members containing s are the
            # group's members still in it.
            count = sum(1 for f in members if f in family)
            if count > threshold:
                s_set = set(s)
                hit = {f for f in live if s_set.issubset(f)}
                live -= hit
                family -= hit
                live.add(s)
    return _rebuild(inst, 5, index - live, live - index)


def rule6_lp_crown(inst: Instance) -> RuleOutcome:
    """LP-guided crown reduction, the final rule.

    Below the vertex threshold nothing happens: the instance is already a
    kernel. Otherwise the crown LP is solved exactly; its zero vertices feed
    the crown finder, which matches their completing subedges into
    them. A found crown must be strict; ``apply_hs_crown`` validates and
    applies it (budget unchanged). When no crown exists the instance cannot
    be a yes-instance and the rule concludes no.

    The step is counted off the crown, not by walking its edges again. The
    crown is independent, so no head subedge holds a crown vertex, and none
    is an edge through the crown: the edges added are the head subedges
    the instance lacks, and the edges removed are those through the crown,
    the fall in the edge count plus the edges added.
    """
    h = inst.hypergraph
    if not exceeds_bound(h.n, h.d, inst.k):
        return _NOT_APPLIED
    solution = solve_exact(build_crown_lp(h))
    crown = _crown_via_matching(h, extract_crown_candidates(h, solution))
    if crown is None:
        step = TraceStep(rule=6, vertices_removed=0, edges_removed=0, edges_added=0, k_delta=0)
        return RuleOutcome(step=step, lp_solution=solution)
    try:
        # The only strictness check on rule 6's path: apply_hs_crown takes a
        # valid crown that is not strict, and the finder's crowns are strict
        # by construction, so this cannot fire under kernelize. It stays as
        # rule 6's one read of validate_hs_crown, which bench/tracing.py
        # patches here by name.
        if not crown.strict:
            raise InvalidCrownError(validate_hs_crown(h, crown))
        successor = apply_hs_crown(inst, crown)
    except InvalidCrownError as exc:
        raise InternalConsistencyError(f"LP crown failed validation: {exc.verdict.problems}") from exc
    added = sum(1 for y in crown.head if y not in h)
    step = TraceStep(6, len(crown.crown), h.m - successor.m + added, added, 0)
    return RuleOutcome(successor, step, crown=crown, lp_solution=solution)


def _quick_verdict(inst: Instance) -> str | None:
    if inst.k < 0:
        return "no"
    if inst.edges and not inst.edges[0]:  # canonical order puts an empty edge first
        return "no"
    if not inst.edges:
        return "yes"
    if inst.k == 0:
        return "no"
    return None


def kernelize(inst: Instance, observer: Observer | None = None) -> ReduceResult:
    """Run the full reduction loop to a kernel or a verdict.

    The returned kernel satisfies ``n <= (2d-2)*k**(d-1) + k`` for its final
    budget. Every pass tries the rules in order from ``first`` and ends at
    the first that records a step: it applies, or it concludes no. What the
    last step leaves undone reaches the rules through its outcome's
    ``hints``, which map a rule to the extra argument it is called with; a
    rule without one scans everything. Only rule 2 hands any on: where
    rules 1 and 2 resume (see its docstring). After a step whose successor
    is the instance it was given, the next pass starts at the rule after
    that step's: the rules before it have just declined on that very
    instance, and the rule itself would change nothing again. That alone
    keeps a rule-5 no-op from repeating. After any other step it starts at
    the first rule. The controller names no rule. Every step that changes
    the instance lowers ``n + m``, and a no-op is followed by rule 6, so an
    explicit iteration ceiling of ``3n + 4m + 4`` trace steps guards
    termination. The rules are the module's globals as they stand when the
    call starts, so a tracer installed before the call sees every attempt.

    ``observer(rule, before, outcome)`` is called for every rule event,
    including no-op rule-5 attempts and rule-6 no-verdicts. The trace
    records the events in order; its counts are derived from them.
    """
    trace = ReductionTrace()
    current = inst
    first = 1
    hints: Mapping[int, object] = {}
    ceiling = 3 * inst.n + 4 * inst.m + 4
    rules = (
        rule1_vertex_domination,
        rule2_edge_domination,
        rule3_unit_edge,
        rule4_high_degree_subedge,
        rule5_weakly_related_counting,
        rule6_lp_crown,
    )
    while True:
        verdict = _quick_verdict(current)
        if verdict is not None:
            return ReduceResult(verdict, current, trace)

        for rule_id, rule in enumerate(rules[first - 1 :], first):
            trace.attempts[rule_id] += 1
            outcome = rule(current, hints[rule_id]) if rule_id in hints else rule(current)
            if outcome.step is not None:
                break
        else:
            if exceeds_bound(current.n, current.d, current.k):
                raise InternalConsistencyError("exited above the kernel bound")
            return ReduceResult("kernel", current, trace)

        if observer is not None:
            observer(rule_id, current, outcome)
        trace.steps.append(outcome.step)
        if outcome.lp_solution is not None:
            trace.lp_pivots += outcome.lp_solution.pivots
        if outcome.verdict_no:
            return ReduceResult("no", current, trace)
        first = rule_id + 1 if outcome.new_instance is current else 1
        current = outcome.new_instance
        hints = outcome.hints
        if len(trace.steps) > ceiling:
            raise InternalConsistencyError("iteration ceiling exceeded; reduction diverged")
