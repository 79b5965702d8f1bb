"""The six reduction rules and the kernelization controller.

Each rule takes an :class:`Instance` and returns a :class:`RuleOutcome`; the
controller applies the lowest-numbered applicable rule until either a verdict
falls out or no rule applies, at which point the surviving instance is a
kernel with at most ``(2d-2)*k**(d-1) + k`` vertices.

Rule order is load-bearing: each rule's correctness may assume all previous
rules are inapplicable, and the controller enforces exactly that. Quick
verdicts (empty edge set, exhausted budget, unhittable empty edge) live in
the controller, not in any rule.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from itertools import combinations

from .core import Edge, Hypergraph, Instance, subedge_groups
from .crown import HSCrown, validate_hs_crown, _crown_via_matching
from .crown import apply_hs_crown  # noqa: F401  unused here; bench/tracing.py patches it
from .errors import InternalConsistencyError
from .lp import (
    ExactLPSolution,
    LPProblem,
    build_crown_lp,
    extract_crown_candidates,
    solve_exact,
)
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
    ones included.
    """

    steps: list[TraceStep] = field(default_factory=list)
    attempts: dict[int, int] = field(default_factory=lambda: dict.fromkeys(range(1, 7), 0))
    lp_solves: int = 0  # crown LPs solved by rule 6
    lp_pivots: int = 0  # simplex pivots summed over those solves

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
    """Result of attempting one rule. ``applied`` and ``verdict_no`` are
    mutually exclusive; rule 6 additionally carries the crown it applied and
    the LP it solved with its solution, for tracing and debugging."""

    applied: bool
    new_instance: Instance | None = None
    verdict_no: bool = False
    step: TraceStep | None = None
    crown: HSCrown | None = None
    lp_problem: LPProblem | None = None
    lp_solution: ExactLPSolution | None = None

    def __post_init__(self) -> None:
        if self.applied and self.verdict_no:
            raise InternalConsistencyError("a rule cannot both apply and conclude no")


@dataclass(frozen=True)
class ReduceResult:
    """Outcome of a full reduction run: ``verdict`` is ``kernel``, ``yes`` or
    ``no``; ``instance`` is the kernel (or the state when the verdict fell)."""

    verdict: str
    instance: Instance
    trace: ReductionTrace


Observer = Callable[[int, Instance, RuleOutcome], None]

_NOT_APPLIED = RuleOutcome(applied=False)


def vertex_bound(d: int, k: int) -> int:
    """The kernel guarantee: at most ``(2d-2)*k**(d-1) + k`` vertices."""
    return (2 * d - 2) * k ** (d - 1) + k


def _rebuild(
    inst: Instance,
    rule: int,
    new_edges: Iterable[Edge],
    *,
    remove_vertices: frozenset[int] = frozenset(),
    k_delta: int = 0,
) -> RuleOutcome:
    """Assemble the successor instance and its trace step.

    ``new_edges`` is expressed in the current (old) id space and must hold
    canonical edges (sorted vertex tuples), as every rule builds them by
    filtering or taking subsets of canonical edges; duplicates are allowed.
    Edge deltas are set differences taken there, then
    :meth:`Instance.successor` compacts the surviving vertices.
    """
    old = set(inst.edges)
    new = set(new_edges)
    step = TraceStep(
        rule=rule,
        vertices_removed=len(remove_vertices),
        edges_removed=len(old - new),
        edges_added=len(new - old),
        k_delta=k_delta,
    )
    successor = inst.successor(new, inst.k + k_delta, remove_vertices)
    return RuleOutcome(applied=True, new_instance=successor, step=step)


def weakly_related_family(h: Hypergraph) -> list[Edge]:
    """A maximal family of edges pairwise overlapping in at most d-2 vertices,
    chosen greedily in canonical edge order (deterministic).

    Two edges overlap in more than d-2 vertices exactly when they share a
    (d-1)-subset, so an edge joins iff none of its (d-1)-subsets is taken
    yet; an edge with fewer than d-1 vertices has none and always joins.
    That is O(m*d) subset lookups in place of a scan of the chosen edges.
    """
    chosen: list[Edge] = []
    taken: set[Edge] = set()
    for e in h.edges:
        subsets = list(combinations(e, h.d - 1))
        if taken.isdisjoint(subsets):
            chosen.append(e)
            taken.update(subsets)
    return chosen


def rule1_vertex_domination(inst: Instance) -> RuleOutcome:
    """Remove a dominated vertex, shrinking the edges that contained it.

    Vertex ``x`` is dominated by ``y`` when every edge through ``x`` also
    contains ``y``; then ``x`` is never needed in a solution (``y`` covers
    strictly more). ``x`` is deleted from the vertex set and from every edge,
    so edge sizes only shrink and the budget is unchanged. A dominator of
    ``x`` lies in every edge through ``x``, so ``x`` is dominated exactly
    when the intersection of those edges holds another vertex (an isolated
    ``x`` is dominated by any other vertex). The lowest dominated ``x`` is
    applied per call; which ``y`` dominates it does not affect the successor.
    """
    h = inst.hypergraph
    sets = h.edge_sets
    common: list[frozenset[int] | None] = [None] * h.n
    for es in sets:
        for v in es:
            c = common[v]
            if c is None:
                common[v] = es
            elif len(c) > 1:  # once only v is left, v is not dominated
                common[v] = c & es
    for x, c in enumerate(common):
        dominated = h.n > 1 if c is None else len(c) > 1
        if dominated:
            new_edges = [
                tuple(v for v in e if v != x) if x in es else e
                for e, es in zip(h.edges, sets)
            ]
            return _rebuild(inst, 1, new_edges, remove_vertices=frozenset((x,)))
    return _NOT_APPLIED


def rule2_edge_domination(inst: Instance) -> RuleOutcome:
    """Remove one edge that strictly contains another (the superset is
    redundant: hitting the subset hits it too). Each edge's proper subsets
    are looked up in the edge index, from the smallest edge size present
    upwards (no smaller subset can be an edge; the empty edge makes that
    size 0); the first edge in canonical order with a hit is removed. When
    all edges have one size, no edge is looked up at all."""
    h = inst.hypergraph
    index = h.edge_index
    least = min(map(len, h.edges), default=0)
    for j, e in enumerate(h.edges):
        if any(s in index for r in range(least, len(e)) for s in combinations(e, r)):
            return _rebuild(inst, 2, h.edges[:j] + h.edges[j + 1 :])
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
            v = e[0]
            new_edges = [f for f, fs in zip(h.edges, h.edge_sets) if v not in fs]
            return _rebuild(
                inst, 3, new_edges, remove_vertices=frozenset((v,)), k_delta=-1
            )
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
        singles: set[int] = set()
        pair_edges: list[tuple[int, int]] = []
        matched: set[int] = set()
        for e in containing:
            ext = tuple(v for v in e if v not in s_set)
            if len(ext) == 1:
                singles.add(ext[0])
            elif len(ext) == 2:
                pair_edges.append(ext)
                if matched.isdisjoint(ext):
                    matched.update(ext)
        greedy = len(matched) // 2
        if len(singles) + 2 * greedy <= k:
            continue
        if len(singles) + greedy <= k:
            pair_vertices = sorted({v for ext in pair_edges for v in ext})
            local = {v: i for i, v in enumerate(pair_vertices)}
            graph = SimpleGraph(
                len(local), tuple((local[u], local[v]) for u, v in pair_edges)
            )
            if len(singles) + matching.blossom_max_matching(graph).size <= k:
                continue
        removed = set(containing)
        new_edges = [e for e in h.edges if e not in removed]
        new_edges.append(s)
        return _rebuild(inst, 4, new_edges)
    return _NOT_APPLIED


def rule5_weakly_related_counting(inst: Instance, last_rule: int | None) -> RuleOutcome:
    """Count subedge occurrences inside a maximal weakly related family.

    A greedy maximal family ``W`` of pairwise weakly related edges (overlap
    at most d-2) is built in canonical order; then for subedge sizes ``i``
    from ``d-2`` (or the longest member's size, if smaller) down to ``1``,
    any subedge contained in more than ``k**(d-1-i)`` family members forces
    itself into every budget-k solution: all edges through it are deleted
    and the subedge becomes an edge. The family is viewed live (deleted
    edges leave it; inserted subedges do not join it) and the budget never
    changes.

    The attempt itself counts as an application even when nothing changes;
    such a no-op returns ``inst`` itself as the successor. So that the
    controller cannot run this rule twice in a row, ``last_rule == 5``
    reports not-applied.
    """
    if last_rule == 5:
        return _NOT_APPLIED
    h = inst.hypergraph
    k = inst.k
    family = set(weakly_related_family(h))
    live = set(h.edges)
    # No subedge is larger than the longest family member, however large d.
    top = min(h.d - 2, max(map(len, family), default=0))
    for i in range(top, 0, -1):
        threshold = k ** (h.d - 1 - i)
        for s, members in subedge_groups(sorted(family), i).items():
            # The family only shrinks, so its members containing s are the
            # group's members still in it.
            count = sum(1 for f in members if f in family)
            if count > threshold:
                s_set = set(s)
                hit = {f for f in live if s_set <= set(f)}
                live -= hit
                family -= hit
                live.add(s)
    if live == h.edge_index:
        return RuleOutcome(applied=True, new_instance=inst, step=TraceStep(5, 0, 0, 0, 0))
    return _rebuild(inst, 5, live)


def rule6_lp_crown(inst: Instance) -> RuleOutcome:
    """LP-guided crown reduction, the final rule.

    Below the vertex threshold nothing happens: the instance is already a
    kernel. Otherwise the crown LP is solved exactly; its zero vertices and
    their completing subedges feed the bipartite crown finder. A found crown
    is validated and applied (budget unchanged); when no crown exists the
    instance cannot be a yes-instance and the rule concludes no.
    """
    h = inst.hypergraph
    if h.n < vertex_bound(h.d, inst.k) + 1:
        return _NOT_APPLIED
    problem = build_crown_lp(h)
    solution = solve_exact(problem)
    candidates = extract_crown_candidates(h, solution)
    crown = _crown_via_matching(h, sorted(candidates.zeros), sorted(candidates.subedges))
    if crown is None:
        step = TraceStep(rule=6, vertices_removed=0, edges_removed=0, edges_added=0, k_delta=0)
        return RuleOutcome(
            applied=False, verdict_no=True, step=step, lp_problem=problem, lp_solution=solution
        )
    verdict = validate_hs_crown(h, crown)
    if not (verdict.valid and verdict.strict and crown.crown):
        raise InternalConsistencyError(
            f"LP crown failed validation: {verdict.problems}"
        )
    new_edges = [e for e, es in zip(h.edges, h.edge_sets) if not (es & crown.crown)]
    new_edges.extend(crown.head)
    outcome = _rebuild(inst, 6, new_edges, remove_vertices=crown.crown)
    return replace(outcome, crown=crown, lp_problem=problem, lp_solution=solution)


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
    budget. Every pass applies the lowest-numbered rule that applies or
    concludes no; rule 5 declines when it was the most recent rule applied.
    After a rule-5 no-op the next pass starts at rule 6: rules 1 to 4 have
    just declined on that very instance and rule 5 declines after itself.
    An explicit iteration ceiling of ``3n + 4m + 4`` trace steps guards
    termination.

    ``observer(rule, before, outcome)`` is called for every rule event,
    including no-op rule-5 attempts and rule-6 no-verdicts.
    """
    trace = ReductionTrace()
    current = inst
    last_rule: int | None = None
    rule5_noop = False
    ceiling = 3 * inst.n + 4 * inst.m + 4
    while True:
        verdict = _quick_verdict(current)
        if verdict is not None:
            return ReduceResult(verdict, current, trace)

        # Looked up on every pass: the rules are module globals that a
        # tracer may replace.
        rules = (
            (1, rule1_vertex_domination),
            (2, rule2_edge_domination),
            (3, rule3_unit_edge),
            (4, rule4_high_degree_subedge),
            (5, lambda i: rule5_weakly_related_counting(i, last_rule)),
            (6, rule6_lp_crown),
        )
        for rule_id, rule in rules[5:] if rule5_noop else rules:
            trace.attempts[rule_id] += 1
            outcome = rule(current)
            if outcome.applied or outcome.verdict_no:
                break
        else:
            if current.n > vertex_bound(current.d, current.k):
                raise InternalConsistencyError("exited above the kernel bound")
            return ReduceResult("kernel", current, trace)

        if observer is not None:
            observer(rule_id, current, outcome)
        trace.steps.append(outcome.step)
        if outcome.lp_solution is not None:
            trace.lp_solves += 1
            trace.lp_pivots += outcome.lp_solution.pivots
        if outcome.verdict_no:
            return ReduceResult("no", current, trace)
        rule5_noop = rule_id == 5 and outcome.new_instance is current
        current = outcome.new_instance
        last_rule = rule_id
        if len(trace.steps) > ceiling:
            raise InternalConsistencyError("iteration ceiling exceeded; reduction diverged")
