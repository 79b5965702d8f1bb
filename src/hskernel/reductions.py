"""The six reduction rules and the kernelization controller.

Each rule takes an :class:`Instance` (rules 1 and 2 also take an
optional hint) and returns a :class:`RuleOutcome`; the controller applies
the lowest-numbered applicable rule until either a verdict falls out or no
rule applies, at which point the surviving instance is a kernel with at
most ``(2d-2)*k**(d-1) + k`` vertices. Each outcome names the hints the
next pass hands the rules (rules 1-4 name some, for rules 1 and 2 only);
each rule builds its own next to the proof that it is exact, and the
controller passes them on unread.

Rule order is load-bearing: each rule's correctness may assume all previous
rules are inapplicable, and the controller enforces exactly that. Quick
verdicts (empty edge set, exhausted budget, unhittable empty edge) live in
the controller, not in any rule.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import combinations, compress, filterfalse, islice

from .core import Edge, Hypergraph, Instance, _compacted, edges_through, subedge_groups
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
    ones included, and inside a run in place (rules 1-3, see
    :func:`kernelize`) the calls of its finder that stand for them, so
    the counts are those of the per-step passes. Everything else is read
    off the steps, except ``lp_pivots``, which the steps do not hold.
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
        counts = Counter(s.rule for s in self.steps)
        return {r: counts[r] for r in range(1, 7)}

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
    it with on the next pass (rules 1-4 build them, for rules 1 and 2
    only; rule 2's own carries the edge set its scan read, unchanged, so
    that a chain of rule-2 steps shares one set that also holds the edges
    the chain removed, and those of rules 3 and 4 an empty set that a scan
    past the last edge never reads); it is read, never changed, and left
    out of the hash.
    Rules 1-5 get theirs from :func:`_rebuild`, which puts in the hints
    the rule hands it. Rule 6 assembles its own,
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
    add: Collection[Edge] = (),
    *,
    remove_vertices: frozenset[int] = frozenset(),
    k_delta: int = 0,
    hints: Mapping[int, object] | None = None,
) -> RuleOutcome:
    """Assemble the successor instance and its trace step from the rule's
    delta in the current (old) ids: the edges of ``inst`` it drops and the
    canonical edges it adds, a collection, since it is read twice. It is
    the one path of rules 1-5; rule 6 takes ``apply_hs_crown``'s successor
    and counts its step off its crown.
    :meth:`Instance.successor` checks and applies the delta and compacts
    the surviving vertices; a successor it refuses is the rule's fault, not
    the input's. The step counts as removed the dropped edges not added
    again, and as added the edges ``inst`` lacks: the change in the edge
    count plus the edges removed. The ``hints`` go into the outcome as
    they are; each rule builds its own next to its proof.
    """
    drop = set(drop)
    try:
        successor = inst.successor(drop, add, inst.k + k_delta, remove_vertices)
    except ValueError as exc:
        raise InternalConsistencyError(f"rule {rule} built an invalid successor: {exc}") from exc
    removed = len(drop.difference(add))
    step = TraceStep(rule, len(remove_vertices), removed, successor.m - inst.m + removed, k_delta)
    return RuleOutcome(successor, step, hints=hints or {})


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


def _dominated(
    edges: Sequence[Edge], n: int, candidates: Iterable[int] | None, gone: Collection[int]
) -> tuple[int, list[int] | None] | None:
    """Rule 1's finder on any sorted sequence of canonical ``edges`` over
    the vertices ``0..n-1`` less ``gone``, which no edge holds: None when
    no candidate (every such vertex when ``candidates`` is None) is
    dominated; otherwise the lowest dominated candidate ``x`` and the
    later candidates whose intersection less ``x`` still holds a second
    vertex, in the same ids, or None in their place when a later vertex
    is in no edge. A candidate in no edge is dominated when some other
    vertex is left, so that test reads the live count, ``n`` less
    ``gone``. :func:`rule1_vertex_domination` says why the scan is exact
    and what the caller guarantees. The public rule, which renumbers the
    later candidates, and :func:`_run_in_place`, which keeps its ids and
    passes the vertices it removed as ``gone``, share it; it reads
    nothing else of an instance.
    """
    # Per vertex: None before its first edge, then the intersection of its
    # edges until only the vertex itself is left, then _UNDOMINATED; a vertex
    # that is no candidate starts as _UNDOMINATED.
    if candidates is None:
        common: list[frozenset[int] | None] = [None] * n
        for v in gone:
            common[v] = _UNDOMINATED
        order: Sequence[int] = list(filterfalse(gone.__contains__, range(n))) if gone else range(n)
        scan: Iterable[Edge] = edges
    else:
        wanted = frozenset(candidates)
        common = [_UNDOMINATED] * n
        for v in wanted:
            common[v] = None
        order = sorted(wanted)
        scan = edges_through(edges, wanted)
    undecided = len(order)
    for e in scan:
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
                    return None
    for i, x in enumerate(order):
        c = common[x]
        if c is not _UNDOMINATED and (c is not None or n - len(gone) > 1):
            # Without this guard a run of isolated vertices would loop over
            # every later vertex on each step; the full scan finds them in C.
            if None in islice(common, x + 1, None):
                return x, None
            later = []
            for v in order[i + 1 :]:
                c = common[v]
                if len(c) > 2 or len(c) == 2 and x not in c:
                    later.append(v)
            return x, later
    return None


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

    Having removed ``x``, the rule hands rule 1 the vertices after ``x``
    in its scan order whose intersection less ``x`` still holds a second
    vertex, renumbered. By then the scan has read every edge through each
    candidate. A vertex's edges in the successor are its edges less ``x``,
    so its intersection is its old one less ``x``: the vertices before
    ``x`` and those outside ``candidates`` met only in themselves, and
    still do. So the hinted call returns what a full scan of the successor
    would. A later vertex in no edge has no intersection to read; then
    nothing is handed on and the next call scans everything. Rule 2 gets
    no hint: a shrunk edge may now lie inside any other.

    A rule-1 step starts no run in place, but inside one (see
    :func:`kernelize`) the step is taken on the run's edge list, in the
    ids where the run started: the same later vertices are handed on
    without renumbering, and rule 2's next scan starts at the first edge
    with the run's own edge set, which the run keeps up to date.
    """
    h = inst.hypergraph
    found = _dominated(h.edges, h.n, candidates, ())
    if found is None:
        return _NOT_APPLIED
    x, later = found
    gone = frozenset((x,))
    through = list(edges_through(h.edges, gone))
    shrunk = [tuple(v for v in e if v != x) for e in through]
    hints = {} if later is None else {1: [v - 1 for v in later]}
    return _rebuild(inst, 1, through, shrunk, remove_vertices=gone, hints=hints)


def _first_superset(
    edges: Sequence[Edge], start: int, index: Collection[Edge], least: int
) -> tuple[int, Edge] | None:
    """Rule 2's finder on any sorted sequence of canonical ``edges``: None
    when no edge from position ``start`` on has a proper subset of at
    least ``least`` vertices in ``index``; otherwise the position of the
    first such edge ``e`` and the vertices of ``e`` outside its first such
    subset ``f`` (by size, then in ``combinations`` order).
    :func:`rule2_edge_domination` says what ``index`` and ``least`` must
    be and why the scan and the hints built from the result are exact.
    The public rule and :func:`_run_in_place` share it.
    """
    for i, e in enumerate(islice(edges, start, None), start):
        f = next((s for r in range(least, len(e)) for s in combinations(e, r) if s in index), None)
        if f is not None:
            return i, tuple(v for v in e if v not in f)
    return None


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
    position ``start`` and looks subsets up in ``edges``, from size
    ``least`` upwards. ``edges`` must hold every edge of the instance, and
    each other member must strictly contain one of them; an empty set is
    also exact when ``start`` is past the last edge, since then nothing is
    looked up. Without ``resume`` the scan starts at the first edge and
    builds the set and the least size with a pass over the edges. The
    caller guarantees that no edge before ``start`` contains another edge;
    then the first hit from ``start`` on is the first in canonical order.
    ``least`` need only be a lower bound on the edge sizes: a smaller
    subset is never an edge, so looking it up changes no hit. Nor does an
    extra member ``s`` of ``edges``: if ``s`` lies inside the scanned edge
    ``g``, so does the edge that ``s`` strictly contains, and that edge,
    at least ``least`` long and shorter than ``s``, is found first. So
    every first hit is an edge of the instance, the one the exact set
    gives.

    Having removed ``e`` for its first hit ``f``, the rule hands rule 1 the
    vertices of ``e`` outside ``f`` as its only candidates, and itself
    ``(i, edges, least)``: the position ``i`` its scan reached, ``e``'s,
    which in the successor is the next edge's, the same set, unchanged and
    not copied, and the same least size, still a lower bound. The set
    holds every edge of the successor, and its one new extra, ``e``,
    strictly contains ``f``, which stays. An earlier extra strictly
    contained an edge of this instance; if that edge is ``e``, it also
    contains ``f``. So the set still meets the contract, and a chain of
    rule-2 steps carries one set. Under the controller's order rule 1
    declined on this instance, and only the vertices of ``e`` lost an
    edge. A vertex of ``f`` keeps ``f``, which lies inside ``e``, so the
    intersection of its edges is the same without ``e``, and it stays
    undominated. No edge before ``e`` had a subset, and removing an edge
    gives none one. So both hinted calls return what a full scan of the
    successor would. Without an observer, :func:`kernelize` takes the
    passes after such a step in place (:func:`_run_in_place`), with these
    same hints and the finders.
    """
    h = inst.hypergraph
    start, index, least = resume or (0, frozenset(h.edges), min(map(len, h.edges), default=0))
    found = _first_superset(h.edges, start, index, least)
    if found is None:
        return _NOT_APPLIED
    i, outside = found
    return _rebuild(inst, 2, (h.edges[i],), hints={1: outside, 2: (i, index, least)})


def rule3_unit_edge(inst: Instance) -> RuleOutcome:
    """Take the forced vertex of a unit edge: remove it plus every edge
    through it and decrement the budget.

    Under the controller's ordering the unit edge is the only edge through
    its vertex (supersets are already gone); deleting all incident edges is
    a safety net, not a semantic change. Lowest unit edge first.

    The step hands rule 1 no candidate and rule 2 a start at ``inst``'s
    edge count with an empty edge set. Under the controller rules 1 and 2
    declined on ``inst``, so the unit edge is the only edge dropped and no
    other vertex loses an edge: each keeps its edges and stays
    undominated. The surviving edges are ``inst``'s, of which none
    contains another, and the successor has fewer of them, so a scan from
    that start looks nothing up. Without an observer, :func:`kernelize`
    takes the passes after the step in place, where later rule-3 steps
    lower the run's own ``k`` and remove the vertex from its edge list.
    """
    h = inst.hypergraph
    unit = _unit_edge(h.edges)
    if unit is None:
        return _NOT_APPLIED
    gone, hints = frozenset(unit), {1: (), 2: (h.m, frozenset(), 0)}
    through = edges_through(h.edges, gone)
    return _rebuild(inst, 3, through, remove_vertices=gone, k_delta=-1, hints=hints)


def _unit_edge(edges: Sequence[Edge]) -> Edge | None:
    """Rule 3's finder: the first edge of one vertex in the sorted sequence
    ``edges``, or None. The public rule and :func:`_run_in_place` share it."""
    return next(compress(edges, map((1).__eq__, map(len, edges))), None)


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

    The step hands rule 1 the vertices of the dropped edges, which keep
    their ids since no vertex goes, and rule 2 a start at ``inst``'s edge
    count with an empty edge set. Under the controller rules 1 and 2
    declined on ``inst``. A vertex in no dropped edge keeps its edges and
    stays undominated. No remaining edge contains ``e``, and ``e``
    contains none, since such an edge would lie inside an edge through
    ``e``, which rule 2 would have removed. The one edge added replaces
    more than ``k`` dropped ones, so the successor has no more edges than
    ``inst`` and a scan from that start looks nothing up.
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
        hints = {1: set().union(*containing), 2: (h.m, frozenset(), 0)}
        return _rebuild(inst, 4, containing, (s,), hints=hints)
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
    family = set(weakly_related_family(h))
    edges = set(h.edges)
    live = edges.copy()
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
    return _rebuild(inst, 5, edges - live, live - edges)


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


_EDGE_DOMINATION_STEP = TraceStep(2, 0, 1, 0, 0)  # what every rule-2 step records


def _cut(edges: list[Edge], v: int) -> list[Edge]:
    """Delete the edges through ``v`` from the sorted list ``edges`` and
    return them, in order."""
    through = list(edges_through(edges, {v}))
    for e in reversed(through):
        del edges[bisect_left(edges, e)]
    return through


def _run_in_place(
    inst: Instance, hints: Mapping[int, object], trace: ReductionTrace, ceiling: int
) -> tuple[Instance, int]:
    """The passes of :func:`kernelize` from ``inst``, to which the last
    step handed ``hints`` for rules 1 and 2, for as long as each ends in a
    step of rules 1-3 and no quick verdict falls, taken in place. The run
    keeps one sorted list of the edges in ``inst``'s ids, the vertices it
    removed and ``k``. The ids are monotone, so the lowest dominated vertex
    and the first edge in canonical order are those of the per-step
    successors, and the three finders decide as the public rules would.

    Each pass counts and calls the finders in rule order from the hints
    the last step would have handed on, and takes the first step found:
    rule 1 deletes the edges through ``x`` and inserts each shrunk edge the
    list lacks; rule 2 deletes its edge; rule 3 deletes its unit edge and
    the edges through its vertex and lowers ``k``. Each step is recorded
    as its public rule records it, and the iteration ceiling is checked
    after it. Rule 2's edge set meets its ``resume`` contract throughout
    once a member may also hold a removed vertex, which no lookup reads:
    the first rule-1 step makes a set of its own from the carried one (or
    from the list, when rule 3 or 4 carried an empty one) and adds the
    shrunk edges, so a scan after a rule-1 step starts at 0 but builds no
    set; ``least`` drops with the shrunk edges and is taken again after a
    rule-3 step. Every vertex left keeps an edge: the edges a step of
    rules 2-4 takes from a vertex it keeps all hold one other vertex too,
    so had they been all its edges the vertex would have been dominated,
    and rule 1 only shrinks edges. So rule 1's finder always hands
    candidates on inside a run; passing it the removed vertices keeps a
    full scan and its isolated-vertex test exact anyway.

    The run ends when rules 1-3 decline, and the next pass starts at rule
    4, or when a quick verdict would fall (``k <= 0`` or no edge left),
    which the next pass returns. No empty edge arises: a vertex in a unit
    edge is never dominated. Returns the instance reached, one unchecked
    :class:`Instance` with one renumbering, built only if the run took a
    step, and the rule the next pass starts at, which gets no hint.
    """
    edges, k, gone, first = list(inst.edges), inst.k, set(), 1
    candidates, (start, index, least) = hints[1], hints[2]
    while k > 0 and edges:
        trace.attempts[1] += 1
        found = _dominated(edges, inst.n, candidates, gone)
        if found is not None:
            x, candidates = found
            through = _cut(edges, x)
            shrunk = [tuple(v for v in e if v != x) for e in through]
            kept = len(edges)
            for e in shrunk:
                i = bisect_left(edges, e)
                if edges[i : i + 1] != [e]:
                    edges.insert(i, e)
            if not isinstance(index, set):
                index, least = (set(index), least) if index else (set(edges), min(map(len, edges)))
            index.update(shrunk)
            start, least = 0, min([least, *map(len, shrunk)])
            gone.add(x)
            step = TraceStep(1, 1, len(through), len(edges) - kept, 0)
        else:
            trace.attempts[2] += 1
            found = _first_superset(edges, start, index, least)
            if found is not None:
                start, candidates = found
                del edges[start]
                step = _EDGE_DOMINATION_STEP
            else:
                trace.attempts[3] += 1
                unit = _unit_edge(edges)
                if unit is None:
                    first = 4
                    break
                through = _cut(edges, *unit)
                gone.update(unit)
                k -= 1
                candidates, start, least = (), len(edges), min(map(len, edges), default=0)
                step = TraceStep(3, 1, len(through), 0, -1)
        trace.steps.append(step)
        if len(trace.steps) > ceiling:
            raise InternalConsistencyError("iteration ceiling exceeded; reduction diverged")
    if gone or len(edges) < inst.m:
        inst = _compacted(inst, edges, k, sorted(gone))
    return inst, first


def kernelize(inst: Instance, observer: Observer | None = None) -> ReduceResult:
    """Run the full reduction loop to a kernel or a verdict.

    The returned kernel satisfies ``n <= (2d-2)*k**(d-1) + k`` for its final
    budget. Every pass tries the rules in order from ``first`` and ends at
    the first that records a step: it applies, or it concludes no. What the
    last step leaves undone reaches the rules through its outcome's
    ``hints``, which map a rule to the extra argument it is called with; a
    rule without one scans everything. Rules 1-4 hand hints on to rules 1
    and 2 (each rule's docstring says what and why the hinted scan finds
    what the full one would); on the first pass and after rules 5 and 6
    they scan everything. After a step whose successor
    is the instance it was given, the next pass starts at the rule after
    that step's: the rules before it have just declined on that very
    instance, and the rule itself would change nothing again. That alone
    keeps a rule-5 no-op from repeating. After any other step it starts at
    the first rule. The controller names no rule. Every step that changes
    the instance lowers ``n + m``, and a no-op is followed by rule 6, so an
    explicit iteration ceiling of ``3n + 4m + 4`` trace steps guards
    termination.

    Without an observer, a step that hands hints to both rules 1 and 2 (a
    rule-2, rule-3 or rule-4 step) starts a run in place
    (:func:`_run_in_place`): the passes that follow, for as long as each
    ends in a step of rules 1-3 and no quick verdict falls, call the three
    rules' finders on one sorted list of edges in the ids of the instance
    the run started from, and build one successor, with one renumbering,
    at the end instead of one per step. Its trace, attempts and result are
    those of the per-step passes; only its calls of the finders bypass the
    public rules, so a wrapper of a rule installed before the call sees
    every attempt outside runs and none inside. A rule-1 step outside a
    run starts none. The rules are the module's globals as they stand
    when the call starts.

    ``observer(rule, before, outcome)`` is called for every rule event,
    including no-op rule-5 attempts and rule-6 no-verdicts. With an
    observer every pass calls the public rules, so each step builds its
    own successor and outcome. The trace records the events in order; its
    counts are derived from them.
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
        if observer is None and 1 in hints and 2 in hints:
            current, first = _run_in_place(current, hints, trace, ceiling)
            hints = {}
            continue

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
