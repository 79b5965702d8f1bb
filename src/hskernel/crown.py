"""Crown decompositions of hypergraph instances as first-class objects.

A crown is an independent vertex set together with its head: the set of
subedges that complete crown vertices to full hyperedges. When every head
subedge can be matched injectively to a crown vertex along hyperedges, the
crown vertices can be deleted and the head subedges inherit their hitting
duty with the budget unchanged -- the two instances decide identically.

The crown here carries its matching as a checkable certificate; the
transformation itself never uses it. Rule 6's finder, the package's only
crown finder, reads one off a maximum matching of the head subedges into
the LP's zero vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Edge, Hypergraph, Instance, canonical_edge, edges_through
from .core import is_independent, remainders
from .errors import InternalConsistencyError, InvalidCrownError
from . import matching  # Hopcroft-Karp is looked up at call time; bench/tracing.py patches it
from .matching import BipartiteGraph


@dataclass(frozen=True)
class HSCrown:
    """Crown vertices, head subedges, and the injective head-to-crown matching."""

    crown: frozenset[int]
    head: frozenset[Edge]
    matching: tuple[tuple[Edge, int], ...]  # (head subedge, crown vertex)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matching", tuple(sorted(self.matching)))

    @property
    def strict(self) -> bool:
        return len(self.crown) >= len(self.head) + 1


@dataclass(frozen=True)
class CrownVerdict:
    """Outcome of validating a crown: the three conditions independently,
    plus whether the crown is strict."""

    independent: bool
    head_exact: bool
    matching_valid: bool
    strict: bool
    problems: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return self.independent and self.head_exact and self.matching_valid


def induced_head(h: Hypergraph, crown_vertices: frozenset[int]) -> tuple[set[Edge], bool]:
    """The subedges left behind by edges through the crown.

    Returns the induced set plus a flag for the degenerate case of a unit
    edge inside the crown, whose remainder would be empty and could never
    inherit a hitting duty.
    """
    rests = [rest for _, rest in remainders(h, crown_vertices)]
    return {rest for rest in rests if rest}, not all(rests)


def validate_hs_crown(h: Hypergraph, c: HSCrown) -> CrownVerdict:
    """Check the three crown conditions independently and report failures.

    A crown vertex outside ``0..n-1`` is reported as such and fails the
    independence condition. Each condition's section appends its failures
    to one list, in order, and its flag is read off those alone: it holds
    when its section appended nothing."""
    problems = [
        f"crown vertex {v} is outside 0..{h.n - 1}" for v in sorted(c.crown) if not 0 <= v < h.n
    ]
    if not problems and not is_independent(h, c.crown):
        problems.append("crown vertices are not independent")
    independent = not problems

    before = len(problems)
    induced, has_empty = induced_head(h, c.crown)
    if has_empty:
        problems.append("a unit edge meets the crown; its remainder cannot carry the duty")
    elif induced != set(c.head):
        missing = induced - set(c.head)
        extra = set(c.head) - induced
        if missing:
            problems.append(f"head misses induced subedges {sorted(missing)}")
        if extra:
            problems.append(f"head contains foreign subedges {sorted(extra)}")
    head_exact = len(problems) == before

    before = len(problems)
    keys = [y for y, _ in c.matching]
    values = [v for _, v in c.matching]
    if len(set(keys)) != len(keys):
        problems.append("matching lists a head subedge more than once")
    if set(keys) != set(c.head):
        problems.append("matching does not cover the head exactly")
    if len(set(values)) != len(values):
        problems.append("matching is not injective")
    if not set(values) <= set(c.crown):
        problems.append("matching image leaves the crown")
    for y, v in c.matching:
        if canonical_edge((*y, v)) not in h:
            problems.append(f"matched pair {y} -> {v} is not a hyperedge")
    matching_valid = len(problems) == before

    return CrownVerdict(independent, head_exact, matching_valid, c.strict, tuple(problems))


def apply_hs_crown(inst: Instance, c: HSCrown) -> Instance:
    """Remove the crown, drop every edge it meets, and insert the head.

    The budget is unchanged and the result is renormalized to dense ids.
    Head subedges may duplicate or contain existing edges; set semantics and
    the controller's edge-domination pass clean that up, no special casing
    here. An invalid crown is rejected with its validation verdict.
    """
    verdict = validate_hs_crown(inst.hypergraph, c)
    if not verdict.valid:
        raise InvalidCrownError(verdict)
    return inst.successor(edges_through(inst.edges, c.crown), c.head, inst.k, c.crown)


def _crown_via_matching(h: Hypergraph, candidates: list[int]) -> HSCrown | None:
    """Rule 6's crown finder: match the head subedges -- the non-empty
    remainders of the edges through the ``candidates`` -- into the candidate
    vertices with Hopcroft-Karp, or return ``None`` when the matching
    saturates the candidates. Its pairs are checked to be a matching of the
    bipartite graph, since a ``None`` read off a false one would be a wrong
    no. Otherwise the crown is every candidate that an alternating path
    reaches from an unmatched one, the head its subedges, and the matching
    restricted to the head certifies the injection into the crown. The
    crown is Hall-deficient by construction (an unmatched candidate lies in
    it), so saturated crowns are invisible here. The subedges are collected
    in the walk that builds the bipartite rows, and numbered in sorted
    order."""
    cand_pos = {v: i for i, v in enumerate(candidates)}
    pairs = [(cand_pos[x], rest) for x, rest in remainders(h, cand_pos.keys()) if rest]
    subedges = sorted({rest for _, rest in pairs})
    sub_pos = {y: j for j, y in enumerate(subedges)}
    rows: list[set[int]] = [set() for _ in candidates]
    for i, rest in pairs:
        rows[i].add(sub_pos[rest])
    g = BipartiteGraph(len(candidates), len(subedges), tuple(map(tuple, rows)))
    matched = matching.hopcroft_karp(g).pairs
    mate = {j: i for i, j in matched}
    if len(mate) < len(matched) or len(set(mate.values())) < len(matched) or not all(
        0 <= i < g.side_a and j in g.adjacency[i] for i, j in matched
    ):
        raise InternalConsistencyError("Hopcroft-Karp pairs are not a matching of the graph")
    todo = list(set(range(len(candidates))).difference(mate.values()))
    if not todo:
        return None
    crown, head = set(todo), set()
    while todo:
        for j in g.adjacency[todo.pop()]:
            if j in head:
                continue
            head.add(j)
            if j not in mate:
                raise InternalConsistencyError("augmenting path survived a maximum matching")
            if mate[j] not in crown:
                crown.add(mate[j])
                todo.append(mate[j])
    found = HSCrown(
        frozenset(candidates[i] for i in crown),
        frozenset(subedges[j] for j in head),
        tuple((subedges[j], candidates[mate[j]]) for j in head),
    )
    if not found.strict:
        raise InternalConsistencyError("crown lost its Hall deficiency")
    return found


def format_crown(c: HSCrown) -> str:
    """Debug rendering of a crown: vertices, head subedges, and the matching."""
    crown = ",".join(map(str, sorted(c.crown)))
    head = " ".join("{" + ",".join(map(str, y)) + "}" for y in sorted(c.head))
    pairs = " ".join(
        "{" + ",".join(map(str, y)) + "}->" + str(v) for y, v in sorted(c.matching)
    )
    kind = "strict" if c.strict else "non-strict"
    return f"{kind} crown [{crown}] head [{head}] matching [{pairs}]"
