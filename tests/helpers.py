"""Shared test oracles and instance families.

Everything here is deliberately independent of the implementation paths it
checks: matchings are maximized by exhaustive recursion, LPs by enumerating
polytope vertices from active-constraint patterns, hitting sets by subset
enumeration. Structured instance families exercise the crown rule, which
organic uniform-random instances rarely reach.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from hskernel.core import Edge, Hypergraph, Instance, canonical_edge
from hskernel.errors import InternalConsistencyError
from hskernel.lp import ExactLPSolution, LPProblem
from hskernel.matching import BipartiteGraph, SimpleGraph, blossom_max_matching
from hskernel.reductions import (
    ReduceResult,
    ReductionTrace,
    TraceStep,
    _quick_verdict,
    rule1_vertex_domination,
    rule2_edge_domination,
    rule3_unit_edge,
    rule4_high_degree_subedge,
    rule5_weakly_related_counting,
    rule6_lp_crown,
    vertex_bound,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# independent oracles


def exhaustive_min_hitting_set(h: Hypergraph) -> int | None:
    """Minimum hitting-set size by enumerating all vertex subsets; None if
    unhittable (empty edge present)."""
    if any(len(e) == 0 for e in h.edges):
        return None
    for size in range(h.n + 1):
        for subset in combinations(range(h.n), size):
            s = set(subset)
            if all(s & set(e) for e in h.edges):
                return size
    raise AssertionError("unreachable")


def recursive_branch(edges: tuple[Edge, ...], k: int) -> tuple[int, ...] | None:
    """The oracle's search as plain recursion, one call per chosen vertex:
    a hitting set of size <= k, branching on the first unhit edge."""
    if not edges:
        return ()
    if not edges[0] or k <= 0:
        return None
    for v in edges[0]:
        sub = recursive_branch(tuple(e for e in edges if v not in e), k - 1)
        if sub is not None:
            return (v, *sub)
    return None


def unbounded_generate_edges(spec) -> tuple[Edge, ...]:
    """The generator's edges by drawing until ``m`` distinct edges or
    ``50m + 200`` draws, however small the edge space."""
    rng = random.Random(spec.seed)
    planted = None
    if spec.planted is not None:
        planted = tuple(sorted(rng.sample(range(spec.n), spec.planted)))
    seen: set[Edge] = set()
    for _ in range(50 * spec.m + 200):
        if len(seen) == spec.m:
            break
        size = rng.randint(2, spec.d)
        if planted is not None:
            anchor = planted[rng.randrange(len(planted))]
            others = rng.sample([v for v in range(spec.n) if v != anchor], size - 1)
            seen.add(tuple(sorted((anchor, *others))))
        else:
            seen.add(tuple(sorted(rng.sample(range(spec.n), size))))
    return tuple(sorted(seen))


def exhaustive_decide(h: Hypergraph, k: int) -> bool:
    if k < 0:
        return False
    minimum = exhaustive_min_hitting_set(h)
    return minimum is not None and minimum <= k


def exhaustive_max_matching(edges: list[tuple[int, int]]) -> int:
    """Maximum matching size by take/skip recursion over the edge list,
    pruned with the trivial remaining-edges bound."""
    best = 0

    def explore(rest: list[tuple[int, int]], current: int) -> None:
        nonlocal best
        if current > best:
            best = current
        if not rest or current + len(rest) <= best:
            return
        (u, v), tail = rest[0], rest[1:]
        explore([e for e in tail if u not in e and v not in e], current + 1)
        explore(tail, current)

    explore(list(edges), 0)
    return best


def bipartite_augmenting_path_exists(g: BipartiteGraph, pairs) -> bool:
    """Alternating BFS from free left vertices to a free right vertex."""
    match_a = {a: b for a, b in pairs}
    match_b = {b: a for a, b in pairs}
    frontier = [a for a in range(g.side_a) if a not in match_a]
    seen_a = set(frontier)
    seen_b: set[int] = set()
    while frontier:
        nxt = []
        for a in frontier:
            for b in g.adjacency[a]:
                if b in seen_b:
                    continue
                seen_b.add(b)
                if b not in match_b:
                    return True
                mate = match_b[b]
                if mate not in seen_a:
                    seen_a.add(mate)
                    nxt.append(mate)
        frontier = nxt
    return False


def random_bipartite(rng: random.Random, max_side: int = 5) -> BipartiteGraph:
    na = rng.randint(1, max_side)
    nb = rng.randint(1, max_side)
    adjacency = tuple(
        tuple(sorted(rng.sample(range(nb), rng.randint(0, nb)))) for _ in range(na)
    )
    return BipartiteGraph(na, nb, adjacency)


def bipartite_subedge(g: BipartiteGraph, b: int) -> Edge:
    """The subedge that stands for right vertex ``b`` in
    :func:`bipartite_as_hypergraph`."""
    return (g.side_a + 2 * b, g.side_a + 2 * b + 1)


def bipartite_as_hypergraph(g: BipartiteGraph) -> tuple[Hypergraph, list[int]]:
    """``g`` as a 3-uniform hypergraph plus rule 6's crown candidates: left
    vertex ``a`` is vertex ``a`` and a candidate, right vertex ``b`` is the
    fresh subedge :func:`bipartite_subedge`, and each adjacency is one edge.
    The head subedges of the candidates are then exactly the right vertices
    with a neighbour, in index order."""
    edges = [(a, *bipartite_subedge(g, b)) for a in range(g.side_a) for b in g.adjacency[a]]
    return Hypergraph(g.side_a + 2 * g.side_b, tuple(edges), 3), list(range(g.side_a))


def polytope_min_objective(problem: LPProblem) -> Fraction:
    """Exact minimum of the crown LP by brute-force vertex enumeration.

    Every basic feasible solution fixes each variable to 0, 1, or leaves it
    free, with the free ones determined by a square subsystem of tight edge
    constraints. All such candidate points are solved exactly and filtered
    for feasibility; the minimum objective over them is the LP optimum.
    """
    n = problem.var_count
    cons = [(list(e), Fraction(len(e) - 1)) for e in problem.edges]
    best: Fraction | None = None

    def feasible(x: list[Fraction]) -> bool:
        if any(v < 0 or v > 1 for v in x):
            return False
        return all(sum((x[v] for v in vs), Fraction(0)) >= rhs for vs, rhs in cons)

    def consider(x: list[Fraction]) -> None:
        nonlocal best
        if feasible(x):
            total = sum(x, Fraction(0))
            if best is None or total < best:
                best = total

    for pattern in range(3**n):
        fixed: dict[int, Fraction] = {}
        free: list[int] = []
        p = pattern
        for v in range(n):
            code = p % 3
            p //= 3
            if code == 0:
                fixed[v] = Fraction(0)
            elif code == 1:
                fixed[v] = Fraction(1)
            else:
                free.append(v)
        if not free:
            consider([fixed[v] for v in range(n)])
            continue
        pos = {v: i for i, v in enumerate(free)}
        for chosen in combinations(range(len(cons)), len(free)):
            rows = []
            rhs = []
            for ci in chosen:
                vs, b = cons[ci]
                row = [Fraction(0)] * len(free)
                adjusted = b
                for v in vs:
                    if v in pos:
                        row[pos[v]] = Fraction(1)
                    else:
                        adjusted -= fixed[v]
                rows.append(row)
                rhs.append(adjusted)
            sol = _solve_square(rows, rhs)
            if sol is None:
                continue
            x = [Fraction(0)] * n
            for v in range(n):
                x[v] = sol[pos[v]] if v in pos else fixed[v]
            consider(x)
    assert best is not None, "the all-ones point is always feasible"
    return best


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination; None when singular."""
    size = len(rows)
    a = [row[:] + [b] for row, b in zip(rows, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(size):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [vr - f * vc for vr, vc in zip(a[r], a[col])]
    return [a[r][size] for r in range(size)]


def naive_dense_simplex(problem: LPProblem) -> tuple[ExactLPSolution, int]:
    """The crown LP by a dense ``Fraction`` tableau with the engine's model
    and Bland pivots: the reference for the sparse integer tableau.

    Returns the solution (with its pivot count) and the number of ratio
    tests whose minimum ratio was tied, so that the leaving row was chosen
    by the lowest basic index.
    """
    n = problem.var_count
    # A row of fewer than two vertices is implied by the boxes.
    kept = [e for e in problem.edges if len(e) >= 2]
    covered = {v for e in kept for v in e}
    boxed = [v for v in range(n) if v not in covered]
    m = len(kept) + len(boxed)
    width = n + m + 1

    matrix: list[list[Fraction]] = []
    for r, variables in enumerate(kept):
        row = [_ZERO] * width
        for v in variables:
            row[v] = _ONE
        row[n + r] = _ONE
        row[-1] = _ONE
        matrix.append(row)
    for b, v in enumerate(boxed):
        row = [_ZERO] * width
        row[v] = _ONE
        row[n + len(kept) + b] = _ONE
        row[-1] = _ONE
        matrix.append(row)
    basis = [n + i for i in range(m)]
    # Reduced costs for min(-sum y); slack basis has zero cost.
    obj = [-_ONE] * n + [_ZERO] * m + [_ZERO]

    pivots = ties = 0
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = -1
        best_key: tuple[Fraction, int] | None = None
        for i in range(m):
            a = matrix[i][enter]
            if a > 0:
                key = (matrix[i][-1] / a, basis[i])
                if best_key is None or key < best_key:
                    best_key = key
                    leave = i
        if leave < 0:
            raise InternalConsistencyError("unbounded pivot in a boxed model")
        tied = [
            i for i in range(m)
            if matrix[i][enter] > 0 and matrix[i][-1] / matrix[i][enter] == best_key[0]
        ]
        ties += len(tied) > 1
        _dense_pivot(matrix, obj, basis, leave, enter)
        pivots += 1

    y = [_ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            y[b] = matrix[i][-1]
    values = tuple(_ONE - yv for yv in y)
    return ExactLPSolution(values, sum(values, _ZERO), tuple(basis), pivots), ties


def _dense_pivot(
    matrix: list[list[Fraction]],
    obj: list[Fraction],
    basis: list[int],
    prow: int,
    pcol: int,
) -> None:
    row = matrix[prow]
    piv = row[pcol]
    if piv != 1:
        inv = _ONE / piv
        row = [v * inv if v else v for v in row]
        matrix[prow] = row
    nonzero = [(j, vj) for j, vj in enumerate(row) if vj]
    for target in matrix:
        if target is row:
            continue
        f = target[pcol]
        if f:
            for j, vj in nonzero:
                target[j] -= f * vj
    f = obj[pcol]
    if f:
        for j, vj in nonzero:
            obj[j] -= f * vj
    basis[prow] = pcol


def naive_incident_edges(h: Hypergraph, subedge) -> set[Edge]:
    s = set(subedge)
    return {e for e in h.edges if s <= set(e)}


def naive_is_independent(h: Hypergraph, vertices) -> bool:
    x = set(vertices)
    return not any(len(set(e) & x) >= 2 for e in h.edges)


def naive_successor(
    inst: Instance, edges, k: int, removed: frozenset[int] = frozenset()
) -> Instance:
    """``Instance.successor`` by renumbering every edge and building the
    successor's hypergraph from scratch, so every edge is canonicalised and
    checked again."""
    labels = inst.labels
    n = inst.n
    if removed:
        keep = [v for v in range(n) if v not in removed]
        remap = {v: i for i, v in enumerate(keep)}
        edges = [tuple(remap[v] for v in e) for e in edges]
        labels = tuple(labels[v] for v in keep) if labels is not None else None
        n = len(keep)
    return Instance(
        Hypergraph(n, tuple(edges), inst.d), k, labels=labels, comments=inst.comments
    )


def _naive_successor(
    inst: Instance, rule: int, new_edges, removed: frozenset[int] = frozenset()
) -> tuple[TraceStep, Instance]:
    """Trace step and successor, canonicalizing every new edge again, so a
    rule that hands ``_rebuild`` non-canonical edges miscounts against it."""
    old = set(inst.edges)
    new = {canonical_edge(e) for e in new_edges}
    step = TraceStep(rule, len(removed), len(old - new), len(new - old), 0)
    return step, naive_successor(inst, new, inst.k, removed)


def naive_rule1_vertex(inst: Instance) -> tuple[int, TraceStep, Instance] | None:
    """Rule 1 by comparing every vertex pair: the lowest ``x`` with some
    ``y != x`` in every edge through ``x``, its step and successor."""
    h = inst.hypergraph
    inc = [{i for i, e in enumerate(h.edges) if v in e} for v in range(h.n)]
    for x in range(h.n):
        for y in range(h.n):
            if y != x and inc[x] <= inc[y]:
                new_edges = [tuple(v for v in e if v != x) for e in h.edges]
                return (x, *_naive_successor(inst, 1, new_edges, frozenset((x,))))
    return None


def naive_rule2_edge(inst: Instance) -> tuple[Edge, TraceStep, Instance] | None:
    """Rule 2 by comparing every edge pair: the first edge in canonical
    order that contains another edge, its step and successor."""
    h = inst.hypergraph
    for j, ej in enumerate(h.edges):
        for i, ei in enumerate(h.edges):
            if i != j and set(ei) <= set(ej):
                new_edges = [e for idx, e in enumerate(h.edges) if idx != j]
                return (ej, *_naive_successor(inst, 2, new_edges))
    return None


def naive_extension_packing(subedge: Edge, containing) -> int:
    """Rule 4's packing of ``subedge``'s extensions in the ``containing``
    edges: the one-vertex extensions plus a maximum (blossom) matching of
    the two-vertex ones."""
    extensions = [tuple(v for v in e if v not in subedge) for e in containing]
    singles = {x[0] for x in extensions if len(x) == 1}
    pairs = [x for x in extensions if len(x) == 2]
    local = {v: i for i, v in enumerate(sorted({v for p in pairs for v in p}))}
    graph = SimpleGraph(len(local), tuple((local[u], local[v]) for u, v in pairs))
    return len(singles) + blossom_max_matching(graph).size


def naive_rule4(inst: Instance) -> tuple[Edge, TraceStep, Instance] | None:
    """Rule 4 with a blossom matching on every (d-2)-subset that more than
    ``k`` edges contain: the first such subset in sorted order whose
    extensions pack more than ``k``, its step and successor."""
    h = inst.hypergraph
    subsets = sorted({s for e in h.edges for s in combinations(e, h.d - 2)})
    for s in subsets:
        containing = [e for e in h.edges if set(s) <= set(e)]
        if len(containing) > inst.k and naive_extension_packing(s, containing) > inst.k:
            new_edges = [e for e in h.edges if e not in containing] + [s]
            return (s, *_naive_successor(inst, 4, new_edges))
    return None


def naive_weakly_related_family(h: Hypergraph) -> list[Edge]:
    """The greedy weakly related family by intersecting each edge, in
    canonical order, with every edge chosen before it."""
    chosen: list[Edge] = []
    for e in h.edges:
        if all(len(set(e) & set(f)) <= h.d - 2 for f in chosen):
            chosen.append(e)
    return chosen


def naive_kernelize(inst: Instance, observer=None) -> ReduceResult:
    """The controller without the skip after a step whose successor is its
    own instance, which only a rule-5 no-op takes: every pass tries the
    rules from rule 1. Its one guard against a repeated no-op is its own:
    rule 5 declines right after a rule-5 no-op, and only then, so after a
    rule-5 step that changed edges it runs again. It counts no attempts."""
    trace = ReductionTrace()
    current = inst
    after_noop = False
    ceiling = 3 * inst.n + 4 * inst.m + 4
    while True:
        verdict = _quick_verdict(current)
        if verdict is not None:
            return ReduceResult(verdict, current, trace)

        for rule_id, rule in (
            (1, rule1_vertex_domination),
            (2, rule2_edge_domination),
            (3, rule3_unit_edge),
            (4, rule4_high_degree_subedge),
            (5, rule5_weakly_related_counting),
            (6, rule6_lp_crown),
        ):
            if rule_id == 5 and after_noop:
                continue
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
            trace.lp_pivots += outcome.lp_solution.pivots
        if outcome.verdict_no:
            return ReduceResult("no", current, trace)
        after_noop = outcome.step == TraceStep(5, 0, 0, 0, 0)
        current = outcome.new_instance
        if len(trace.steps) > ceiling:
            raise InternalConsistencyError("iteration ceiling exceeded; reduction diverged")


def random_rule_instance(rng: random.Random) -> Instance:
    """A small labelled instance for differential rule tests: n from 1 to 9,
    d in {3, 4}, edges of every size up to d (sometimes the empty edge),
    isolated vertices, and sometimes a pair of vertices forced into exactly
    the same edges (each dominates the other)."""
    d = rng.choice((3, 4))
    n = rng.randint(1, 9)
    edges = [
        set(rng.sample(range(n), rng.randint(1, min(d, n))))
        for _ in range(rng.randint(0, 12))
    ]
    if rng.random() < 0.1:
        edges.append(set())
    if n >= 2 and rng.random() < 0.3:
        a, b = rng.sample(range(n), 2)
        for e in edges:
            if e & {a, b}:
                e |= {a, b}
                while len(e) > d:
                    e.discard(rng.choice(sorted(e - {a, b})))
    labels = tuple(f"v{i}" for i in range(n))
    return Instance(Hypergraph(n, tuple(tuple(e) for e in edges), d), rng.randint(0, 3), labels)


def one_size_rule_instance(rng: random.Random) -> Instance:
    """A small labelled instance whose edges all have one size (from 1 to
    d), so no edge can contain another."""
    d = rng.choice((3, 4))
    n = rng.randint(1, 9)
    size = rng.randint(1, min(d, n))
    edges = tuple(tuple(rng.sample(range(n), size)) for _ in range(rng.randint(0, 12)))
    labels = tuple(f"v{i}" for i in range(n))
    return Instance(Hypergraph(n, edges, d), rng.randint(0, 3), labels)


# ---------------------------------------------------------------------------
# structured instance families (reach the crown rule reliably)


def petal_cycle_instance(seed: int, k: int, d: int = 3, petals: int | None = None) -> Instance:
    """Yes-instance above the crown threshold on which no earlier rule fires.

    A cycle of (d-1)k core vertices provides the heads, its cyclic windows
    of d-1 consecutive vertices; each petal vertex joins two vertex-disjoint
    windows, so no vertex dominates another, no edge contains another,
    packings stay at most k, and family counts stay within their
    thresholds. Every (d-1)-th core vertex, k in all, hits everything.
    Needs k >= 2: a core of d-1 vertices has no disjoint windows.

    By default the petals take the instance 1 to 7 vertices above the
    kernel bound; ``petals`` sets their number instead.
    """
    if k < 2:
        raise ValueError("petal-cycle construction needs k >= 2")
    rng = random.Random(seed)
    core = (d - 1) * k
    t = vertex_bound(d, k) + 1 - core + rng.randint(0, 6) if petals is None else petals
    windows = [tuple((i + j) % core for j in range(d - 1)) for i in range(core)]
    edges = []
    for j in range(t):
        v = core + j
        p = j % core if j < core else rng.randrange(core)
        choices = [q for q in range(core) if q != p and not (set(windows[q]) & set(windows[p]))]
        q = rng.choice(choices)
        edges.append(tuple(sorted((*windows[p], v))))
        edges.append(tuple(sorted((*windows[q], v))))
    return Instance(Hypergraph(core + t, tuple(edges), d), k)


def blob_instance(seed: int, k: int, blobs: int | None = None) -> Instance:
    """No-instance above the crown threshold with a fully fractional optimum.

    Disjoint 4-cliques of triples need two hits each, so b blobs cost 2b > k;
    the LP settles at two-thirds everywhere, leaving no zero vertices and no
    crown, which is exactly the no-verdict path of the final rule. By
    default the blobs take the instance above the kernel bound; ``blobs``
    sets their number instead.
    """
    rng = random.Random(seed)
    if blobs is None:
        blobs = max(2, -(-(vertex_bound(3, k) + 1) // 4)) + rng.randint(0, 2)
    edges = []
    for i in range(blobs):
        base = 4 * i
        edges.extend(combinations(range(base, base + 4), 3))
    return Instance(Hypergraph(4 * blobs, tuple(edges), 3), k)


def mixed_crown_instance(seed: int, k: int, d: int = 3) -> Instance:
    """Petal-cycle plus a disjoint blob, every d-subset of d+1 vertices: the
    crown fires, the verdict is no."""
    petal = petal_cycle_instance(seed, k, d)
    offset = petal.n
    blob_edges = [
        tuple(v + offset for v in e) for e in combinations(range(d + 1), d)
    ]
    edges = petal.edges + tuple(blob_edges)
    return Instance(Hypergraph(offset + d + 1, edges, d), k)


def blob4_instance(seed: int, k: int, blobs: int | None = None) -> Instance:
    """d=4 no-instance above the crown threshold: disjoint 5-cliques of
    quadruples, fractional optimum three-quarters everywhere. ``blobs``
    sets their number in place of the default."""
    rng = random.Random(seed)
    if blobs is None:
        blobs = max(2, -(-(vertex_bound(4, k) + 1) // 5)) + rng.randint(0, 1)
    edges = []
    for i in range(blobs):
        base = 5 * i
        edges.extend(combinations(range(base, base + 5), 4))
    return Instance(Hypergraph(5 * blobs, tuple(edges), 4), k)


def double_star_instance(seed: int, k: int) -> Instance:
    """d=4 family where the weakly-related counting rule genuinely fires.

    Two hub vertices each sit in s > k*k size-4 edges that pairwise meet only
    at the hub; partner vertices are shared between the stars with shifted
    alignment so nothing is dominated and no 2-subedge packing exceeds k.
    """
    rng = random.Random(seed)
    s = k * k + 1 + rng.randint(0, 2)
    edges = []
    for i in range(s):
        a, b, c = 2 + 3 * i, 3 + 3 * i, 4 + 3 * i
        edges.append(tuple(sorted((0, a, b, c))))
    for i in range(s):
        a = 2 + 3 * i
        b = 3 + 3 * ((i + 1) % s)
        c = 4 + 3 * ((i + 2) % s)
        edges.append(tuple(sorted((1, a, b, c))))
    return Instance(Hypergraph(2 + 3 * s, tuple(edges), 4), k)


def petersen_edges() -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


# ---------------------------------------------------------------------------
# implicit 3-Hitting Set families: graph problems whose obstructions have
# three vertices, so that the obstructions are the edges


def cluster_deletion_instance(
    seed: int, cliques: int, size: int, k: int, broken: int = 0
) -> Instance:
    """Cluster vertex deletion with budget ``k``: the edges are the induced
    P3s (paths on three vertices) of a graph, and a hitting set is a vertex
    set whose deletion leaves disjoint cliques.

    The graph is ``cliques`` disjoint cliques of ``size`` vertices, plus
    ``k`` planted vertices, the last ``k`` ids, each adjacent to each other
    vertex with probability 0.1. Deleting the planted vertices leaves the
    cliques, so the instance is a yes-instance. ``broken`` cliques, chosen
    by the seed, each lose one inner edge ``uv``; then ``u``, ``v`` and any
    third vertex of that clique form an induced P3, so ``broken = k + 1``
    gives ``k + 1`` vertex-disjoint obstructions and a no-instance.
    """
    if broken and size < 3:
        raise ValueError("a broken clique needs a third vertex")
    rng = random.Random(seed)
    n = cliques * size + k
    adj: list[set[int]] = [set() for _ in range(n)]
    for c in range(cliques):
        for u, v in combinations(range(c * size, (c + 1) * size), 2):
            adj[u].add(v)
            adj[v].add(u)
    for p in range(cliques * size, n):
        for u in range(p):
            if rng.random() < 0.1:
                adj[p].add(u)
                adj[u].add(p)
    for c in rng.sample(range(cliques), broken):
        u, v = rng.sample(range(c * size, (c + 1) * size), 2)
        adj[u].discard(v)
        adj[v].discard(u)
    # The middle vertex of an induced P3 is the one adjacent to both others.
    edges = [
        tuple(sorted((u, w, v)))
        for w in range(n)
        for u, v in combinations(sorted(adj[w]), 2)
        if v not in adj[u]
    ]
    return Instance(Hypergraph(n, tuple(edges), 3), k)


def tournament_fvs_instance(seed: int, n: int, k: int, cycles: int = 0) -> Instance:
    """Feedback vertex set in a tournament with budget ``k``: the edges are
    the directed triangles, and a hitting set is a vertex set whose
    deletion leaves the tournament acyclic.

    The tournament on ``n`` vertices starts transitive, ``u -> v`` for
    ``u < v``, and each arc at one of ``k`` planted vertices, the last
    ``k`` ids, is reversed with probability 1/2. Deleting the planted
    vertices leaves a transitive tournament, so the instance is a
    yes-instance. ``cycles`` vertex-disjoint triples ``a < b < c`` of
    unplanted vertices, chosen by the seed, each get the arc ``c -> a``,
    closing the triangle ``a -> b -> c -> a``; so ``cycles = k + 1`` gives
    ``k + 1`` vertex-disjoint obstructions and a no-instance.
    """
    if 3 * cycles > n - k:
        raise ValueError("the triangles need 3 * cycles unplanted vertices")
    rng = random.Random(seed)
    beats: list[set[int]] = [set() for _ in range(n)]
    for u, v in combinations(range(n), 2):
        if v >= n - k and rng.random() < 0.5:
            beats[v].add(u)
        else:
            beats[u].add(v)
    loose = rng.sample(range(n - k), 3 * cycles)
    for i in range(cycles):
        a, _, c = sorted(loose[3 * i : 3 * i + 3])
        beats[a].discard(c)
        beats[c].add(a)
    beaten: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in beats[u]:
            beaten[v].add(u)
    # A triangle u -> v -> w -> u, listed once from its lowest vertex u.
    edges = {
        tuple(sorted((u, v, w)))
        for u in range(n)
        for v in beats[u]
        if v > u
        for w in beats[v] & beaten[u]
        if w > u
    }
    return Instance(Hypergraph(n, tuple(sorted(edges)), 3), k)
