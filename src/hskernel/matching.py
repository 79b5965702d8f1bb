"""Maximum matching in bipartite and general graphs.

Everything here is deterministic: vertices are processed in increasing index
order and adjacency lists are sorted, so repeated runs produce identical
matchings. Hopcroft-Karp serves rule 6's crown finder in ``crown``. The
blossom matching always runs to a full maximum: rule 4 calls it only for a
subedge its greedy bracket leaves undecided.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

_INF = -1


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph: ``side_a`` left vertices, ``side_b`` right vertices,
    and per-left sorted neighbor tuples."""

    side_a: int
    side_b: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.adjacency) != self.side_a:
            raise ValueError("adjacency must have one row per left vertex")
        rows = []
        for row in self.adjacency:
            canon = tuple(sorted(set(row)))
            if canon and (canon[0] < 0 or canon[-1] >= self.side_b):
                raise ValueError(f"neighbor list {row} references an invalid right vertex")
            rows.append(canon)
        object.__setattr__(self, "adjacency", tuple(rows))


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph; no self-loops, no parallel edges."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        canon = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) outside vertex range")
            canon.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint pairs. For bipartite matchings the pairs are
    (left index, right index); for general graphs (u, v) with u < v."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))

    @property
    def size(self) -> int:
        return len(self.pairs)


def hopcroft_karp(g: BipartiteGraph) -> Matching:
    """Maximum bipartite matching (layered BFS + shortest augmenting DFS)."""
    na, nb = g.side_a, g.side_b
    match_a = [-1] * na
    match_b = [-1] * nb
    dist = [_INF] * na
    dist_nil = _INF

    def bfs() -> bool:
        nonlocal dist_nil
        q: deque[int] = deque()
        for a in range(na):
            if match_a[a] == -1:
                dist[a] = 0
                q.append(a)
            else:
                dist[a] = _INF
        dist_nil = _INF
        while q:
            a = q.popleft()
            if dist_nil != _INF and dist[a] >= dist_nil:
                continue
            for b in g.adjacency[a]:
                mate = match_b[b]
                if mate == -1:
                    if dist_nil == _INF:
                        dist_nil = dist[a] + 1
                elif dist[mate] == _INF:
                    dist[mate] = dist[a] + 1
                    q.append(mate)
        return dist_nil != _INF

    def augment(root: int) -> None:
        # Depth-first along the BFS layers with an explicit stack (no recursion
        # limit); neighbours in adjacency order, the first path found is flipped.
        path, via, scans = [root], [], [iter(g.adjacency[root])]
        while path:
            a = path[-1]
            for b in scans[-1]:
                mate = match_b[b]
                if mate == -1 and dist[a] + 1 == dist_nil:
                    for u, w in zip(path, via + [b]):
                        match_a[u] = w
                        match_b[w] = u
                    return
                if mate != -1 and dist[mate] == dist[a] + 1:
                    via.append(b)
                    path.append(mate)
                    scans.append(iter(g.adjacency[mate]))
                    break
            else:  # dead end: leave the layers and step back
                dist[a] = _INF
                path.pop()
                scans.pop()
                del via[-1:]

    while bfs():
        for a in range(na):
            if match_a[a] == -1:
                augment(a)
    pairs = tuple((a, match_a[a]) for a in range(na) if match_a[a] != -1)
    return Matching(pairs)


def blossom_max_matching(g: SimpleGraph) -> Matching:
    """Maximum matching in a general graph via blossom contraction."""
    n = g.vertex_count
    adj = g.adjacency
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> bool:
        used = [False] * n
        for i in range(n):
            parent[i] = -1
            base[i] = i
        used[root] = True
        q: deque[int] = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    cur = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = parent[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_augmenting(v)
    pairs = tuple((v, match[v]) for v in range(n) if match[v] > v)
    return Matching(pairs)
