"""Hypergraph and instance model, plus the edge walks several rules share.

Vertices are dense integers ``0..n-1``; external names survive in an optional
label table so reduced instances can be reported in the caller's vocabulary.
Hyperedges are strictly increasing vertex tuples with set semantics:
duplicate edges collapse silently at construction. Edges smaller than the
declared bound ``d`` are first-class (several reductions create them); only
the upper bound is enforced. The empty edge is permitted as an explicit
infeasibility witness and makes the instance unhittable.

All types here are immutable after construction and safe to share between
threads; every transformation produces a new value. A successor
(:meth:`Instance.successor`) is its parent's edges less some plus others, and
checks only what its parent did not: the edges it drops and adds and the
vertices it removes (each one of the parent's). Each added edge is
canonicalised and looked up once, and only those the parent lacks are
checked, once, by the same per-edge check a :class:`Hypergraph` runs at
construction. It inherits ``d`` and the label table less the removed
vertices, and nothing else: a hypergraph caches nothing, and ``e in h``
bisects its sorted edges. A successor that changes nothing is its parent.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import combinations, filterfalse, islice, repeat
from typing import AbstractSet, Hashable, Iterable, Iterator, Sequence

from .errors import FormatError, UnsupportedParameterError

Edge = tuple[int, ...]

#: Smallest supported edge-size bound; the kernel guarantee needs d >= 3.
MIN_D = 3


def require_min_d(d: int) -> None:
    """Raise :class:`UnsupportedParameterError` for an edge-size bound below
    :data:`MIN_D`."""
    if d < MIN_D:
        raise UnsupportedParameterError(f"d={d} unsupported: the engine requires d >= {MIN_D}")


def canonical_edge(vertices: Iterable[int]) -> Edge:
    """Sorted, internally deduplicated vertex tuple."""
    return tuple(sorted(set(vertices)))


@dataclass(frozen=True)
class Hypergraph:
    """A hypergraph: ``n`` vertices, a set of edges, and the size bound ``d``.

    Edges are canonicalized (sorted, deduplicated, set semantics) at
    construction. Every edge must have at most ``d`` vertices and reference
    only ids below ``n``. :meth:`Instance.successor` builds one without
    these checks, and runs the per-edge one only on the edges it adds that
    its parent lacks. Nothing else is stored:
    ``e in h`` bisects the sorted edges, so it costs ``O(log m)`` tuple
    comparisons and finds only canonical edges.
    """

    n: int
    edges: tuple[Edge, ...]
    d: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be non-negative, got {self.n}")
        if self.d < 1:
            raise ValueError(f"edge size bound must be positive, got {self.d}")
        canon = sorted({canonical_edge(e) for e in self.edges})
        _check_edges(canon, self.n, self.d)
        object.__setattr__(self, "edges", tuple(canon))

    def __contains__(self, e: Edge) -> bool:
        i = bisect_left(self.edges, e)
        return i < len(self.edges) and self.edges[i] == e

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Instance:
    """A hypergraph paired with the budget ``k``; the unit every rule transforms.

    ``k`` may transiently go negative inside the controller before the
    verdict check. The label table, when present, maps each dense id back to
    the caller's original vertex name; comments are provenance only and do
    not participate in equality.
    """

    hypergraph: Hypergraph
    k: int
    labels: tuple[Hashable, ...] | None = None
    comments: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        require_min_d(self.hypergraph.d)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != self.hypergraph.n:
                raise ValueError("label table must have one entry per vertex")
            if len(set(labels)) != len(labels):
                raise ValueError("label table must be a bijection")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "comments", tuple(self.comments))

    @property
    def n(self) -> int:
        return self.hypergraph.n

    @property
    def m(self) -> int:
        return self.hypergraph.m

    @property
    def d(self) -> int:
        return self.hypergraph.d

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.hypergraph.edges

    def with_k(self, k: int) -> "Instance":
        return replace(self, k=k)

    def successor(
        self, drop: Iterable[Edge], add: Iterable[Edge], k: int, removed: frozenset[int] = frozenset()
    ) -> "Instance":
        """This instance less the edges ``drop``, plus the edges ``add`` (both
        in this instance's ids; an edge in both stays), with budget ``k`` and
        the vertices outside ``removed`` renumbered densely in their old
        order; labels and comments carry over. An empty change (nothing
        dropped, added or removed, and ``k`` this instance's budget) returns
        this instance itself.

        A dropped edge this instance lacks raises :class:`ValueError`. Each
        added edge is canonicalised and then looked up once. An edge this
        instance has is at most ``d`` long and in range, as its construction
        checked, and the monotone renumbering keeps it so; such edges are
        not checked again. The added edges this instance lacks are sorted
        once, checked in that order as a :class:`Hypergraph` checks its
        edges, and merged as they are: the first bad one in canonical order
        raises, :class:`FormatError` when it is longer than ``d`` and
        :class:`ValueError` when it leaves ``0..n-1``. A ``removed`` vertex
        outside ``0..n-1``, or an edge that keeps a ``removed`` vertex,
        raises :class:`ValueError`. Nothing else is checked again: ``d`` is
        this instance's, and the labels are a subsequence of its label
        table.

        The cost follows the delta, not ``m``, wherever it can. ``drop``,
        which may be a lazy walk, is read and deduplicated once, and one
        loop finds each dropped edge by bisection, which also checks it.
        Added edges are canonicalised, looked up by bisection, sorted and
        checked only when there are any, so a delta that only drops edges
        pays for its bisections and the kept runs, copied as slices.
        Removing vertices renumbers every edge instead, mapping only the
        vertices that occur in one.
        """
        h = self.hypergraph
        edges = h.edges
        at = dict.fromkeys(drop)
        for e in at:
            i = at[e] = bisect_left(edges, e)
            # Past the end the slice is empty, so no index is read out of range.
            if edges[i : i + 1] != (e,):
                lacking = min(x for x in at if x not in h)
                raise ValueError(f"the dropped edge {lacking} is not an edge")
        new = []
        if add:
            add = set(map(canonical_edge, add))
            new = sorted(e for e in add if e not in h)
            _check_edges(new, self.n, self.d)
            for e in add.intersection(at):
                del at[e]
        if not (at or new or removed) and k == self.k:
            return self
        canon = _without(edges, sorted(at.values()))
        if new:
            canon += new
            canon.sort()  # two sorted runs: a linear merge
        labels = self.labels
        n = self.n
        if removed:
            gone = sorted(removed)
            if gone[0] < 0 or gone[-1] >= n:
                stray = min(v for v in removed if not 0 <= v < n)
                raise ValueError(f"the removed vertex {stray} is outside 0..{n - 1}")
            present = set().union(*canon)
            if not present.isdisjoint(removed):
                kept = next(v for e in canon for v in e if v in removed)
                raise ValueError(f"an edge keeps the removed vertex {kept}")
            remap = {v: v - bisect_left(gone, v) for v in present}
            canon = list(map(tuple, map(map, repeat(remap.__getitem__), canon)))
            if labels is not None:
                labels = tuple(_without(labels, gone))
            n -= len(gone)
        hypergraph = _unchecked(Hypergraph, n=n, edges=tuple(canon), d=self.d)
        return _unchecked(
            Instance, hypergraph=hypergraph, k=k, labels=labels, comments=self.comments
        )


def _check_edges(edges: Iterable[Edge], n: int, d: int) -> None:
    """Raise for the first of the canonical ``edges`` that is longer than
    ``d`` (:class:`FormatError`) or holds a vertex outside ``0..n-1``
    (:class:`ValueError`)."""
    for e in edges:
        if len(e) > d:
            raise FormatError(f"edge {e} has {len(e)} vertices, bound is {d}")
        if e and (e[0] < 0 or e[-1] >= n):
            raise ValueError(f"edge {e} references a vertex outside 0..{n - 1}")


def _without(items: Sequence, positions: Iterable[int]) -> list:
    """``items`` less the entries at the increasing ``positions``, copied as
    the slices between them."""
    kept: list = []
    start = 0
    for i in positions:
        kept += items[start:i]
        start = i + 1
    kept += items[start:]
    return kept


def _unchecked(cls: type, **attributes: object):
    """An object of the frozen dataclass ``cls`` with its fields set to
    ``attributes`` as given and nothing checked: ``__post_init__`` does not
    run."""
    obj = object.__new__(cls)
    vars(obj).update(attributes)
    return obj


def normalize(
    raw_edges: Iterable[Iterable[Hashable]],
    d: int,
    k: int,
    labels: Iterable[Hashable] | None = None,
) -> Instance:
    """Build a canonical :class:`Instance` from raw labelled edge lists.

    Dense ids are assigned in first-appearance order (the explicit ``labels``
    sequence first when given, otherwise order of appearance across edges).
    Each edge is sorted and internally deduplicated; duplicate edges collapse.
    An edge larger than ``d`` (after deduplication) is a format error. An
    empty raw edge is kept as the infeasibility witness: the controller turns
    it into an immediate no-verdict rather than raising here.
    """
    require_min_d(d)
    ids: dict[Hashable, int] = {}
    if labels is not None:
        for name in labels:
            ids.setdefault(name, len(ids))
    edges: list[Edge] = []
    for raw in raw_edges:
        members = list(raw)
        edge: list[int] = []
        for name in dict.fromkeys(members):
            if labels is not None and name not in ids:
                raise FormatError(f"edge vertex {name!r} is not in the declared label set")
            edge.append(ids.setdefault(name, len(ids)))
        if len(edge) > d:
            raise FormatError(f"edge {members!r} has {len(edge)} distinct vertices, bound is {d}")
        edges.append(tuple(sorted(edge)))
    # Ids are numbered in insertion order, so the dict's order is id order.
    return Instance(Hypergraph(len(ids), tuple(edges), d), k, labels=tuple(ids))


def edges_through(edges: Sequence[Edge], vertices: AbstractSet[int]) -> Iterator[Edge]:
    """The edges among the sorted canonical ``edges`` that hold a vertex of
    ``vertices``, lazily and in order. An edge through ``v`` starts at or
    below ``v``, so only the edges that start at or below the highest
    vertex are read."""
    stop = bisect_left(edges, (max(vertices, default=-1) + 1,))
    return filterfalse(vertices.isdisjoint, islice(edges, stop))


def remainders(h: Hypergraph, vertices: AbstractSet[int]) -> Iterator[tuple[int, Edge]]:
    """``(x, e - {x})`` for every edge ``e`` of ``h`` and every ``x`` in ``e``
    that lies in ``vertices``, edge by edge in canonical order; only the
    edges :func:`edges_through` gives are read."""
    for e in edges_through(h.edges, vertices):
        for x in e:
            if x in vertices:
                yield x, tuple(v for v in e if v != x)


def is_independent(h: Hypergraph, vertices: Iterable[int]) -> bool:
    """True iff every edge of ``h`` contains at most one vertex of the set."""
    x = frozenset(vertices)
    if any(v < 0 or v >= h.n for v in x):
        raise ValueError("vertex set contains ids outside the universe")
    return all(len(x.intersection(e)) <= 1 for e in edges_through(h.edges, x))


def subedge_groups(edges: Iterable[Edge], size: int) -> dict[Edge, list[Edge]]:
    """Every ``size``-vertex subset of one of ``edges`` (canonical edges),
    mapped to the edges that contain it. Keys are sorted; each list keeps
    the order in which ``edges`` gives them. An edge shorter than ``size``
    has no such subset and is skipped before ``combinations`` allocates
    its ``size``-long index array."""
    if size < 1:
        raise ValueError("subedge size must be at least 1")
    groups: dict[Edge, list[Edge]] = {}
    for e in edges:
        if len(e) < size:
            continue
        for s in combinations(e, size):
            groups.setdefault(s, []).append(e)
    return {s: groups[s] for s in sorted(groups)}
