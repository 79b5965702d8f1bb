"""Ground-truth exact solving and instance generation.

The decision oracle is a plain branch-on-first-unhit-edge search with depth
bounded by the budget; it exists to verify the kernelizer differentially, so
it refuses instances above a configurable size ceiling rather than silently
taking forever. The generator is seed-deterministic: identical specs produce
byte-identical instances, and the seed is recorded in the instance comments.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

from .core import Edge, Hypergraph, Instance, require_min_d
from .errors import OracleCeilingError

DEFAULT_CEILING = 25
CEILING_ENV_VAR = "HSK_ORACLE_CEILING"


def _check_ceiling(n: int, ceiling: int | None) -> None:
    if ceiling is None:
        raw = os.environ.get(CEILING_ENV_VAR, str(DEFAULT_CEILING))
        try:
            ceiling = int(raw)
        except ValueError:
            raise ValueError(f"{CEILING_ENV_VAR}={raw!r} is not an integer") from None
    if n > ceiling:
        raise OracleCeilingError(
            f"instance has {n} vertices, oracle ceiling is {ceiling} "
            f"(override with {CEILING_ENV_VAR} or the ceiling argument)"
        )


def _branch(edges: tuple[Edge, ...], k: int) -> tuple[int, ...] | None:
    """A hitting set of size <= k, or None, searched depth first without
    recursion. Each stack entry is ``(unhit, depth, link)``: ``depth``
    counts the vertices chosen so far and ``link`` is ``(vertex, parent)``
    for the last of them, or ``None`` at the root, so siblings share their
    parent's chain instead of each copying a path. ``unhit`` holds the
    edges the chosen vertices miss, in canonical order. An entry with
    nothing unhit returns its chain unwound into the path of chosen
    vertices, in order. Otherwise, when its first unhit edge is non-empty
    and its depth below ``k``, it pushes one child per vertex of that edge,
    each with its own unhit edges built at once, in reverse so that the
    children pop in vertex order. Canonical order puts an empty edge first,
    and an empty edge cannot be hit."""
    stack = [(edges, 0, None)]
    while stack:
        unhit, depth, link = stack.pop()
        if not unhit:
            path = []
            while link is not None:
                v, link = link
                path.append(v)
            return tuple(reversed(path))
        if unhit[0] and depth < k:
            for v in reversed(unhit[0]):
                stack.append(([e for e in unhit if v not in e], depth + 1, (v, link)))
    return None


def decide_brute_force(inst: Instance, *, ceiling: int | None = None) -> bool:
    """True iff a hitting set of size at most ``inst.k`` exists.

    A negative budget admits no hitting set at all, not even the empty one.
    """
    _check_ceiling(inst.n, ceiling)
    if inst.k < 0:
        return False
    return _branch(inst.edges, inst.k) is not None


def min_hitting_set(
    h: Hypergraph, *, ceiling: int | None = None
) -> tuple[int | float, tuple[int, ...] | None]:
    """Minimum hitting-set size with one witness.

    An instance containing the empty edge is unhittable and reported as
    ``(inf, None)``.
    """
    _check_ceiling(h.n, ceiling)
    if h.edges and not h.edges[0]:  # canonical order puts the empty edge first
        return (math.inf, None)
    for k in range(h.n + 1):
        witness = _branch(h.edges, k)
        if witness is not None:
            return (k, tuple(sorted(witness)))
    raise AssertionError("unreachable: the full vertex set hits everything")


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated instance; the seed fully determines it."""

    seed: int
    n: int
    m: int
    d: int
    k: int
    planted: int | None = None


def generate(spec: GenSpec) -> Instance:
    """Random instance: ``m`` distinct edges with sizes uniform in ``2..d``,
    vertices sampled without replacement.

    With ``planted`` set, a hidden solution of that size is sampled first and
    every edge is forced to contain at least one of its vertices, so the
    instance is a yes-instance for any budget >= ``planted``. When the edge
    space is too small to reach ``m`` distinct edges the instance simply has
    fewer; the draw sequence is still fully seed-determined, and stops once
    every edge that can be drawn has been. The drawn edges are kept in one
    insertion-ordered dict, so a repeated draw adds nothing.
    """
    require_min_d(spec.d)
    if spec.n < spec.d or spec.m < 1 or spec.k < 1:
        raise ValueError(f"infeasible generator parameters: {spec}")
    if spec.planted is not None and not (1 <= spec.planted <= spec.n):
        raise ValueError(f"planted solution size {spec.planted} outside 1..{spec.n}")
    rng = random.Random(spec.seed)
    planted = (
        tuple(sorted(rng.sample(range(spec.n), spec.planted)))
        if spec.planted is not None
        else None
    )
    # Every edge of sizes 2..d can be drawn (with a planted solution, every
    # one through a planted vertex); counted only as far as m.
    unplanted = spec.n - len(planted) if planted is not None else 0
    space = 0
    for size in range(2, spec.d + 1):
        space += math.comb(spec.n, size) - math.comb(unplanted, size)
        if space >= spec.m:
            break
    edges: dict[Edge, None] = {}
    attempts = 0
    while len(edges) < min(spec.m, space) and attempts < 50 * spec.m + 200:
        attempts += 1
        size = rng.randint(2, spec.d)
        if planted is not None:
            anchor = planted[rng.randrange(len(planted))]
            # The other vertices without listing them: the draw from
            # 0..n-2 shifted up by one from the anchor picks what a draw
            # from the n-1 vertices other than the anchor would pick.
            others = [v + (v >= anchor) for v in rng.sample(range(spec.n - 1), size - 1)]
            edge = tuple(sorted((anchor, *others)))
        else:
            edge = tuple(sorted(rng.sample(range(spec.n), size)))
        edges[edge] = None
    comment = (
        f"gen seed={spec.seed} n={spec.n} m={spec.m} d={spec.d} k={spec.k} "
        f"planted={spec.planted}"
    )
    return Instance(
        Hypergraph(spec.n, tuple(edges), spec.d), spec.k, comments=(comment,)
    )
