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

from .core import Edge, Hypergraph, Instance
from .errors import OracleCeilingError, UnsupportedParameterError

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
    """A hitting set of size <= k, or None. Branches on the first unhit edge."""
    if not edges:
        return ()
    if not edges[0]:  # canonical order puts an empty edge first: unhittable
        return None
    if k <= 0:
        return None
    for v in edges[0]:
        rest = tuple(e for e in edges if v not in e)
        sub = _branch(rest, k - 1)
        if sub is not None:
            return (v, *sub)
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
    if any(len(e) == 0 for e in h.edges):
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
    fewer; the draw sequence is still fully seed-determined.
    """
    if spec.d < 3:
        raise UnsupportedParameterError(f"d={spec.d} unsupported: need d >= 3")
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
    edges: list[Edge] = []
    seen: set[Edge] = set()
    attempts = 0
    while len(edges) < spec.m and attempts < 50 * spec.m + 200:
        attempts += 1
        size = rng.randint(2, spec.d)
        if planted is not None:
            anchor = planted[rng.randrange(len(planted))]
            others = rng.sample([v for v in range(spec.n) if v != anchor], size - 1)
            edge = tuple(sorted((anchor, *others)))
        else:
            edge = tuple(sorted(rng.sample(range(spec.n), size)))
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    comment = (
        f"gen seed={spec.seed} n={spec.n} m={spec.m} d={spec.d} k={spec.k} "
        f"planted={spec.planted}"
    )
    return Instance(
        Hypergraph(spec.n, tuple(edges), spec.d), spec.k, comments=(comment,)
    )
