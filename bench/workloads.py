"""Seeded inputs of the benchmark workloads.

Each builder takes the imported ``hskernel`` modules and the run's seed and
returns the workload's cases in a fixed order; the same seed gives the same
inputs. A case carries its known answer where the family fixes it (planted
instances are yes-instances, the crown families are yes or no by
construction); ``None`` means the output check decides the input with the
brute-force oracle.

The sizes trade instance scale for instance count: the cost of one
kernelization varies by a factor of two or more from seed to seed (it depends
on where in the scan order the rules find their targets), so each workload
runs enough instances that its total is steady across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from types import SimpleNamespace


@dataclass(frozen=True)
class Case:
    name: str
    instance: object  # hskernel.core.Instance
    expected: bool | None  # known answer; None: decide the input with the oracle


# planted: rule 1/2 chains on generated yes-instances.
PLANTED_COUNT = 24
PLANTED_N = 64
PLANTED_M = 320
PLANTED_K = 6

# crown: instances above the kernel bound on which no rule before 5 fires.
CROWN_PETALS = 20  # petal cycles and as many mixed crowns, at CROWN_K
CROWN_K = 4
CROWN_BLOBS = 2  # at BLOB_K the slowest inputs: op_p99_ms reads a blob on every seed
BLOB_K = 8
CROWN_BLOB4S = 2
BLOB4_K = 3

# small: verify-style instances small enough for the oracle.
SMALL_COUNT = 2000


def planted(hk: SimpleNamespace, seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for i in range(PLANTED_COUNT):
        spec = hk.oracle.GenSpec(
            seed=rng.getrandbits(63),
            n=PLANTED_N,
            m=PLANTED_M,
            d=3,
            k=PLANTED_K,
            planted=PLANTED_K,
        )
        cases.append(Case(f"planted-{i}", hk.oracle.generate(spec), True))
    return cases


def crown(hk: SimpleNamespace, seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for i in range(CROWN_PETALS):
        cases.append(Case(f"petal-{i}", petal_cycle(hk, rng.getrandbits(63), CROWN_K), True))
        cases.append(Case(f"mixed-{i}", mixed_crown(hk, rng.getrandbits(63), CROWN_K), False))
    for i in range(CROWN_BLOBS):
        cases.append(Case(f"blob-{i}", blob(hk, rng.getrandbits(63), BLOB_K), False))
    for i in range(CROWN_BLOB4S):
        cases.append(Case(f"blob4-{i}", blob4(hk, rng.getrandbits(63), BLOB4_K), False))
    return cases


def small(hk: SimpleNamespace, seed: int) -> list[Case]:
    """Instances drawn the way ``hskernel verify`` draws its trials, with d
    mixed over {3, 4} and every second instance planted."""
    rng = random.Random(seed)
    cases = []
    for i in range(SMALL_COUNT):
        n = rng.randint(8, 25)
        d = rng.choice((3, 4))
        m = rng.randint(1, 2 * n)
        k = rng.randint(1, 6)
        spec = hk.oracle.GenSpec(
            seed=rng.getrandbits(63), n=n, m=m, d=d, k=k, planted=k if i % 2 == 0 else None
        )
        cases.append(Case(f"small-{i}", hk.oracle.generate(spec), None))
    return cases


BUILDERS = {"planted": planted, "crown": crown, "small": small}


# ---------------------------------------------------------------------------
# crown-rule families: structured so that no rule before rule 5 fires


def petal_cycle(hk: SimpleNamespace, seed: int, k: int):
    """Yes-instance above the kernel bound with an integral LP optimum.

    A cycle on 2k core vertices supplies the head pairs; every petal vertex
    forms a triple with two vertex-disjoint cycle pairs. Alternate core
    vertices (k of them) hit every triple, and the petals form a crown.
    """
    rng = random.Random(seed)
    core = 2 * k
    petals = hk.reductions.vertex_bound(3, k) + 1 - core + rng.randint(0, 6)
    pairs = [(i, (i + 1) % core) for i in range(core)]
    edges = []
    for j in range(petals):
        v = core + j
        p = j % core if j < core else rng.randrange(core)
        disjoint = [q for q in range(core) if q != p and not set(pairs[q]) & set(pairs[p])]
        q = rng.choice(disjoint)
        edges.append(tuple(sorted((*pairs[p], v))))
        edges.append(tuple(sorted((*pairs[q], v))))
    return hk.core.Instance(hk.core.Hypergraph(core + petals, tuple(edges), 3), k)


def mixed_crown(hk: SimpleNamespace, seed: int, k: int):
    """A petal cycle plus one disjoint 4-clique of triples: the crown rule
    fires, and the clique's extra cost of two makes the answer no."""
    petal = petal_cycle(hk, seed, k)
    offset = petal.n
    clique = [tuple(v + offset for v in e) for e in combinations(range(4), 3)]
    return hk.core.Instance(hk.core.Hypergraph(offset + 4, petal.edges + tuple(clique), 3), k)


def blob(hk: SimpleNamespace, seed: int, k: int):
    """No-instance above the kernel bound: disjoint 4-cliques of triples, each
    needing two hits. The LP optimum is 2/3 everywhere, so rule 6 finds no
    crown and concludes no."""
    rng = random.Random(seed)
    count = max(2, -(-(hk.reductions.vertex_bound(3, k) + 1) // 4)) + rng.randint(0, 2)
    edges = [e for i in range(count) for e in combinations(range(4 * i, 4 * i + 4), 3)]
    return hk.core.Instance(hk.core.Hypergraph(4 * count, tuple(edges), 3), k)


def blob4(hk: SimpleNamespace, seed: int, k: int):
    """The d=4 analogue of :func:`blob`: disjoint 5-cliques of quadruples with
    the LP optimum 3/4 everywhere."""
    rng = random.Random(seed)
    count = max(2, -(-(hk.reductions.vertex_bound(4, k) + 1) // 5)) + rng.randint(0, 1)
    edges = [e for i in range(count) for e in combinations(range(5 * i, 5 * i + 5), 4)]
    return hk.core.Instance(hk.core.Hypergraph(5 * count, tuple(edges), 4), k)
