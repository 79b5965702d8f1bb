"""Implicit 3-Hitting Set families: cluster vertex deletion (the edges are
induced P3s) and feedback vertex set in tournaments (the edges are directed
triangles), checked against the brute-force oracle at 25 vertices or fewer."""

import random

import pytest

from hskernel.oracle import decide_brute_force
from hskernel.reductions import kernelize

from helpers import cluster_deletion_instance, tournament_fvs_instance


def cluster_cases(seed: int):
    """``(instance, k)`` pairs of at most 25 vertices: the yes-instance and
    the no-instance with ``k + 1`` broken cliques."""
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    cliques = rng.randint(k + 1, 5)
    size = rng.randint(3, (25 - k) // cliques)
    return [
        cluster_deletion_instance(seed, cliques, size, k),
        cluster_deletion_instance(seed, cliques, size, k, broken=k + 1),
    ]


def tournament_cases(seed: int):
    """The yes-instance and the no-instance with ``k + 1`` disjoint
    triangles, on at most 25 vertices."""
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    n = rng.randint(4 * k + 3, 25)
    return [
        tournament_fvs_instance(seed, n, k),
        tournament_fvs_instance(seed, n, k, cycles=k + 1),
    ]


FAMILIES = [cluster_cases, tournament_cases]


def engine_decision(result) -> bool:
    if result.verdict == "kernel":
        return decide_brute_force(result.instance)
    return result.verdict == "yes"


@pytest.mark.parametrize("cases", FAMILIES)
class TestImplicitFamilies:
    def test_the_planted_vertices_hit_every_edge_of_a_yes_instance(self, cases):
        for seed in range(40):
            yes, _ = cases(seed)
            planted = set(range(yes.n - yes.k, yes.n))
            assert all(not planted.isdisjoint(e) for e in yes.edges)
            assert all(len(e) == 3 for e in yes.edges)

    def test_oracle_verdicts(self, cases):
        # A no-instance needs one more vertex per obstruction than the k
        # planted ones cover, and no more: the planted vertices plus one
        # vertex per obstruction hit everything.
        for seed in range(40):
            yes, no = cases(seed)
            assert max(yes.n, no.n) <= 25
            assert decide_brute_force(yes)
            assert not decide_brute_force(no)
            assert decide_brute_force(no.with_k(2 * no.k + 1))

    def test_kernel_decisions_equal_the_oracle(self, cases):
        for seed in range(40):
            for inst in cases(seed):
                assert engine_decision(kernelize(inst)) == decide_brute_force(inst)

    def test_builders_are_seed_determined(self, cases):
        assert cases(7) == cases(7)
