import itertools
import math
import random

import pytest

from hskernel.core import Hypergraph, Instance, normalize
from hskernel.errors import OracleCeilingError, UnsupportedParameterError
from hskernel import oracle
from hskernel.oracle import (
    GenSpec,
    decide_brute_force,
    generate,
    min_hitting_set,
)

from helpers import (
    exhaustive_decide,
    exhaustive_min_hitting_set,
    recursive_branch,
    unbounded_generate_edges,
)

SHOWCASE_EDGES = [["v1", "v2", "v4"], ["v1", "v2", "v5"], ["v2", "v3", "v4"], ["v2", "v3", "v5"]]


class TestDecide:
    def test_showcase_single_vertex_suffices(self):
        assert decide_brute_force(normalize(SHOWCASE_EDGES, 3, 1)) is True

    def test_three_disjoint_edges_need_three(self):
        inst = normalize([["a", "b"], ["c", "d"], ["e", "f"]], 3, 2)
        assert decide_brute_force(inst) is False

    def test_empty_instance(self):
        assert decide_brute_force(Instance(Hypergraph(0, (), 3), 0)) is True

    def test_empty_edge_unhittable(self):
        inst = normalize([[], ["a", "b"]], 3, 10)
        assert decide_brute_force(inst) is False

    def test_ceiling_enforced(self):
        inst = Instance(Hypergraph(30, ((0, 1),), 3), 1)
        with pytest.raises(OracleCeilingError):
            decide_brute_force(inst)
        assert decide_brute_force(inst, ceiling=30) is True

    def test_env_override(self, monkeypatch):
        inst = Instance(Hypergraph(30, ((0, 1),), 3), 1)
        monkeypatch.setenv("HSK_ORACLE_CEILING", "40")
        assert decide_brute_force(inst) is True

    def test_agrees_with_subset_enumeration(self):
        # Two algorithmically distinct oracles cross-check each other.
        rng = random.Random(40)
        for trial in range(150):
            spec = GenSpec(
                seed=trial,
                n=rng.randint(3, 15),
                m=rng.randint(1, 16),
                d=3,
                k=1,
            )
            inst = generate(spec)
            k = rng.randint(0, 4)
            probe = inst.with_k(k)
            assert decide_brute_force(probe) == exhaustive_decide(probe.hypergraph, k)


class TestMinHittingSet:
    def test_showcase_minimum_is_one(self):
        h = normalize(SHOWCASE_EDGES, 3, 1).hypergraph
        size, witness = min_hitting_set(h)
        assert size == 1
        assert witness == (1,)  # v2

    def test_single_edge(self):
        size, witness = min_hitting_set(Hypergraph(2, ((0, 1),), 3))
        assert size == 1 and len(witness) == 1

    def test_empty_edge_reports_infinity(self):
        size, witness = min_hitting_set(Hypergraph(2, ((), (0, 1)), 3))
        assert size == math.inf and witness is None

    def test_witness_actually_hits(self):
        rng = random.Random(41)
        for trial in range(60):
            h = generate(
                GenSpec(seed=500 + trial, n=rng.randint(3, 10), m=rng.randint(1, 12), d=3, k=1)
            ).hypergraph
            size, witness = min_hitting_set(h)
            assert size == exhaustive_min_hitting_set(h)
            s = set(witness)
            assert all(s & set(e) for e in h.edges)
            assert len(s) == size

    def test_agrees_with_decide_at_every_budget(self):
        h = generate(GenSpec(seed=77, n=9, m=10, d=3, k=1)).hypergraph
        size, _ = min_hitting_set(h)
        for k in range(h.n + 1):
            assert decide_brute_force(Instance(h, k)) == (k >= size)


class TestIterativeSearch:
    def test_a_deep_first_branch_needs_no_recursion(self):
        # The first branch takes one vertex of each pair: 1500 levels deep,
        # past the interpreter's default recursion limit.
        pairs = tuple((2 * i, 2 * i + 1) for i in range(1500))
        inst = Instance(Hypergraph(3000, pairs, 3), 1500)
        assert decide_brute_force(inst, ceiling=3000) is True

    def test_witnesses_equal_the_recursive_search(self):
        rng = random.Random(40)
        graphs = [normalize(SHOWCASE_EDGES, 3, 1).hypergraph]
        for trial in range(150):
            spec = GenSpec(seed=trial, n=rng.randint(3, 15), m=rng.randint(1, 16), d=3, k=1)
            graphs.append(generate(spec).hypergraph)
        rng = random.Random(41)
        for trial in range(60):
            spec = GenSpec(seed=500 + trial, n=rng.randint(3, 10), m=rng.randint(1, 12), d=3, k=1)
            graphs.append(generate(spec).hypergraph)
        # At d = 4-6 the first unhit edge has up to six vertices, so the order
        # in which the search tries them shows in more witnesses.
        rng = random.Random(42)
        for trial in range(60):
            d = 4 + trial % 3
            spec = GenSpec(seed=600 + trial, n=rng.randint(d, 12), m=rng.randint(1, 14), d=d, k=1)
            graphs.append(generate(spec).hypergraph)
        graphs.append(Hypergraph(2, ((), (0, 1)), 3))
        found = 0
        for h in graphs:
            for k in range(-1, h.n + 1):
                witness = oracle._branch(h.edges, k)
                assert witness == recursive_branch(h.edges, k), (h, k)
                found += witness is not None
        assert found > 1000


class TestGenerate:
    def test_planted_instances_are_yes(self):
        for trial in range(40):
            inst = generate(GenSpec(seed=trial, n=10, m=15, d=3, k=2, planted=2))
            assert decide_brute_force(inst) is True

    def test_deterministic(self):
        from hskernel.cli import write_instance

        spec = GenSpec(seed=99, n=12, m=18, d=4, k=3, planted=None)
        a, b = generate(spec), generate(spec)
        assert a == b
        assert a.comments == b.comments
        assert write_instance(a) == write_instance(b)  # byte-identical

    def test_seed_recorded_in_comments(self):
        inst = generate(GenSpec(seed=123, n=6, m=4, d=3, k=1))
        assert any("seed=123" in c for c in inst.comments)

    def test_edge_sizes_within_bounds(self):
        inst = generate(GenSpec(seed=3, n=10, m=20, d=4, k=1))
        assert all(2 <= len(e) <= 4 for e in inst.edges)

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate(GenSpec(seed=1, n=2, m=5, d=3, k=1))
        with pytest.raises(ValueError):
            generate(GenSpec(seed=1, n=5, m=5, d=3, k=1, planted=9))
        with pytest.raises(
            UnsupportedParameterError, match=r"^d=2 unsupported: the engine requires d >= 3$"
        ):
            generate(GenSpec(seed=1, n=5, m=5, d=2, k=1))

    def test_requested_edge_count_reached_when_space_allows(self):
        inst = generate(GenSpec(seed=8, n=12, m=20, d=3, k=1))
        assert inst.m == 20

    def test_edges_equal_those_of_drawing_to_the_attempt_limit(self):
        rng = random.Random(13)
        full = 0
        for trial in range(300):
            d = rng.randint(3, 5)
            n = rng.randint(d, 7)
            planted = rng.choice((None, 1, 2, n))
            spec = GenSpec(seed=trial, n=n, m=rng.randint(1, 40), d=d, k=1, planted=planted)
            edges = generate(spec).edges
            assert edges == unbounded_generate_edges(spec), spec
            full += len(edges) < spec.m
        assert full > 50, full

    def test_stops_once_every_edge_is_drawn(self, monkeypatch):
        draws = 0

        class Counted(random.Random):
            def randint(self, a, b):
                nonlocal draws
                draws += 1
                assert draws < 10_000, "kept drawing from an exhausted edge space"
                return super().randint(a, b)

        monkeypatch.setattr(oracle.random, "Random", Counted)
        inst = generate(GenSpec(seed=1, n=4, m=100_000, d=3, k=1))
        assert set(inst.edges) == {
            e for size in (2, 3) for e in itertools.combinations(range(4), size)
        }
        inst = generate(GenSpec(seed=1, n=6, m=100_000, d=3, k=1, planted=1))
        assert len(set.intersection(*map(set, inst.edges))) == 1
        assert inst.m == 5 + 10  # every pair and triple through the planted vertex
