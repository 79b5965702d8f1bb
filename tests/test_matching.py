import random

import pytest

from hskernel import matching
from hskernel.core import Hypergraph, Instance
from hskernel.matching import (
    BipartiteGraph,
    Matching,
    SimpleGraph,
    blossom_max_matching,
    hopcroft_karp,
)
from hskernel.reductions import rule4_high_degree_subedge

from helpers import (
    bipartite_augmenting_path_exists,
    exhaustive_max_matching,
    petersen_edges,
    random_bipartite,
)


def random_simple(rng, max_n=10):
    n = rng.randint(1, max_n)
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(possible)
    picked = possible[: rng.randint(0, len(possible))]
    return SimpleGraph(n, tuple(picked))


def bipartite_as_edge_list(g):
    return [(a, g.side_a + b) for a in range(g.side_a) for b in g.adjacency[a]]


class TestHopcroftKarp:
    def test_complete_2x2(self):
        g = BipartiteGraph(2, 2, ((0, 1), (0, 1)))
        assert hopcroft_karp(g).size == 2

    def test_shared_right_vertex(self):
        g = BipartiteGraph(2, 1, ((0,), (0,)))
        assert hopcroft_karp(g).size == 1

    def test_matches_exhaustive_on_random_graphs(self):
        rng = random.Random(101)
        for _ in range(120):
            g = random_bipartite(rng)
            got = hopcroft_karp(g)
            assert got.size == exhaustive_max_matching(bipartite_as_edge_list(g))

    def test_no_augmenting_path_left(self):
        rng = random.Random(102)
        for _ in range(60):
            g = random_bipartite(rng)
            m = hopcroft_karp(g)
            assert not bipartite_augmenting_path_exists(g, m.pairs)

    def test_pairs_are_edges_and_disjoint(self):
        rng = random.Random(103)
        for _ in range(60):
            g = random_bipartite(rng)
            m = hopcroft_karp(g)
            lefts = [a for a, _ in m.pairs]
            rights = [b for _, b in m.pairs]
            assert len(set(lefts)) == len(lefts)
            assert len(set(rights)) == len(rights)
            assert all(b in g.adjacency[a] for a, b in m.pairs)

    def test_deterministic(self):
        rng = random.Random(104)
        g = random_bipartite(rng)
        assert hopcroft_karp(g) == hopcroft_karp(g)


class TestBlossom:
    def test_triangle(self):
        g = SimpleGraph(3, ((0, 1), (1, 2), (0, 2)))
        assert blossom_max_matching(g).size == 1

    def test_five_cycle(self):
        g = SimpleGraph(5, tuple((i, (i + 1) % 5) for i in range(5)))
        assert blossom_max_matching(g).size == 2

    def test_petersen(self):
        g = SimpleGraph(10, tuple(petersen_edges()))
        assert blossom_max_matching(g).size == 5

    def test_matches_exhaustive_on_random_graphs(self):
        rng = random.Random(105)
        fixed = [SimpleGraph(0, ()), SimpleGraph(6, ((0, 1), (2, 3), (4, 5)))]
        for g in fixed + [random_simple(rng, max_n=8) for _ in range(120)]:
            got = blossom_max_matching(g)
            assert got.size == exhaustive_max_matching(list(g.edges))

    def test_pairs_are_edges_and_disjoint(self):
        rng = random.Random(106)
        for _ in range(60):
            g = random_simple(rng, max_n=8)
            m = blossom_max_matching(g)
            touched = [v for pair in m.pairs for v in pair]
            assert len(set(touched)) == len(touched)
            assert all(pair in g.edges for pair in m.pairs)


class TestExtensionPacking:
    """The extension packing of a subedge, as rule 4 decides it: singles
    plus a maximum matching over the two-vertex extensions."""

    def test_three_disjoint_pairs(self, monkeypatch):
        g = SimpleGraph(6, ((0, 1), (2, 3), (4, 5)))
        assert blossom_max_matching(g).size == 3
        # Subedge (0,) has the three disjoint extensions (1,2), (3,4), (5,6)
        # and a fourth, (1,3), that crosses two of them: the packing is 3.
        h = Hypergraph(7, ((0, 1, 2), (0, 1, 3), (0, 3, 4), (0, 5, 6)), 3)
        out = rule4_high_degree_subedge(Instance(h, 2))
        assert out.applied
        assert out.new_instance.hypergraph.edges == ((0,),)
        # At k = 3 the group of four is over-full, the greedy bracket [3, 6]
        # straddles k, and the blossom decides: 3 does not exceed k.
        sizes = []

        def counted(graph):
            m = blossom_max_matching(graph)
            sizes.append(m.size)
            return m

        monkeypatch.setattr(matching, "blossom_max_matching", counted)
        assert not rule4_high_degree_subedge(Instance(h, 3)).applied
        assert sizes == [3]

    def test_both_empty(self):
        assert blossom_max_matching(SimpleGraph(0, ())).size == 0
        # With no edges no subedge has an extension, and rule 4 declines.
        assert not rule4_high_degree_subedge(Instance(Hypergraph(0, (), 3), 0)).applied


def test_hopcroft_karp_long_augmenting_path():
    # a_i ~ b_i, b_{i+1}; the last a ~ b_0 only. The first phase matches
    # a_i -> b_i, leaving one augmenting path through all 3000 left vertices.
    n = 3000
    adjacency = tuple((i, i + 1) for i in range(n - 1)) + ((0,),)
    m = hopcroft_karp(BipartiteGraph(n, n, adjacency))
    assert m.pairs == tuple((i, i + 1) for i in range(n - 1)) + ((n - 1, 0),)


class TestMatchingType:
    def test_pairs_sorted_canonically(self):
        m = Matching(((2, 0), (1, 1)))
        assert m.pairs == ((1, 1), (2, 0))
        assert dict(m.pairs) == {1: 1, 2: 0}


class TestGraphInputChecks:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: BipartiteGraph(2, 1, ((0,),)), "adjacency must have one row per left vertex"),
            (
                lambda: BipartiteGraph(1, 2, ((0, 2),)),
                "neighbor list (0, 2) references an invalid right vertex",
            ),
            (lambda: SimpleGraph(3, ((1, 1),)), "self-loop at 1"),
            (lambda: SimpleGraph(3, ((0, 3),)), "edge (0,3) outside vertex range"),
        ],
        ids=["bipartite-row-count", "bipartite-neighbour", "self-loop", "simple-edge-range"],
    )
    def test_refused_with_a_value_error_and_its_message(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert type(exc.value) is ValueError
        assert str(exc.value) == message
