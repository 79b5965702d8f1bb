import random
import re
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hskernel.core import (
    Hypergraph,
    Instance,
    edges_through,
    is_independent,
    normalize,
    subedge_groups,
)
from hskernel.errors import FormatError, UnsupportedParameterError

from helpers import naive_incident_edges, naive_is_independent, naive_successor

# Hyperedges {v1,v2,v4},{v1,v2,v5},{v2,v3,v4},{v2,v3,v5}; ids follow first
# appearance: v1=0 v2=1 v4=2 v5=3 v3=4.
SHOWCASE_EDGES = [["v1", "v2", "v4"], ["v1", "v2", "v5"], ["v2", "v3", "v4"], ["v2", "v3", "v5"]]


@pytest.fixture
def showcase_instance():
    return normalize(SHOWCASE_EDGES, 3, 1)


def small_hypergraphs():
    return st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=3).map(tuple),
            max_size=10,
        ).map(lambda edges: Hypergraph(n, tuple(edges), 3))
    )


class TestNormalize:
    def test_dedup_and_sort(self):
        inst = normalize([["a", "b"], ["b", "a"], ["b", "c"]], 3, 1)
        assert inst.n == 3
        assert inst.edges == ((0, 1), (1, 2))
        assert inst.labels == ("a", "b", "c")

    def test_empty_edge_list(self):
        inst = normalize([], 3, 0)
        assert inst.n == 0 and inst.m == 0 and inst.k == 0

    def test_oversized_edge_is_format_error(self):
        with pytest.raises(FormatError):
            normalize([["a", "b", "c", "d2"]], 3, 1)

    def test_d_below_three_rejected(self):
        with pytest.raises(UnsupportedParameterError):
            normalize([["a", "b"]], 2, 1)

    def test_empty_edge_kept_as_witness(self):
        inst = normalize([[], ["a", "b"]], 3, 1)
        assert () in inst.edges

    def test_duplicate_vertices_inside_edge_collapse(self):
        inst = normalize([["a", "a", "b"]], 3, 1)
        assert inst.edges == ((0, 1),)

    def test_explicit_label_table_orders_ids(self):
        inst = normalize([["b"]], 3, 1, labels=["a", "b", "c"])
        assert inst.labels == ("a", "b", "c")
        assert inst.edges == ((1,),)
        assert inst.n == 3

    def test_unknown_label_rejected(self):
        with pytest.raises(FormatError):
            normalize([["zz"]], 3, 1, labels=["a"])

    @given(
        st.lists(
            st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=3),
            max_size=8,
        ),
        st.integers(0, 3),
    )
    def test_idempotent(self, raw_edges, k):
        first = normalize(raw_edges, 3, k)
        second = normalize(first.edges, 3, first.k, labels=range(first.n))
        assert (second.n, second.edges, second.d, second.k) == (
            first.n,
            first.edges,
            first.d,
            first.k,
        )


class TestIncidentEdges:
    """The edges through one subedge, as ``subedge_groups`` lists them."""

    def test_single_vertex_hits_all(self, showcase_instance):
        h = showcase_instance.hypergraph
        assert subedge_groups(h.edges, 1)[(1,)] == list(h.edges)

    def test_pair_subedge(self, showcase_instance):
        h = showcase_instance.hypergraph
        assert subedge_groups(h.edges, 2)[(0, 1)] == [(0, 1, 2), (0, 1, 3)]

    def test_absent_vertex(self, showcase_instance):
        h = Hypergraph(6, showcase_instance.edges, 3)
        assert (5,) not in subedge_groups(h.edges, 1)

    def test_empty_subedge_rejected(self, showcase_instance):
        with pytest.raises(ValueError):
            subedge_groups(showcase_instance.hypergraph.edges, len(()))

    @given(small_hypergraphs(), st.data())
    def test_matches_naive_scan(self, h, data):
        for size in (1, 2):
            groups = subedge_groups(h.edges, size)
            assert list(groups) == sorted(groups)
            for s, containing in groups.items():
                assert containing == sorted(containing)  # h.edges order
                assert set(containing) == naive_incident_edges(h, s)
        extra = tuple(sorted(data.draw(st.sets(st.integers(0, h.n - 1), min_size=1, max_size=2))))
        containing = subedge_groups(h.edges, len(extra)).get(extra, [])
        assert set(containing) == naive_incident_edges(h, extra)


class TestIsIndependent:
    def test_showcase_crown_side(self, showcase_instance):
        assert is_independent(showcase_instance.hypergraph, {2, 3})  # v4, v5

    def test_showcase_dependent_pair(self, showcase_instance):
        assert not is_independent(showcase_instance.hypergraph, {1, 2})  # v2, v4

    def test_empty_set(self, showcase_instance):
        assert is_independent(showcase_instance.hypergraph, set())

    def test_out_of_range_rejected(self, showcase_instance):
        with pytest.raises(ValueError):
            is_independent(showcase_instance.hypergraph, {99})

    @given(small_hypergraphs(), st.data())
    def test_matches_pairwise_scan(self, h, data):
        x = data.draw(st.sets(st.integers(0, h.n - 1)))
        assert is_independent(h, x) == naive_is_independent(h, x)


class TestEdgesThrough:
    """The prefix walk returns exactly the edges a full scan keeps, in order."""

    @staticmethod
    def random_cases(seed: int):
        rng = random.Random(seed)
        for _ in range(200):
            n = rng.randint(1, 15)
            m = rng.randint(0, 25)
            raw = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(m)]
            if rng.random() < 0.1:
                raw.append(())
            edges = Hypergraph(n, tuple(raw), 4).edges
            vertices = set(rng.sample(range(n), rng.randint(0, min(n, 4))))
            yield rng, n, edges, vertices

    @staticmethod
    def full_scan(edges, vertices):
        return [e for e in edges if not vertices.isdisjoint(e)]

    def test_frozensets_match_the_full_scan(self):
        for _, _, edges, vertices in self.random_cases(1):
            s = frozenset(vertices)
            assert list(edges_through(edges, s)) == self.full_scan(edges, s)

    def test_dict_key_views_match_the_full_scan(self):
        for rng, _, edges, vertices in self.random_cases(2):
            order = list(vertices)
            rng.shuffle(order)
            keys = {v: i for i, v in enumerate(order)}.keys()
            assert list(edges_through(edges, keys)) == self.full_scan(edges, keys)

    def test_the_empty_set_meets_no_edge(self):
        for _, _, edges, _ in self.random_cases(3):
            assert list(edges_through(edges, frozenset())) == []
            assert list(edges_through(edges, {}.keys())) == []

    def test_a_vertex_above_every_edge(self):
        for _, n, edges, vertices in self.random_cases(4):
            s = frozenset(vertices | {n + 5})
            assert list(edges_through(edges, s)) == self.full_scan(edges, s)
            assert list(edges_through(edges, frozenset((n + 5,)))) == []

    def test_reads_only_the_edges_that_start_at_or_below_the_highest_vertex(self):
        class Guarded(tuple):
            def __iter__(self):
                for e in tuple.__iter__(self):
                    assert e[0] <= 2, f"read the edge {e}"
                    yield e

        edges = Guarded(Hypergraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)), 3).edges)
        walk = edges_through(edges, frozenset((1, 2)))
        assert iter(walk) is walk  # lazy: nothing is read before the first next()
        assert list(walk) == [(0, 1), (1, 2), (2, 3)]


class TestSubedgesOf:
    """The subedges ``subedge_groups`` finds: its keys."""

    def test_triangle(self):
        assert list(subedge_groups([(1, 2, 3)], 2)) == [(1, 2), (1, 3), (2, 3)]

    def test_singletons(self):
        assert subedge_groups([(1, 2), (2, 3)], 1) == {
            (1,): [(1, 2)],
            (2,): [(1, 2), (2, 3)],
            (3,): [(2, 3)],
        }

    def test_empty(self):
        assert subedge_groups([], 2) == {}

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError):
            subedge_groups([(1, 2)], 0)


class TestHypergraph:
    def test_duplicate_edges_collapse(self):
        h = Hypergraph(3, ((0, 1), (1, 0), (1, 2)), 3)
        assert h.edges == ((0, 1), (1, 2))

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph(2, ((0, 5),), 3)

    def test_oversized_edge(self):
        with pytest.raises(FormatError):
            Hypergraph(5, ((0, 1, 2, 3),), 3)

    def test_random_canonical_order(self):
        rng = random.Random(5)
        edges = [tuple(rng.sample(range(8), rng.randint(1, 3))) for _ in range(12)]
        h = Hypergraph(8, tuple(edges), 3)
        assert list(h.edges) == sorted(set(tuple(sorted(set(e))) for e in edges))

    def test_every_edge_is_found(self):
        rng = random.Random(6)
        edges = [tuple(rng.sample(range(8), rng.randint(1, 3))) for _ in range(30)]
        h = Hypergraph(8, tuple(edges), 3)
        assert all(e in h for e in h.edges)
        canon = set(h.edges)
        for size in range(4):
            for e in combinations(range(8), size):
                assert (e in h) == (e in canon)
        assert vars(h).keys() == {"n", "edges", "d"}  # the lookups cached nothing

    def test_a_permutation_of_an_edge_is_not_found(self):
        h = Hypergraph(3, ((0, 1, 2),), 3)
        assert (0, 1, 2) in h
        assert (2, 1, 0) not in h and (0, 2, 1) not in h

    def test_the_empty_edge_is_found_only_when_present(self):
        assert () not in Hypergraph(3, ((0, 1, 2),), 3)
        assert () in Hypergraph(3, ((), (0, 1, 2)), 3)

    def test_past_the_last_edge_and_on_no_edges_nothing_is_found(self):
        h = Hypergraph(5, ((0, 1, 2), (1, 2, 3)), 3)
        assert (3, 4) not in h and (1, 2, 3, 4) not in h
        empty = Hypergraph(5, (), 3)
        assert () not in empty and (0,) not in empty and (0, 1, 2) not in empty


class TestInputChecks:
    """Each constructor check raises its exact exception type and message."""

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (
                lambda: Hypergraph(-1, (), 3),
                ValueError,
                "vertex count must be non-negative, got -1",
            ),
            (lambda: Hypergraph(2, (), 0), ValueError, "edge size bound must be positive, got 0"),
            (
                lambda: Instance(Hypergraph(2, ((0, 1),), 2), 1),
                UnsupportedParameterError,
                "d=2 unsupported: the engine requires d >= 3",
            ),
            (
                lambda: Instance(Hypergraph(2, ((0, 1),), 3), 1, labels=("a",)),
                ValueError,
                "label table must have one entry per vertex",
            ),
            (
                lambda: Instance(Hypergraph(2, ((0, 1),), 3), 1, labels=("a", "a")),
                ValueError,
                "label table must be a bijection",
            ),
        ],
        ids=["negative-n", "d-below-one", "instance-d-below-three", "label-count", "label-repeat"],
    )
    def test_refused_with_its_type_and_message(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert type(exc.value) is error
        assert str(exc.value) == message


class TestSuccessor:
    """The public contract of ``Instance.successor``: the parent's edges less
    the dropped ones plus the added ones; a dropped edge must be the
    parent's, and added edges it does not hold are canonicalised and checked
    as at construction."""

    def parent(self):
        return Instance(Hypergraph(5, ((0, 1, 2), (1, 2, 3)), 3), 2, labels=tuple("abcde"))

    def test_new_edges_are_canonicalised(self):
        succ = self.parent().successor((), [(4, 3, 3), (2, 1, 0)], 2)
        assert succ.edges == ((0, 1, 2), (1, 2, 3), (3, 4))
        assert succ.labels == tuple("abcde")

    def test_new_edges_are_canonicalised_before_renumbering(self):
        succ = self.parent().successor([(0, 1, 2)], [(4, 2, 2)], 1, frozenset({0}))
        assert succ.edges == ((0, 1, 2), (1, 3))
        assert (succ.n, succ.k, succ.labels) == (4, 1, tuple("bcde"))

    @pytest.mark.parametrize("removed", [frozenset(), frozenset({4})])
    def test_oversized_new_edge_is_a_format_error(self, removed):
        with pytest.raises(FormatError, match="bound is 3"):
            self.parent().successor(self.parent().edges, [(0, 1, 2, 3)], 2, removed)

    @pytest.mark.parametrize("removed", [frozenset(), frozenset({4})])
    def test_new_edge_out_of_range_is_a_value_error(self, removed):
        with pytest.raises(ValueError, match="outside 0..4"):
            self.parent().successor([(0, 1, 2)], [(0, 5)], 2, removed)

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            # (0, 1, 2, 3) sorts before (0, 5): the long edge is reported.
            (((0, 1, 2, 3), (5, 0)), FormatError, r"^edge \(0, 1, 2, 3\) has 4 vertices, bound is 3$"),
            # (0, 6) sorts before (1, 2, 3, 4): the stray edge is reported.
            (((4, 3, 2, 1), (6, 0)), ValueError, r"^edge \(0, 6\) references a vertex outside 0\.\.4$"),
        ],
    )
    @pytest.mark.parametrize("order", [1, -1])
    def test_first_bad_new_edge_in_canonical_order_raises(self, bad, error, message, order):
        with pytest.raises(error, match=message):
            self.parent().successor((), bad[::order], 2)

    @pytest.mark.parametrize("stray", [99, 4, -1])
    def test_removed_vertex_outside_the_parent_is_a_value_error(self, stray):
        inst = Instance(Hypergraph(4, ((0, 1, 2), (1, 2, 3)), 3), 2)
        with pytest.raises(ValueError, match=rf"^the removed vertex {stray} is outside 0\.\.3$"):
            inst.successor([], [], 2, frozenset({stray}))
        with pytest.raises(ValueError, match=rf"^the removed vertex {stray} is outside 0\.\.3$"):
            inst.successor([(1, 2, 3)], [], 2, frozenset({3, stray}))

    def test_edge_that_keeps_a_removed_vertex_is_a_value_error(self):
        inst = Instance(Hypergraph(4, ((0, 1, 2), (1, 2, 3)), 3), 2)
        with pytest.raises(ValueError, match="removed vertex 1"):
            inst.successor([(1, 2, 3)], (), 2, frozenset({1}))

    @pytest.mark.parametrize("added", [(0, 1, 2), (2, 1, 0)])
    def test_edge_both_dropped_and_added_stays(self, added):
        parent = self.parent()
        assert parent.successor([(0, 1, 2)], [added], 2) is parent

    def test_an_empty_change_returns_the_parent_itself(self):
        parent = self.parent()
        assert parent.successor((), (), parent.k) is parent

    @pytest.mark.parametrize("change", [((), (), 1), ((), (), 2, frozenset({4})), ((), [(1, 2)], 2)])
    def test_any_change_makes_a_new_instance(self, change):
        parent = self.parent()
        assert parent.successor(*change) is not parent

    @pytest.mark.parametrize("dropped", [(0, 1), (2, 1, 0), (0, 1, 2, 3), (3, 4), ()])
    def test_dropped_edge_the_parent_lacks_is_a_value_error(self, dropped):
        message = rf"^the dropped edge {re.escape(str(dropped))} is not an edge$"
        with pytest.raises(ValueError, match=message):
            self.parent().successor([(1, 2, 3), dropped], (), 2)


class TestSuccessorOnArbitraryDeltas:
    """``Instance.successor`` against renumbering and rebuilding every edge
    (``helpers.naive_successor``) on deltas no rule makes: dropped edges
    listed twice and passed lazily, added edges unsorted, with repeated
    vertices or also dropped, and any valid set of removed vertices."""

    @given(small_hypergraphs(), st.data())
    def test_equals_the_full_rebuild(self, h, data):
        labels = data.draw(st.sampled_from((None, tuple(f"v{v}" for v in range(h.n)))))
        inst = Instance(h, 2, labels=labels, comments=("c",))
        removed = frozenset(data.draw(st.sets(st.integers(0, h.n - 1))))
        # Every edge through a removed vertex must go.
        forced = [e for e in h.edges if not removed.isdisjoint(e)]
        drop = forced + (data.draw(st.lists(st.sampled_from(h.edges), max_size=4)) if h.edges else [])
        drop += data.draw(st.lists(st.sampled_from(drop), max_size=3)) if drop else []
        keep = [v for v in range(h.n) if v not in removed]
        add = []
        for _ in range(data.draw(st.integers(0, 3)) if keep else 0):
            vertices = sorted(data.draw(st.sets(st.sampled_from(keep), min_size=1, max_size=3)))
            repeats = data.draw(st.lists(st.sampled_from(vertices), max_size=2))
            add.append(tuple(data.draw(st.permutations(vertices + repeats))))
        again = [e for e in drop if removed.isdisjoint(e)]
        if again:
            add += [e[::-1] for e in data.draw(st.lists(st.sampled_from(again), max_size=2))]
        k = data.draw(st.sampled_from((1, 2)))
        dropped = set(drop)
        kept = [e for e in h.edges if e not in dropped]
        expected = naive_successor(inst, kept + add, k, removed)
        lazy = data.draw(st.booleans())
        got = inst.successor(iter(drop) if lazy else drop, add, k, removed)
        assert got == expected
        assert got.comments == expected.comments
        assert (got is inst) == (expected == inst)

    @given(small_hypergraphs(), st.data())
    def test_a_dropped_edge_the_parent_lacks_names_the_least(self, h, data):
        inst = Instance(h, 2)
        vertices = st.integers(-1, h.n)
        strays = st.lists(vertices, max_size=4).map(tuple).filter(lambda e: e not in h)
        lacking = data.draw(st.lists(strays, min_size=1, max_size=3))
        present = data.draw(st.lists(st.sampled_from(h.edges), max_size=3)) if h.edges else []
        drop = data.draw(st.permutations(present + lacking + lacking[:1]))
        lazy = data.draw(st.booleans())
        message = rf"^the dropped edge {re.escape(str(min(lacking)))} is not an edge$"
        with pytest.raises(ValueError, match=message):
            inst.successor(iter(drop) if lazy else drop, (), 2)


def test_every_exported_name_resolves():
    import hskernel

    missing = [name for name in hskernel.__all__ if not hasattr(hskernel, name)]
    assert missing == []
