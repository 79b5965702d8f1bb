import random

import pytest

from hskernel import matching
from hskernel.core import Hypergraph, Instance, normalize
from hskernel.crown import (
    HSCrown,
    _crown_via_matching,
    apply_hs_crown,
    format_crown,
    induced_head,
    validate_hs_crown,
)
from hskernel.errors import InternalConsistencyError, InvalidCrownError
from hskernel.matching import BipartiteGraph, Matching, hopcroft_karp
from hskernel.oracle import GenSpec, decide_brute_force, generate

from helpers import bipartite_as_hypergraph, bipartite_subedge, random_bipartite

SHOWCASE_EDGES = [["v1", "v2", "v4"], ["v1", "v2", "v5"], ["v2", "v3", "v4"], ["v2", "v3", "v5"]]
# ids: v1=0 v2=1 v4=2 v5=3 v3=4
SHOWCASE_CROWN = HSCrown(
    crown=frozenset({2, 3}),
    head=frozenset({(0, 1), (1, 4)}),
    matching=(((0, 1), 2), ((1, 4), 3)),
)


@pytest.fixture
def showcase_instance():
    return normalize(SHOWCASE_EDGES, 3, 1)


class TestValidate:
    def test_showcase_crown_valid_not_strict(self, showcase_instance):
        verdict = validate_hs_crown(showcase_instance.hypergraph, SHOWCASE_CROWN)
        assert verdict.valid
        assert not verdict.strict
        assert verdict.problems == ()

    def test_dependent_crown_fails_condition_one(self, showcase_instance):
        bad = HSCrown(frozenset({1, 2}), SHOWCASE_CROWN.head, SHOWCASE_CROWN.matching)
        verdict = validate_hs_crown(showcase_instance.hypergraph, bad)
        assert not verdict.independent

    def test_incomplete_head_fails_condition_two(self, showcase_instance):
        bad = HSCrown(SHOWCASE_CROWN.crown, frozenset({(0, 1)}), (((0, 1), 2),))
        verdict = validate_hs_crown(showcase_instance.hypergraph, bad)
        assert verdict.independent
        assert not verdict.head_exact

    def test_non_injective_matching_fails_condition_three(self, showcase_instance):
        bad = HSCrown(SHOWCASE_CROWN.crown, SHOWCASE_CROWN.head, (((0, 1), 2), ((1, 4), 2)))
        verdict = validate_hs_crown(showcase_instance.hypergraph, bad)
        assert not verdict.matching_valid

    def test_matched_pair_must_be_hyperedge(self, showcase_instance):
        # In the showcase graph every crown/head pairing completes to an edge,
        # so both injective matchings validate ...
        swapped = HSCrown(SHOWCASE_CROWN.crown, SHOWCASE_CROWN.head, (((0, 1), 3), ((1, 4), 2)))
        assert validate_hs_crown(showcase_instance.hypergraph, swapped).matching_valid
        # ... but in an asymmetric graph a cross pairing is no hyperedge.
        # ids: a=0 u=1 v=2 b=3 w=4; {b,u,v} is not an edge.
        inst = normalize([["a", "u", "v"], ["b", "u", "w"]], 3, 1)
        crossed = HSCrown(
            frozenset({0, 3}),
            frozenset({(1, 2), (1, 4)}),
            (((1, 2), 3), ((1, 4), 0)),
        )
        verdict = validate_hs_crown(inst.hypergraph, crossed)
        assert verdict.independent and verdict.head_exact
        assert not verdict.matching_valid

    def test_foreign_head_subedge_fails_condition_two(self, showcase_instance):
        head = SHOWCASE_CROWN.head | {(0, 4)}
        bad = HSCrown(SHOWCASE_CROWN.crown, head, SHOWCASE_CROWN.matching)
        verdict = validate_hs_crown(showcase_instance.hypergraph, bad)
        assert verdict.independent and not verdict.head_exact
        assert verdict.problems == (
            "head contains foreign subedges [(0, 4)]",
            "matching does not cover the head exactly",
        )

    def test_each_flag_reads_only_its_own_section(self):
        # {0, 1} lies in the edge (0, 1, 2), and 5 is matched outside the
        # crown; the head is exactly the induced one.
        h = Hypergraph(6, ((0, 1, 2), (0, 3, 4), (3, 4, 5)), 3)
        head = frozenset({(1, 2), (0, 2), (3, 4)})
        two_failures = HSCrown(frozenset({0, 1}), head, (((1, 2), 0), ((0, 2), 1), ((3, 4), 5)))
        verdict = validate_hs_crown(h, two_failures)
        flags = (verdict.independent, verdict.head_exact, verdict.matching_valid)
        assert flags == (False, True, False)
        assert verdict.problems == (
            "crown vertices are not independent",
            "matching image leaves the crown",
        )
        # Only the head fails: the matching covers the head as given.
        one_failure = HSCrown(SHOWCASE_CROWN.crown, frozenset({(0, 1)}), (((0, 1), 2),))
        verdict = validate_hs_crown(normalize(SHOWCASE_EDGES, 3, 1).hypergraph, one_failure)
        flags = (verdict.independent, verdict.head_exact, verdict.matching_valid)
        assert flags == (True, False, True)
        assert verdict.problems == ("head misses induced subedges [(1, 4)]",)

    @pytest.mark.parametrize("stray", [7, 3, -1])
    def test_crown_vertex_outside_the_graph_is_reported(self, stray):
        inst = Instance(Hypergraph(3, ((0, 1),), 3), 1)
        bad = HSCrown(frozenset({stray}), frozenset(), ())
        verdict = validate_hs_crown(inst.hypergraph, bad)
        assert not verdict.independent and not verdict.valid
        assert verdict.problems == (f"crown vertex {stray} is outside 0..2",)
        with pytest.raises(InvalidCrownError) as exc:
            apply_hs_crown(inst, bad)
        assert exc.value.verdict == verdict

    def test_unit_edge_in_crown_rejected(self):
        h = Hypergraph(2, ((0,), (0, 1)), 3)
        bad = HSCrown(frozenset({0}), frozenset({(1,)}), (((1,), 0),))
        verdict = validate_hs_crown(h, bad)
        assert not verdict.head_exact

    def test_head_subedge_matched_twice_fails_condition_three(self):
        # Three petals {0,1,x}: crown {3,4,5} over the one head subedge {0,1}.
        inst = Instance(Hypergraph(6, ((0, 1, 3), (0, 1, 4), (0, 1, 5)), 3), 1)
        crown, head = frozenset({3, 4, 5}), frozenset({(0, 1)})
        bad = HSCrown(crown, head, (((0, 1), 3), ((0, 1), 4)))
        verdict = validate_hs_crown(inst.hypergraph, bad)
        assert verdict.independent and verdict.head_exact and verdict.strict
        assert not verdict.matching_valid and not verdict.valid
        assert verdict.problems == ("matching lists a head subedge more than once",)
        with pytest.raises(InvalidCrownError) as exc:
            apply_hs_crown(inst, bad)
        assert exc.value.verdict == verdict
        good = HSCrown(crown, head, (((0, 1), 3),))
        assert apply_hs_crown(inst, good).edges == ((0, 1),)

    def test_matching_that_misses_a_head_subedge_fails_condition_three(self, showcase_instance):
        bad = HSCrown(SHOWCASE_CROWN.crown, SHOWCASE_CROWN.head, (((0, 1), 2),))
        verdict = validate_hs_crown(showcase_instance.hypergraph, bad)
        assert verdict.independent and verdict.head_exact
        assert not verdict.matching_valid
        assert verdict.problems == ("matching does not cover the head exactly",)
        with pytest.raises(InvalidCrownError):
            apply_hs_crown(showcase_instance, bad)


class TestApply:
    def test_showcase_reduction_exact(self, showcase_instance):
        reduced = apply_hs_crown(showcase_instance, SHOWCASE_CROWN)
        assert reduced.n == 3
        assert reduced.edges == ((0, 1), (1, 2))
        assert reduced.k == showcase_instance.k
        assert reduced.labels == ("v1", "v2", "v3")

    def test_isolated_crown_drops_vertices_only(self):
        inst = Instance(Hypergraph(4, ((0, 1),), 3), 1)
        crown = HSCrown(frozenset({2, 3}), frozenset(), ())
        reduced = apply_hs_crown(inst, crown)
        assert reduced.n == 2
        assert reduced.edges == ((0, 1),)

    def test_an_empty_crown_returns_the_instance_itself(self, showcase_instance):
        empty = HSCrown(frozenset(), frozenset(), ())
        assert apply_hs_crown(showcase_instance, empty) is showcase_instance

    def test_showcase_decision_preserved(self, showcase_instance):
        reduced = apply_hs_crown(showcase_instance, SHOWCASE_CROWN)
        assert decide_brute_force(showcase_instance) == decide_brute_force(reduced) is True

    def test_invalid_crown_rejected_with_verdict(self, showcase_instance):
        bad = HSCrown(frozenset({1, 2}), SHOWCASE_CROWN.head, SHOWCASE_CROWN.matching)
        with pytest.raises(InvalidCrownError) as exc:
            apply_hs_crown(showcase_instance, bad)
        assert not exc.value.verdict.independent

    def test_removes_exactly_crown_many_vertices(self, showcase_instance):
        reduced = apply_hs_crown(showcase_instance, SHOWCASE_CROWN)
        assert reduced.n == showcase_instance.n - len(SHOWCASE_CROWN.crown)


def strict_crown_from(h, independent):
    """A strict crown inside an independent set, or None, found along the
    path rule 6 runs: the induced head matched into the set."""
    assert not induced_head(h, frozenset(independent))[1]  # no unit edge inside
    return _crown_via_matching(h, sorted(independent))


class TestStrictCrownFromIndependentSet:
    def test_three_petals_share_one_pair(self):
        inst = normalize([["x1", "u", "v"], ["x2", "u", "v"], ["x3", "u", "v"]], 3, 1)
        crown = strict_crown_from(inst.hypergraph, {0, 3, 4})
        assert crown is not None
        assert crown.crown == frozenset({0, 3, 4})
        assert crown.head == frozenset({(1, 2)})
        assert dict(crown.matching)[(1, 2)] == 0  # lowest-index tie-break

    def test_showcase_balanced_set_gives_none(self, showcase_instance):
        assert strict_crown_from(showcase_instance.hypergraph, {2, 3}) is None

    def test_isolated_vertex_alone(self):
        h = Hypergraph(3, ((0, 1),), 3)
        crown = strict_crown_from(h, {2})
        assert crown is not None
        assert crown.crown == frozenset({2})
        assert crown.head == frozenset()

    def test_found_crowns_are_valid_and_strict(self):
        rng = random.Random(21)
        found = 0
        for trial in range(400):
            spec = GenSpec(
                seed=1000 + trial,
                n=rng.randint(5, 12),
                m=rng.randint(2, 10),
                d=3,
                k=rng.randint(1, 3),
            )
            inst = generate(spec)
            h = inst.hypergraph
            indep = _greedy_independent_set(h)
            if not indep:
                continue
            crown = strict_crown_from(h, indep)
            if crown is None:
                continue
            found += 1
            verdict = validate_hs_crown(h, crown)
            assert verdict.valid and verdict.strict
            assert crown.crown <= frozenset(indep)
        assert found >= 50


class TestCrownFinderOnBipartiteGraphs:
    """The finder on a bipartite graph encoded by ``bipartite_as_hypergraph``:
    left vertex ``a`` is candidate ``a``, right vertex ``b`` is the head
    subedge ``bipartite_subedge(g, b)``."""

    def test_two_lefts_one_right(self):
        g = BipartiteGraph(2, 1, ((0,), (0,)))
        crown = _crown_via_matching(*bipartite_as_hypergraph(g))
        assert crown is not None
        assert crown.crown == frozenset({0, 1})
        assert crown.head == frozenset({(2, 3)})
        assert dict(crown.matching)[(2, 3)] == 0

    def test_saturated_single_edge(self):
        g = BipartiteGraph(1, 1, ((0,),))
        assert _crown_via_matching(*bipartite_as_hypergraph(g)) is None

    def test_saturated_complete_2x2_invisible(self):
        # A perfect matching saturates the candidates, so the balanced crown
        # that exists here is intentionally not found.
        g = BipartiteGraph(2, 2, ((0, 1), (0, 1)))
        assert _crown_via_matching(*bipartite_as_hypergraph(g)) is None

    def test_returns_none_iff_left_saturated(self):
        rng = random.Random(107)
        for _ in range(150):
            g = random_bipartite(rng)
            crown = _crown_via_matching(*bipartite_as_hypergraph(g))
            saturated = hopcroft_karp(g).size == g.side_a
            assert (crown is None) == saturated

    def test_crown_shape_invariants(self):
        rng = random.Random(108)
        found = 0
        for _ in range(200):
            g = random_bipartite(rng)
            h, candidates = bipartite_as_hypergraph(g)
            crown = _crown_via_matching(h, candidates)
            if crown is None:
                continue
            found += 1
            neighborhood = {bipartite_subedge(g, b) for a in crown.crown for b in g.adjacency[a]}
            assert neighborhood == set(crown.head)
            verdict = validate_hs_crown(h, crown)
            assert verdict.valid and verdict.strict, verdict.problems
            unmatched = crown.crown - {v for _, v in crown.matching}
            assert unmatched
        assert found >= 30

    def test_augmenting_path_after_the_matching_is_an_internal_error(self, monkeypatch):
        # An empty "maximum" matching leaves the edge 0-0 augmenting.
        monkeypatch.setattr(matching, "hopcroft_karp", lambda g: Matching(()))
        h, candidates = bipartite_as_hypergraph(BipartiteGraph(1, 1, ((0,),)))
        with pytest.raises(
            InternalConsistencyError, match="^augmenting path survived a maximum matching$"
        ):
            _crown_via_matching(h, candidates)

    def test_crown_without_hall_deficiency_is_an_internal_error(self, monkeypatch):
        # A "matching" that uses left vertex 0 twice: the one free left
        # vertex reaches both right vertices but only one mate.
        monkeypatch.setattr(matching, "hopcroft_karp", lambda g: Matching(((0, 0), (0, 1))))
        h, candidates = bipartite_as_hypergraph(BipartiteGraph(2, 2, ((0, 1), (0, 1))))
        with pytest.raises(InternalConsistencyError, match="^crown lost its Hall deficiency$"):
            _crown_via_matching(h, candidates)


def _greedy_independent_set(h):
    chosen = []
    taken = set()
    blocked = set()
    for v in range(h.n):
        if v in blocked:
            continue
        chosen.append(v)
        taken.add(v)
        for e in h.edges:
            if v in e:
                blocked.update(e)
    return chosen


class TestDecisionPreservation:
    def test_crown_application_preserves_decisions(self):
        # Crowns found by any means must leave the decision unchanged.
        rng = random.Random(31)
        checked = 0
        trial = 0
        while checked < 300 and trial < 4000:
            trial += 1
            spec = GenSpec(
                seed=5000 + trial,
                n=rng.randint(5, 14),
                m=rng.randint(2, 12),
                d=3,
                k=rng.randint(1, 3),
            )
            inst = generate(spec)
            indep = _greedy_independent_set(inst.hypergraph)
            if not indep:
                continue
            crown = strict_crown_from(inst.hypergraph, indep)
            if crown is None:
                continue
            reduced = apply_hs_crown(inst, crown)
            assert decide_brute_force(inst) == decide_brute_force(reduced)
            assert reduced.n == inst.n - len(crown.crown)
            # every removed edge contains a head subedge, so reduced hitting
            # sets transfer verbatim to the original
            removed = [e for e in inst.edges if set(e) & crown.crown]
            for e in removed:
                assert any(set(y) <= set(e) for y in crown.head)
            checked += 1
        assert checked >= 300


class TestFormatCrown:
    def test_renders_all_parts(self):
        text = format_crown(SHOWCASE_CROWN)
        assert "non-strict" in text
        assert "{0,1}->2" in text
