import dataclasses
import random
from bisect import bisect_left
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hskernel import core, reductions
from hskernel.core import Hypergraph, Instance, normalize, subedge_groups
from hskernel.crown import apply_hs_crown, validate_hs_crown
from hskernel.errors import InternalConsistencyError
from hskernel.oracle import GenSpec, decide_brute_force, generate
from hskernel.reductions import (
    ReductionTrace,
    RuleOutcome,
    TraceStep,
    exceeds_bound,
    exceeds_power,
    kernelize,
    rule1_vertex_domination,
    rule2_edge_domination,
    rule3_unit_edge,
    rule4_high_degree_subedge,
    rule5_weakly_related_counting,
    rule6_lp_crown,
    vertex_bound,
    weakly_related_family,
)

from helpers import (
    blob4_instance,
    blob_instance,
    cluster_deletion_instance,
    double_star_instance,
    mixed_crown_instance,
    naive_kernelize,
    naive_rule1_vertex,
    naive_rule2_edge,
    naive_extension_packing,
    naive_rule4,
    naive_successor,
    naive_weakly_related_family,
    one_size_rule_instance,
    petal_cycle_instance,
    random_rule_instance,
    tournament_fvs_instance,
)


def inst_of(raw_edges, k, d=3):
    return normalize(raw_edges, d, k)


class TestRule1:
    def test_dominated_vertex_shrinks_edges(self):
        # x dominated by y; the edge {x,y} shrinks to {y}
        inst = inst_of([["x", "y"], ["y", "z"]], 2)
        out = rule1_vertex_domination(inst)
        assert out.applied
        reduced = out.new_instance
        assert reduced.n == 2
        assert set(reduced.edges) == {(0,), (0, 1)}  # {y} and {y,z} after compaction
        assert reduced.k == inst.k
        assert decide_brute_force(inst) == decide_brute_force(reduced)

    def test_counterexample_family_chain_reaches_no(self):
        # Mutually dominating pairs must still land on the oracle's answer.
        inst = inst_of([["x", "y"], ["z", "w"]], 1)
        out = rule1_vertex_domination(inst)
        assert out.applied
        assert set(out.new_instance.edges) == {(0,), (1, 2)}
        result = kernelize(inst)
        assert result.verdict == "no"
        assert decide_brute_force(inst) is False

    def test_no_dominated_pair(self):
        inst = inst_of([["a", "b"], ["b", "c"], ["c", "a"]], 1)
        assert not rule1_vertex_domination(inst).applied

    def test_isolated_vertex_is_dominated(self):
        inst = Instance(Hypergraph(3, ((1, 2),), 3), 1)
        out = rule1_vertex_domination(inst)
        assert out.applied
        assert out.new_instance.n == 2
        assert out.step.vertices_removed == 1

    @staticmethod
    def removed(inst, out):
        (label,) = set(inst.labels) - set(out.new_instance.labels)
        return label

    def test_the_lowest_dominated_candidate_goes(self):
        # v0, v1, v2 and v4 are dominated; v3 is not.
        labels = ("v0", "v1", "v2", "v3", "v4")
        inst = Instance(Hypergraph(5, ((0, 1, 2), (1, 2, 3), (3, 4)), 3), 2, labels)
        full = rule1_vertex_domination(inst)
        assert self.removed(inst, full) == "v0"
        # The hint (4, 0) leaves out the dominated v1 and v2, so the
        # outcome's own hint for the successor rightly differs.
        hinted = rule1_vertex_domination(inst, (4, 0))
        assert (hinted.new_instance, hinted.step) == (full.new_instance, full.step)
        assert self.removed(inst, rule1_vertex_domination(inst, (3, 4, 1))) == "v1"
        assert self.removed(inst, rule1_vertex_domination(inst, [4, 3])) == "v4"
        assert not rule1_vertex_domination(inst, (3,)).applied
        assert not rule1_vertex_domination(inst, ()).applied

    def test_an_isolated_candidate_is_dominated(self):
        inst = Instance(Hypergraph(3, ((0, 1),), 3), 1, ("a", "b", "c"))
        assert self.removed(inst, rule1_vertex_domination(inst)) == "a"
        assert self.removed(inst, rule1_vertex_domination(inst, (2,))) == "c"
        assert not rule1_vertex_domination(Instance(Hypergraph(1, (), 3), 1), (0,)).applied

    def test_a_step_hands_on_the_later_vertices_still_dominated(self):
        # v0 goes; v1 then meets only itself, v2 and v3 still meet each
        # other. With v4 in no edge the successor is left to a full scan.
        inst = Instance(Hypergraph(4, ((0, 1), (2, 3)), 3), 1)
        out = rule1_vertex_domination(inst)
        assert out.new_instance.edges == ((0,), (1, 2)) and out.hints == {1: [1, 2]}
        assert rule1_vertex_domination(out.new_instance, [1, 2]) == rule1_vertex_domination(
            out.new_instance
        )
        inst = Instance(Hypergraph(5, ((0, 1), (2, 3)), 3), 1)
        for candidates in (None, range(5)):
            out = rule1_vertex_domination(inst, candidates)
            assert out.new_instance.edges == ((0,), (1, 2)) and out.hints == {}

    @staticmethod
    def counting(inst):
        """``inst`` with its edges replaced by an equal tuple that counts the
        edges iteration hands out."""

        class CountingEdges(tuple):
            def __iter__(self):
                for e in tuple.__iter__(self):
                    self.read += 1
                    yield e

        h = inst.hypergraph
        edges = CountingEdges(h.edges)
        edges.read = 0
        object.__setattr__(h, "edges", edges)
        return edges

    def test_the_scan_stops_before_the_edges_after_the_highest_candidate(self):
        # Only v2 is dominated (by v0 and v1): the triples through any other
        # vertex meet only in it. The nine edges after v2's block start
        # above it.
        labels = tuple(f"v{i}" for i in range(9))
        triples = [(0, 1, 2), (0, 1, 3), (0, 3, 4), (1, 3, 4)]
        triples += [(3, 5, 6), (4, 5, 6), (4, 5, 7), (3, 6, 8), (4, 7, 8), (5, 7, 8), (6, 7, 8)]
        triples += [(3, 5, 7), (3, 6, 7)]
        parent = Instance(Hypergraph(9, tuple(triples), 3), 2, labels)
        full = rule1_vertex_domination(parent)
        assert self.removed(parent, full) == "v2"
        inst = Instance(Hypergraph(9, tuple(triples), 3), 2, labels)
        edges = self.counting(inst)
        assert bisect_left(edges, (3,)) == 4 and len(edges) == 13
        assert rule1_vertex_domination(inst, (2,)) == full
        assert edges.read <= 2 * 4  # the scan and the edges through v2
        edges.read = 0
        assert not rule1_vertex_domination(inst, (1, 0)).applied
        assert edges.read <= 4

    def test_an_isolated_highest_candidate_is_dominated(self):
        # Two blocks of four triples on four vertices, each vertex in three
        # that meet only in it, and the isolated v4 between them.
        k4 = list(combinations(range(4), 3))
        triples = k4 + [tuple(v + 5 for v in e) for e in k4]
        labels = tuple(f"v{i}" for i in range(9))
        parent = Instance(Hypergraph(9, tuple(triples), 3), 2, labels)
        full = rule1_vertex_domination(parent)
        assert self.removed(parent, full) == "v4"
        inst = Instance(Hypergraph(9, tuple(triples), 3), 2, labels)
        edges = self.counting(inst)
        for candidates in ((4,), (1, 4), (3, 4)):
            edges.read = 0
            assert rule1_vertex_domination(inst, candidates) == full
            assert edges.read <= 2 * 4  # only the block that starts below v4
        edges.read = 0
        assert not rule1_vertex_domination(inst, (1, 2)).applied
        assert edges.read <= 4


class TestRule2:
    def test_superset_removed(self):
        inst = inst_of([["a"], ["a", "b", "c"]], 1)
        out = rule2_edge_domination(inst)
        assert out.applied
        assert out.new_instance.edges == ((0,),)

    def test_duplicate_edges_already_collapsed(self):
        inst = inst_of([["a", "b"], ["b", "a"]], 1)
        assert inst.m == 1
        assert not rule2_edge_domination(inst).applied

    def test_incomparable_edges(self):
        inst = inst_of([["a", "b"], ["b", "c"]], 1)
        assert not rule2_edge_domination(inst).applied

    def test_the_scan_starts_at_the_given_edge(self):
        # (0, 1) contains (0,), and (1, 2, 3) contains (1, 2).
        inst = Instance(Hypergraph(4, ((0,), (0, 1), (1, 2), (1, 2, 3)), 3), 2)
        edges = frozenset(inst.edges)
        full = rule2_edge_domination(inst)
        # (0, 1) went for (0,); the set is handed on unchanged.
        assert full.hints == {1: (1,), 2: (1, edges, 1)}
        assert full.new_instance.edges == ((0,), (1, 2), (1, 2, 3))
        assert rule2_edge_domination(inst, (1, edges, 1)) == full
        for start in (2, 3):
            out = rule2_edge_domination(inst, (start, edges, 1))
            # (1, 2, 3) went for (1, 2)
            assert out.hints == {1: (3,), 2: (3, edges, 1)}
            assert out.new_instance.edges == ((0,), (0, 1), (1, 2))
            assert out.step == TraceStep(2, 0, 1, 0, 0)
        assert not rule2_edge_domination(inst, (4, edges, 1)).applied
        # A start past the last edge looks nothing up.
        assert not rule2_edge_domination(inst, (4, frozenset(), 1)).applied

    def test_a_least_size_below_every_edge_changes_no_hit(self):
        # Every edge has two or three vertices; (1, 2, 3) contains (1, 2).
        inst = Instance(Hypergraph(5, ((0, 4), (1, 2), (1, 2, 3), (2, 3, 4)), 3), 2)
        edges = frozenset(inst.edges)
        full = rule2_edge_domination(inst)
        assert full.hints[2] == (2, edges, 2)
        for least in (0, 1):
            out = rule2_edge_domination(inst, (0, edges, least))
            assert (out.new_instance, out.step) == (full.new_instance, full.step)
            assert out.hints == {1: (3,), 2: (2, edges, least)}
        one_size = Instance(Hypergraph(4, ((0, 1, 2), (1, 2, 3)), 3), 2)
        assert not rule2_edge_domination(one_size, (0, frozenset(one_size.edges), 0)).applied

    def test_an_outcome_with_hints_hashes(self):
        inst = Instance(Hypergraph(4, ((0,), (0, 1), (1, 2), (1, 2, 3)), 3), 2)
        out = rule2_edge_domination(inst)
        assert out.hints
        assert hash(out) == hash(rule2_edge_domination(inst, (1, frozenset(inst.edges), 1)))


class TestDominationRulesAgainstPairScans:
    """Rules 1 and 2 search locally; the all-pairs scans they replaced must
    pick the same target and yield the same step and successor."""

    def test_same_target_step_and_successor(self):
        rng = random.Random(2024)
        instances = [random_rule_instance(rng) for _ in range(6000)]
        instances += [one_size_rule_instance(rng) for _ in range(1000)]
        seen = {
            key: 0
            for key in ("n=1", "isolated", "singleton", "twins", "d=3", "d=4", "empty", "one size")
        }
        applied = {1: 0, 2: 0}
        for inst in instances:
            h = inst.hypergraph
            through = [frozenset(i for i, e in enumerate(h.edges) if v in e) for v in range(h.n)]
            seen["n=1"] += h.n == 1
            seen["isolated"] += any(not t for t in through)
            seen["singleton"] += any(len(e) == 1 for e in h.edges)
            seen["twins"] += len({t for t in through if t}) < sum(1 for t in through if t)
            seen[f"d={h.d}"] += 1
            seen["empty"] += () in h.edges
            seen["one size"] += h.m > 1 and len({len(e) for e in h.edges}) == 1

            out = rule1_vertex_domination(inst)
            expected = naive_rule1_vertex(inst)
            assert out.applied == (expected is not None) and not out.verdict_no, inst
            if expected is not None:
                x, step, successor = expected
                assert set(inst.labels) - set(out.new_instance.labels) == {inst.labels[x]}
                assert out.step == step
                assert out.new_instance == successor
                applied[1] += 1

            out = rule2_edge_domination(inst)
            expected = naive_rule2_edge(inst)
            assert out.applied == (expected is not None) and not out.verdict_no, inst
            if expected is not None:
                target, step, successor = expected
                assert set(inst.edges) - set(out.new_instance.edges) == {target}
                assert out.step == step
                assert out.new_instance == successor
                applied[2] += 1
        assert all(count > 0 for count in seen.values()), seen
        assert min(applied.values()) > 1000, applied


def _resume_instances():
    """Small instances of every shape rules 1 and 2 see, a seeded
    ``generate`` sweep at d = 3 to 6, planted and not, and small cluster
    deletion and tournament feedback vertex set instances, yes and no."""
    rng = random.Random(1616)
    instances = [random_rule_instance(rng) for _ in range(3000)]
    instances += [one_size_rule_instance(rng) for _ in range(500)]
    for trial in range(400):
        d = rng.randint(3, 6)
        n = rng.randint(d, 40)
        spec = GenSpec(
            seed=161_000 + trial,
            n=n,
            m=rng.randint(1, 4 * n),
            d=d,
            k=rng.randint(1, 4),
            planted=rng.choice((None, 2)),
        )
        instances.append(generate(spec))
    for seed in range(6):
        k = 1 + seed % 3
        instances += [
            cluster_deletion_instance(seed, 6, 6, k),
            cluster_deletion_instance(seed, 6, 6, k, broken=k + 1),
            tournament_fvs_instance(seed, 24, k),
            tournament_fvs_instance(seed, 24, k, cycles=k + 1),
        ]
    return instances


def _planted_instances():
    """Twelve planted draws shaped like the ``planted`` benchmark inputs,
    with long chains of rule-2 steps."""
    rng = random.Random(3434)
    return [
        generate(GenSpec(seed=rng.getrandbits(63), n=64, m=320, d=3, k=6, planted=6))
        for _ in range(12)
    ]


def _crown_family_instances():
    """The structured families of the acceptance suite, small."""
    instances = []
    for seed in range(3):
        for k in (2, 3):
            instances += [
                petal_cycle_instance(seed, k),
                mixed_crown_instance(seed, k),
                blob_instance(seed, k - 1),
                blob4_instance(seed, k - 1),
                double_star_instance(seed, k),
            ]
    return instances


def has_a_vertex_in_no_edge(inst) -> bool:
    return len(set().union(*inst.edges)) < inst.n


def contains_an_edge_of(x, inst) -> bool:
    """Whether the edge ``x`` strictly contains an edge of ``inst``."""
    return any(s in inst.hypergraph for r in range(len(x)) for s in combinations(x, r))


def with_live_rule2_set(outcome):
    """``outcome`` with the edge set of rule 2's hint cut down to the
    successor's edges, once each edge cut is checked to strictly contain one
    of them: a chain of rule-2 steps carries one set, which keeps the edges
    the chain removed."""
    if 2 not in outcome.hints:
        return outcome
    start, edges, least = outcome.hints[2]
    after = outcome.new_instance
    live = edges.intersection(after.edges)
    assert all(contains_an_edge_of(x, after) for x in edges.difference(live)), outcome
    hints = {**outcome.hints, 2: (start, live, least)}
    return dataclasses.replace(outcome, hints=hints)


class TestResumeAfterRule2:
    """After a rule-2 step that removed ``e``, the outcome hands rule 1
    the vertices of ``e`` and rule 2 the place of ``e``, the edge set it
    scanned and a least edge size; rules 1, 3 and 4 hand on hints of their
    own. Those calls must give exactly what the full scans give, but for
    the edge set rule 2 hands on."""

    def test_same_run_as_a_hint_free_controller(self, monkeypatch):
        instances = _resume_instances()
        rule1, rule2 = rule1_vertex_domination, rule2_edge_domination
        with monkeypatch.context() as m:
            m.setattr(reductions, "rule1_vertex_domination", lambda inst, *hint: rule1(inst))
            m.setattr(reductions, "rule2_edge_domination", lambda inst, *hint: rule2(inst))
            # An observer makes every pass call the rules as patched.
            references = [kernelize(inst, lambda *event: None) for inst in instances]
        seen = {"kernel": 0, "yes": 0, "no": 0, "rule 1 after rule 2": 0, "rule 2 after rule 2": 0}
        for inst, reference in zip(instances, references):
            result = kernelize(inst)
            assert result.verdict == reference.verdict, inst
            assert result.instance == reference.instance, inst
            assert result.trace.steps == reference.trace.steps, inst
            assert result.trace.attempts == reference.trace.attempts, inst
            seen[result.verdict] += 1
            pairs = list(zip(result.trace.steps, result.trace.steps[1:]))
            seen["rule 1 after rule 2"] += sum(1 for a, b in pairs if (a.rule, b.rule) == (2, 1))
            seen["rule 2 after rule 2"] += sum(1 for a, b in pairs if (a.rule, b.rule) == (2, 2))
        assert min(seen.values()) > 100, seen

    def test_hinted_calls_equal_full_scans_after_every_rule2_step(self):
        """Every hint an outcome hands rule 1 or 2 gives what the full scan
        of the successor gives. Rule 1 hands rule 1 a hint unless its
        successor has a vertex in no edge; rules 2, 3 and 4 hand on hints
        for rules 1 and 2; rules 5 and 6 hand on none. Rule 2's hint carries
        a set that holds every edge of the successor, each other member an
        edge rule 2 removed earlier in the run that strictly contains one of
        them, and a lower bound on the edge sizes; the hinted rule-2 call
        equals the full scan once both sets are cut down to the successor's
        edges. After rules 3 and 4 the hint
        starts past the last edge with an empty set, and after rule 3, which
        drops only its unit edge, rule 1 gets no candidate."""
        seen = {
            "e - f dominated": 0,
            "rule 2 applies": 0,
            "both decline": 0,
            "start > 0": 0,
            "e - f has two vertices": 0,
            "rule 5 steps": 0,
            "hinted after rule 1": 0,
            "hinted after rule 3": 0,
            "hinted after rule 4": 0,
            "set holds removed edges": 0,
        }
        floors = {"hinted after rule 4": 50}
        scans = {1: rule1_vertex_domination, 2: rule2_edge_domination}
        gone = set()  # the edges rule 2 removed in this run

        def check(rule, before, outcome):
            after = outcome.new_instance
            full = {r: scans[r](after) for r in outcome.hints}
            for r, hint in outcome.hints.items():
                assert with_live_rule2_set(scans[r](after, hint)) == with_live_rule2_set(full[r])
            if rule == 1:
                expected = set() if has_a_vertex_in_no_edge(after) else {1}
            else:
                expected = {1, 2} if rule in (2, 3, 4) else set()
            assert set(outcome.hints) == expected
            seen["rule 5 steps"] += rule == 5
            if rule in (1, 3, 4):
                seen[f"hinted after rule {rule}"] += bool(outcome.hints)
            if rule in (3, 4):
                start, edges, least = outcome.hints[2]
                assert start >= after.m and edges == frozenset() and least == 0
            if rule == 3:
                # The precondition of rule 3's hint: only the unit edge goes.
                assert outcome.step.edges_removed == 1
                assert outcome.hints[1] == ()
            if rule != 2:
                return
            (e,) = set(before.edges) - set(after.edges)
            outside, (start, edges, least) = outcome.hints[1], outcome.hints[2]
            f = tuple(v for v in e if v not in outside)
            assert f in after.edges and set(f) < set(e)
            assert start == bisect_left(after.edges, e)
            gone.add(e)
            assert edges.issuperset(after.edges)
            extras = edges.difference(after.edges)
            assert all(x in gone and contains_an_edge_of(x, after) for x in extras)
            seen["set holds removed edges"] += bool(extras)
            assert least <= min(map(len, after.edges))
            assert rule1_vertex_domination(after, e) == full[1]
            seen["e - f dominated"] += full[1].applied
            seen["rule 2 applies"] += full[2].applied
            seen["both decline"] += not (full[1].applied or full[2].applied)
            seen["start > 0"] += start > 0
            seen["e - f has two vertices"] += len(outside) > 1

        for inst in _resume_instances():
            gone.clear()
            kernelize(inst, check)
        assert all(count > floors.get(key, 100) for key, count in seen.items()), seen

    def test_a_run_of_rule2_steps_carries_one_edge_set(self):
        """Along every run of consecutive rule-2 steps under ``kernelize``
        each hint carries one and the same set object, and its members
        beyond the successor's edges are exactly the edges those steps
        removed: no step copies the set or builds a new one."""
        run = []  # while a run of rule-2 steps lasts: its set and the edges it removed
        seen = {"runs": 0, "steps after the first": 0}

        def watch(rule, before, outcome):
            if rule != 2:
                run.clear()
                return
            after = outcome.new_instance
            carried = outcome.hints[2][1]
            (e,) = set(before.edges) - set(after.edges)
            if run:
                assert carried is run[0]
                seen["steps after the first"] += 1
            else:
                run[:] = [carried, set()]
                seen["runs"] += 1
            run[1].add(e)
            assert carried.issuperset(after.edges)
            assert carried.difference(after.edges) == run[1]

        for inst in _resume_instances() + _planted_instances():
            run.clear()
            kernelize(inst, watch)
        assert min(seen.values()) > 1000, seen

    def test_rule1_scans_in_full_only_where_no_step_hands_it_candidates(self, monkeypatch):
        """Under ``kernelize`` rule 1 runs without a hint only on the first
        pass, after rule-5 and rule-6 steps, and after a rule-1 step whose
        successor has a vertex in no edge."""
        rule1 = rule1_vertex_domination
        seen = {key: 0 for key in ("first", 1, 2, 3, 4, 5, 6, "rule 1, no edge")}
        after = ["first"]  # what the last step was, per run

        def spy(inst, *hint):
            assert bool(hint) == (after[0] in (1, 2, 3, 4)), (inst, after[0])
            seen[after[0]] += 1
            return rule1(inst, *hint)

        def observe(rule, before, outcome):
            no_edge = rule == 1 and has_a_vertex_in_no_edge(outcome.new_instance)
            after[0] = "rule 1, no edge" if no_edge else rule

        monkeypatch.setattr(reductions, "rule1_vertex_domination", spy)
        instances = _resume_instances()
        for seed in range(3):
            instances += [
                petal_cycle_instance(seed, 2),
                mixed_crown_instance(seed, 2),
                blob_instance(seed, 1),
                blob4_instance(seed, 1),
                double_star_instance(seed, 2),
            ]
        for inst in instances:
            after[0] = "first"
            kernelize(inst, observe)
        assert all(seen.values()), seen


def chained_rule2_steps(steps) -> int:
    """The rule-2 steps of ``steps`` that directly follow a rule-2 step."""
    return sum(1 for a, b in zip(steps, steps[1:]) if a.rule == b.rule == 2)


def spy_on_runs(monkeypatch) -> list:
    """Wrap ``_run_in_place`` so that each run appends the steps it took
    and the rule its next pass starts at to the returned list."""
    runs = []
    run = reductions._run_in_place

    def spy(inst, hints, trace, ceiling):
        before = len(trace.steps)
        out = run(inst, hints, trace, ceiling)
        runs.append((trace.steps[before:], out[1]))
        return out

    monkeypatch.setattr(reductions, "_run_in_place", spy)
    return runs


def assert_same_result(fast, slow, inst) -> None:
    assert fast.verdict == slow.verdict, inst
    assert fast.instance == slow.instance, inst
    assert fast.instance.labels == slow.instance.labels, inst
    assert fast.trace.steps == slow.trace.steps, inst
    assert fast.trace.attempts == slow.trace.attempts, inst
    assert fast.trace.lp_pivots == slow.trace.lp_pivots, inst


@st.composite
def labelled_instances(draw):
    """A small instance at d = 3 to 5 with random edges, budget and
    labels."""
    d = draw(st.integers(3, 5))
    n = draw(st.integers(1, 10))
    edge = st.sets(st.integers(0, n - 1), min_size=1, max_size=d).map(tuple)
    edges = draw(st.lists(edge, max_size=25))
    labels = draw(st.lists(st.integers(), min_size=n, max_size=n, unique=True))
    return Instance(Hypergraph(n, tuple(edges), d), draw(st.integers(0, 4)), tuple(labels))


class TestRunsInPlace:
    """Without an observer, the passes after a step that hands hints to
    rules 1 and 2 run in place for as long as each ends in a step of rules
    1-3 and no quick verdict falls; with one, every pass calls the public
    rules."""

    def test_same_result_with_and_without_an_observer(self, monkeypatch):
        runs = spy_on_runs(monkeypatch)
        seen = dict.fromkeys(("chained rule-2 steps", "kernel", "yes", "no"), 0)
        seen.update({f"in-run rule-{r} steps": 0 for r in (1, 2, 3)})
        seen.update({"runs ending in yes": 0, "runs ending in no": 0})
        floors = {"in-run rule-1 steps": 2000, "in-run rule-3 steps": 1000}
        floors.update({"runs ending in yes": 300, "runs ending in no": 300})
        for inst in _resume_instances() + _planted_instances() + _crown_family_instances():
            runs.clear()
            slow = kernelize(inst, lambda *event: None)
            assert runs == []
            fast = kernelize(inst)
            assert_same_result(fast, slow, inst)
            seen["chained rule-2 steps"] += chained_rule2_steps(fast.trace.steps)
            seen[fast.verdict] += 1
            for taken, _ in runs:
                for s in taken:
                    seen[f"in-run rule-{s.rule} steps"] += 1
            ends = [first for _, first in runs]
            # Only the last run may end on a quick verdict, which then falls.
            assert 1 not in ends[:-1]
            if ends[-1:] == [1]:
                assert fast.verdict in ("yes", "no")
                seen[f"runs ending in {fast.verdict}"] += 1
        assert all(count > floors.get(key, 100) for key, count in seen.items()), seen

    @settings(max_examples=300, deadline=None)
    @given(labelled_instances())
    def test_any_small_instance_gives_the_same_result_with_and_without_an_observer(self, inst):
        assert_same_result(kernelize(inst), kernelize(inst, lambda *event: None), inst)

    def test_a_run_builds_no_successor_per_step(self, monkeypatch):
        # A run takes its steps on one edge list, so _rebuild serves only
        # the steps taken outside runs.
        rebuilds = []
        rebuild = reductions._rebuild
        monkeypatch.setattr(
            reductions, "_rebuild", lambda *args, **kw: rebuilds.append(args) or rebuild(*args, **kw)
        )
        runs = spy_on_runs(monkeypatch)
        saved = 0
        for inst in _planted_instances():
            for observer in (None, lambda *event: None):
                rebuilds.clear()
                runs.clear()
                steps = kernelize(inst, observer).trace.steps
                applied = sum(1 for s in steps if s.rule <= 5)
                in_runs = sum(len(taken) for taken, _ in runs)
                assert len(rebuilds) == applied - in_runs
                saved += in_runs
        assert saved > 1000, saved

    @staticmethod
    def chain():
        """An instance on which rule 2 removes ``(0, 1, 2)`` and then, in a
        run, ``(0, 1, 3)``; no vertex is ever dominated."""
        edges = [(0, 1), (0, 1, 2), (0, 1, 3), (0, 6), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5)]
        return Instance(Hypergraph(7, tuple(edges), 3), 3, labels=tuple("abcdefg"))

    @staticmethod
    def shrinking():
        """A labelled instance on which rule 1 declines and rule 2 removes
        ``abc``. The run that follows removes ``c`` (rule 1, shrinking
        ``cd`` to ``d``), ``de`` (rule 2) and ``d`` (rule 3), and hands the
        triangle ``ab``, ``ae``, ``be`` at ``k = 1`` to rule 4, which
        contracts ``ab`` and ``ae`` into ``a``. The run after that removes
        ``b`` (rule 1) and ``a`` (rule 3) and ends at ``k = 0`` with the
        edge ``e`` left: no."""
        edges = ["ab", "abc", "ae", "be", "cd", "de"]
        return normalize(edges, 3, 2)

    def test_a_run_builds_its_successor_once_and_resumes_at_rule4(self, monkeypatch):
        inst = self.chain()
        assert not rule1_vertex_domination(inst).applied
        outcome = rule2_edge_domination(inst)
        builds = []
        compacted = reductions._compacted
        monkeypatch.setattr(reductions, "_compacted", lambda *a: builds.append(a) or compacted(*a))
        trace = ReductionTrace()
        after, first = reductions._run_in_place(outcome.new_instance, outcome.hints, trace, 1)
        kept = [e for e in inst.edges if e not in ((0, 1, 2), (0, 1, 3))]
        expected = naive_successor(inst, kept, inst.k)
        assert after == expected and after.labels == expected.labels
        assert len(builds) == 1
        assert first == 4
        assert trace.steps == [TraceStep(2, 0, 1, 0, 0)]
        assert trace.attempts == {1: 2, 2: 2, 3: 1, 4: 0, 5: 0, 6: 0}

    def test_a_run_that_removes_vertices_keeps_the_observer_paths_labels(self, monkeypatch):
        runs = spy_on_runs(monkeypatch)
        inst = self.shrinking()
        fast, slow = kernelize(inst), kernelize(inst, lambda *event: None)
        assert_same_result(fast, slow, inst)
        removal, shrink = TraceStep(2, 0, 1, 0, 0), TraceStep(1, 1, 1, 1, 0)
        unit, contraction = TraceStep(3, 1, 1, 0, -1), TraceStep(4, 0, 2, 1, 0)
        assert fast.trace.steps == [removal, shrink, removal, unit, contraction, shrink, unit]
        assert runs == [([shrink, removal, unit], 4), ([shrink, unit], 1)]
        assert fast.verdict == "no"
        assert fast.instance.edges == ((0,),) and fast.instance.labels == ("e",)

    def test_a_run_checks_the_ceiling_after_each_step(self):
        # The run after the first step takes a rule-1, a rule-2 and a
        # rule-3 step; each is the last one recorded at its ceiling.
        inst = self.shrinking()
        assert not rule1_vertex_domination(inst).applied
        outcome = rule2_edge_domination(inst)
        for ceiling, rule in enumerate((1, 2, 3)):
            trace = ReductionTrace()
            with pytest.raises(InternalConsistencyError, match="iteration ceiling"):
                reductions._run_in_place(outcome.new_instance, outcome.hints, trace, ceiling)
            assert [s.rule for s in trace.steps] == [1, 2, 3][: ceiling + 1]
            assert trace.steps[-1].rule == rule

    def test_the_rule1_finder_reads_only_the_vertices_left(self):
        # Inside a run the removed vertices keep their ids and lie in no
        # edge. A full scan must skip them, not take the lowest for an
        # isolated vertex, and an isolated candidate is dominated only when
        # another vertex is left. Under kernelize no vertex left in a run is
        # ever in no edge, so only a direct call reaches either case.
        edges = [(1, 3), (1, 4), (3, 4), (4, 5)]
        assert reductions._dominated(edges, 6, None, ()) == (0, None)
        assert reductions._dominated(edges, 6, None, {0, 2}) == (5, [])
        assert reductions._dominated((), 3, [2], ()) == (2, [])
        assert reductions._dominated((), 3, [2], {0, 1}) is None

    def test_a_dominated_candidate_is_removed_inside_the_run(self):
        # Rule 2 removes (0, 1, 2), leaving vertex 2 dominated by 3: the
        # run counts rule 1's attempt and removes it in place, shrinking
        # (2, 3) to (3,), which the instance lacked.
        inst = inst_of([(0, 1), (0, 1, 2), (0, 3), (1, 3), (2, 3)], 2)
        assert not rule1_vertex_domination(inst).applied
        outcome = rule2_edge_domination(inst)
        assert outcome.hints[1] == (2,)
        trace = ReductionTrace()
        reductions._run_in_place(outcome.new_instance, outcome.hints, trace, 100)
        assert trace.steps[0] == TraceStep(1, 1, 1, 1, 0)
        assert trace.attempts[1] >= 1
        slow = kernelize(inst, lambda *event: None)
        assert [outcome.step] + trace.steps == slow.trace.steps[: len(trace.steps) + 1]


def check_fields_only(successor) -> None:
    """``successor``'s hypergraph holds its fields and nothing derived."""
    assert vars(successor.hypergraph).keys() == {"n", "edges", "d"}


class TestSuccessorAgainstFullRebuild:
    """``Instance.successor`` checks only the edges its parent lacks and
    merges the rest in order; renumbering and rebuilding every edge from
    scratch must give the same instance, edge order included, on every call
    the controller makes. The successor inherits no cache."""

    def test_successors_hold_only_their_fields_on_every_resume_run(self, monkeypatch):
        original = Instance.successor
        seen = {"kept ids": 0, "renumbered": 0}

        def checked(self, drop, add, k, removed=frozenset()):
            got = original(self, drop, add, k, removed)
            check_fields_only(got)
            seen["renumbered" if removed else "kept ids"] += 1
            return got

        monkeypatch.setattr(Instance, "successor", checked)
        for inst in _resume_instances():
            kernelize(inst)
        assert min(seen.values()) > 100, seen

    def test_every_call_equals_the_full_rebuild(self, monkeypatch):
        original = Instance.successor
        calls = {d: 0 for d in (3, 4, 5, 6)}

        def checked(self, drop, add, k, removed=frozenset()):
            drop, add = list(drop), list(add)
            got = original(self, drop, add, k, removed)
            check_fields_only(got)
            edges = [e for e in self.edges if e not in drop] + add
            expected = naive_successor(self, edges, k, removed)
            assert got == expected, (self, drop, add, k, removed)
            assert got.comments == expected.comments
            calls[self.d] += 1
            return got

        monkeypatch.setattr(Instance, "successor", checked)
        rng = random.Random(2024)
        instances = [random_rule_instance(rng) for _ in range(6000)]
        instances += [one_size_rule_instance(rng) for _ in range(1000)]
        instances += [
            generate(
                GenSpec(
                    seed=90_000 + trial,
                    n=rng.randint(d, 20),
                    m=rng.randint(4, 40),
                    d=d,
                    k=rng.randint(1, 4),
                    planted=rng.choice((None, 2)),
                )
            )
            for trial in range(40)
            for d in (3, 4, 5, 6)
        ]
        for seed in range(3):
            instances += [
                petal_cycle_instance(seed, 2),
                mixed_crown_instance(seed, 2),
                blob_instance(seed, 1),
                blob4_instance(seed, 1),
                double_star_instance(seed, 2),
            ]
        applied = dict.fromkeys(range(1, 7), 0)
        for inst in instances:
            for step in kernelize(inst).trace.steps:
                applied[step.rule] += step.vertices_removed + step.edges_removed > 0
        assert all(calls.values()), calls
        assert all(applied.values()), applied


def test_an_edge_both_dropped_and_added_counts_as_neither():
    inst = inst_of([["a", "b", "c"], ["b", "c", "d"]], 2)
    kept = inst.edges[0]
    out = reductions._rebuild(inst, 4, [kept], [kept])
    assert out.new_instance == inst
    assert out.step == TraceStep(4, 0, 0, 0, 0)
    out = reductions._rebuild(inst, 4, inst.edges, [kept, kept[:2]])
    assert out.new_instance.edges == (kept[:2], kept)
    assert out.step == TraceStep(4, 0, 1, 1, 0)


def test_outcome_flags_and_lp_solves_are_read_off_the_events():
    inst = petal_cycle_instance(11, 2)
    step = TraceStep(6, 0, 0, 0, 0)
    declined, applied, concluded = RuleOutcome(), RuleOutcome(inst, step), RuleOutcome(step=step)
    assert (declined.applied, declined.verdict_no) == (False, False)
    assert (applied.applied, applied.verdict_no) == (True, False)
    assert (concluded.applied, concluded.verdict_no) == (False, True)
    with pytest.raises(TypeError):
        RuleOutcome(applied=True, new_instance=inst, step=step)
    trace = ReductionTrace(steps=[step, TraceStep(1, 1, 0, 0, 0), step])
    assert trace.lp_solves == trace.rule_counts()[6] == 2
    result = kernelize(mixed_crown_instance(8, 2))
    assert result.trace.lp_solves == result.trace.rule_counts()[6] >= 1


class TestRule3:
    def test_forced_vertex_decrements_budget(self):
        inst = inst_of([["a"], ["b", "c"]], 2)
        out = rule3_unit_edge(inst)
        assert out.applied
        assert out.new_instance.edges == ((0, 1),)
        assert out.new_instance.k == 1

    def test_budget_can_go_negative_then_controller_says_no(self):
        inst = inst_of([["a"]], 0)
        result = kernelize(inst)
        assert result.verdict == "no"

    def test_no_unit_edge(self):
        inst = inst_of([["a", "b"]], 1)
        assert not rule3_unit_edge(inst).applied

    def test_every_edge_through_the_forced_vertex_goes(self):
        # Called directly, rule 3 meets the superset {a, b} that rule 2
        # would have removed first; it drops that edge with the unit edge.
        inst = inst_of([["a"], ["a", "b"], ["b", "c"]], 2)
        out = rule3_unit_edge(inst)
        assert out.new_instance.edges == ((0, 1),)
        assert out.new_instance.labels == ("b", "c")
        assert out.new_instance.k == 1
        assert out.step == TraceStep(3, 1, 2, 0, -1)
        # The hint is the one for the controller's case, where the unit
        # edge is the only edge through its vertex: no rule-1 candidate,
        # and a rule-2 start at the parent's edge count with no edge set.
        assert out.hints == {1: (), 2: (3, frozenset(), 0)}
        assert decide_brute_force(inst) == decide_brute_force(out.new_instance)


class TestRule4:
    def test_three_disjoint_extensions_trigger(self):
        inst = inst_of(
            [["u", "a", "b"], ["u", "c", "dd"], ["u", "e2", "f"], ["a", "c", "e2"]], 2
        )
        out = rule4_high_degree_subedge(inst)
        assert out.applied
        reduced = out.new_instance
        assert set(len(e) for e in reduced.edges) == {1, 3}
        assert reduced.m == 2
        assert decide_brute_force(inst) == decide_brute_force(reduced)

    def test_two_extensions_insufficient(self):
        inst = inst_of([["u", "a", "b"], ["u", "c", "dd"]], 2)
        assert not rule4_high_degree_subedge(inst).applied

    def test_mixed_singleton_and_pair_extensions(self):
        inst = inst_of([["u", "a"], ["u", "b", "c"], ["u", "d2", "e2"]], 2)
        out = rule4_high_degree_subedge(inst)
        assert out.applied
        assert (0,) in out.new_instance.edges  # u became an edge

    def test_d4_uses_two_vertex_subedges(self):
        edges = [["u", "w", "a", "b"], ["u", "w", "c", "dd"], ["u", "w", "e2", "f"]]
        inst = inst_of(edges, 2, d=4)
        out = rule4_high_degree_subedge(inst)
        assert out.applied
        assert (0, 1) in out.new_instance.edges


def _bracket_cases(inst):
    """The cases rule 4's bracket meets on ``inst``, from the first
    over-full (d-2)-subedge up to the one it applies: more than ``k``
    singles, a greedy maximal matching too small even doubled (upper skip)
    or large enough alone (lower apply), or neither (blossom)."""
    cases = set()
    k = inst.k
    h = inst.hypergraph
    for s, containing in subedge_groups(h.edges, h.d - 2).items():
        if len(containing) <= k:
            continue
        extensions = [tuple(v for v in e if v not in s) for e in containing]
        singles = {x[0] for x in extensions if len(x) == 1}
        pairs = [x for x in extensions if len(x) == 2]
        covered, greedy = set(), 0
        for u, v in pairs:
            if u not in covered and v not in covered:
                covered |= {u, v}
                greedy += 1
        if len(singles) > k:
            cases.add("singles alone")
        elif len(singles) + 2 * greedy <= k:
            cases.add("upper skip")
            continue
        elif len(singles) + greedy > k:
            cases.add("lower apply")
        else:
            cases.add("blossom")
            if naive_extension_packing(s, containing) <= k:
                continue
        return cases
    return cases


class TestRule4AgainstBlossomOnEveryGroup:
    """Rule 4 brackets each group's packing with a greedy maximal matching
    and runs the blossom only in between; a blossom on every over-full group
    must give the same decision, step and successor."""

    def test_same_outcome(self):
        rng = random.Random(404)
        starts = [
            generate(
                GenSpec(
                    seed=40_000 + trial,
                    n=rng.randint(5, 16),
                    m=rng.randint(4, 40),
                    d=d,
                    k=rng.randint(1, 4),
                    planted=rng.choice((None, 2)),
                )
            )
            for trial in range(60)
            for d in (3, 4, 5)
        ]
        for seed in range(3):
            starts += [
                petal_cycle_instance(seed, 2),
                mixed_crown_instance(seed, 2),
                blob_instance(seed, 1),
                blob4_instance(seed, 1),
                double_star_instance(seed, 2),
            ]
        cases = {"singles alone": 0, "upper skip": 0, "lower apply": 0, "blossom": 0}
        applied = {3: 0, 4: 0, 5: 0}
        for start in starts:
            # Every state of the run, so rule 4 also meets the instances the
            # controller hands it after rules 1 to 3 decline.
            states = [start]
            kernelize(start, lambda rule, before, out: states.append(out.new_instance))
            for inst in states:
                if inst is None:
                    continue
                out = rule4_high_degree_subedge(inst)
                expected = naive_rule4(inst)
                assert out.applied == (expected is not None) and not out.verdict_no, inst
                if expected is not None:
                    _, step, successor = expected
                    assert out.step == step
                    assert out.new_instance == successor
                    applied[inst.d] += 1
                for case in _bracket_cases(inst):
                    cases[case] += 1
        assert all(cases.values()), cases
        assert all(applied.values()), applied


class TestRule5:
    def test_overloaded_single_vertex_fires(self):
        inst = inst_of([["u", "a", "b"], ["u", "c", "dd"]], 1)
        out = rule5_weakly_related_counting(inst)
        assert out.applied
        assert out.new_instance.edges == ((0,),)
        assert out.new_instance.k == 1
        assert decide_brute_force(inst) == decide_brute_force(out.new_instance)

    def test_threshold_not_exceeded_is_a_recorded_noop(self):
        inst = inst_of([["u", "a", "b"], ["u", "c", "dd"]], 2)
        out = rule5_weakly_related_counting(inst)
        assert out.applied
        assert out.new_instance.edges == inst.edges
        assert out.step.edges_removed == 0 and out.step.edges_added == 0

    def test_empty_edge_set(self):
        inst = Instance(Hypergraph(2, (), 3), 1)
        out = rule5_weakly_related_counting(inst)
        assert out.applied
        assert out.new_instance.m == 0

    def test_a_noop_goes_through_rebuild(self, monkeypatch):
        inst = inst_of([["u", "a", "b"], ["u", "c", "dd"]], 2)
        rebuilt = []
        rebuild = reductions._rebuild

        def spy(*args, **kwargs):
            out = rebuild(*args, **kwargs)
            rebuilt.append(out)
            return out

        monkeypatch.setattr(reductions, "_rebuild", spy)
        out = rule5_weakly_related_counting(inst)
        assert rebuilt == [out]
        assert out.new_instance is inst
        assert out.step == TraceStep(5, 0, 0, 0, 0)

    @pytest.mark.parametrize("k", [1, 2])  # applied, no-op
    def test_no_application_hands_on_hints(self, k):
        inst = inst_of([["u", "a", "b"], ["u", "c", "dd"]], k)
        out = rule5_weakly_related_counting(inst)
        assert out.applied
        assert (out.new_instance is inst) == (k == 2)
        assert out.hints == {}

    def test_d4_two_level_counting(self):
        inst = double_star_instance(3, 2)
        out = rule5_weakly_related_counting(inst)
        assert out.applied
        assert (0,) in out.new_instance.edges and (1,) in out.new_instance.edges
        assert decide_brute_force(inst, ceiling=40) == decide_brute_force(
            out.new_instance, ceiling=40
        )

    def test_subedge_sizes_stop_at_the_longest_family_member(self, monkeypatch):
        # Six disjoint 4-cliques of triples under a huge declared d: no group
        # has more than 3 vertices, so only sizes 3, 2 and 1 are grouped.
        edges = [
            [f"{c}{v}" for v in triple]
            for c in "abcdef"
            for triple in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
        ]
        inst = inst_of(edges, 2, d=10_000)
        sizes = []

        def counted(edges, size):
            sizes.append(size)
            return subedge_groups(edges, size)

        monkeypatch.setattr(reductions, "subedge_groups", counted)
        out = rule5_weakly_related_counting(inst)
        assert sizes == [3, 2, 1]
        assert out.applied and out.new_instance is inst

    def test_kernelize_never_adds_a_subedge_of_size_d_minus_2_or_more(self):
        # Rule 5 runs only after rule 4 declined on the same instance, and
        # family members through a (d-2)-subedge pairwise meet exactly in
        # it, so at most k of them hold it: the largest size never fires.
        # At d = 3 that is the only size. At d = 3 larger budgets end more
        # runs in a kernel, where rule 5 runs; at d >= 4 small budgets keep
        # its thresholds low enough to fire.
        rng = random.Random(2205)
        instances = []
        for trial in range(800):
            d = 3 + trial % 4
            n = rng.randint(10, 40)
            k = rng.randint(3, 10) if d == 3 else rng.randint(1, 4)
            spec = GenSpec(seed=220_000 + trial, n=n, m=rng.randint(n, 3 * n), d=d, k=k)
            instances.append(generate(spec))
        for seed in range(4):
            instances += [
                double_star_instance(seed, 2),
                blob4_instance(seed, 1),
                petal_cycle_instance(seed, 2, d=4),
                petal_cycle_instance(seed, 2, d=5),
            ]
        steps = dict.fromkeys(range(3, 7), 0)
        sizes = {d: set() for d in range(3, 7)}

        def observe(rule, before, outcome):
            if rule != 5:
                return
            steps[before.d] += 1
            added = set(outcome.new_instance.edges) - set(before.edges)
            sizes[before.d].update(map(len, added))
            if before.d == 3:
                assert outcome.new_instance is before, before

        for inst in instances:
            kernelize(inst, observe)
        assert all(max(sizes[d], default=0) <= d - 3 for d in sizes), sizes
        # The sweep reaches rule 5 at every d, and at d >= 4 it fires up to
        # the largest size allowed.
        assert min(steps.values()) >= 50, steps
        assert all(d - 3 in sizes[d] for d in (4, 5, 6)), sizes

    def test_family_equals_the_pairwise_scan(self):
        rng = random.Random(55)
        seen = {"short edge joins": 0, "edge refused": 0}
        for trial in range(2000):
            d = (3, 4, 5, 6)[trial % 4]
            n = rng.randint(d, 12)
            edges = tuple(
                tuple(rng.sample(range(n), rng.randint(1, d))) for _ in range(rng.randint(1, 30))
            )
            h = Hypergraph(n, edges, d)
            family = weakly_related_family(h)
            assert family == naive_weakly_related_family(h), h
            seen["short edge joins"] += any(len(e) < d - 1 for e in family)
            seen["edge refused"] += len(family) < h.m
        assert all(seen.values()), seen

    def test_greedy_family_is_maximal_and_weakly_related(self):
        rng = random.Random(7)
        for trial in range(40):
            inst = generate(
                GenSpec(seed=trial, n=rng.randint(4, 12), m=rng.randint(2, 14), d=3, k=1)
            )
            h = inst.hypergraph
            fam = weakly_related_family(h)
            members = [set(e) for e in fam]
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    assert len(a & b) <= h.d - 2
            for e in h.edges:
                if e not in fam:
                    assert any(len(set(e) & b) > h.d - 2 for b in members)


class TestRule6:
    def test_below_threshold_not_applied(self):
        k = 1
        n = vertex_bound(3, k)  # exactly at the bound: threshold needs one more
        edges = tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(n // 3))
        inst = Instance(Hypergraph(n, edges, 3), k)
        out = rule6_lp_crown(inst)
        assert not out.applied and not out.verdict_no

    def test_yes_instance_above_threshold_yields_valid_strict_crown(self):
        inst = petal_cycle_instance(11, 2)
        assert inst.n > vertex_bound(3, 2)
        out = rule6_lp_crown(inst)
        assert out.applied
        assert out.crown is not None and out.crown.crown
        verdict = validate_hs_crown(inst.hypergraph, out.crown)
        assert verdict.valid and verdict.strict
        assert out.new_instance.n < inst.n
        assert decide_brute_force(inst, ceiling=60) == decide_brute_force(
            out.new_instance, ceiling=60
        )

    def test_successor_equals_crown_application(self):
        applications = []

        def observer(rule, before, outcome):
            if rule == 6 and outcome.applied:
                applications.append((before, outcome))

        for seed in range(4):
            for family in (petal_cycle_instance, mixed_crown_instance):
                kernelize(family(seed, 3), observer=observer)
        assert applications
        for before, outcome in applications:
            assert outcome.new_instance == apply_hs_crown(before, outcome.crown)

    @pytest.mark.parametrize("d, k", [(4, 2), (4, 3), (5, 2), (5, 3), (6, 2)])
    def test_crowns_above_d3_are_valid_and_keep_the_decision(self, d, k):
        for seed in range(2):
            for family, answer in ((petal_cycle_instance, True), (mixed_crown_instance, False)):
                inst = family(seed, k, d)
                assert inst.n > vertex_bound(d, k)
                crowns = []

                def observer(rule, before, outcome):
                    if rule == 6 and outcome.applied:
                        crowns.append((before, outcome))

                result = kernelize(inst, observer)
                assert crowns, (family.__name__, seed)
                for before, outcome in crowns:
                    verdict = validate_hs_crown(before.hypergraph, outcome.crown)
                    assert verdict.valid and verdict.strict and outcome.crown.crown
                    assert outcome.new_instance == apply_hs_crown(before, outcome.crown)
                assert decide_brute_force(inst, ceiling=inst.n) is answer
                kernel = result.instance
                assert decide_brute_force(kernel, ceiling=kernel.n) is answer

    def test_step_counts_when_the_head_overlaps_the_edges(self):
        # Rule 6 counts its step off its crown: the head subedges the
        # instance lacks are added, the rest of the change in the edge count
        # is removed. Under kernelize rule 2 declines only when no head
        # subedge is an edge, so add one of the crown's head subedges as an
        # edge and call the rule directly; recount on the labels.
        def label_edges(inst):
            return {frozenset(inst.labels[v] for v in e) for e in inst.edges}

        overlapping = 0
        for seed in range(20):
            for family in (petal_cycle_instance, mixed_crown_instance):
                inst = family(seed, 2)
                y = min(rule6_lp_crown(inst).crown.head)
                names = [f"v{v}" for v in range(inst.n)]
                raw = [[names[v] for v in e] for e in (*inst.edges, y)]
                before = normalize(raw, inst.d, inst.k, labels=names)
                out = rule6_lp_crown(before)
                assert out.applied, (family.__name__, seed)
                after = out.new_instance
                old, new = label_edges(before), label_edges(after)
                assert out.step == TraceStep(
                    6, len(set(before.labels) - set(after.labels)), len(old - new), len(new - old), 0
                )
                overlapping += out.step.edges_added < len(out.crown.head)
        assert overlapping

    def test_no_lp_under_kernelize_has_a_lone_variable_row(self):
        # Under kernelize rule 6 runs only once rules 1 and 3 decline, and
        # only above the kernel bound, so n >= 2: no edge has fewer than two
        # vertices, and every vertex lies in an edge. The crown LP then
        # keeps one tableau row per edge, and no variable gets the row of
        # its one-vertex edge. The seeded generate sweeps of the kernel
        # digests never reach rule 6 (the earlier rules end each run first),
        # so the crown families carry the check, their seeds drawn from one
        # seeded generator as the bench draws them.
        rng = random.Random(1)
        instances = [
            family(rng.getrandbits(63), k)
            for family in (petal_cycle_instance, mixed_crown_instance)
            for k in (2, 3, 4)
            for _ in range(3)
        ]
        instances += [blob_instance(rng.getrandbits(63), k) for k in (1, 2, 4)]
        instances += [blob4_instance(rng.getrandbits(63), k) for k in (1, 2)]
        instances += [
            family(seed, 2, d)
            for family in (petal_cycle_instance, mixed_crown_instance)
            for d in (4, 5)
            for seed in range(2)
        ]
        events = []

        def observer(rule, before, outcome):
            if rule == 6:
                events.append((before.hypergraph, outcome.lp_solution))

        for inst in instances:
            kernelize(inst, observer)
        assert len(events) >= len(instances)
        for h, solution in events:
            assert min(map(len, h.edges)) >= 2
            assert {v for e in h.edges for v in e} == set(range(h.n))
            assert len(solution.basis) == len(h.edges)

    def test_no_instance_with_fractional_optimum_concludes_no(self):
        inst = blob_instance(5, 1)
        out = rule6_lp_crown(inst)
        assert out.verdict_no and not out.applied
        assert decide_brute_force(inst, ceiling=60) is False


class TestPaperThresholdBand:
    """The paper's threshold ``(2d-2)k^(d-1) + k`` against Abu-Khzam's
    ``(2d-1)k^(d-1) + k``: rule 6 declines at the bound and acts from one
    vertex above it up to the top of the band, where only the paper's
    threshold acts. The exact oracle checks each decision."""

    CASES = [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2)]

    @staticmethod
    def band(d, k):
        return vertex_bound(d, k), (2 * d - 1) * k ** (d - 1) + k

    @staticmethod
    def answer(result):
        """The engine's decision: its verdict, or the oracle's on its kernel."""
        if result.verdict == "kernel":
            return decide_brute_force(result.instance, ceiling=result.instance.n)
        return result.verdict == "yes"

    @pytest.mark.parametrize("d, k", CASES)
    def test_petals_at_the_bound_above_it_and_at_the_top_of_the_band(self, d, k):
        bound, top = self.band(d, k)
        for n in (bound, bound + 1, top):
            inst = petal_cycle_instance(0, k, d, petals=n - (d - 1) * k)
            assert inst.n == n
            out = rule6_lp_crown(inst)
            result = kernelize(inst)
            expected = decide_brute_force(inst, ceiling=n)
            assert expected is True
            if n == bound:
                assert out == RuleOutcome()
                assert result.verdict == "kernel"
            else:
                assert out.applied, n
                verdict = validate_hs_crown(inst.hypergraph, out.crown)
                assert verdict.valid and verdict.strict and out.crown.crown
                successor = out.new_instance
                assert decide_brute_force(successor, ceiling=successor.n) is expected
            assert self.answer(result) is expected, n

    @pytest.mark.parametrize(
        "d, k, family",
        [
            (3, 2, blob_instance),
            (3, 3, blob_instance),
            (4, 2, blob4_instance),
            (4, 3, blob4_instance),
        ],
    )
    def test_blobs_in_the_band_conclude_no(self, d, k, family):
        bound, top = self.band(d, k)
        inst = family(0, k, blobs=bound // (d + 1) + 1)
        assert bound < inst.n <= top
        out = rule6_lp_crown(inst)
        assert out.verdict_no and not out.applied
        assert kernelize(inst).verdict == "no"
        assert decide_brute_force(inst, ceiling=inst.n) is False


class TestHugeDeclaredD:
    """At a huge declared ``d`` the kernel bound and rule 5's thresholds
    have millions of digits; the comparisons that use them must not build
    them when the instance is far smaller."""

    def test_exceeds_power_equals_the_plain_comparison(self):
        for x in range(-5, 300):
            for k in range(-3, 7):
                for e in range(0, 10):
                    assert exceeds_power(x, k, e) == (x > k**e), (x, k, e)
        for n in range(0, 301):
            for d in range(3, 9):
                for k in range(-2, 7):
                    assert exceeds_bound(n, d, k) == (n > vertex_bound(d, k)), (n, d, k)

    def test_a_huge_d_never_builds_the_bound(self, monkeypatch):
        def triangle(d):
            return normalize([["a", "b"], ["b", "c"], ["a", "c"]], d, 5)

        expected = kernelize(triangle(60))
        calls = []
        monkeypatch.setattr(
            reductions, "vertex_bound", lambda d, k: calls.append((d, k)) or 0
        )
        result = kernelize(triangle(10**6))
        assert calls == []
        assert result.verdict == expected.verdict == "kernel"
        assert result.trace == expected.trace
        assert result.trace.steps == [TraceStep(5, 0, 0, 0, 0)]
        assert result.instance.edges == expected.instance.edges

    def test_no_combinations_call_on_an_edge_shorter_than_the_subset(self, monkeypatch):
        calls = []

        def spy(e, r):
            calls.append((len(e), r))
            return combinations(e, r)

        monkeypatch.setattr(core, "combinations", spy)
        monkeypatch.setattr(reductions, "combinations", spy)
        rng = random.Random(13)
        for _ in range(200):
            d = rng.randint(3, 8)
            n = rng.randint(d, 10)
            edges = tuple(
                tuple(rng.sample(range(n), rng.randint(1, d))) for _ in range(rng.randint(1, 20))
            )
            h = Hypergraph(n, edges, d)
            assert weakly_related_family(h) == naive_weakly_related_family(h), h
            for size in range(1, d + 1):
                expected = {
                    s: [e for e in h.edges if set(s) <= set(e)]
                    for s in sorted({s for e in h.edges for s in combinations(e, size)})
                }
                assert subedge_groups(h.edges, size) == expected, (h, size)
        result = kernelize(normalize([["a", "b"], ["b", "c"], ["a", "c"]], 8, 5))
        assert result.verdict == "kernel" and result.instance.m == 3
        assert calls
        assert all(r <= length for length, r in calls), max(calls, key=lambda c: c[1] - c[0])


class TestKernelize:
    def test_empty_instance_is_yes(self):
        assert kernelize(Instance(Hypergraph(0, (), 3), 0)).verdict == "yes"

    def test_three_disjoint_pairs_budget_one_is_no(self):
        inst = inst_of([["a", "b"], ["c", "dd"], ["e2", "f"]], 1)
        result = kernelize(inst)
        assert result.verdict == "no"
        assert decide_brute_force(inst) is False

    def test_negative_budget_is_no(self):
        assert kernelize(Instance(Hypergraph(2, ((0, 1),), 3), -1)).verdict == "no"

    def test_empty_edge_is_no(self):
        inst = normalize([[], ["a", "b"]], 3, 5)
        assert kernelize(inst).verdict == "no"

    def test_generated_instances_match_oracle(self):
        rng = random.Random(9)
        for trial in range(150):
            spec = GenSpec(
                seed=90_000 + trial,
                n=rng.randint(4, 18),
                m=rng.randint(1, 24),
                d=3,
                k=rng.randint(1, 4),
                planted=rng.choice((None, None, 2)),
            )
            inst = generate(spec)
            expected = decide_brute_force(inst)
            result = kernelize(inst)
            if result.verdict == "kernel":
                got = decide_brute_force(result.instance)
            else:
                got = result.verdict == "yes"
            assert got == expected, f"disagreement for {spec}"

    def test_decisions_match_oracle_at_d5_and_d6(self):
        # The engine and its bound cover every d >= 3, not only d in {3, 4}.
        for d in (5, 6):
            rng = random.Random(d)
            verdicts = set()
            for trial in range(400):
                spec = GenSpec(
                    seed=100_000 * d + trial,
                    n=rng.randint(d, 18),
                    m=rng.randint(1, 40),
                    d=d,
                    k=rng.randint(1, 3),
                    planted=rng.choice((None, None, 2)),
                )
                inst = generate(spec)
                expected = decide_brute_force(inst)
                result = kernelize(inst)
                final = result.instance
                if result.verdict == "kernel":
                    assert final.n <= vertex_bound(final.d, final.k)
                    got = decide_brute_force(final)
                else:
                    got = result.verdict == "yes"
                assert got == expected, f"disagreement for {spec}"
                verdicts.add(result.verdict)
            assert verdicts == {"kernel", "yes", "no"}, d

    def test_rule5_called_right_after_a_rule5_step_at_d5(self):
        # Rule 5 changes edges, rules 1-4 decline, and rule 5 is called right
        # after itself and records a no-op, after which rule 6 declines and
        # the run ends in a kernel; no d in {3, 4} input is known to make
        # rule 5 follow itself.
        inst = generate(GenSpec(seed=1423, n=11, m=27, d=5, k=2))
        result = kernelize(inst)
        reference = naive_kernelize(inst)
        assert result.verdict == reference.verdict == "kernel"
        assert result.instance == reference.instance
        assert result.trace.steps == reference.trace.steps
        assert result.trace.steps == [TraceStep(2, 0, 1, 0, 0)] * 7 + [
            TraceStep(5, 0, 5, 1, 0),
            TraceStep(5, 0, 0, 0, 0),
        ]
        assert result.trace.attempts == {1: 9, 2: 9, 3: 2, 4: 2, 5: 2, 6: 1}

    def test_rule5_fires_right_after_a_rule5_step_at_d5(self):
        # Rule 5 changes edges and, called right after itself on the
        # successor, changes edges again; the run then ends in no. A rule 5
        # that declined right after itself left a 16-vertex kernel here.
        inst = generate(GenSpec(seed=5153096, n=16, m=52, d=5, k=2))
        result = kernelize(inst)
        assert [s for s in result.trace.steps if s.rule == 5] == [
            TraceStep(5, 0, 5, 1, 0),
            TraceStep(5, 0, 9, 1, 0),
        ]
        assert result.verdict == "no"
        assert decide_brute_force(inst) is False

    def test_input_decision_matches_oracle_above_the_ceiling(self):
        # The oracle is a search tree of depth k: its cost does not grow with
        # n, so an explicit ceiling lets it decide every input here.
        instances = [
            generate(GenSpec(seed=seed, n=64, m=320, d=3, k=6, planted=6 if seed <= 6 else None))
            for seed in range(1, 11)
        ]
        for family in (
            petal_cycle_instance,
            mixed_crown_instance,
            blob_instance,
            blob4_instance,
            double_star_instance,
        ):
            instances += [family(seed, k) for seed in (1, 2) for k in (2, 3)]
        instances.append(generate(GenSpec(seed=1, n=300, m=900, d=3, k=6, planted=6)))
        verdicts = set()
        for inst in instances:
            expected = decide_brute_force(inst, ceiling=inst.n)
            result = kernelize(inst)
            final = result.instance
            if result.verdict == "kernel":
                got = decide_brute_force(final, ceiling=final.n)
            else:
                got = result.verdict == "yes"
            assert got == expected, f"disagreement on {inst.comments or (inst.n, inst.m, inst.k)}"
            verdicts.add(result.verdict)
        assert verdicts == {"kernel", "yes", "no"}

    def test_kernel_bound_holds(self):
        rng = random.Random(10)
        instances = [petal_cycle_instance(seed, 2) for seed in range(12)]
        for trial in range(120):
            spec = GenSpec(
                seed=50_000 + trial,
                n=rng.randint(12, 20),
                m=rng.randint(8, 30),
                d=rng.choice((3, 4)),
                k=rng.randint(1, 4),
                planted=rng.choice((None, None, 2)),
            )
            instances.append(generate(spec))
        kernels = 0
        for inst in instances:
            result = kernelize(inst)
            if result.verdict == "kernel":
                kernels += 1
                final = result.instance
                assert final.n <= vertex_bound(final.d, final.k)
        assert kernels >= 15

    def test_trace_deltas_reconcile(self):
        for seed, k, family in ((1, 2, petal_cycle_instance), (2, 1, blob_instance)):
            inst = family(seed, k)
            result = kernelize(inst)
            n = inst.n
            m = inst.m
            k_now = inst.k
            for step in result.trace.steps:
                n -= step.vertices_removed
                m += step.edges_added - step.edges_removed
                k_now += step.k_delta
            assert (n, m, k_now) == (
                result.instance.n,
                result.instance.m,
                result.instance.k,
            )

    def test_trace_counts_equal_label_set_differences(self):
        # _rebuild counts the added edges the parent lacks and takes the
        # rest of the change in the edge count as removed, trusting every
        # rule to hand it canonical edges; recount both on the labels. A
        # non-canonical added edge miscounts when it stands for an edge
        # already there (or given twice), which this comparison catches.
        def labelled(inst):
            names = [f"v{v}" for v in range(inst.n)]
            raw = [[names[v] for v in e] for e in inst.edges]
            return normalize(raw, inst.d, inst.k, labels=names)

        def label_edges(inst):
            return {frozenset(inst.labels[v] for v in e) for e in inst.edges}

        steps = {r: 0 for r in range(1, 7)}

        def observer(rule, before, outcome):
            if outcome.verdict_no:
                return
            after = outcome.new_instance
            old, new = label_edges(before), label_edges(after)
            step = outcome.step
            assert step.edges_removed == len(old - new)
            assert step.edges_added == len(new - old)
            assert step.vertices_removed == len(set(before.labels) - set(after.labels))
            assert step.k_delta == after.k - before.k
            steps[rule] += 1

        rng = random.Random(12)
        instances = []
        for trial in range(120):
            spec = GenSpec(
                seed=60_000 + trial,
                n=rng.randint(6, 20),
                m=rng.randint(4, 40),
                d=rng.choice((3, 4)),
                k=rng.randint(1, 4),
                planted=rng.choice((None, 2)),
            )
            instances.append(generate(spec))
        for seed in range(3):
            instances += [
                petal_cycle_instance(seed, 2),
                mixed_crown_instance(seed, 2),
                blob_instance(seed, 1),
                blob4_instance(seed, 1),
                double_star_instance(seed, 2),
            ]
        for inst in instances:
            kernelize(labelled(inst), observer=observer)
        assert all(steps.values()), steps

    def test_progress_measure_strictly_decreases(self):
        events = []
        inst = petal_cycle_instance(3, 2)
        kernelize(inst, observer=lambda r, before, out: events.append((r, before, out)))
        for rule, before, out in events:
            if out.verdict_no:
                continue
            after = out.new_instance
            old = (before.n, before.m, sum(len(e) for e in before.edges))
            new = (after.n, after.m, sum(len(e) for e in after.edges))
            if rule == 5 and old == new:
                continue  # recorded no-op attempt
            assert new < old or after.k < before.k

    def test_rule5_noops_never_consecutive(self):
        # After a rule-5 no-op the next pass starts at rule 6, so no rule-5
        # event follows it. Rule 5 may follow a rule-5 step that changed
        # edges: the d = 5 instance does so.
        noop = TraceStep(5, 0, 0, 0, 0)
        repeats = 0
        for inst in (
            mixed_crown_instance(4, 2),
            generate(GenSpec(seed=5153096, n=16, m=52, d=5, k=2)),
        ):
            events = []
            kernelize(inst, observer=lambda r, b, o: events.append((r, o.step)))
            for (a, step), (b, _) in zip(events, events[1:]):
                assert not (a == 5 and step == noop and b == 5)
                repeats += a == b == 5
        assert repeats >= 1

    def test_same_run_as_the_reference_controller(self):
        # The controller skips rules 1-5 after a rule-5 no-op; the reference
        # tries them all again. Verdict, kernel, steps, LP work and every
        # observer event must agree. The d = 5, k = 2 draws make rule 5
        # follow a rule-5 step that changed edges; the oracle checks the
        # decision of each such run. A rule-2 hint carries the edge set its
        # scan read, which differs between the two runs only in edges that
        # are gone, so each event's set is cut down to the live edges.
        rng = random.Random(31)
        instances = [
            generate(
                GenSpec(
                    seed=80_000 + trial,
                    n=rng.randint(6, 24),
                    m=rng.randint(4, 40),
                    d=rng.choice((3, 4)),
                    k=rng.randint(1, 4),
                    planted=rng.choice((None, 2)),
                )
            )
            for trial in range(300)
        ]
        for trial in range(300):
            n = rng.randint(7, 16)
            spec = GenSpec(seed=81_000 + trial, n=n, m=rng.randint(n, 4 * n), d=5, k=2)
            instances.append(generate(spec))
        for seed in range(3):
            instances += [
                petal_cycle_instance(seed, 2),
                mixed_crown_instance(seed, 2),
                blob_instance(seed, 1),
                blob4_instance(seed, 1),
                double_star_instance(seed, 2),
            ]
        seen = {
            "rule-5 no-op then rule 6": 0,
            "rule 5 after a changing rule 5": 0,
            "kernel": 0,
            "yes": 0,
            "no": 0,
        }
        for inst in instances:
            events, reference_events = [], []
            result = kernelize(inst, lambda *event: events.append(event))
            reference = naive_kernelize(inst, lambda *event: reference_events.append(event))
            assert result.verdict == reference.verdict
            assert result.instance == reference.instance
            assert result.trace.steps == reference.trace.steps
            assert (result.trace.lp_solves, result.trace.lp_pivots) == (
                reference.trace.lp_solves,
                reference.trace.lp_pivots,
            )
            assert [(r, b, with_live_rule2_set(o)) for r, b, o in events] == [
                (r, b, with_live_rule2_set(o)) for r, b, o in reference_events
            ]
            seen[result.verdict] += 1
            steps = result.trace.steps
            seen["rule-5 no-op then rule 6"] += any(
                a == TraceStep(5, 0, 0, 0, 0) and b.rule == 6 for a, b in zip(steps, steps[1:])
            )
            if any(
                a.rule == b.rule == 5 and (a.edges_removed or a.edges_added)
                for a, b in zip(steps, steps[1:])
            ):
                seen["rule 5 after a changing rule 5"] += 1
                if result.verdict == "kernel":
                    got = decide_brute_force(result.instance)
                else:
                    got = result.verdict == "yes"
                assert got == decide_brute_force(inst), inst
        assert all(seen.values()), seen

    def test_rule6_runs_right_after_a_rule5_noop(self, monkeypatch):
        calls = []
        for name in (
            "rule1_vertex_domination",
            "rule2_edge_domination",
            "rule3_unit_edge",
            "rule4_high_degree_subedge",
            "rule5_weakly_related_counting",
            "rule6_lp_crown",
        ):
            rule = getattr(reductions, name)
            rule_id = int(name[4])

            def counted(*args, rule=rule, rule_id=rule_id):
                calls.append(rule_id)
                return rule(*args)

            monkeypatch.setattr(reductions, name, counted)
        result = kernelize(blob_instance(1, 1))
        assert result.verdict == "no"
        assert result.trace.steps[0] == TraceStep(5, 0, 0, 0, 0)
        assert [s.rule for s in result.trace.steps] == [5, 6]
        assert calls == [1, 2, 3, 4, 5, 6]
        assert result.trace.attempts == dict.fromkeys(range(1, 7), 1)

    def test_a_step_that_returns_its_instance_resumes_at_the_next_rule(self, monkeypatch):
        # On the triangle rules 1 to 4 decline, rule 5 is a no-op and rule 6
        # declines. A stand-in rule 4 that returns its own instance once
        # makes the next pass start at rule 5, so rules 1 to 4 run once.
        rule4 = reductions.rule4_high_degree_subedge
        calls = []

        def unchanged_once(inst):
            calls.append(inst)
            return RuleOutcome(inst, TraceStep(4, 0, 0, 0, 0)) if len(calls) == 1 else rule4(inst)

        monkeypatch.setattr(reductions, "rule4_high_degree_subedge", unchanged_once)
        inst = inst_of([["a", "b"], ["b", "c"], ["a", "c"]], 5)
        result = kernelize(inst)
        assert result.verdict == "kernel"
        assert result.instance is inst
        assert result.trace.steps == [TraceStep(4, 0, 0, 0, 0), TraceStep(5, 0, 0, 0, 0)]
        assert result.trace.attempts == dict.fromkeys(range(1, 7), 1)
        assert len(calls) == 1

    def test_rule_order_respected(self):
        # No rule fires while a lower-numbered one is applicable.
        checkers = {
            2: (rule1_vertex_domination,),
            3: (rule1_vertex_domination, rule2_edge_domination),
            4: (rule1_vertex_domination, rule2_edge_domination, rule3_unit_edge),
            5: (
                rule1_vertex_domination,
                rule2_edge_domination,
                rule3_unit_edge,
                rule4_high_degree_subedge,
            ),
            6: (
                rule1_vertex_domination,
                rule2_edge_domination,
                rule3_unit_edge,
                rule4_high_degree_subedge,
            ),
        }
        samples = []
        inst = mixed_crown_instance(8, 2)
        kernelize(inst, observer=lambda r, before, out: samples.append((r, before)))
        for trial in range(30):
            gen = generate(GenSpec(seed=7_000 + trial, n=12, m=14, d=3, k=2))
            kernelize(gen, observer=lambda r, before, out: samples.append((r, before)))
        assert samples
        for rule, before in samples:
            for earlier in checkers.get(rule, ()):
                assert not earlier(before).applied

    def test_iteration_ceiling_generous_but_finite(self):
        inst = petal_cycle_instance(6, 2)
        result = kernelize(inst)
        assert len(result.trace.steps) <= 3 * inst.n + 4 * inst.m + 4

    def test_iteration_ceiling_raises_after_exact_count(self, monkeypatch):
        # A rule that "applies" forever without changing anything must be
        # stopped after exactly 3n + 4m + 5 applications. It hands on a new
        # equal instance each time: a step that returns its own instance
        # moves the next pass on to the following rule.
        def stuck(inst):
            return RuleOutcome(new_instance=dataclasses.replace(inst), step=TraceStep(1, 0, 0, 0, 0))

        monkeypatch.setattr("hskernel.reductions.rule1_vertex_domination", stuck)
        inst = petal_cycle_instance(6, 2)
        events = []
        with pytest.raises(InternalConsistencyError, match="iteration ceiling"):
            kernelize(inst, observer=lambda r, b, o: events.append(r))
        assert len(events) == 3 * inst.n + 4 * inst.m + 5
        assert set(events) == {1}

    def test_exit_above_the_kernel_bound_is_an_internal_error(self, monkeypatch):
        # With rule 6 declining, no rule reduces the petals below the bound.
        monkeypatch.setattr(reductions, "rule6_lp_crown", lambda inst: RuleOutcome())
        inst = petal_cycle_instance(11, 2)
        assert inst.n > vertex_bound(3, 2)
        with pytest.raises(InternalConsistencyError, match="^exited above the kernel bound$"):
            kernelize(inst)

    def test_a_kernel_is_a_fixed_point(self):
        # Kernelizing a kernel again changes nothing: rules 1 to 4 decline,
        # rule 5 (free to run on a new call) is a no-op, and rule 6 declines.
        rng = random.Random(616)
        instances = []
        for trial in range(3000):
            d = rng.choice((3, 4, 5))
            n = rng.randint(d, 60)
            spec = GenSpec(
                seed=616_000 + trial,
                n=n,
                m=rng.randint(1, 3 * n),
                d=d,
                k=rng.randint(1, 4),
                planted=rng.choice((None, 3)),
            )
            instances.append(generate(spec))
        petals = [
            petal_cycle_instance(seed, k, d) for seed in range(10) for k, d in ((2, 3), (3, 3), (2, 4))
        ]
        kernels = {"generated": 0, "petal": 0}
        for family, inst in [("generated", i) for i in instances] + [("petal", i) for i in petals]:
            result = kernelize(inst)
            if result.verdict != "kernel":
                continue
            again = kernelize(result.instance)
            assert again.verdict == "kernel", inst
            assert again.instance == result.instance, inst
            assert again.trace.steps == [TraceStep(5, 0, 0, 0, 0)], inst
            kernels[family] += 1
        assert kernels["generated"] > 400 and kernels["petal"] > 20, kernels

    def test_kernel_exit_matches_bound_exactly_when_threshold_missed(self):
        k = 2
        inst = petal_cycle_instance(12, k)
        result = kernelize(inst)
        assert result.verdict == "kernel"
        assert result.instance.n <= vertex_bound(3, result.instance.k)


class TestMetamorphic:
    """Properties that need no oracle, at the benchmark's planted scale
    (64 vertices, 320 triples), far above the brute-force ceiling."""

    SPECS = [GenSpec(seed=s, n=64, m=320, d=3, k=6, planted=6) for s in range(3)] + [
        GenSpec(seed=s, n=64, m=320, d=3, k=14) for s in range(2)
    ]

    @staticmethod
    def relabelled(inst, rng):
        names = [f"x{v}" for v in range(inst.n)]
        rng.shuffle(names)
        raw = [[names[v] for v in e] for e in inst.edges]
        for e in raw:
            rng.shuffle(e)
        rng.shuffle(raw)
        return normalize(raw, inst.d, inst.k, labels=names)

    def test_relabelling_never_flips_a_decided_verdict(self):
        rng = random.Random(31)
        decided = set()
        for spec in self.SPECS:
            inst = generate(spec)
            verdicts = {kernelize(inst).verdict}
            verdicts |= {kernelize(self.relabelled(inst, rng)).verdict for _ in range(2)}
            assert not {"yes", "no"} <= verdicts, spec
            decided |= verdicts
        assert {"yes", "no"} <= decided

    def test_yes_at_k_is_never_no_at_k_plus_one(self):
        verdicts = set()
        for spec in self.SPECS:
            inst = generate(spec)
            sweep = [kernelize(inst.with_k(k)).verdict for k in range(spec.k - 2, spec.k + 3)]
            for low, high in zip(sweep, sweep[1:]):
                assert not (low == "yes" and high == "no"), (spec, sweep)
            verdicts.update(sweep)
        assert verdicts == {"yes", "no", "kernel"}
