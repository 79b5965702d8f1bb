import random

import pytest

from hskernel import reductions
from hskernel.core import Hypergraph, Instance, normalize, subedge_groups
from hskernel.crown import apply_hs_crown, validate_hs_crown
from hskernel.errors import InternalConsistencyError
from hskernel.oracle import GenSpec, decide_brute_force, generate
from hskernel.reductions import (
    RuleOutcome,
    TraceStep,
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
    double_star_instance,
    mixed_crown_instance,
    naive_kernelize,
    naive_rule1_vertex,
    naive_rule2_edge,
    naive_extension_packing,
    naive_rule4,
    naive_weakly_related_family,
    one_size_rule_instance,
    petal_cycle_instance,
    random_rule_instance,
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
        out = rule5_weakly_related_counting(inst, last_rule=None)
        assert out.applied
        assert out.new_instance.edges == ((0,),)
        assert out.new_instance.k == 1
        assert decide_brute_force(inst) == decide_brute_force(out.new_instance)

    def test_threshold_not_exceeded_is_a_recorded_noop(self):
        inst = inst_of([["u", "a", "b"], ["u", "c", "dd"]], 2)
        out = rule5_weakly_related_counting(inst, last_rule=None)
        assert out.applied
        assert out.new_instance.edges == inst.edges
        assert out.step.edges_removed == 0 and out.step.edges_added == 0

    def test_empty_edge_set(self):
        inst = Instance(Hypergraph(2, (), 3), 1)
        out = rule5_weakly_related_counting(inst, last_rule=None)
        assert out.applied
        assert out.new_instance.m == 0

    def test_gated_when_it_just_ran(self):
        inst = inst_of([["u", "a", "b"], ["u", "c", "dd"]], 1)
        assert not rule5_weakly_related_counting(inst, last_rule=5).applied

    def test_d4_two_level_counting(self):
        inst = double_star_instance(3, 2)
        out = rule5_weakly_related_counting(inst, last_rule=None)
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
        out = rule5_weakly_related_counting(inst, last_rule=None)
        assert sizes == [3, 2, 1]
        assert out.applied and out.new_instance is inst

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

    def test_no_instance_with_fractional_optimum_concludes_no(self):
        inst = blob_instance(5, 1)
        out = rule6_lp_crown(inst)
        assert out.verdict_no and not out.applied
        assert decide_brute_force(inst, ceiling=60) is False


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
        # after itself and declines; no d in {3, 4} input is known to do this.
        inst = generate(GenSpec(seed=1423, n=11, m=27, d=5, k=2))
        result = kernelize(inst)
        reference = naive_kernelize(inst)
        assert result.verdict == reference.verdict == "kernel"
        assert result.instance == reference.instance
        assert result.trace.steps == reference.trace.steps
        assert result.trace.steps == [TraceStep(2, 0, 1, 0, 0)] * 7 + [TraceStep(5, 0, 5, 1, 0)]
        assert result.trace.attempts == {1: 9, 2: 9, 3: 2, 4: 2, 5: 2, 6: 1}

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
        # _rebuild takes edge deltas as plain set differences, trusting every
        # rule to hand it canonical edges; recount them on the labels. A
        # non-canonical edge miscounts when it stands for an edge already
        # there (or given twice), which this comparison catches.
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
        inst = mixed_crown_instance(4, 2)
        rules = []
        kernelize(inst, observer=lambda r, b, o: rules.append(r))
        for a, b in zip(rules, rules[1:]):
            assert not (a == 5 and b == 5)

    def test_same_run_as_the_reference_controller(self):
        # The controller skips rules 1-5 after a rule-5 no-op; the reference
        # tries them all again. Verdict, kernel, steps, LP work and every
        # observer event must agree.
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
        for seed in range(3):
            instances += [
                petal_cycle_instance(seed, 2),
                mixed_crown_instance(seed, 2),
                blob_instance(seed, 1),
                blob4_instance(seed, 1),
                double_star_instance(seed, 2),
            ]
        seen = {"rule-5 no-op then rule 6": 0, "kernel": 0, "yes": 0, "no": 0}
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
            assert events == reference_events
            seen[result.verdict] += 1
            steps = result.trace.steps
            seen["rule-5 no-op then rule 6"] += any(
                a == TraceStep(5, 0, 0, 0, 0) and b.rule == 6 for a, b in zip(steps, steps[1:])
            )
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
        # stopped after exactly 3n + 4m + 5 applications.
        def stuck(inst):
            return RuleOutcome(applied=True, new_instance=inst, step=TraceStep(1, 0, 0, 0, 0))

        monkeypatch.setattr("hskernel.reductions.rule1_vertex_domination", stuck)
        inst = petal_cycle_instance(6, 2)
        events = []
        with pytest.raises(InternalConsistencyError, match="iteration ceiling"):
            kernelize(inst, observer=lambda r, b, o: events.append(r))
        assert len(events) == 3 * inst.n + 4 * inst.m + 5
        assert set(events) == {1}

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
