"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
All tolerances are zero: decisions must match the exact oracle outright,
bounds hold with no slack, and LP checks use exact rational equality.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

from hskernel.core import Hypergraph, Instance, normalize
from hskernel.crown import HSCrown, apply_hs_crown, validate_hs_crown
from hskernel.lp import build_crown_lp, solve_exact
from hskernel.matching import (
    BipartiteGraph,
    SimpleGraph,
    blossom_max_matching,
    hopcroft_karp,
)
from hskernel.oracle import GenSpec, decide_brute_force, generate
from hskernel.reductions import (
    kernelize,
    rule1_vertex_domination,
    rule2_edge_domination,
    rule3_unit_edge,
    rule4_high_degree_subedge,
    rule5_weakly_related_counting,
    vertex_bound,
)

from helpers import (
    blob4_instance,
    blob_instance,
    double_star_instance,
    exhaustive_max_matching,
    mixed_crown_instance,
    petal_cycle_instance,
    petersen_edges,
    polytope_min_objective,
)

ORACLE_CEILING = 120  # structured crown instances exceed the default guard

SHOWCASE_EDGES = [["v1", "v2", "v4"], ["v1", "v2", "v5"], ["v2", "v3", "v4"], ["v2", "v3", "v5"]]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _engine_decision(result) -> bool:
    if result.verdict == "kernel":
        return decide_brute_force(result.instance, ceiling=ORACLE_CEILING)
    return result.verdict == "yes"


# ---------------------------------------------------------------------------
# criterion 1: kernel-size bound


def test_criterion_1_kernel_size_bound():
    start = time.perf_counter()
    rng = random.Random(101)

    d3: list[Instance] = []
    for k in (1, 2, 3, 4):
        petals = 0 if k == 1 else 20
        for i in range(petals):
            d3.append(petal_cycle_instance(1000 * k + i, k))
        for i in range(30 - petals // 2):
            d3.append(blob_instance(2000 * k + i, k))
        for i in range(50 - petals - (30 - petals // 2)):
            spec = GenSpec(
                seed=3000 * k + i,
                n=rng.randint(6, 8 * k + 8),
                m=rng.randint(4, 10 * k + 10),
                d=3,
                k=k,
                planted=rng.choice((None, None, min(k, 2))),
            )
            d3.append(generate(spec))
    assert len(d3) == 200

    d4: list[Instance] = []
    for k in (1, 2):
        for i in range(8):
            d4.append(double_star_instance(4000 * k + i, k))
        for i in range(7):
            d4.append(blob4_instance(5000 * k + i, k))
        for i in range(10):
            spec = GenSpec(
                seed=6000 * k + i,
                n=rng.randint(6, 20 * k),
                m=rng.randint(4, 16 * k),
                d=4,
                k=k,
                planted=rng.choice((None, k)),
            )
            d4.append(generate(spec))
    assert len(d4) == 50

    kernels = 0
    worst = 0.0
    for inst in d3 + d4:
        result = kernelize(inst)
        if result.verdict != "kernel":
            continue
        kernels += 1
        final = result.instance
        bound = vertex_bound(final.d, final.k)
        assert final.n <= bound, (
            f"kernel with {final.n} vertices exceeds bound {bound} (d={final.d}, k={final.k})"
        )
        worst = max(worst, final.n / bound if bound else 0.0)
    elapsed = time.perf_counter() - start
    _report(
        1,
        kernels >= 60 and elapsed < 60,
        f"250 instances, {kernels} kernel exits, all within (2d-2)k^(d-1)+k; "
        f"tightest kernel at {worst:.2f} of bound; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: end-to-end equivalence (also feeds criterion 7 with crowns)


@lru_cache(maxsize=1)
def _equivalence_run():
    rng = random.Random(20260808)
    crowns: list[tuple[Instance, HSCrown]] = []
    agree = 0
    start = time.perf_counter()
    for _ in range(500):
        spec = GenSpec(
            seed=rng.getrandbits(48),
            n=rng.randint(4, 18),
            m=rng.randint(1, 40),
            d=3,
            k=rng.randint(1, 4),
            planted=rng.choice((None, None, 2)),
        )
        inst = generate(spec)
        expected = decide_brute_force(inst)

        def observe(rule, before, outcome):
            if rule == 6 and outcome.crown is not None:
                crowns.append((before, outcome.crown))

        result = kernelize(inst, observer=observe)
        agree += _engine_decision(result) == expected
    return agree, crowns, time.perf_counter() - start


def test_criterion_2_end_to_end_equivalence():
    agree, _, elapsed = _equivalence_run()
    _report(
        2,
        agree == 500 and elapsed < 60,
        f"{agree}/500 generated instances decide identically to the oracle; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: per-rule soundness, >= 1000 oracle-checked applications each


def _check_preserved(rule: int, before: Instance, after: Instance) -> None:
    assert decide_brute_force(before, ceiling=ORACLE_CEILING) == decide_brute_force(
        after, ceiling=ORACLE_CEILING
    ), f"rule {rule} changed the decision on {before}"


def _organic_stream(count: int, seed_base: int, d: int, rng: random.Random):
    for i in range(count):
        yield generate(
            GenSpec(
                seed=seed_base + i,
                n=rng.randint(4, 13),
                m=rng.randint(2, 24),
                d=d,
                k=rng.randint(1, 3),
                planted=rng.choice((None, None, 1, 2)),
            )
        )


def _staged_rule_harvest(rule_no: int, rule_fn, instances, quota: int) -> int:
    """Apply ``rule_fn`` repeatedly with its lower-numbered rules at fixpoint
    first, oracle-checking every application."""
    stage = {
        1: (),
        2: (rule1_vertex_domination,),
        3: (rule1_vertex_domination, rule2_edge_domination),
        4: (rule1_vertex_domination, rule2_edge_domination, rule3_unit_edge),
    }[rule_no]
    applications = 0
    for inst in instances:
        current = inst
        while applications < quota:
            changed = True
            while changed:
                changed = False
                for earlier in stage:
                    out = earlier(current)
                    if out.applied:
                        current = out.new_instance
                        changed = True
                        break
            if current.k < 0 or not current.edges or any(len(e) == 0 for e in current.edges):
                break
            out = rule_fn(current)
            if not out.applied:
                break
            _check_preserved(rule_no, current, out.new_instance)
            applications += 1
            current = out.new_instance
        if applications >= quota:
            break
    return applications


def test_criterion_3_per_rule_soundness():
    start = time.perf_counter()
    quota = 1000
    counts = {r: 0 for r in range(1, 7)}
    rng = random.Random(777)

    # rules 1-4 on organic random instances, preconditions staged in
    for rule_no, rule_fn, seed_base in (
        (1, rule1_vertex_domination, 10_000_000),
        (2, rule2_edge_domination, 11_000_000),
        (3, rule3_unit_edge, 12_000_000),
        (4, rule4_high_degree_subedge, 13_000_000),
    ):
        counts[rule_no] = _staged_rule_harvest(
            rule_no, rule_fn, _organic_stream(4000, seed_base, 3, rng), quota
        )

    # rule 1 amended semantics on the mutually-dominating pair family
    for i in range(50):
        inst = normalize([["x", "y"], ["z", "w"]], 3, 1)
        out = rule1_vertex_domination(inst)
        assert out.applied
        _check_preserved(1, inst, out.new_instance)
        assert kernelize(inst).verdict == "no"
        counts[1] += 1

    # rule 5: effective applications, direct calls once rules 1-3 are stable,
    # plus the d=4 double-star family where the two-level counting fires
    for trial in range(1400):
        inst = generate(
            GenSpec(
                seed=14_000_000 + trial,
                n=rng.randint(5, 12),
                m=rng.randint(3, 14),
                d=rng.choice((3, 3, 4)),
                k=rng.choice((1, 1, 2)),
            )
        )
        current = inst
        changed = True
        while changed:
            changed = False
            for earlier in (rule1_vertex_domination, rule2_edge_domination, rule3_unit_edge):
                out = earlier(current)
                if out.applied:
                    current = out.new_instance
                    changed = True
                    break
        if current.k < 0 or not current.edges or any(len(e) == 0 for e in current.edges):
            continue
        out = rule5_weakly_related_counting(current)
        if out.applied and out.new_instance.hypergraph != current.hypergraph:
            _check_preserved(5, current, out.new_instance)
            counts[5] += 1
    for trial in range(560):
        inst = double_star_instance(15_000_000 + trial, rng.choice((1, 2)))
        out = rule5_weakly_related_counting(inst)
        assert out.applied and out.new_instance.hypergraph != inst.hypergraph
        _check_preserved(5, inst, out.new_instance)
        counts[5] += 1

    # rule 6 events via the controller: crown applications on yes-instances,
    # no-verdicts on fractional no-instances, both oracle-confirmed
    families = []
    for i in range(340):
        families.append(petal_cycle_instance(16_000_000 + i, rng.choice((2, 3))))
    for i in range(280):
        families.append(blob_instance(17_000_000 + i, rng.choice((1, 2))))
    for i in range(220):
        families.append(mixed_crown_instance(18_000_000 + i, 2))
    for i in range(200):
        families.append(blob4_instance(19_000_000 + i, 1))
    rule6_events = 0
    crown_applications = 0
    for inst in families:
        events: list[tuple[Instance, object]] = []
        result = kernelize(
            inst, observer=lambda r, b, o: events.append((b, o)) if r == 6 else None
        )
        for before, outcome in events:
            if outcome.verdict_no:
                assert decide_brute_force(before, ceiling=ORACLE_CEILING) is False
            else:
                _check_preserved(6, before, outcome.new_instance)
                crown_applications += 1
            rule6_events += 1
        assert _engine_decision(result) == decide_brute_force(inst, ceiling=ORACLE_CEILING)
    counts[6] = rule6_events

    elapsed = time.perf_counter() - start
    ok = all(counts[r] >= quota for r in range(1, 7)) and crown_applications >= 200
    _report(
        3,
        ok,
        "oracle-preserving applications: "
        + ", ".join(f"rule{r}={counts[r]}" for r in range(1, 7))
        + f" ({crown_applications} crown applications); 100% agreement; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: exactness on the four-edge showcase instance


def test_criterion_4_showcase_crown_exactness():
    inst = normalize(SHOWCASE_EDGES, 3, 1)
    crown = HSCrown(
        crown=frozenset({2, 3}),  # v4, v5
        head=frozenset({(0, 1), (1, 4)}),  # {v1,v2}, {v2,v3}
        matching=(((0, 1), 2), ((1, 4), 3)),
    )
    verdict = validate_hs_crown(inst.hypergraph, crown)
    reduced = apply_hs_crown(inst, crown)
    ok = (
        verdict.valid
        and not verdict.strict
        and reduced.n == 3
        and reduced.labels == ("v1", "v2", "v3")
        and reduced.edges == ((0, 1), (1, 2))
        and reduced.k == 1
    )
    _report(
        4,
        ok,
        "crown accepted (non-strict); reduction is exactly vertices {v1,v2,v3} "
        "with edges {v1,v2},{v2,v3}",
    )


# ---------------------------------------------------------------------------
# criterion 5: matching algorithms against exhaustive search


def test_criterion_5_matching_oracles():
    start = time.perf_counter()
    rng = random.Random(505)
    bip_checked = 0
    for _ in range(500):
        na = rng.randint(1, 5)
        nb = rng.randint(1, 5)
        adjacency = tuple(
            tuple(b for b in range(nb) if rng.random() < 0.45) for _ in range(na)
        )
        g = BipartiteGraph(na, nb, adjacency)
        edges = [(a, na + b) for a in range(na) for b in g.adjacency[a]]
        assert hopcroft_karp(g).size == exhaustive_max_matching(edges)
        bip_checked += 1

    gen_checked = 0
    for _ in range(500):
        n = rng.randint(1, 10)
        edges = tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        )
        g = SimpleGraph(n, edges)
        assert blossom_max_matching(g).size == exhaustive_max_matching(list(edges))
        gen_checked += 1

    petersen = blossom_max_matching(SimpleGraph(10, tuple(petersen_edges()))).size
    elapsed = time.perf_counter() - start
    _report(
        5,
        bip_checked == 500 and gen_checked == 500 and petersen == 5,
        f"{bip_checked} bipartite + {gen_checked} general graphs match exhaustive "
        f"search exactly; Petersen matching size {petersen}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: LP exactness


def test_criterion_6_lp_exactness():
    start = time.perf_counter()
    rng = random.Random(606)
    solves = 0

    def check_solution(h, sol):
        for e in h.edges:
            total = sum((sol.values[v] for v in e), Fraction(0))
            assert total >= len(e) - 1
            assert sum((1 - sol.values[v] for v in e), Fraction(0)) <= 1
            zeros = [v for v in e if sol.values[v] == 0]
            if zeros:
                assert all(sol.values[u] == 1 for u in e if u not in zeros)
        assert all(0 <= v <= 1 for v in sol.values)
        assert sol.objective == sum(sol.values, Fraction(0))

    # brute-force polytope-vertex minimum on every small instance
    for trial in range(120):
        n = rng.randint(2, 5)
        m = rng.randint(0, 5)
        edges = tuple(
            tuple(sorted(rng.sample(range(n), rng.randint(1, min(3, n))))) for _ in range(m)
        )
        h = Hypergraph(n, edges, 3)
        prob = build_crown_lp(h)
        sol = solve_exact(prob)
        check_solution(h, sol)
        assert sol.objective == polytope_min_objective(prob)
        solves += 1
    for trial in range(8):
        edges = tuple(
            tuple(sorted(rng.sample(range(6), rng.randint(2, 3)))) for _ in range(6)
        )
        h = Hypergraph(6, edges, 3)
        prob = build_crown_lp(h)
        sol = solve_exact(prob)
        check_solution(h, sol)
        assert sol.objective == polytope_min_objective(prob)
        solves += 1

    # exactness also on larger solves (feasibility, deficit, forcing)
    for trial in range(40):
        inst = generate(
            GenSpec(seed=trial, n=rng.randint(6, 24), m=rng.randint(4, 30), d=3, k=1)
        )
        sol = solve_exact(build_crown_lp(inst.hypergraph))
        check_solution(inst.hypergraph, sol)
        solves += 1

    showcase = normalize(SHOWCASE_EDGES, 3, 1).hypergraph
    showcase_prob = build_crown_lp(showcase)
    showcase_obj = solve_exact(showcase_prob).objective
    assert showcase_obj == polytope_min_objective(showcase_prob)
    solves += 1

    elapsed = time.perf_counter() - start
    _report(
        6,
        showcase_obj == 3,
        f"{solves} solves exactly feasible with deficit and forcing checks at zero "
        f"tolerance; small-instance objectives equal polytope-vertex minima; "
        f"showcase objective {showcase_obj}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: every crown applied by the LP rule is a valid strict crown


def test_criterion_7_crown_validity_under_lp_rule():
    start = time.perf_counter()
    _, crowns, _ = _equivalence_run()
    rng = random.Random(707)
    extra: list[tuple[Instance, HSCrown]] = []
    for i in range(120):
        inst = petal_cycle_instance(20_000_000 + i, rng.choice((2, 3)))
        kernelize(
            inst,
            observer=lambda r, b, o: extra.append((b, o.crown))
            if r == 6 and o.crown is not None
            else None,
        )
    for i in range(60):
        inst = mixed_crown_instance(21_000_000 + i, 2)
        kernelize(
            inst,
            observer=lambda r, b, o: extra.append((b, o.crown))
            if r == 6 and o.crown is not None
            else None,
        )
    all_crowns = crowns + extra
    for before, crown in all_crowns:
        verdict = validate_hs_crown(before.hypergraph, crown)
        assert verdict.valid, verdict.problems
        assert crown.crown, "crown must be nonempty"
        assert len(crown.crown) >= len(crown.head) + 1, "crown must be strict"
    elapsed = time.perf_counter() - start
    _report(
        7,
        len(all_crowns) >= 150,
        f"{len(all_crowns)} crowns applied by the LP rule all validate, nonempty "
        f"and strict; {elapsed:.1f}s",
    )
