import random
from fractions import Fraction
from itertools import groupby

import pytest

import helpers
from hskernel.core import Hypergraph, is_independent, normalize
from hskernel.crown import _crown_via_matching
from hskernel.errors import InternalConsistencyError
from hskernel.lp import (
    build_crown_lp,
    extract_crown_candidates,
    format_lp,
    solve_exact,
    ExactLPSolution,
    LPProblem,
    SimplexBackend,
)
from hskernel.reductions import kernelize

from helpers import (
    blob4_instance,
    blob_instance,
    double_star_instance,
    mixed_crown_instance,
    naive_dense_simplex,
    petal_cycle_instance,
    polytope_min_objective,
)

SHOWCASE_EDGES = [["v1", "v2", "v4"], ["v1", "v2", "v5"], ["v2", "v3", "v4"], ["v2", "v3", "v5"]]


def showcase_hypergraph():
    return normalize(SHOWCASE_EDGES, 3, 1).hypergraph


def random_hypergraph(rng, max_n=6, max_m=6):
    n = rng.randint(2, max_n)
    m = rng.randint(0, max_m)
    edges = []
    for _ in range(m):
        size = rng.randint(1, min(3, n))
        edges.append(tuple(sorted(rng.sample(range(n), size))))
    return Hypergraph(n, tuple(edges), 3)


class TestBuildCrownLP:
    def test_showcase_model_shape(self):
        h = showcase_hypergraph()
        prob = build_crown_lp(h)
        assert prob.var_count == 5
        assert prob.edges == h.edges and len(prob.edges) == 4

    def test_single_pair_edge(self):
        prob = build_crown_lp(Hypergraph(2, ((0, 1),), 3))
        assert prob == LPProblem(2, ((0, 1),))

    def test_edge_free(self):
        prob = build_crown_lp(Hypergraph(3, (), 3))
        assert prob.var_count == 3 and prob.edges == ()

    def test_one_constraint_per_edge(self):
        rng = random.Random(0)
        for _ in range(30):
            h = random_hypergraph(rng)
            prob = build_crown_lp(h)
            assert prob == LPProblem(h.n, h.edges)


class TestSolveExact:
    def test_showcase_objective_is_three(self):
        prob = build_crown_lp(showcase_hypergraph())
        sol = solve_exact(prob)
        assert sol.objective == 3
        assert sol.objective == polytope_min_objective(prob)

    def test_single_pair_edge_objective_one(self):
        sol = solve_exact(build_crown_lp(Hypergraph(2, ((0, 1),), 3)))
        assert sol.objective == 1

    def test_no_constraints_all_zero(self):
        sol = solve_exact(build_crown_lp(Hypergraph(3, (), 3)))
        assert sol.values == (Fraction(0), Fraction(0), Fraction(0))
        assert sol.objective == 0

    def test_unit_edge_constraint_is_vacuous(self):
        sol = solve_exact(build_crown_lp(Hypergraph(2, ((0,), (0, 1)), 3)))
        assert sol.objective == 1

    def test_matches_polytope_minimum_on_small_instances(self):
        rng = random.Random(11)
        for _ in range(40):
            h = random_hypergraph(rng, max_n=5, max_m=5)
            prob = build_crown_lp(h)
            assert solve_exact(prob).objective == polytope_min_objective(prob)

    def test_matches_polytope_minimum_six_by_six(self):
        rng = random.Random(12)
        for _ in range(3):
            h = random_hypergraph(rng, max_n=6, max_m=6)
            prob = build_crown_lp(h)
            assert solve_exact(prob).objective == polytope_min_objective(prob)

    def test_exact_feasibility_and_deficit(self):
        rng = random.Random(13)
        for _ in range(50):
            h = random_hypergraph(rng, max_n=8, max_m=10)
            sol = solve_exact(build_crown_lp(h))
            for e in h.edges:
                total = sum((sol.values[v] for v in e), Fraction(0))
                assert total >= len(e) - 1
                assert sum((1 - sol.values[v] for v in e), Fraction(0)) <= 1

    def test_objective_below_random_integral_assignments(self):
        rng = random.Random(14)
        h = random_hypergraph(rng, max_n=8, max_m=10)
        sol = solve_exact(build_crown_lp(h))
        for _ in range(200):
            x = [Fraction(rng.randint(0, 1)) for _ in range(h.n)]
            for e in h.edges:  # repair to feasibility, cheapest-first
                while sum(x[v] for v in e) < len(e) - 1:
                    x[next(v for v in e if x[v] == 0)] = Fraction(1)
            assert sum(x, Fraction(0)) >= sol.objective

    def test_deterministic(self):
        prob = build_crown_lp(showcase_hypergraph())
        assert solve_exact(prob) == solve_exact(prob)

    def test_basis_certificate_present(self):
        # One basic column per tableau row, no box rows needed: columns 0-4
        # are y_v = 1 - x_v, 5-8 the slacks of the four edge rows, and the
        # optimum is x = (1, 1, 0, 0, 1).
        sol = solve_exact(build_crown_lp(showcase_hypergraph()))
        assert sol.basis == (2, 3, 4, 8)
        # Three isolated vertices: three one-vertex rows, each made basic
        # in y_v.
        assert solve_exact(build_crown_lp(Hypergraph(3, (), 3))).basis == (0, 1, 2)


# One triple: the crown LP asks for x0 + x1 + x2 >= 2. A value that breaks
# the forcing property breaks that constraint too, so the forcing check runs
# first; the deficit case (1, 0, 0) leaves two units uncovered and is
# refused by the constraint check.
_TRIPLE = LPProblem(3, ((0, 1, 2),))
_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)


class TestPostChecks:
    """``solve_exact`` re-checks whatever the simplex returns: a tampered
    solution is refused with the message of the check it breaks."""

    @pytest.mark.parametrize(
        "problem, values, objective, message",
        [
            (_TRIPLE, (1, 1), 2, "solution length mismatch"),
            (_TRIPLE, (Fraction(4, 3), 1, 0), Fraction(7, 3), "box bound violated"),
            (_TRIPLE, (1, _HALF, _THIRD), Fraction(11, 6), "constraint violated"),
            (_TRIPLE, (1, 0, 0), 1, "constraint violated"),
            (_TRIPLE, (0, _HALF, 1), Fraction(3, 2), "forcing property violated"),
            (_TRIPLE, (1, _HALF, _HALF), Fraction(5, 2), "objective does not match"),
        ],
        ids=["length", "box", "constraint", "deficit", "forcing", "objective"],
    )
    def test_tampered_solution_is_refused(self, monkeypatch, problem, values, objective, message):
        tampered = ExactLPSolution(tuple(map(Fraction, values)), Fraction(objective), ())
        monkeypatch.setattr(SimplexBackend, "solve", lambda self, p: tampered)
        with pytest.raises(InternalConsistencyError, match=message):
            solve_exact(problem)

    def test_untampered_solution_passes(self, monkeypatch):
        sound = ExactLPSolution((Fraction(1), _HALF, _HALF), Fraction(2), ())
        monkeypatch.setattr(SimplexBackend, "solve", lambda self, p: sound)
        assert solve_exact(_TRIPLE) is sound


class TestSparseSimplex:
    @pytest.fixture
    def pivot_cap(self, monkeypatch):
        """Fail, instead of hanging, once one solve pivots more than
        ``2 * (n + rows)`` times; the dense-reference LPs take at most 0.74
        times that. Requested before the problems are built, so it also
        bounds the solves of the kernelize runs in ``_family_problems``."""
        pivot = SimplexBackend._pivot
        current = {"matrix": None, "pivots": 0}

        def capped_pivot(matrix, obj, basis, prow, pcol):
            # Holding the last tableau keeps its id from being reused, so a
            # new tableau is a new solve.
            if matrix is not current["matrix"]:
                current.update(matrix=matrix, pivots=0)
            current["pivots"] += 1
            size = len(matrix.cols) - 1  # n + rows; the last column is the rhs
            if current["pivots"] > 2 * size:
                pytest.fail(
                    f"an LP of {size - len(basis)} variables and {len(basis)} rows"
                    f" ran past {2 * size} pivots",
                    pytrace=False,
                )
            pivot(matrix, obj, basis, prow, pcol)

        monkeypatch.setattr(SimplexBackend, "_pivot", staticmethod(capped_pivot))

    @staticmethod
    def _random_problems(count):
        """Seeded d in {3, 4} hypergraphs with edges of every size from one
        to d (unit edges drop their rows) and some vertices in no edge of
        size two or more (each gets the row of its one-vertex edge)."""
        rng = random.Random(21)
        for _ in range(count):
            d = rng.choice((3, 4))
            n = rng.randint(3, 16)
            edges = [
                tuple(rng.sample(range(n), min(n, rng.choice((1, *range(2, d + 1), d)))))
                for _ in range(rng.randint(0, 2 * n))
            ]
            yield build_crown_lp(Hypergraph(n, tuple(edges), d))

    @staticmethod
    def _family_problems():
        """Every LP rule 6 solves while kernelizing the family instances."""
        families = [
            (petal_cycle_instance, (2, 3, 4)),
            (mixed_crown_instance, (2, 4)),
            (blob_instance, (1, 2, 8)),
            (blob4_instance, (1, 3)),
            (double_star_instance, (2, 3)),
        ]
        for family, ks in families:
            for k in ks:
                for seed in range(2):
                    solved = []

                    def observe(rule, before, outcome):
                        if outcome.lp_solution is not None:
                            solved.append(build_crown_lp(before.hypergraph))

                    kernelize(family(seed, k), observe)
                    yield from solved

    @staticmethod
    def _lowest_in_component(prob):
        """For each variable, the lowest variable of its connected
        component of kept edges (a variable in no kept edge is its own)."""
        parent = list(range(prob.var_count))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for e in prob.edges:
            if len(e) >= 2:
                for v in e[1:]:
                    parent[find(v)] = find(e[0])
        lowest = {}
        return [lowest.setdefault(find(v), v) for v in range(prob.var_count)]

    @classmethod
    def _interleaved_components(cls, prob):
        """Whether the kept edges form two or more components whose column
        ranges overlap, so that Bland's lowest-index order over the whole
        tableau alternates between them."""
        lowest = cls._lowest_in_component(prob)
        kept = [e for e in prob.edges if len(e) >= 2]
        # In column order, the components' labels form more runs than
        # there are components exactly when two of them interleave.
        runs = [root for root, _ in groupby(lowest[v] for v in sorted({v for e in kept for v in e}))]
        return len(runs) > len(set(runs))

    def test_same_solution_as_dense_reference(self, pivot_cap):
        seen = {
            "lone-variable row": 0,
            "dropped row": 0,
            "tie on basic index": 0,
            "fractional": 0,
            "interleaved components": 0,
        }
        problems = [*self._random_problems(320), *self._family_problems()]
        for prob in problems:
            sol = solve_exact(prob)
            reference, ties = naive_dense_simplex(prob)
            assert sol == reference  # values, objective, basis and pivots
            kept = {v for e in prob.edges if len(e) >= 2 for v in e}
            seen["lone-variable row"] += len(kept) < prob.var_count
            seen["dropped row"] += any(len(e) == 1 for e in prob.edges)
            seen["tie on basic index"] += ties > 0
            seen["fractional"] += any(v.denominator > 1 for v in sol.values)
            seen["interleaved components"] += self._interleaved_components(prob)
        assert all(seen.values()), seen

    def test_same_pivots_as_dense_reference(self, monkeypatch, pivot_cap):
        # Every (row, entering column) pair the sparse simplex pivots on is
        # the dense reference's, in the same order, and at the optimum each
        # of its reduced costs is the reference's in lowest terms (a zero
        # one absent). Equal solutions could hide a pivot that moved, or a
        # reduced cost kept at a scale; this cannot.
        problems = [
            *self._random_problems(320),
            *self._family_problems(),
            *(
                build_crown_lp(family(0, k).hypergraph)
                for family in (petal_cycle_instance, mixed_crown_instance, blob_instance)
                for k in (4, 8)
            ),
        ]
        sparse, dense = [], []
        final = {}
        sparse_pivot, dense_pivot = SimplexBackend._pivot, helpers._dense_pivot

        def record_sparse(matrix, obj, basis, prow, pcol):
            sparse.append((prow, pcol))
            final["sparse"] = obj
            sparse_pivot(matrix, obj, basis, prow, pcol)
            # cols[j] is exactly the set of rows with a nonzero in column j.
            # Only the first column that differs is reported: a diff of two
            # long lists of sets is slow to print.
            nonzero = [set() for _ in matrix.cols]
            for i, row in enumerate(matrix):
                for j, v in row.items():
                    if v:
                        nonzero[j].add(i)
            wrong = next((j for j, rows in enumerate(nonzero) if rows != matrix.cols[j]), None)
            assert wrong is None, (
                f"pivot {len(sparse)}: cols[{wrong}] = {sorted(matrix.cols[wrong])},"
                f" nonzero rows {sorted(nonzero[wrong])}"
            )

        def record_dense(matrix, obj, basis, prow, pcol):
            dense.append((prow, pcol))
            final["dense"] = obj
            dense_pivot(matrix, obj, basis, prow, pcol)

        monkeypatch.setattr(SimplexBackend, "_pivot", staticmethod(record_sparse))
        monkeypatch.setattr(helpers, "_dense_pivot", record_dense)
        for prob in problems:
            sparse.clear()
            dense.clear()
            final.clear()
            SimplexBackend().solve(prob)
            naive_dense_simplex(prob)
            assert sparse == dense
            # Columns 0..n+m-1; the last dense entry is the right-hand side.
            width = len(final["dense"]) - 1
            assert {j: c for j, c in final["sparse"].items() if j < width} == {
                j: (c.numerator, c.denominator) for j, c in enumerate(final["dense"][:width]) if c
            }
        assert len(problems) == 346

    @pytest.mark.parametrize("k", [8, 16])
    def test_work_linear_in_n_over_many_components(self, monkeypatch, k):
        # blob_instance(1, k) is n / 4 disjoint 4-cliques of triples. A
        # pivot rewrites only the rows with a nonzero in its column, which
        # are its own clique's, and the reduced costs of the pivot row's
        # columns: 12 row entries and under 5 reduced costs per vertex at
        # both rungs. Rewriting every reduced cost on each pivot would be
        # quadratic in n. The row entries are counted before the pivot, as
        # the rows it will eliminate hold them.
        pivot = SimplexBackend._pivot
        rewritten = []

        def counting_pivot(matrix, obj, basis, prow, pcol):
            rewritten.append(sum(len(matrix[i]) for i in matrix.cols[pcol] if i != prow))
            before = dict(obj)
            pivot(matrix, obj, basis, prow, pcol)
            rewritten.append(len({j for j, _ in before.items() ^ obj.items()}))

        monkeypatch.setattr(SimplexBackend, "_pivot", staticmethod(counting_pivot))
        h = blob_instance(1, k).hypergraph
        solve_exact(build_crown_lp(h))
        assert 0 < sum(rewritten) <= 20 * h.n

    def test_one_pivot_per_isolated_vertex(self):
        # Three one-vertex rows; each y_v enters once and leaves no reduced
        # cost.
        assert solve_exact(build_crown_lp(Hypergraph(3, (), 3))).pivots == 3


class TestExtractCrownCandidates:
    def test_all_ones_solution(self):
        h = showcase_hypergraph()
        sol = ExactLPSolution(
            values=(Fraction(1),) * 5, objective=Fraction(5), basis=()
        )
        assert extract_crown_candidates(h, sol) == []

    def test_three_petals_one_pair(self):
        # ids: x1=0 u=1 v=2 x2=3 x3=4
        inst = normalize([["x1", "u", "v"], ["x2", "u", "v"], ["x3", "u", "v"]], 3, 1)
        h = inst.hypergraph
        sol = solve_exact(build_crown_lp(h))
        assert sol.objective == 2
        assert sol.values == (0, 1, 1, 0, 0)
        candidates = extract_crown_candidates(h, sol)
        assert candidates == [0, 3, 4]
        assert _crown_via_matching(h, candidates).head == frozenset({(1, 2)})

    def test_fractional_vertex_is_no_candidate(self):
        # Disjoint 4-cliques of triples settle at two-thirds everywhere.
        h = blob_instance(0, 1).hypergraph
        sol = solve_exact(build_crown_lp(h))
        assert extract_crown_candidates(h, sol) == []
        assert all(v == Fraction(2, 3) for v in sol.values)

    def test_zero_set_always_independent(self):
        rng = random.Random(15)
        for _ in range(40):
            h = random_hypergraph(rng, max_n=8, max_m=10)
            candidates = extract_crown_candidates(h, solve_exact(build_crown_lp(h)))
            assert candidates == sorted(candidates)
            assert is_independent(h, candidates)

    def test_zero_with_a_fractional_companion_is_refused(self):
        # Showcase edge (0, 1, 2) holds the zero x0 and the half x1.
        h = showcase_hypergraph()
        values = tuple(map(Fraction, (0, _HALF, 1, 1, 1)))
        sol = ExactLPSolution(values, sum(values), ())
        with pytest.raises(
            InternalConsistencyError,
            match=r"^edge \(0, 1, 2\) has a zero vertex but a non-one companion$",
        ):
            extract_crown_candidates(h, sol)

    def test_dependent_zeros_are_refused_by_the_companion_check(self):
        # Showcase edge (0, 1, 2) holds the zeros x0 and x1; each is the
        # other's non-one companion, so no separate independence check is
        # needed.
        h = showcase_hypergraph()
        values = tuple(map(Fraction, (0, 0, 1, 1, 1)))
        sol = ExactLPSolution(values, sum(values), ())
        with pytest.raises(
            InternalConsistencyError,
            match=r"^edge \(0, 1, 2\) has a zero vertex but a non-one companion$",
        ):
            extract_crown_candidates(h, sol)


class TestFormatLP:
    def test_listing_shape(self):
        text = format_lp(build_crown_lp(Hypergraph(2, ((0, 1),), 3)))
        lines = text.splitlines()
        assert lines[0].startswith("minimize")
        assert "x[0] + x[1] >= 1" in lines[1]
