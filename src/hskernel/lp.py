"""Exact linear programming behind the crown-finding reduction.

The model has one variable per vertex, one constraint per hyperedge requiring
``sum(x_v for v in e) >= |e| - 1`` (each edge may leave at most one unit of
load uncovered -- deliberately NOT the hitting-set relaxation, whose right
hand side would be 1), box bounds ``0 <= x <= 1``, and objective
``min sum(x)``. The zero-valued vertices of an optimal basic solution seed
the crown search; every other vertex of an edge through one sits at one.

Arithmetic is exact throughout: one function, ``SimplexBackend._pivot``,
rewrites the sparse tableau of integer rows, fraction-free (Bareiss-style
cross-multiplication, then each updated row divided exactly by the gcd of
its entries); each reduced cost is its own exact rational, and the optimum
is read out as exact rationals. Bland's entering
column is popped off a heap instead of found by a scan of the reduced costs,
which changes no pivot (see :class:`SimplexBackend`). Zero/one membership is
decided by exact equality: a floating tolerance would misclassify the
candidate sets and silently break the crown reduction, so no rounding
happens anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm

from .core import Edge, Hypergraph, canonical_edge, remainders
from .errors import InternalConsistencyError

_ZERO = Fraction(0)
_ONE = Fraction(1)
_NO_COST = (0, 1)  # a reduced cost of zero, which is not stored


@dataclass(frozen=True)
class LPProblem:
    """The crown LP of ``var_count`` vertices and the hyperedges ``edges``:
    one variable per vertex, per edge ``e`` the constraint
    ``sum(x_v for v in e) >= |e| - 1``, boxes ``[0, 1]``, objective =
    minimize the sum of all variables.

    Each right-hand side is implied by its edge, so only the edges are
    stored, in canonical edge order.
    """

    var_count: int
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class ExactLPSolution:
    """An optimal basic feasible solution in exact rationals.

    ``basis`` holds the basic column of each :class:`SimplexBackend` tableau
    row at the optimum, which nonnegative reduced costs certified. Of ``n``
    variables, column ``v < n`` is ``y_v = 1 - x_v`` and column ``n + i`` the
    slack of row ``i``; the rows are the edges of two or more vertices in
    canonical order, followed by the one-vertex edge ``(v,)`` of each
    variable in none of them, in increasing ``v``. ``pivots`` counts pivots.
    """

    values: tuple[Fraction, ...]
    objective: Fraction
    basis: tuple[int, ...]
    pivots: int = 0


def build_crown_lp(h: Hypergraph) -> LPProblem:
    """Encode ``h``: one constraint per edge with right-hand side ``|e| - 1``.

    Edges of size one yield the vacuous constraint ``x >= 0`` and are legal;
    they are carried so the model's edges are exactly the hypergraph's.
    """
    return LPProblem(h.n, h.edges)


class _Tableau(list):
    """Sparse fraction-free simplex tableau: the list of its rows.

    Row ``i`` maps a column to a nonzero integer numerator; the last of
    the ``width`` columns holds the right-hand side. Every row's values are
    its numerators over one positive integer denominator, which is never
    stored: the basic variable of row ``i`` has value 1 in its own column,
    so the denominator is the numerator there. ``cols[j]`` lists the rows
    with a nonzero in column ``j``.
    """

    __slots__ = ("cols",)

    def __init__(self, rows: list[dict[int, int]], width: int) -> None:
        super().__init__(rows)
        self.cols: list[set[int]] = [set() for _ in range(width)]
        for i, row in enumerate(self):
            for j in row:
                self.cols[j].add(i)


class SimplexBackend:
    """Exact primal simplex over a sparse integer tableau, with Bland's
    anti-cycling rule.

    The tableau is built on complemented variables (``y_v = 1 - x_v``), which
    turns the row of every edge of two or more vertices into
    ``sum(y_v for v in e) <= 1``: the all-slack basis is then feasible from
    the start and no artificial variables or separate feasibility phase are
    ever needed. The row of a shorter edge (right-hand side <= 0) is implied
    by the boxes and dropped. Each variable ``v`` in no kept row then gets
    the row of the one-vertex edge ``(v,)``, which reads ``y_v <= 1``, so
    its box stays active: every row is ``sum(y_v for v in e) <= 1`` for an
    edge ``e``, and row ``i``'s slack is column ``n + i``.

    Rows are integer numerator maps (see :class:`_Tableau`), and
    :meth:`_pivot` alone writes them and their column index: a pivot touches
    only the rows with a nonzero in the pivot column, eliminates
    fraction-free (cross-multiplying, no division) and divides each updated
    row by the gcd of its entries. The pivot row's entries outside the pivot
    column are listed once per pivot; each updated row drops its
    pivot-column entry, which the update zeroes, ``cols`` gains and loses
    the row where its other entries appear and vanish, and the pivot
    column's row set is reset once.

    Each reduced cost is its own exact rational, an integer
    ``(numerator, denominator)`` pair in lowest terms with a positive
    denominator, and a zero one is absent. A pivot on entry ``piv`` of
    column ``p`` sets ``c_j <- c_j - c_p * a_j / piv`` for each column ``j``
    of the pivot row only: every other column has ``a_j = 0`` there and
    keeps its reduced cost untouched. The entry at the right-hand side
    column is the current sum of the ``y`` values, so the objective is ``n``
    minus it. The values are read off the integer numerators of the basic
    rows: a value becomes a ``Fraction`` only when it is fractional.

    Pivoting is deterministic: lowest-index entering column with a negative
    reduced cost, leaving row by minimum ratio with ties broken on the lowest
    basic variable index.

    The entering column comes off a min-heap that holds every column with a
    negative reduced cost, and maybe some that have none any more: those are
    popped when they reach the top, so the top, once negative, is Bland's
    column. This is exact because a pivot changes only the reduced costs of
    the pivot row's columns, so after each pivot only those that are now
    negative are pushed, and no pivot scans the other reduced costs.
    """

    def solve(self, problem: LPProblem) -> ExactLPSolution:
        n = problem.var_count
        kept = [e for e in problem.edges if len(e) >= 2]
        covered = {v for e in kept for v in e}
        kept.extend((v,) for v in range(n) if v not in covered)
        rhs = n + len(kept)

        rows = _Tableau(
            [dict.fromkeys((*variables, n + r, rhs), 1) for r, variables in enumerate(kept)], rhs + 1
        )
        basis = list(range(n, rhs))

        # Reduced costs for min(-sum y); the slack basis has zero cost. The
        # heap holds every column whose reduced cost is negative, and maybe
        # some that no longer are.
        obj = dict.fromkeys(range(n), (-1, 1))
        heap = list(range(n))
        pivots = 0
        while heap:
            enter = heap[0]
            if obj.get(enter, _NO_COST)[0] >= 0:
                heappop(heap)
                continue
            # Minimum ratio rhs_i / a_i, compared by cross-multiplying: the
            # row denominators cancel.
            leave, best_r, best_a = -1, 0, 1
            for i in rows.cols[enter]:
                a = rows[i][enter]
                if a > 0:
                    r = rows[i].get(rhs, 0)
                    mine, best = r * best_a, best_r * a
                    if leave < 0 or mine < best or (mine == best and basis[i] < basis[leave]):
                        leave, best_r, best_a = i, r, a
            if leave < 0:
                raise InternalConsistencyError("unbounded pivot in a boxed model")
            self._pivot(rows, obj, basis, leave, enter)
            pivots += 1
            # Only the pivot row's columns changed their reduced cost.
            for j in rows[leave]:
                if obj.get(j, _NO_COST)[0] < 0:
                    heappush(heap, j)

        # x_v = 1 - y_v, where y_v is the right-hand side over the
        # denominator of v's row when v is basic and 0 otherwise. Only a
        # fractional y_v becomes a Fraction.
        values = [_ONE] * n
        for i, b in enumerate(basis):
            if b < n:
                num, den = rows[i].get(rhs, 0), rows[i][b]
                if num:
                    values[b] = _ZERO if num == den else _ONE - Fraction(num, den)
        objective = n - Fraction(*obj.get(rhs, _NO_COST))
        return ExactLPSolution(tuple(values), objective, tuple(basis), pivots)

    @staticmethod
    def _pivot(
        matrix: _Tableau,
        obj: dict[int, tuple[int, int]],
        basis: list[int],
        prow: int,
        pcol: int,
    ) -> None:
        """Make ``pcol`` basic in row ``prow``, updating ``matrix``, ``obj``
        and ``basis`` in place: the only code that rewrites tableau rows and
        ``cols``.

        The pivot row keeps its numerators; its denominator becomes the
        pivot entry. Every other row ``t`` with ``f = t[pcol] != 0`` becomes
        ``(piv * t - f * row) / g`` (Bareiss-style fraction-free
        elimination), a positive multiple of the exact update, with ``g``
        the gcd of its entries; its ``pcol`` entry, which the update zeroes,
        is popped, ``cols`` follows the other entries it gains or loses, and
        ``cols[pcol]`` is reset once. The reduced cost of each column ``j``
        of the pivot row becomes ``c_j - c_pcol * a_j / piv``, that of
        ``pcol`` zero, and no other reduced cost is read or written.
        """
        rows, cols = matrix, matrix.cols
        row = rows[prow]
        piv = row[pcol]
        items = [(j, v) for j, v in row.items() if j != pcol]
        for i in cols[pcol]:
            if i == prow:
                continue
            target = rows[i]
            f = target.pop(pcol)
            if piv != 1:
                for j in target:
                    target[j] *= piv
            for j, v in items:
                w = target.get(j, 0) - f * v
                if w:
                    if j not in target:
                        cols[j].add(i)
                    target[j] = w
                else:
                    del target[j]
                    cols[j].discard(i)
            g = gcd(*target.values())
            if g > 1:
                for j in target:
                    target[j] //= g
        cols[pcol] = {prow}
        # c_pcol / piv as p / q in lowest terms, q > 0: solve enters only a
        # column of negative reduced cost, and piv > 0.
        p, q = obj.pop(pcol)
        q *= piv
        g = gcd(p, q)
        p, q = p // g, q // g
        for j, a in items:
            num, den = obj.get(j, _NO_COST)
            num = num * q - p * a * den
            if num:
                den *= q
                g = gcd(num, den)
                obj[j] = (num // g, den // g)
            else:
                del obj[j]  # p * a != 0, so a zero result had a cost before
        basis[prow] = pcol


def solve_exact(problem: LPProblem) -> ExactLPSolution:
    """Solve to optimality in exact rationals and verify the result.

    Infeasibility is impossible by construction (the all-ones point satisfies
    every constraint); any violation detected here is an internal error.
    After every solve the solution length, the boxes, the forcing property
    (a zero on an edge forces every other vertex of that edge to one), every
    constraint and the objective are checked in exact integers: each value
    ``v`` is read as the numerator ``v * den`` over ``den``, the least common
    multiple of the value denominators. The forcing property is checked
    before its edge's constraint, which a forcing violation also breaks.
    """
    sol = SimplexBackend().solve(problem)
    values = sol.values
    if len(values) != problem.var_count:
        raise InternalConsistencyError("solution length mismatch")
    den = lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    for x in nums:
        if x < 0 or x > den:
            raise InternalConsistencyError("box bound violated")
    for e in problem.edges:
        xs = [nums[v] for v in e]
        if 0 in xs and any(x != den for x in xs if x):
            raise InternalConsistencyError("forcing property violated")
        if sum(xs) < (len(e) - 1) * den:
            raise InternalConsistencyError("constraint violated in exact arithmetic")
    if sol.objective * den != sum(nums):
        raise InternalConsistencyError("objective does not match the assignment")
    return sol


def extract_crown_candidates(h: Hypergraph, sol: ExactLPSolution) -> list[int]:
    """The vertices at exactly zero, in increasing order: rule 6's crown
    candidates.

    For every edge through a zero vertex the remaining vertices must sit at
    exactly one; that consequence of the constraints is asserted, not
    assumed. It also makes the zero vertices independent: two zeros on one
    edge would each be the other's non-one companion.
    """
    values = sol.values
    zeros = [v for v in range(h.n) if values[v] == 0]
    for x, rest in remainders(h, frozenset(zeros)):
        if any(values[u] != 1 for u in rest):
            raise InternalConsistencyError(
                f"edge {canonical_edge((x, *rest))} has a zero vertex but a non-one companion"
            )
    return zeros


def format_lp(problem: LPProblem) -> str:
    """Human-readable listing of the model, one constraint per line."""
    lines = [f"minimize x[0] + ... + x[{problem.var_count - 1}]"]
    for e in problem.edges:
        terms = " + ".join(f"x[{v}]" for v in e) or "0"
        lines.append(f"  {terms} >= {len(e) - 1}")
    lines.append(f"  0 <= x[v] <= 1 for all {problem.var_count} variables")
    return "\n".join(lines)
