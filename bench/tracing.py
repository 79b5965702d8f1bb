"""Traced-run harness: spans and counters around the engine's entry points.

Wrappers are installed on the module and class attributes the engine looks
up at call time (``kernelize`` finds its rules and the LP and crown helpers
as globals of ``hskernel.reductions``), so the engine's source is untouched.
Each wrapped call records a span (name, parent span, start, end) in memory;
a layer's self time is its spans' duration minus the time their child spans
cover. :meth:`Tracer.uninstall` restores every original attribute.
"""

from __future__ import annotations

from collections import Counter
from statistics import median
from time import perf_counter
from types import SimpleNamespace

RULES = range(1, 7)

# Span name -> the per-layer metric that reports its call count, if any.
SPANS = {
    "cli.parse": None,
    "cli.write": None,
    "reductions.kernelize": None,
    **{f"reductions.rule{r}": f"reductions.rule{r}.attempts" for r in RULES},
    "core.rebuild": "core.rebuild.calls",
    "core.hypergraph": "core.hypergraph.builds",
    "lp.build": None,
    "lp.solve": "lp.solves",
    "lp.extract": None,
    "crown.find": None,
    "crown.validate": None,
    "crown.apply": None,
    "matching.blossom": "matching.blossom.calls",
    "matching.hopcroft_karp": "matching.hopcroft_karp.calls",
}

# Counters filled from wrapped calls' arguments and results.
COUNTERS = (
    *(f"reductions.rule{r}.applied" for r in RULES),
    "reductions.rule5.noops",
    "lp.vars",
    "lp.rows",
    "lp.pivots",
    "crown.size",
    "crown.head_size",
)

# Per-operation values: kept as the largest seen rather than summed.
MAXIMA = ("lp.max_den_bits",)


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values if v), default=0)


class Tracer:
    """Spans and counters of one operation at a time.

    ``collect`` turns the operation's spans into self times and call counts
    and clears them for the next operation.
    """

    def __init__(self, hk: SimpleNamespace) -> None:
        self.hk = hk
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, int] = dict.fromkeys(MAXIMA, 0)
        self.patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hk, red = self.hk, self.hk.reductions
        targets = [
            (hk.cli, "parse_instance", "cli.parse", None),
            (hk.cli, "write_instance", "cli.write", None),
            (red, "kernelize", "reductions.kernelize", None),
            (red, "rule1_vertex_domination", "reductions.rule1", self._rule(1)),
            (red, "rule2_edge_domination", "reductions.rule2", self._rule(2)),
            (red, "rule3_unit_edge", "reductions.rule3", self._rule(3)),
            (red, "rule4_high_degree_subedge", "reductions.rule4", self._rule(4)),
            (red, "rule5_weakly_related_counting", "reductions.rule5", self._rule(5)),
            (red, "rule6_lp_crown", "reductions.rule6", self._rule(6)),
            (red, "_rebuild", "core.rebuild", None),
            (hk.core.Hypergraph, "__post_init__", "core.hypergraph", None),
            (red, "build_crown_lp", "lp.build", None),
            (red, "solve_exact", "lp.solve", self._solved),
            (red, "extract_crown_candidates", "lp.extract", None),
            (red, "_crown_via_matching", "crown.find", None),
            (red, "validate_hs_crown", "crown.validate", None),
            (hk.crown, "validate_hs_crown", "crown.validate", None),  # inside apply_hs_crown
            (red, "apply_hs_crown", "crown.apply", None),
            (hk.matching, "blossom_max_matching", "matching.blossom", None),
            (hk.matching, "hopcroft_karp", "matching.hopcroft_karp", None),
        ]
        for owner, attr, name, after in targets:
            self._patch(owner, attr, self._span(name, getattr(owner, attr), after))
        backend = hk.lp.SimplexBackend
        self._patch(backend, "_pivot", staticmethod(self._pivot(backend._pivot)))

    def uninstall(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        # vars() keeps a staticmethod wrapped, so restoring puts back exactly
        # what the class held.
        self.patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, after):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _rule(self, rule: int):
        counts = self.counts

        def after(args, outcome) -> None:
            if not outcome.applied:
                return
            counts[f"reductions.rule{rule}.applied"] += 1
            step = outcome.step
            if rule == 5 and not (step.vertices_removed or step.edges_removed or step.edges_added):
                counts["reductions.rule5.noops"] += 1
            if outcome.crown is not None:
                counts["crown.size"] += len(outcome.crown.crown)
                counts["crown.head_size"] += len(outcome.crown.head)

        return after

    def _solved(self, args, solution) -> None:
        problem = args[0]
        self.counts["lp.vars"] += problem.var_count
        self.counts["lp.rows"] += len(solution.basis)  # one basis entry per tableau row
        bits = _den_bits(solution.values)
        self.maxima["lp.max_den_bits"] = max(self.maxima["lp.max_den_bits"], bits)

    def _pivot(self, pivot):
        counts, maxima = self.counts, self.maxima

        def counted(matrix, obj, basis, prow, pcol):
            pivot(matrix, obj, basis, prow, pcol)
            counts["lp.pivots"] += 1
            bits = _den_bits(matrix[prow])
            if bits > maxima["lp.max_den_bits"]:
                maxima["lp.max_den_bits"] = bits

        return counted

    # -- per-operation results ----------------------------------------------

    def collect(self) -> dict[str, float]:
        """Self time and call count per span, plus the counters, for the
        operation just run; then reset for the next one."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        values: dict[str, float] = {}
        for name, counter in SPANS.items():
            values[f"{name}.self_s"] = 0.0
            if counter is not None:
                values[counter] = 0
        for (name, _, start, end), covered in zip(self.spans, child):
            values[f"{name}.self_s"] += end - start - covered
            counter = SPANS[name]
            if counter is not None:
                values[counter] += 1
        for name in COUNTERS:
            values[name] = self.counts[name]
        values.update(self.maxima)
        self.spans.clear()
        self.counts.clear()
        self.maxima.update(dict.fromkeys(MAXIMA, 0))
        return values


def summarise(per_case: list[list[dict[str, float]]]) -> dict[str, float]:
    """Per-layer metrics of one pass over the inputs.

    ``per_case`` holds, for each input, the collected values of its traced
    operations. Times are each input's median over its operations, summed
    over the inputs; counts repeat exactly from one operation of an input to
    the next, so the first one is summed.
    """
    out: dict[str, float] = {}
    for key in per_case[0][0]:
        if key.endswith("self_s"):
            out[key] = sum(median(op[key] for op in ops) for ops in per_case)
        elif key in MAXIMA:
            out[key] = max(ops[0][key] for ops in per_case)
        else:
            out[key] = sum(ops[0][key] for ops in per_case)
    for r in RULES:
        attempts = out[f"reductions.rule{r}.attempts"]
        applied = out[f"reductions.rule{r}.applied"]
        out[f"reductions.rule{r}.useful_ratio"] = applied / attempts if attempts else 0.0
    return out
