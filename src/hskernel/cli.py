"""Command-line front end: parse, kernelize, solve, generate, verify.

Instance file format (1-based vertex indices)::

    p hs <n> <m> <d> <k>
    c optional comment lines
    <v1> <v2> ...            one line per edge, m lines total

Exit codes: 0 = kernel emitted on stdout, 10 = decided yes, 20 = decided no,
1 = usage or format error, 2 = internal consistency error (recursion and
memory exhaustion included). Kernel text appears on stdout if and only if the
exit code is 0.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .core import MIN_D, Edge, Hypergraph, Instance, canonical_edge
from .crown import format_crown
from .errors import (
    FormatError,
    InternalConsistencyError,
    OracleCeilingError,
    UnsupportedParameterError,
)
from .lp import format_lp
from .oracle import GenSpec, decide_brute_force, generate
from .reductions import ReduceResult, RuleOutcome, TraceStep, kernelize, vertex_bound

EXIT_KERNEL = 0
EXIT_YES = 10
EXIT_NO = 20
EXIT_USAGE = 1
EXIT_INTERNAL = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


def parse_instance(text: str) -> Instance:
    """Parse an instance file; errors report the offending line number. The
    instance's labels are the file's 1-based vertex indices. Lines end at
    CR LF, CR or LF only, and one leading byte-order mark is dropped."""
    header: tuple[int, int, int, int] | None = None
    comments: list[str] = []
    edge_lines: list[tuple[int, str]] = []
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "c":
            comments.append(line[1:].strip())
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 6 or parts[0] != "p" or parts[1] != "hs":
                raise FormatError(f"line {lineno}: expected header 'p hs <n> <m> <d> <k>'")
            try:
                header = tuple(int(x) for x in parts[2:])  # type: ignore[assignment]
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer field in header") from None
            continue
        if line[0] == "p" and line.split()[:2] == ["p", "hs"]:
            raise FormatError(f"line {lineno}: second 'p hs' header line")
        edge_lines.append((lineno, line))
    if header is None:
        raise FormatError("missing 'p hs' header line")
    n, m, d, k = header
    if n < 0 or m < 0:
        raise FormatError("header counts must be non-negative")
    if len(edge_lines) != m:
        raise FormatError(f"expected {m} edge lines, found {len(edge_lines)}")
    edges: list[Edge] = []
    for lineno, line in edge_lines:
        try:
            indices = [int(tok) for tok in line.split()]
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer vertex index") from None
        for idx in indices:
            if not (1 <= idx <= n):
                raise FormatError(f"line {lineno}: vertex index {idx} outside 1..{n}")
        edge = canonical_edge(idx - 1 for idx in indices)
        if len(edge) > d:
            raise FormatError(
                f"line {lineno}: edge has {len(edge)} distinct vertices, bound is {d}"
            )
        edges.append(edge)
    if d < MIN_D:  # after the edge loop: an oversized edge is reported first
        raise UnsupportedParameterError(f"d={d} unsupported: the engine requires d >= {MIN_D}")
    hypergraph = Hypergraph(n, tuple(edges), d)
    return Instance(hypergraph, k, labels=range(1, n + 1), comments=tuple(comments))


def write_instance(inst: Instance) -> str:
    """Canonical serialization: dense ids, lexicographically sorted edges,
    1-based indices. ``parse_instance(write_instance(x))`` is structurally
    identical to ``x`` and writing is idempotent.

    The empty edge has no line of its own (a blank line is skipped on
    reading), so an instance holding it is refused with a
    :class:`FormatError`. Kernels never hold it: the controller decides
    such an instance no. A comment holding CR or LF, or with leading or
    trailing whitespace, is refused too: it would not read back as itself.
    """
    if inst.edges and not inst.edges[0]:  # canonical order puts an empty edge first
        raise FormatError("the empty edge cannot be written: the instance is unhittable")
    lines = [f"p hs {inst.n} {inst.m} {inst.d} {inst.k}"]
    for comment in inst.comments:
        if "\r" in comment or "\n" in comment or comment != comment.strip():
            raise FormatError(f"comment {comment!r} has a line break or outer whitespace")
        lines.append(f"c {comment}" if comment else "c")
    for edge in inst.edges:
        lines.append(" ".join(str(v + 1) for v in edge))
    return "\n".join(lines) + "\n"


def _report(original: Instance, result: ReduceResult, k_override: bool, wall: float) -> dict:
    """The flat ``--report-json`` object of one run (stable keys)."""
    final, trace = result.instance, result.trace
    bound = vertex_bound(final.d, final.k)
    if result.verdict == "kernel" and final.n > bound:
        raise InternalConsistencyError("kernel report violates the vertex bound")
    report = {
        "verdict": result.verdict,
        "d": original.d,
        "n_input": original.n,
        "m_input": original.m,
        "k_input": original.k,
        "k_override": k_override,
        "n_final": final.n,
        "m_final": final.m,
        "k_final": final.k,
        "vertex_bound": bound,
        "rule5_noops": trace.rule5_noops(),
        "lp_solves": trace.lp_solves,
        "lp_pivots": trace.lp_pivots,
        "passes": len(trace.steps),
        "wall_time_s": round(wall, 6),
    }
    applications = trace.rule_counts()
    for r in range(1, 7):
        report[f"rule{r}_applications"] = applications[r]
        report[f"rule{r}_attempts"] = trace.attempts[r]
    return report


def _report_text(report: dict) -> str:
    """``report`` as one JSON line with every integer in full. The vertex
    bound can run past the interpreter's int-to-str digit limit, so a set
    limit (0 is none) is lifted for this one dump only."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return json.dumps(report, sort_keys=True) + "\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _format_step(s: TraceStep) -> str:
    return (
        f"rule{s.rule}: -{s.vertices_removed} vertices, -{s.edges_removed}/+{s.edges_added} "
        f"edges, k{s.k_delta:+d}"
    )


def _cmd_kernelize(args: argparse.Namespace) -> int:
    parsed = parse_instance(_read_input(args.file))
    k_override = args.k is not None
    inst = parsed.with_k(args.k) if k_override else parsed

    def observer(rule: int, before: Instance, outcome: RuleOutcome) -> None:
        if args.trace:
            if outcome.verdict_no:
                print(f"rule{rule}: concluded no", file=sys.stderr)
            else:
                print(_format_step(outcome.step), file=sys.stderr)
            solution = outcome.lp_solution
            if solution is not None:
                print(
                    f"  lp: {len(solution.basis)} rows, {solution.pivots} pivots",
                    file=sys.stderr,
                )
            if outcome.crown is not None:
                print(f"  {format_crown(outcome.crown)}", file=sys.stderr)
        if args.dump_lp and outcome.lp_problem is not None:
            print(format_lp(outcome.lp_problem), file=sys.stderr)

    start = time.perf_counter()
    result = kernelize(inst, observer=observer)
    wall = time.perf_counter() - start
    report = _report(parsed, result, k_override, wall)
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as handle:
            handle.write(_report_text(report))
    if result.verdict == "kernel":
        sys.stdout.write(write_instance(result.instance))
        return EXIT_KERNEL
    print(f"decided {result.verdict}", file=sys.stderr)
    return EXIT_YES if result.verdict == "yes" else EXIT_NO


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = parse_instance(_read_input(args.file))
    answer = decide_brute_force(inst)
    print("yes" if answer else "no")
    return EXIT_YES if answer else EXIT_NO


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(seed=args.seed, n=args.n, m=args.m, d=args.d, k=args.k, planted=args.plant)
    sys.stdout.write(write_instance(generate(spec)))
    return EXIT_KERNEL


def _run_trial(spec: GenSpec) -> tuple[bool, str]:
    """Oracle vs kernelizer on one instance; OracleCeilingError if too large."""
    inst = generate(spec)
    expected = decide_brute_force(inst)
    result = kernelize(inst)
    if result.verdict == "kernel":
        got = decide_brute_force(result.instance)
        description = f"kernel(n={result.instance.n}) -> {'yes' if got else 'no'}"
    else:
        got = result.verdict == "yes"
        description = f"verdict {result.verdict}"
    if expected != got:
        steps = "; ".join(map(_format_step, result.trace.steps))
        description += f" ORACLE {'yes' if expected else 'no'} trace[{steps}]"
    return expected == got, description


def _cmd_verify(args: argparse.Namespace) -> int:
    least_n = max(args.d, 4)  # each trial draws n from least_n..--n
    for name, value, least in (
        ("--trials", args.trials, 1),
        ("--kmax", args.kmax, 1),
        ("--n", args.n, least_n),
    ):
        if value < least:
            raise _UsageError(f"{name} must be at least {least}, got {value}")
    master = random.Random(args.seed)
    failures = []
    skipped = 0
    for _ in range(args.trials):
        n = master.randint(least_n, args.n)
        m = master.randint(1, max(2, 2 * n))
        k = master.randint(1, args.kmax)
        plant = master.choice((None, None, min(k, n)))
        spec = GenSpec(seed=master.getrandbits(63), n=n, m=m, d=args.d, k=k, planted=plant)
        try:
            ok, desc = _run_trial(spec)
        except OracleCeilingError:
            skipped += 1
            continue
        if not ok:
            failures.append((spec, desc))
    note = f", {skipped} skipped above the oracle ceiling" if skipped else ""
    print(f"{args.trials - skipped - len(failures)}/{args.trials} agree{note}")
    if skipped and skipped == args.trials:
        print("error: every trial was above the oracle ceiling", file=sys.stderr)
        return EXIT_USAGE
    if failures:
        for spec, desc in failures:
            print(f"DISAGREE seed={spec.seed} spec={spec} kernelizer={desc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_KERNEL


def _build_parser() -> _Parser:
    parser = _Parser(prog="hskernel", description="d-hitting-set kernelization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_kern = sub.add_parser("kernelize", help="reduce an instance to a kernel or a verdict")
    p_kern.add_argument("file", nargs="?", help="instance file (default: stdin)")
    p_kern.add_argument("--k", type=int, default=None, help="override the header budget")
    p_kern.add_argument("--trace", action="store_true", help="log rule applications to stderr")
    p_kern.add_argument("--report-json", metavar="PATH", help="write the run report as JSON")
    p_kern.add_argument("--dump-lp", action="store_true", help="dump each solved LP to stderr")
    p_kern.set_defaults(func=_cmd_kernelize)

    p_solve = sub.add_parser("solve", help="decide an instance exactly")
    p_solve.add_argument("file", nargs="?", help="instance file (default: stdin)")
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--plant", type=int, default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_verify = sub.add_parser("verify", help="differential test: kernelizer vs exact oracle")
    p_verify.add_argument("--trials", type=int, required=True)
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--d", type=int, required=True)
    p_verify.add_argument("--kmax", type=int, required=True)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        FormatError,
        UnsupportedParameterError,
        OracleCeilingError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RecursionError, MemoryError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
