#!/usr/bin/env python3
"""Benchmark of the hskernel kernelizer.

One process, no threads, one caller in a closed loop. One operation mirrors
``hskernel kernelize``: ``cli.parse_instance`` on the instance text, then
``reductions.kernelize``, then ``cli.write_instance`` when the verdict is
``kernel``. The inputs of a workload are run round-robin until ``--seconds``
have passed; outputs are checked outside the timed region. Times are
reported in reference seconds, scaled by the machine's speed sampled while
they were measured (see speed.py). See README.md in this directory for the
workloads and metrics.

    python3 bench/run.py --workload planted --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all     # every workload, each in its own process

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
exit code is 0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from types import SimpleNamespace

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("core", "reductions", "lp", "matching", "crown", "cli", "oracle")
SETUP_REPEATS = 7

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "vertex_reduction": "ratio",
    "ok_rate": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    return "count"


@dataclass
class Input:
    name: str
    text: str
    n: int
    expected: bool | None


@dataclass
class Record:
    """Everything the timed loop keeps about one input."""

    times: list[float] = field(default_factory=list)  # reference seconds
    raw: list[float] = field(default_factory=list)  # seconds as measured
    layers: list[dict[str, float]] = field(default_factory=list)
    digest: str | None = None
    first: tuple | None = None  # (verdict, kernel text, n_final, vertex bound)
    attempted: int = 0
    errors: int = 0
    mismatches: int = 0


# ---------------------------------------------------------------------------
# set-up


def import_engine() -> SimpleNamespace:
    """Import ``hskernel`` afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "hskernel" or m.startswith("hskernel.")]:
        del sys.modules[name]
    hk = SimpleNamespace(**{m: importlib.import_module(f"hskernel.{m}") for m in MODULES})
    if Path(hk.core.__file__).resolve().parent != SRC / "hskernel":
        raise SystemExit(f"hskernel was imported from {hk.core.__file__}, not from {SRC}")
    return hk


def set_up(workload: str, seed: int) -> tuple[SimpleNamespace, list[Input], tuple]:
    """Import the engine, build the workload's inputs and serialise them.

    Returns the modules, the inputs and when building the instances started
    and ended.
    """
    hk = import_engine()
    start = perf_counter()
    cases = workloads.BUILDERS[workload](hk, seed)
    generated = (start, perf_counter())
    inputs = [
        Input(c.name, hk.cli.write_instance(c.instance), c.instance.n, c.expected) for c in cases
    ]
    return hk, inputs, generated


# ---------------------------------------------------------------------------
# the timed loop


def operate(hk: SimpleNamespace, text: str):
    result = hk.reductions.kernelize(hk.cli.parse_instance(text))
    kernel = hk.cli.write_instance(result.instance) if result.verdict == "kernel" else ""
    return result, kernel


def digest_of(result, kernel: str) -> str:
    # Named fields rather than repr(step), so that a field added to TraceStep
    # later (a timer, say) does not make equal outputs digest differently.
    steps = [
        (s.rule, s.vertices_removed, s.edges_removed, s.edges_added, s.k_delta)
        for s in result.trace.steps
    ]
    return hashlib.sha256(f"{result.verdict}\n{kernel}\n{steps}".encode()).hexdigest()


def run_loop(hk, inputs, records, seconds, min_reps, tracer=None) -> list[tuple]:
    """Run the inputs round-robin until ``seconds`` have passed and every
    input has run ``min_reps`` times in this loop.

    Returns (record, start, end, layer values) of every operation whose
    output matched its input's first one; :func:`file_times` files them.
    """
    start = perf_counter()
    done = 0
    timed = []
    while done < min_reps * len(inputs) or perf_counter() - start < seconds:
        inp, rec = inputs[done % len(inputs)], records[done % len(inputs)]
        done += 1
        rec.attempted += 1
        t0 = perf_counter()
        try:
            result, kernel = operate(hk, inp.text)
        except Exception:
            if rec.errors == 0:
                print(f"{inp.name}: operation raised", file=sys.stderr)
                traceback.print_exc()
            rec.errors += 1
            if tracer is not None:
                tracer.collect()
            continue
        t1 = perf_counter()
        layers = tracer.collect() if tracer is not None else None
        digest = digest_of(result, kernel)
        if rec.digest is None:
            final = result.instance
            rec.digest = digest
            rec.first = (
                result.verdict,
                kernel,
                final.n,
                hk.reductions.vertex_bound(final.d, final.k),
            )
        elif digest != rec.digest:
            print(f"{inp.name}: output differs from its first run", file=sys.stderr)
            rec.mismatches += 1
            continue
        timed.append((rec, t0, t1, layers))
    return timed


def file_times(track: speed.Track, timed: list[tuple]) -> None:
    """File each operation's time, as measured and in reference seconds,
    with its input's record."""
    for rec, t0, t1, layers in timed:
        net, ref = track.scale(t0, t1)
        rec.raw.append(net)
        rec.times.append(ref)
        if layers is not None:
            # Span times include the probes that interrupted them.
            factor = ref / (t1 - t0)
            rec.layers.append(
                {k: v * factor if k.endswith("self_s") else v for k, v in layers.items()}
            )


# ---------------------------------------------------------------------------
# output checks (untimed)


def check(hk: SimpleNamespace, inp: Input, first: tuple) -> str | None:
    """Describe what is wrong with an input's output, or return None."""
    verdict, kernel, n_final, bound = first
    ceiling = hk.oracle.DEFAULT_CEILING
    if verdict == "kernel":
        if n_final > bound:
            return f"kernel has {n_final} vertices, bound is {bound}"
        answer = (
            hk.oracle.decide_brute_force(hk.cli.parse_instance(kernel), ceiling=ceiling)
            if n_final <= ceiling
            else None
        )
    else:
        answer = verdict == "yes"
    expected = inp.expected
    if expected is None:
        expected = hk.oracle.decide_brute_force(hk.cli.parse_instance(inp.text), ceiling=ceiling)
    if answer is not None and answer != expected:
        return f"verdict {verdict} decides {answer}, the input decides {expected}"
    return None


def check_all(hk, inputs, records) -> tuple[int, float]:
    """Check every input's first output; returns the failed operations and
    the time the checks took."""
    start = perf_counter()
    failed = 0
    for inp, rec in zip(inputs, records):
        failed += rec.errors + rec.mismatches
        if rec.first is None:
            continue
        problem = check(hk, inp, rec.first)
        if problem is not None:
            print(f"{inp.name}: {problem}", file=sys.stderr)
            failed += rec.attempted - rec.errors - rec.mismatches  # all repeat this output
    return failed, perf_counter() - start


# ---------------------------------------------------------------------------
# metrics


def timing_metrics(records: list[Record], raw: bool = False) -> dict[str, float]:
    """Metrics of one pass over the inputs, from each input's median time,
    in reference seconds or, with ``raw``, as measured."""
    per_input = [median(r.raw if raw else r.times) for r in records if r.times]
    p99 = quantiles(per_input, n=100, method="inclusive")[98] if len(per_input) > 1 else per_input[0]
    return {
        "wall_s": sum(per_input),
        "op_p50_ms": median(per_input) * 1e3,
        "op_p99_ms": p99 * 1e3,
    }


def coverage_problem(workload: str, layers: dict[str, float]) -> str | None:
    """The layer a workload exists to exercise must still be exercised."""
    if workload == "planted" and layers["lp.solves"] != 0:
        return f"planted ran {layers['lp.solves']} LP solves, expected none"
    if workload == "crown" and not layers["lp.solve.self_s"] > layers["wall_s"] / 2:
        return (
            f"crown spent {layers['lp.solve.self_s']:.3f} s in the LP solve, "
            f"not above half of {layers['wall_s']:.3f} s"
        )
    if workload == "small" and layers["reductions.rule4.applied"] == 0:
        return "small applied rule 4 nowhere"
    return None


def measure(hk, inputs, seconds: float, trace: bool):
    """The timed loop, untraced; with ``trace``, half untraced and half traced.

    Returns the records and the untraced and traced operations, not yet filed.
    """
    records = [Record() for _ in inputs]
    if not trace:
        return records, run_loop(hk, inputs, records, seconds, 2), []
    untraced = run_loop(hk, inputs, records, seconds / 2, 1)
    tracer = tracing.Tracer(hk)
    tracer.install()
    try:
        traced = run_loop(hk, inputs, records, seconds / 2, 1, tracer)
    finally:
        tracer.uninstall()
    return records, untraced, traced


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    track = speed.Track()
    track.start()
    try:
        spans = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            hk, inputs, generated = set_up(workload, seed)
            spans.append(((start, perf_counter()), generated))
        records, untraced, traced = measure(hk, inputs, seconds, trace)
    finally:
        track.stop()
    setups = [track.scale(*whole)[1] for whole, _ in spans]
    generates = [track.scale(*generated)[1] for _, generated in spans]
    file_times(track, untraced)
    untraced_wall = timing_metrics(records)["wall_s"]
    if trace:
        for rec in records:
            rec.times.clear()
            rec.raw.clear()
        file_times(track, traced)

    failed, check_s = check_all(hk, inputs, records)
    attempted = sum(r.attempted for r in records)
    timed = timing_metrics(records)
    measured = timing_metrics(records, raw=True)
    problem = None
    if trace:
        metrics = tracing.summarise([r.layers for r in records if r.layers])
        metrics["oracle.generate_s"] = median(generates)
        metrics["oracle.check_s"] = check_s
        metrics["trace.overhead_s"] = timed["wall_s"] - untraced_wall
        problem = coverage_problem(workload, {**metrics, **timed})
        units = {name: layer_unit(name) for name in metrics}
    else:
        n_input = sum(inp.n for inp in inputs)
        n_final = sum(rec.first[2] for rec in records if rec.first is not None)
        metrics = {
            **timed,
            "setup_s": median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "vertex_reduction": 1 - n_final / n_input,
            "ok_rate": 1 - failed / attempted,
        }
        units = END_TO_END

    print(f"workload {workload}: seed {seed}, {len(inputs)} inputs, {attempted} operations")
    print("  as measured, before scaling to reference seconds: "
          + ", ".join(f"{name} {value:.6f}" for name, value in measured.items()))
    if trace:
        print(f"  wall_s untraced {untraced_wall:.6f} s, traced {timed['wall_s']:.6f} s")
    if problem is not None:
        print(f"layer coverage check failed: {problem}", file=sys.stderr)
    digests = "".join(r.digest or "-" for r in records)
    print(f"digest {workload} {hashlib.sha256(digests.encode()).hexdigest()}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    correct = failed == 0 and problem is None
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and tabulate the metrics."""
    results = {}
    for workload in workloads.BUILDERS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        lines = subprocess.run(argv, stdout=subprocess.PIPE, text=True).stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    print(f"\n{'metric':34s} {'unit':6s}" + "".join(f"{w:>14s}" for w in results))
    names = {name: m["unit"] for r in results.values() for name, m in r["metrics"].items()}
    for name, unit in names.items():
        cells = [r["metrics"].get(name, {}).get("value") for r in results.values()]
        print(f"{name:34s} {unit:6s}" + "".join(f"{v:14.6f}" if v is not None else f"{'-':>14s}" for v in cells))
    print(f"{'correct':41s}" + "".join(f"{str(r['correct']):>14s}" for r in results.values()))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hskernel" / "__init__.py").is_file():
        print(f"no hskernel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
