"""Kernel-output digests over seeded instance families.

Prints one line ``digest <family> <count> <sha256>`` per family. The hash
covers, instance by instance, the ``repr`` of the verdict, the kernel
(``n``, ``d``, ``k``, edges and labels), ``trace.steps``, the sorted
``trace.attempts`` and ``trace.lp_pivots``. Nothing timed is printed, so a
change that keeps every kernel and trace reproduces the committed lines::

    PYTHONPATH=src:tests python tests/kernel_digests.py | diff .github/kernel-digests.txt -

The ``rule5-repeat`` family calls rule 5 right after a rule-5 step that
changed edges. Rules 1-4 record no step in between, so such a call is a
rule-5 step directly after one that removed or added edges in
``trace.steps``; the script exits non-zero when that family makes fewer
than ``REPEAT_FLOOR`` of them, since a family that never repeats rule 5
cannot show how the repeat behaves.

The last line, ``lp-solution``, hashes no kernel: it solves the crown LP of
each instance's whole hypergraph and hashes the ``ExactLPSolution`` (values,
objective, basis and pivot count). Its instances are the petal, mixed-crown
and blob families at seeds 0-3 with k = 4 and 8, the petal family at seeds
0-1 with k = 16 (one connected component of about 1000 variables each), and
400 ``random_rule_instance``s. A change to the simplex that keeps every pivot
reproduces it; one that moves a pivot changes it even where the crown, and
so the kernel, stays the same.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import random
import sys
from typing import Iterator

from helpers import (
    blob4_instance,
    blob_instance,
    cluster_deletion_instance,
    double_star_instance,
    mixed_crown_instance,
    one_size_rule_instance,
    petal_cycle_instance,
    random_rule_instance,
    tournament_fvs_instance,
)
from hskernel.core import Instance
from hskernel.lp import build_crown_lp, solve_exact
from hskernel.oracle import GenSpec, generate
from hskernel.reductions import kernelize

SEEDS = range(4)
REPEAT_FLOOR = 10


def families() -> Iterator[tuple[str, list[Instance]]]:
    """The named families, each built from its own seeds."""
    rng = random.Random(1616)
    yield "random-rule", [random_rule_instance(rng) for _ in range(3000)]
    yield "one-size-rule", [one_size_rule_instance(rng) for _ in range(500)]
    rng = random.Random(2400)
    generated = []
    for trial in range(2400):
        d = 3 + trial % 4
        n = rng.randint(d, 60)
        spec = GenSpec(
            seed=240_000 + trial,
            n=n,
            m=rng.randint(1, 4 * n),
            d=d,
            k=rng.randint(1, 4),
            planted=(None, 2, 3)[trial // 4 % 3],
        )
        generated.append(generate(spec))
    yield "generate", generated
    yield "cluster", [
        cluster_deletion_instance(s, 6, 6, 1 + s % 3, broken=broken)
        for s in SEEDS
        for broken in (0, 2 + s % 3)
    ]
    yield "tournament", [
        tournament_fvs_instance(s, 24, 1 + s % 3, cycles=cycles)
        for s in SEEDS
        for cycles in (0, 2 + s % 3)
    ]
    yield "petal", [petal_cycle_instance(s, 2) for s in SEEDS]
    yield "mixed-crown", [mixed_crown_instance(s, 2) for s in SEEDS]
    yield "blob", [blob_instance(s, 1) for s in SEEDS]
    yield "blob4", [blob4_instance(s, 1) for s in SEEDS]
    yield "double-star", [double_star_instance(s, 2) for s in SEEDS]
    rng = random.Random(5151)
    repeat = []
    for trial in range(1000):
        n = rng.randint(7, 16)
        spec = GenSpec(seed=515_000 + trial, n=n, m=rng.randint(n, 4 * n), d=5, k=2)
        repeat.append(generate(spec))
    yield "rule5-repeat", repeat


def digest(instances: list[Instance]) -> tuple[str, int]:
    """The family's hash, and its rule-5 steps right after a rule-5 step
    that changed edges."""
    h = hashlib.sha256()
    repeats = 0
    for inst in instances:
        result = kernelize(inst)
        kernel, trace = result.instance, result.trace
        record = (
            result.verdict,
            (kernel.n, kernel.d, kernel.k, kernel.edges, kernel.labels),
            trace.steps,
            sorted(trace.attempts.items()),
            trace.lp_pivots,
        )
        h.update(repr(record).encode())
        h.update(b"\n")
        repeats += sum(
            1
            for a, b in zip(trace.steps, trace.steps[1:])
            if a.rule == b.rule == 5 and (a.edges_removed or a.edges_added)
        )
    return h.hexdigest(), repeats


def lp_instances() -> list[Instance]:
    """The instances whose crown LPs the ``lp-solution`` line hashes."""
    instances = [
        family(s, k)
        for family in (petal_cycle_instance, mixed_crown_instance, blob_instance)
        for k in (4, 8)
        for s in SEEDS
    ]
    instances += [petal_cycle_instance(s, 16) for s in range(2)]
    rng = random.Random(2626)
    return instances + [random_rule_instance(rng) for _ in range(400)]


def lp_digest(instances: list[Instance]) -> str:
    """The hash of each instance's crown LP solution, in order."""
    h = hashlib.sha256()
    for inst in instances:
        sol = solve_exact(build_crown_lp(inst.hypergraph))
        h.update(repr((sol.values, sol.objective, sol.basis, sol.pivots)).encode())
        h.update(b"\n")
    return h.hexdigest()


def main() -> None:
    for name, instances in families():
        hexdigest, repeats = digest(instances)
        print(f"digest {name} {len(instances)} {hexdigest}", flush=True)
        if name == "rule5-repeat" and repeats < REPEAT_FLOOR:
            sys.exit(
                f"rule5-repeat: rule 5 followed a changing rule-5 step {repeats} times,"
                f" fewer than {REPEAT_FLOOR}"
            )
    instances = lp_instances()
    print(f"digest lp-solution {len(instances)} {lp_digest(instances)}", flush=True)


if __name__ == "__main__":
    main()
