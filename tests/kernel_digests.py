"""Kernel-output digests over seeded instance families.

Prints one line ``digest <family> <count> <sha256>`` per family. The hash
covers, instance by instance, the ``repr`` of the verdict, the kernel
(``n``, ``d``, ``k``, edges and labels), ``trace.steps``, the sorted
``trace.attempts`` and ``trace.lp_pivots``. Nothing timed is printed, so a
change that keeps every kernel and trace reproduces the committed lines::

    PYTHONPATH=src:tests python tests/kernel_digests.py | diff .github/kernel-digests.txt -

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import random
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
from hskernel.oracle import GenSpec, generate
from hskernel.reductions import kernelize

SEEDS = range(4)


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


def digest(instances: list[Instance]) -> str:
    h = hashlib.sha256()
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
    return h.hexdigest()


def main() -> None:
    for name, instances in families():
        print(f"digest {name} {len(instances)} {digest(instances)}", flush=True)


if __name__ == "__main__":
    main()
