"""The benchmark's tracer patches engine attributes by name; a rename that
drops a patch point must fail here rather than only in the benchmark."""

import gc
import importlib
import sys
import weakref
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

from hskernel.cli import write_instance

from helpers import blob_instance, petal_cycle_instance

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("core", "reductions", "lp", "matching", "crown", "cli", "oracle")


def _is_engine(name):
    return name == "hskernel" or name.startswith("hskernel.")


@contextmanager
def _fresh_engine():
    """The engine imported afresh, as the benchmark does; the modules the
    rest of the suite imported are put back afterwards."""
    saved = {name: mod for name, mod in sys.modules.items() if _is_engine(name)}
    for name in saved:
        del sys.modules[name]
    try:
        yield SimpleNamespace(**{m: importlib.import_module(f"hskernel.{m}") for m in MODULES})
    finally:
        for name in [name for name in sys.modules if _is_engine(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


@pytest.fixture
def fresh_hk():
    with _fresh_engine() as hk:
        yield hk


def test_a_fresh_import_leaves_the_previous_copy_collectable():
    # typing caches subscripted aliases such as typing.Callable[[...], None]
    # with their arguments, so an alias over engine classes would keep every
    # imported copy of the engine alive; the benchmark imports it seven times.
    with _fresh_engine() as hk:
        first = weakref.ref(hk.core.Instance)
    del hk
    with _fresh_engine():
        pass
    gc.collect()
    assert first() is None


def test_tracer_installs_counts_and_restores(fresh_hk, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    text = write_instance(petal_cycle_instance(11, 2))
    tracer = tracing.Tracer(fresh_hk)
    tracer.install()
    try:
        patched = list(tracer.patched)
        fresh_hk.reductions.kernelize(fresh_hk.cli.parse_instance(text))
        values = tracer.collect()
    finally:
        tracer.uninstall()
    assert values["crown.find.self_s"] > 0
    assert values["lp.solves"] >= 1
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original


def test_traced_pivots_equal_the_solves_pivots(fresh_hk, monkeypatch):
    # The tracer calls SimplexBackend._pivot by name and drops its return
    # value, so a pivot must update the tableau, objective and basis in
    # place. One that returned a new objective row instead would pivot
    # forever here; the bound turns that into a failure.
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    text = write_instance(petal_cycle_instance(11, 2))
    tracer = tracing.Tracer(fresh_hk)
    tracer.install()
    backend = fresh_hk.lp.SimplexBackend
    traced_pivot = backend._pivot
    calls = []

    def bounded(*args):
        calls.append(None)
        if len(calls) > 10_000:
            raise AssertionError("the simplex does not terminate under the tracer")
        traced_pivot(*args)

    backend._pivot = staticmethod(bounded)
    try:
        result = fresh_hk.reductions.kernelize(fresh_hk.cli.parse_instance(text))
        values = tracer.collect()
    finally:
        tracer.uninstall()
    assert values["lp.solves"] == result.trace.lp_solves >= 1
    assert values["lp.pivots"] == result.trace.lp_pivots == len(calls) > 0


@pytest.mark.parametrize(
    "instance", [petal_cycle_instance(11, 2), blob_instance(1, 1)], ids=["petal", "blob"]
)
def test_engine_attempts_equal_the_traced_attempts(fresh_hk, monkeypatch, instance):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer(fresh_hk)
    tracer.install()
    try:
        result = fresh_hk.reductions.kernelize(
            fresh_hk.cli.parse_instance(write_instance(instance))
        )
        values = tracer.collect()
    finally:
        tracer.uninstall()
    traced = {r: values[f"reductions.rule{r}.attempts"] for r in range(1, 7)}
    assert result.trace.attempts == traced
    assert traced[6] >= 1


def test_traced_blossom_counts_rule_4s_undecided_groups(fresh_hk, monkeypatch):
    # On this blob some over-full subedge has a greedy bracket that straddles
    # k, so rule 4 runs the blossom. The tracer patches the blossom on
    # hskernel.matching; a rule 4 that bound it at import would dodge it.
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer(fresh_hk)
    tracer.install()
    try:
        fresh_hk.reductions.kernelize(
            fresh_hk.cli.parse_instance(write_instance(blob_instance(1, 1)))
        )
        values = tracer.collect()
    finally:
        tracer.uninstall()
    assert values["matching.blossom.calls"] >= 1


def test_traced_hopcroft_karp_counts_rule_6s_crown_matchings(fresh_hk, monkeypatch):
    # Rule 6 solves the crown LP here and matches into its zero vertices.
    # The tracer patches Hopcroft-Karp on hskernel.matching; a crown finder
    # that bound it at import would dodge it.
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer(fresh_hk)
    tracer.install()
    try:
        fresh_hk.reductions.kernelize(
            fresh_hk.cli.parse_instance(write_instance(petal_cycle_instance(11, 2)))
        )
        values = tracer.collect()
    finally:
        tracer.uninstall()
    assert values["matching.hopcroft_karp.calls"] >= 1
