"""A finished simulation leaves no cyclic garbage.

Every cell builds a whole modelled machine and drops it when the cell
ends.  Reference counting frees that machine at once only if no
reference cycle runs through it; a single cycle keeps all of it (tens of
thousands of tracked objects) alive until the collector's next full
pass, which then spends its time walking them.  Each case runs with the
collector off and then asserts that a collection finds nothing to free,
and that no trace stream the run built is still alive.

The second check is needed because a cycle through a suspended
generator is broken by the generator's finalizer, and objects freed
that way are not in ``gc.collect()``'s count (before Python 3.12 not
even for a generator that never started).  A trace stream in a cycle
with its own record generator is such a case, and it holds the cell's
pointer-chase rings.
"""

import dataclasses
import gc
import weakref

import pytest

from repro import SimConfig, SuiteRunner, registry
from repro.checkpoint import SnapshotStore
from repro.sim.multi_core import run_multi_core
from repro.sim.single_core import run_single_core
from repro.telemetry import Telemetry
from repro.workloads import find_workload
from repro.workloads.mixes import WorkloadMix
from repro.workloads.spec2017 import WorkloadSpec

WARMUP, MEASURE = 200, 400
SCHEMES = registry.names("prefetcher") + ["filtered:spp", "filtered:pythia", "filtered:two-level"]
WORKLOAD = find_workload("605.mcf_s")  # builds two pointer-chase rings
MIX = WorkloadMix("pair", (find_workload("605.mcf_s"), find_workload("603.bwaves_s")))


def _config(engine="scalar", cores=1):
    base = SimConfig.multicore(cores) if cores > 1 else SimConfig()
    return dataclasses.replace(
        base, warmup_records=WARMUP, measure_records=MEASURE, engine=engine
    )


@pytest.fixture
def leftovers(monkeypatch):
    """``leftovers(run)`` runs ``run()`` with the collector off and returns
    what a collection then frees and how many trace streams it built are
    still alive."""
    streams = []
    build = WorkloadSpec.trace

    def tracked(self, n_records, seed=1):
        stream = build(self, n_records, seed)
        streams.append(weakref.ref(stream))
        return stream

    monkeypatch.setattr(WorkloadSpec, "trace", tracked)

    def measure(run):
        streams.clear()
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            run()
            alive = sum(stream() is not None for stream in streams)
            return gc.collect(), alive
        finally:
            if was_enabled:
                gc.enable()

    return measure


NOTHING_LEFT = (0, 0)


@pytest.mark.parametrize("engine", ["scalar", "batched"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_single_core_cell(leftovers, scheme, engine):
    config = _config(engine)

    def run():
        run_single_core(WORKLOAD, scheme, config, seed=1, telemetry=None)

    assert leftovers(run) == NOTHING_LEFT


@pytest.mark.parametrize("engine", ["scalar", "batched"])
@pytest.mark.parametrize("scheme", ["ppf", "pythia"])
def test_two_core_mix(leftovers, scheme, engine):
    config = _config(engine, cores=2)

    def run():
        run_multi_core(MIX, scheme, config, seed=1, telemetry=None)

    assert leftovers(run) == NOTHING_LEFT


def test_telemetry_on(leftovers):
    config = _config()

    def run():
        run_single_core(WORKLOAD, "ppf", config, seed=1, telemetry=Telemetry())

    assert leftovers(run) == NOTHING_LEFT


def test_warmup_store_save_and_restore(leftovers, tmp_path):
    store = SnapshotStore(tmp_path)
    config = _config()

    def run():
        run_single_core(WORKLOAD, "ppf", config, seed=1, warmup_store=store, telemetry=None)

    assert leftovers(run) == NOTHING_LEFT  # miss: warm up, then save
    assert leftovers(run) == NOTHING_LEFT  # hit: restore
    assert store.misses == 1 and store.hits == 1


def test_checkpoint_every(leftovers, tmp_path):
    config = _config()

    def run():
        run_single_core(
            WORKLOAD,
            "ppf",
            config,
            seed=1,
            checkpoint_path=tmp_path / "cell.ckpt",
            checkpoint_every=150,
            telemetry=None,
        )

    assert leftovers(run) == NOTHING_LEFT


def test_serial_sweep(leftovers):
    runner = SuiteRunner(_config(), seed=1, jobs=1)

    def run():
        runner.sweep([WORKLOAD], ["spp", "ppf"], include_baseline=False)

    assert leftovers(run) == NOTHING_LEFT
