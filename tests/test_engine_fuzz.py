"""Differential fuzzing of the batched engine against the scalar oracle.

The golden cells pin engine equivalence on a handful of hand-picked
configurations.  These properties draw the configuration instead: the
workload, the prefetcher spec, the cache geometry (with an LRU LLC, on
which the fused PPF runner takes ``ppf`` and the fused generic runner
every other spec, or a FIFO LLC, on which every cell steps through
``core.step``), the batched engine's ``engine_quantum``, telemetry off
or on, and one or two cut points.  For a single-core cell they assert that

* the two engines' ``state_dict()``s are byte-equal, as the JSON a
  snapshot stores, at every advance boundary;
* the final ``RunResult``s are equal;
* a snapshot taken at a cut point, loaded into a fresh sim of the other
  engine and run on, ends at the straight run's result.

A 2-core mix property checks the same at phase boundaries only: inside
the measure phase the batched engine may run L1 hits ahead of the
schedule, the documented relaxation of contract point 2
(``repro.engine.base``).

Tier-1 runs a small derandomized profile.  ``--hypothesis-profile
engine-fuzz-deep`` (registered in ``tests/conftest.py``) runs the same
properties randomized and at depth.
"""

import dataclasses
import json
from typing import Optional, Tuple

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import SimConfig, registry
from repro.memory.cache import Cache
from repro.memory.hierarchy import HierarchyConfig
from repro.sim.multi_core import MultiCoreSim
from repro.sim.single_core import SingleCoreSim
from repro.telemetry import Telemetry
from repro.workloads import find_workload
from repro.workloads.mixes import WorkloadMix

DEEP_PROFILE = "engine-fuzz-deep"
ENGINES = ("scalar", "batched")
#: The benchmark's three single-core models plus the two pointer-chase
#: families of the zoo sweep.
WORKLOADS = ("623.xalancbmk_s", "605.mcf_s", "603.bwaves_s", "429.mcf", "cassandra")
SCHEMES = tuple(registry.names("prefetcher")) + (
    "filtered:spp",
    "filtered:pythia",
    "filtered:two-level",
)
QUANTA = (0, 1, 7, 64, 4096)
PROBE_EVERY = 97
SEED = 5
WARMUP, MEASURE = 200, 500
TOTAL = WARMUP + MEASURE
MIX_WARMUP, MIX_MEASURE = 150, 350


def _settings(fast_examples: int, deep_share: int = 1) -> settings:
    """Tier-1's fast settings, or a share of the deep profile's examples
    when ``--hypothesis-profile engine-fuzz-deep`` loaded it."""
    if settings.get_current_profile_name() == DEEP_PROFILE:
        return settings(max_examples=max(1, settings.default.max_examples // deep_share))
    return settings(
        max_examples=fast_examples,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )


@st.composite
def hierarchies(draw) -> HierarchyConfig:
    """Cache geometry with a power-of-two set count at every level (set
    indexing masks), plus the prefetch issue limits."""

    def level(set_counts, ways):
        assoc = draw(st.sampled_from(ways))
        return draw(st.sampled_from(set_counts)) * assoc * 64, assoc

    l1_size, l1_assoc = level((8, 16, 64), (2, 4, 12))
    l2_size, l2_assoc = level((32, 128, 1024), (4, 8))
    llc_size, llc_assoc = level((64, 256, 2048), (4, 16))
    return HierarchyConfig(
        l1_size=l1_size,
        l1_assoc=l1_assoc,
        l1_latency=draw(st.sampled_from((1, 4))),
        l2_size=l2_size,
        l2_assoc=l2_assoc,
        l2_latency=draw(st.sampled_from((10, 14))),
        llc_size_per_core=llc_size,
        llc_assoc=llc_assoc,
        llc_latency=draw(st.sampled_from((20, 38))),
        max_prefetches_per_trigger=draw(st.sampled_from((4, 32))),
        prefetch_queue_size=draw(st.sampled_from((8, 64))),
    )


@dataclasses.dataclass(frozen=True)
class Cell:
    """One drawn single-core configuration."""

    workload: str
    scheme: str
    hierarchy: HierarchyConfig
    fifo_llc: bool
    quantum: int
    probe_every: Optional[int]
    #: Sorted record counts in ``[WARMUP, TOTAL)`` where both runs pause
    #: (a cut at ``WARMUP`` is before the stats reset).
    cuts: Tuple[int, ...]
    #: Engine of the fresh sim that continues from each cut's snapshot;
    #: the snapshot comes from the other engine's run.
    resume: Tuple[str, ...]


@st.composite
def cells(draw) -> Cell:
    quantum = draw(st.sampled_from(QUANTA))
    kinds = st.sampled_from(("warmup-end", "mid-measure", "off-quantum"))
    cuts = set()
    for kind in draw(st.lists(kinds, min_size=1, max_size=2)):
        if kind == "warmup-end":
            cuts.add(WARMUP)
        elif kind == "mid-measure":
            cuts.add(draw(st.integers(WARMUP + 1, TOTAL - 1)))
        else:
            # Ends the measure phase's first advance inside a turn.
            q = quantum if 1 < quantum < MEASURE else 7
            turns = draw(st.integers(0, MEASURE // q - 1))
            cuts.add(WARMUP + turns * q + draw(st.integers(1, q - 1)))
    cuts = tuple(sorted(cuts))
    return Cell(
        workload=draw(st.sampled_from(WORKLOADS)),
        scheme=draw(st.sampled_from(SCHEMES)),
        hierarchy=draw(hierarchies()),
        fifo_llc=draw(st.booleans()),
        quantum=quantum,
        probe_every=draw(st.sampled_from((None, PROBE_EVERY))),
        cuts=cuts,
        resume=tuple(draw(st.sampled_from(ENGINES)) for _ in cuts),
    )


def _fifo_llc(hierarchy) -> None:
    """Swap in a FIFO LLC of the same geometry (the fused runners inline
    LRU only, so every core then takes the ``core.step`` runner)."""
    llc = hierarchy.llc
    hierarchy.llc = Cache("LLC", llc.size_bytes, llc.associativity, llc.latency, replacement="fifo")
    hierarchy.stats.attach("llc", hierarchy.llc.stats)


def _config(engine, hierarchy, quantum, base, warmup, measure) -> SimConfig:
    return dataclasses.replace(
        base,
        hierarchy=hierarchy,
        warmup_records=warmup,
        measure_records=measure,
        engine=engine,
        engine_quantum=quantum,
    )


def _single(cell: Cell, engine: str, telemetry: bool = True) -> SingleCoreSim:
    config = _config(engine, cell.hierarchy, cell.quantum, SimConfig(), WARMUP, MEASURE)
    sim = SingleCoreSim(find_workload(cell.workload), cell.scheme, config, seed=SEED)
    if cell.fifo_llc:
        _fifo_llc(sim.hierarchy)
    if telemetry and cell.probe_every:
        sim.attach_telemetry(Telemetry(probe_every=cell.probe_every))
    return sim


def _run_to(sim: SingleCoreSim, stop: int) -> None:
    """Advance to ``stop`` records, resetting stats on the way past the
    warmup boundary (a stop at ``WARMUP`` stays before the reset)."""
    if not sim.measuring:
        sim.advance(min(stop, WARMUP) - sim.consumed)
        if stop <= WARMUP:
            return
        sim.begin_measurement()
    sim.advance(stop - sim.consumed)


def _dump(state) -> str:
    """A state as the bytes a snapshot stores (compact, key order kept)."""
    return json.dumps(state, separators=(",", ":"), allow_nan=False)


def _plain(result) -> dict:
    """A result without telemetry bookkeeping keys (a resumed run has
    no probes attached)."""
    fields = dataclasses.asdict(result)
    if "stats" in fields:
        fields["stats"] = {
            key: value for key, value in fields["stats"].items() if not key.startswith("telemetry.")
        }
    return fields


#: The production configuration: PPF over SPP on the stock geometry, so
#: the fused runner runs in every profile, cut inside a 7-record turn.
FUSED_CELL = Cell(
    workload="623.xalancbmk_s",
    scheme="ppf",
    hierarchy=HierarchyConfig(),
    fifo_llc=False,
    quantum=7,
    probe_every=None,
    cuts=(WARMUP, WARMUP + 7 * 30 + 3),
    resume=("scalar", "batched"),
)
#: The fused runner again, on small caches (evictions at every level)
#: with probes attached and one-record turns.
FUSED_SMALL_CELL = Cell(
    workload="605.mcf_s",
    scheme="ppf",
    hierarchy=HierarchyConfig(
        l1_size=8 * 2 * 64,
        l1_assoc=2,
        l2_size=32 * 4 * 64,
        l2_assoc=4,
        llc_size_per_core=64 * 4 * 64,
        llc_assoc=4,
        prefetch_queue_size=8,
    ),
    fifo_llc=False,
    quantum=1,
    probe_every=PROBE_EVERY,
    cuts=(WARMUP + 250,),
    resume=("batched",),
)
#: A zoo spec on small LRU caches with probes attached: the fused
#: generic runner, with every prefetcher hook firing (L2 and LLC useful
#: prefetches, L2- and LLC-only fills, useless evictions, queue drops).
GENERIC_CELL = Cell(
    workload="623.xalancbmk_s",
    scheme="filtered:pythia",
    hierarchy=HierarchyConfig(
        l1_size=8 * 2 * 64,
        l1_assoc=2,
        l2_size=32 * 4 * 64,
        l2_assoc=4,
        llc_size_per_core=64 * 4 * 64,
        llc_assoc=4,
        prefetch_queue_size=8,
    ),
    fifo_llc=False,
    quantum=7,
    probe_every=PROBE_EVERY,
    cuts=(WARMUP, WARMUP + 7 * 20 + 5),
    resume=("batched", "scalar"),
)
#: A zoo spec over a FIFO LLC with probes attached: the ``core.step``
#: runner.
STEP_CELL = Cell(
    workload="429.mcf",
    scheme="filtered:pythia",
    hierarchy=HierarchyConfig(
        l1_size=16 * 4 * 64, l1_assoc=4, llc_size_per_core=256 * 4 * 64, llc_assoc=4
    ),
    fifo_llc=True,
    quantum=64,
    probe_every=PROBE_EVERY,
    cuts=(WARMUP + 64 * 2 + 9,),
    resume=("batched",),
)


@_settings(fast_examples=48)
@given(cell=cells())
@example(cell=FUSED_CELL)
@example(cell=FUSED_SMALL_CELL)
@example(cell=GENERIC_CELL)
@example(cell=STEP_CELL)
def test_batched_replays_scalar_one_core(cell):
    sims = {engine: _single(cell, engine) for engine in ENGINES}
    snapshots = {}
    for stop in cell.cuts + (TOTAL,):
        for sim in sims.values():
            _run_to(sim, stop)
        states = {engine: _dump(sim.state_dict()) for engine, sim in sims.items()}
        assert states["batched"] == states["scalar"], f"states differ at record {stop}"
        snapshots[stop] = states
    results = {}
    for engine, sim in sims.items():
        sim.measure()  # nothing left to step: drains the outstanding loads
        results[engine] = sim.result()
    assert dataclasses.asdict(results["batched"]) == dataclasses.asdict(results["scalar"])

    for stop, engine in zip(cell.cuts, cell.resume):
        source = "scalar" if engine == "batched" else "batched"
        resumed = _single(cell, engine, telemetry=False)
        resumed.load_state(json.loads(snapshots[stop][source]))
        _run_to(resumed, TOTAL)
        resumed.measure()
        assert _plain(resumed.result()) == _plain(results["scalar"]), (
            f"{source} snapshot at record {stop} continued under {engine}"
        )


def _mix_sim(workloads, scheme, hierarchy, fifo_llc, quantum, engine, probe_every=None):
    mix = WorkloadMix("fuzz-pair", tuple(find_workload(name) for name in workloads))
    config = _config(engine, hierarchy, quantum, SimConfig.multicore(2), MIX_WARMUP, MIX_MEASURE)
    sim = MultiCoreSim(mix, scheme, config, seed=SEED)
    if fifo_llc:
        _fifo_llc(sim.hierarchy)
    if probe_every:
        sim.attach_telemetry(Telemetry(probe_every=probe_every))
    return sim


@_settings(fast_examples=5, deep_share=6)
@given(
    workloads=st.tuples(st.sampled_from(WORKLOADS), st.sampled_from(WORKLOADS)),
    scheme=st.sampled_from(SCHEMES),
    hierarchy=hierarchies(),
    fifo_llc=st.booleans(),
    quantum=st.sampled_from(QUANTA),
    probe_every=st.sampled_from((None, PROBE_EVERY)),
    cut=st.integers(1, MIX_MEASURE),
)
@example(
    workloads=("605.mcf_s", "623.xalancbmk_s"),
    scheme="ppf",
    hierarchy=HierarchyConfig(),
    fifo_llc=False,
    quantum=7,
    probe_every=None,
    cut=101,
)
def test_batched_replays_scalar_two_core_mix(
    workloads, scheme, hierarchy, fifo_llc, quantum, probe_every, cut
):
    def build(engine, probes=probe_every):
        return _mix_sim(workloads, scheme, hierarchy, fifo_llc, quantum, engine, probes)

    sims = {engine: build(engine) for engine in ENGINES}
    for sim in sims.values():
        sim.warmup()
    warm = {engine: _dump(sim.state_dict()) for engine, sim in sims.items()}
    assert warm["batched"] == warm["scalar"], "states differ at warmup end"
    for sim in sims.values():
        sim.begin_measurement()
        sim.advance(cut)
    # Mid-measure the batched state may sit a few records past the
    # scalar one; restored under either engine it still finishes exact.
    mid = _dump(sims["batched"].state_dict())
    results = {engine: _plain(sim.measure()) for engine, sim in sims.items()}
    assert results["batched"] == results["scalar"]

    resumed = build("scalar", probes=None)
    resumed.load_state(json.loads(mid))
    assert _plain(resumed.measure()) == results["scalar"], "batched mid-measure state under scalar"
    resumed = build("batched", probes=None)
    resumed.load_state(json.loads(warm["scalar"]))
    resumed.begin_measurement()
    assert _plain(resumed.measure()) == results["scalar"], "scalar warmup snapshot under batched"
