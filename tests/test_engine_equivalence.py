"""Scalar/batched engine equivalence: one contract, two implementations.

The engine seam (``repro.engine``) promises that ``batched`` is
*bit-identical* with ``scalar`` — not approximately equal: the fused
kernel replays the exact scalar event order, so every counter in the
stats snapshot must match to the last unit (see docs/performance.md,
"Batched engine").  This suite enforces the contract three ways:

* every golden-stats cell (none/spp/ppf × two workloads) re-run under
  ``--engine batched`` must match the committed golden file exactly —
  the same oracle the scalar path is pinned to;
* checkpoints cross engines: a snapshot taken under one engine restores
  under the other and finishes bit-identical with a straight run, in
  both directions;
* the engine quantum and telemetry instrumentation are pure
  throughput/observability knobs — neither may perturb results;
* ``advance(sim, n)`` steps exactly ``n`` records under either engine
  (contract point 1 of ``repro.engine.base``).

The final test is the performance gate: ``end_to_end_single_core``
under the batched engine must beat the committed pre-PR baseline by at
least 3×.  It is skipped under CI (shared hosts make wall-clock gates
flaky there) but enforced locally.
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro import registry
from repro.bench.micro import BENCHMARKS, run_benchmarks
from repro.bench.report import default_baseline_path, load_baseline
from repro.core.ppf import PPF
from repro.cpu.o3core import O3Core
from repro.engine.batched import BatchedEngine
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetchers.base import PrefetchCandidate, Prefetcher
from repro.sim.config import SimConfig
from repro.sim.single_core import SingleCoreSim, run_single_core
from repro.telemetry import Telemetry, activate
from repro.workloads import find_workload

GOLDEN_PATH = Path(__file__).parent / "golden" / "single_core_stats.json"

#: Must mirror tests/test_golden_stats.py — same cells, same oracle.
MEASURE_RECORDS = 2_000
WARMUP_RECORDS = 500
SEED = 3


def _config(engine: str = "scalar", **overrides) -> SimConfig:
    config = SimConfig.quick(
        measure_records=MEASURE_RECORDS, warmup_records=WARMUP_RECORDS
    )
    return dataclasses.replace(config, engine=engine, **overrides)


def _load_golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def _assert_results_identical(result, other, context: str) -> None:
    assert result.instructions == other.instructions, context
    assert result.cycles == other.cycles, context
    assert result.average_lookahead_depth == other.average_lookahead_depth, context
    mismatched = {
        stat: (result.stats.get(stat), other.stats.get(stat))
        for stat in set(result.stats) | set(other.stats)
        if result.stats.get(stat) != other.stats.get(stat)
    }
    assert not mismatched, f"{context}: {len(mismatched)} stat(s): {mismatched}"


class TestGoldenCellsUnderBothEngines:
    """The batched engine answers to the same oracle as the scalar one.

    Tolerance is *zero*: the seam contract documents bit-identity, so a
    single off-by-one counter is a real kernel bug, not noise.
    """

    @pytest.mark.parametrize("cell", sorted(_load_golden()))
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_cell_matches_golden(self, cell, engine):
        workload_name, scheme = cell.split("/")
        expect = _load_golden()[cell]
        result = run_single_core(
            find_workload(workload_name), scheme, _config(engine), seed=SEED
        )
        assert result.instructions == expect["instructions"], (cell, engine)
        assert result.cycles == expect["cycles"], (cell, engine)
        assert result.average_lookahead_depth == pytest.approx(
            expect["average_lookahead_depth"], abs=0
        )
        mismatched = {
            stat: (result.stats.get(stat), value)
            for stat, value in expect["stats"].items()
            if result.stats.get(stat) != value
        }
        assert not mismatched, (
            f"{cell} under {engine}: {len(mismatched)} stat(s) diverged: {mismatched}"
        )

    def test_ppf_cell_uses_the_fused_kernel(self, monkeypatch):
        """Guard against the fused path silently falling back to generic
        (the golden comparison would still pass, but the 3× gate is won
        by the fused kernel — losing it is a performance regression).

        The fused PPF runner inlines the whole hierarchy and PPF's
        training, so a ``ppf`` cell that stays on it calls neither
        ``MemoryHierarchy.access`` nor ``PPF.train``; the generic runner
        calls ``PPF.train`` on every L2 demand access."""
        access = _counted(monkeypatch, MemoryHierarchy, "access")
        train = _counted(monkeypatch, PPF, "train")
        workload = find_workload("605.mcf_s")
        sim = SingleCoreSim(workload, "ppf", _config("batched"), seed=SEED)
        assert isinstance(sim._engine, BatchedEngine)
        sim.warmup()
        sim.begin_measurement()
        sim.measure()
        assert sim.consumed == WARMUP_RECORDS + MEASURE_RECORDS
        assert not access, f"ppf cell left the fused runner: {len(access)} access calls"
        assert not train, f"ppf cell left the fused runner: {len(train)} PPF.train calls"


def _counted(monkeypatch, owner, name: str) -> list:
    """Count calls of ``owner.name`` for the rest of the test."""
    calls = []
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _fifo_llc(sim) -> None:
    """Swap a FIFO LLC of the same geometry into ``sim``'s hierarchy."""
    llc = sim.hierarchy.llc
    sim.hierarchy.llc = Cache(
        "LLC", llc.size_bytes, llc.associativity, llc.latency, replacement="fifo"
    )
    sim.hierarchy.stats.attach("llc", sim.hierarchy.llc.stats)


#: Every registry prefetcher but ``ppf`` (pinned above), plus the zoo's
#: filtered specs; ``filtered:spp`` builds the production PPF, so it
#: takes the fused PPF runner, and the rest the fused generic one.
OTHER_SCHEMES = [name for name in registry.names("prefetcher") if name != "ppf"] + [
    "filtered:spp",
    "filtered:pythia",
    "filtered:two-level",
]


class TestRunnersStayOnTheirPath:
    """Each cell stays on the runner its configuration selects.

    Every runner is exact, so the golden and fuzz comparisons pass on
    any of them; these guards catch a cell silently sliding onto a
    slower path.  The two fused runners inline the stock hierarchy and
    never call ``MemoryHierarchy.access``; the ``core.step`` runner
    calls it once per record.
    """

    @pytest.mark.parametrize("scheme", OTHER_SCHEMES)
    def test_other_prefetchers_use_the_fused_hierarchy(self, monkeypatch, scheme):
        access = _counted(monkeypatch, MemoryHierarchy, "access")
        config = _config("batched", warmup_records=200, measure_records=600)
        run_single_core(find_workload("605.mcf_s"), scheme, config, seed=SEED)
        assert not access, f"{scheme} cell left the fused runners"

    def test_a_prefetcher_registered_at_test_time_runs_fused_and_exact(self, monkeypatch):
        """The hook contract (``repro.prefetchers.base``): hooks touch
        only the prefetcher's own state, so a prefetcher registered the
        way docs/architecture.md shows runs on the fused generic runner
        and matches the scalar engine."""

        @registry.register("prefetcher", "test-next-2")
        class NextTwo(Prefetcher):
            name = "test-next-2"

            def train(self, addr, pc, cache_hit, cycle):
                # Reads every argument, so a runner that passes a wrong
                # one (the L1 cycle for the L2 one, say) diverges.
                block = (addr >> 6) + cycle % 3 + (pc & 1) + cache_hit
                return [
                    PrefetchCandidate(addr=(block + 1) << 6),
                    PrefetchCandidate(addr=(block + 2) << 6, fill_l2=False),
                ]

        workload = find_workload("623.xalancbmk_s")
        try:
            scalar = run_single_core(workload, "test-next-2", _config("scalar"), seed=SEED)
            access = _counted(monkeypatch, MemoryHierarchy, "access")
            batched = run_single_core(workload, "test-next-2", _config("batched"), seed=SEED)
        finally:
            registry.unregister("prefetcher", "test-next-2")
        assert not access, "a registered prefetcher left the fused generic runner"
        assert scalar.stats["core0.prefetcher.prefetch.issued_llc"] > 0
        _assert_results_identical(batched, scalar, "test-next-2")

    def test_fifo_llc_cell_steps(self, monkeypatch):
        access = _counted(monkeypatch, MemoryHierarchy, "access")
        config = _config("batched", warmup_records=200, measure_records=600)
        sim = SingleCoreSim(find_workload("605.mcf_s"), "spp", config, seed=SEED)
        _fifo_llc(sim)
        sim.warmup()
        sim.begin_measurement()
        sim.measure()
        assert sim.consumed == 800
        assert len(access) == 800, "a FIFO-LLC cell left the core.step runner"


class TestCrossEngineCheckpoints:
    """``state_dict`` is engine-portable: the seam contract requires all
    state flushed when ``advance`` returns, so a snapshot taken under
    either engine restores under the other at the same record boundary.
    """

    @pytest.mark.parametrize(
        "warmup_engine,resume_engine",
        [("scalar", "batched"), ("batched", "scalar")],
    )
    def test_round_trip_finishes_bit_identical(self, warmup_engine, resume_engine):
        workload = find_workload("623.xalancbmk_s")
        reference = run_single_core(workload, "ppf", _config("scalar"), seed=SEED)

        first = SingleCoreSim(workload, "ppf", _config(warmup_engine), seed=SEED)
        first.warmup()
        state = first.state_dict()

        second = SingleCoreSim(workload, "ppf", _config(resume_engine), seed=SEED)
        second.load_state(state)
        second.begin_measurement()
        second.measure()
        _assert_results_identical(
            second.result(), reference, f"{warmup_engine}->{resume_engine}"
        )

    def test_mid_measure_snapshot_crosses_engines(self):
        """Odd boundaries too: a batched sim snapshotted after an odd
        number of measured records resumes scalar, and vice versa
        back — two hops, still bit-identical."""
        workload = find_workload("605.mcf_s")
        reference = run_single_core(workload, "ppf", _config("scalar"), seed=SEED)

        sim = SingleCoreSim(workload, "ppf", _config("batched"), seed=SEED)
        sim.warmup()
        sim.begin_measurement()
        sim.advance(777)
        hop = SingleCoreSim(workload, "ppf", _config("scalar"), seed=SEED)
        hop.load_state(sim.state_dict())
        hop.advance(400)
        final = SingleCoreSim(workload, "ppf", _config("batched"), seed=SEED)
        final.load_state(hop.state_dict())
        final.measure()
        _assert_results_identical(final.result(), reference, "batched->scalar->batched")


class TestKnobsDoNotPerturbResults:
    def test_engine_quantum_is_a_throughput_knob(self):
        workload = find_workload("623.xalancbmk_s")
        reference = run_single_core(workload, "ppf", _config("scalar"), seed=SEED)
        for quantum in (0, 1, 7, 256, 4096):
            result = run_single_core(
                workload, "ppf", _config("batched", engine_quantum=quantum), seed=SEED
            )
            _assert_results_identical(result, reference, f"engine_quantum={quantum}")

    def test_probe_sampling_shim_is_read_only(self):
        """Instrumented batched runs sample probes between advances;
        every non-telemetry stat must match the uninstrumented run."""
        workload = find_workload("605.mcf_s")
        plain = run_single_core(workload, "ppf", _config("batched"), seed=SEED)
        session = Telemetry(probe_every=300)
        with activate(session):
            probed = run_single_core(workload, "ppf", _config("batched"), seed=SEED)
        assert any(key.startswith("telemetry.") for key in probed.stats)
        assert plain.instructions == probed.instructions
        assert plain.cycles == probed.cycles
        mismatched = {
            stat: (plain.stats.get(stat), probed.stats.get(stat))
            for stat in plain.stats
            if plain.stats.get(stat) != probed.stats.get(stat)
        }
        assert not mismatched, mismatched


class _SteppedCore(O3Core):
    """Any core type but ``O3Core`` itself takes the ``core.step`` runner."""


class TestAdvanceStepsExactly:
    """Contract point 1 for one core: ``advance(sim, n)`` steps exactly
    ``n`` records — across turn boundaries of the batched engine's
    quantum too — and returns fewer only where the trace ends.  Each
    runner path ends the trace its own way: the fused PPF one on a
    synthetic stream's record count or a file stream's end, the fused
    generic one on a short burst, the ``core.step`` one (a foreign core
    or a FIFO LLC) on ``StopIteration``."""

    @pytest.mark.parametrize("path", ["fused", "fused-file", "generic", "step", "step-fifo"])
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_advance_counts(self, engine, path, converted_trace):
        config = _config(engine, engine_quantum=7)
        total = config.warmup_records + config.measure_records
        workload = find_workload("605.mcf_s")
        if path == "fused-file":
            workload = converted_trace(1_000)  # wraps around
        scheme = "spp" if path in ("generic", "step-fifo") else "ppf"
        sim = SingleCoreSim(workload, scheme, config, seed=SEED)
        if path == "step":
            sim.core = _SteppedCore(0, sim.hierarchy, config.core)
        elif path == "step-fifo":
            _fifo_llc(sim)
        # 10 crosses a 7-record turn boundary; 13 ends off a multiple of 7.
        for n in (10, 13, 1):
            before = sim.consumed
            assert sim.advance(n) == n
            assert sim.consumed == before + n
            assert sim.trace.emitted == sim.consumed
        left = total - sim.consumed
        assert sim.advance(left + 50) == left
        assert sim.consumed == total
        assert sim.advance(5) == 0
        assert sim.consumed == total


@pytest.mark.skipif(
    os.environ.get("CI") is not None,
    reason="wall-clock gate is advisory under CI (shared hosts); enforced locally",
)
def test_batched_engine_is_at_least_3x_over_committed_baseline():
    """``end_to_end_single_core`` under ``--engine batched`` vs the
    committed pre-PR baseline (benchmarks/baseline_pre_pr.json).

    Best-of-N with whole-comparison retries, same noise discipline as
    tests/test_telemetry_overhead.py.  The committed baseline was
    recorded on the pre-optimization scalar path, so the batched engine
    clears 3× with margin on any comparable host.
    """
    assert "end_to_end_single_core_batched" in BENCHMARKS
    baseline = load_baseline(default_baseline_path())
    assert baseline is not None, "committed baseline missing"
    base_ns = baseline["results"]["end_to_end_single_core"]["ns_per_op"]
    speedups = []
    for _ in range(3):
        (result,) = run_benchmarks(
            ["end_to_end_single_core_batched"], scale=0.3, repeats=3
        )
        assert result.ns_per_op > 0
        speedup = base_ns / result.ns_per_op
        speedups.append(speedup)
        if speedup >= 3.0:
            return
    pytest.fail(
        f"batched engine missed the 3x gate in every attempt: "
        f"speedups {[f'{s:.2f}x' for s in speedups]} vs baseline "
        f"{base_ns:.0f} ns/op"
    )


@pytest.mark.skipif(
    os.environ.get("CI") is not None,
    reason="wall-clock gate is advisory under CI (shared hosts); enforced locally",
)
def test_batched_multi_core_is_at_least_2_5x_over_scalar():
    """``end_to_end_multi_core_batched`` vs the live scalar multi-core
    engine, measured back-to-back in the same process.

    Unlike the single-core gate (which compares against the committed
    pre-PR baseline and clears 3x with ~20% margin), the multi-core
    gate's margin over a *recorded* baseline is thin enough that the
    ambient slowdown of a long-lived test process — allocator and GC
    state after hundreds of prior tests — can eat it.  Pairing both
    engines in one ``run_benchmarks`` call cancels that slowdown from
    the ratio, the same discipline tests/test_telemetry_overhead.py
    uses for its overhead bound.  The committed
    ``end_to_end_multi_core`` baseline entry still anchors the
    ``python -m repro bench`` regression comparison; here we assert it
    exists and was recorded on the same op count so the two views stay
    comparable.  Runs at scale 1.0: the multi-core benchmark's fixed
    per-run setup is a larger fraction of a scaled-down run, which
    would understate the steady-state speedup.
    """
    names = ["end_to_end_multi_core", "end_to_end_multi_core_batched"]
    assert all(name in BENCHMARKS for name in names)
    baseline = load_baseline(default_baseline_path())
    assert baseline is not None, "committed baseline missing"
    base = baseline["results"]["end_to_end_multi_core"]
    assert base["ops"] == BENCHMARKS["end_to_end_multi_core"][1]
    speedups = []
    for _ in range(3):
        results = {
            r.name: r for r in run_benchmarks(names, scale=1.0, repeats=3)
        }
        batched = results["end_to_end_multi_core_batched"].best_wall_s
        scalar = results["end_to_end_multi_core"].best_wall_s
        assert batched > 0
        speedup = scalar / batched
        speedups.append(speedup)
        if speedup >= 2.5:
            return
    pytest.fail(
        f"batched multi-core engine missed the 2.5x gate in every attempt: "
        f"speedups {[f'{s:.2f}x' for s in speedups]} vs the live scalar "
        f"engine"
    )
