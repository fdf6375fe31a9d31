"""Multi-core simulation driver (§5.3 multi-core methodology).

``cores`` instances of the workload mix run concurrently: private
L1/L2 and one prefetcher per core, shared LLC and DRAM channels.  Cores
advance in global cycle order, so they genuinely contend for LLC
capacity and DRAM bandwidth — the effect that makes filtering useless
prefetches worth more in multi-core than single-core (§6.2).

Methodology mirrors the paper: all cores warm up, stats reset, then each
core is measured over its next ``measure_records`` loads.  Cores that
finish early keep executing (their trace replays) so the contention on
the still-measuring cores stays realistic; the replayed work is not
counted.

Like the single-core driver, every phase advances through the engine
seam (``config.engine``): the scalar engine runs the extracted
record-at-a-time loop (heap-scheduled, same picks), the batched engine
runs cores in cycle quanta over fused per-core kernels — see
:mod:`repro.engine.multi_core` for the schedule-preservation argument.
Both are bit-identical, checkpointable at any quantum boundary, and
telemetry probes sample at ``probe_every``-aligned record counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..checkpoint import (
    KIND_MULTI_CORE,
    Snapshot,
    SnapshotError,
    SnapshotStore,
    load_snapshot,
    save_snapshot,
)
from ..cpu.o3core import O3Core
from ..cpu.trace import TraceRecord
from ..engine import make_engine
from ..memory.hierarchy import MemoryHierarchy
from ..prefetchers.base import Prefetcher
from ..telemetry.probes import ProbeSet
from ..telemetry.session import _UNSET, Telemetry
from ..telemetry.session import resolve as _resolve_telemetry
from ..workloads.mixes import WorkloadMix
from ..workloads.spec2017 import WorkloadSpec
from .config import SimConfig
from .fingerprint import fingerprint_digest
from .single_core import make_prefetcher


@dataclass
class CoreOutcome:
    """Per-core measured numbers within a mix run.

    Built from the core's private scope of the hierarchy stats tree
    (``core<i>.*``), captured at the moment the core finishes its
    measured records; the full scoped snapshot rides along in ``stats``.
    """

    workload: str
    instructions: int
    cycles: int
    l2_misses: int
    prefetches_issued: int
    prefetches_useful: int
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles


@dataclass
class MultiCoreResult:
    """Outcome of one mix under one prefetching scheme."""

    mix_name: str
    prefetcher: str
    cores: List[CoreOutcome] = field(default_factory=list)

    @property
    def per_core_ipc(self) -> List[float]:
        return [core.ipc for core in self.cores]

    @property
    def total_useful(self) -> int:
        return sum(core.prefetches_useful for core in self.cores)

    @property
    def total_issued(self) -> int:
        return sum(core.prefetches_issued for core in self.cores)


class _EndlessTrace:
    """Replay the workload forever (fresh seed per lap) for contention.

    Each core's addresses are relocated into a disjoint physical region
    (as the OS would map separate processes) — otherwise two copies of
    the same benchmark would constructively share the LLC.  Iteration is
    record-for-record identical to the generator this class replaced;
    the class form exists so the lap position can be snapshotted.

    ``_pending`` holds at most one *raw* (un-relocated) record that was
    pulled from the stream but never simulated: the batched engine's
    run-ahead can complete a measurement while a suspended core still
    holds a just-pulled record the scalar schedule never reached.  It is
    replayed before the stream resumes, and it rides along in snapshots,
    so a post-completion checkpoint round-trips exactly.  The scalar
    engine never parks anything here.
    """

    def __init__(self, workload: WorkloadSpec, chunk: int, seed: int, core: int) -> None:
        self._workload = workload
        self._chunk = chunk
        self._offset = core << 44
        self.lap_seed = seed
        self._stream = workload.trace(chunk, seed=seed)
        self._it = iter(self._stream)
        self._pending: Optional[TraceRecord] = None

    def __iter__(self) -> "_EndlessTrace":
        return self

    def __next__(self) -> TraceRecord:
        rec = self._pending
        if rec is not None:
            self._pending = None
        else:
            try:
                rec = next(self._it)
            except StopIteration:
                self.lap_seed += 1
                self._stream = self._workload.trace(self._chunk, seed=self.lap_seed)
                self._it = iter(self._stream)
                rec = next(self._it)
        return TraceRecord(pc=rec.pc, addr=rec.addr + self._offset, bubble=rec.bubble)

    def state_dict(self) -> dict:
        stream_state = getattr(self._stream, "state_dict", None)
        if stream_state is None:
            raise SnapshotError(
                f"trace of workload {self._workload.name!r} is not checkpointable"
            )
        pending = self._pending
        return {
            "lap_seed": self.lap_seed,
            "stream": stream_state(),
            "pending": None
            if pending is None
            else [pending.pc, pending.addr, pending.bubble],
        }

    def load_state(self, state: dict) -> None:
        lap_seed = int(state["lap_seed"])
        if lap_seed != self.lap_seed:
            self.lap_seed = lap_seed
            self._stream = self._workload.trace(self._chunk, seed=lap_seed)
            self._it = iter(self._stream)
        self._stream.load_state(state["stream"])
        pending = state["pending"]
        self._pending = (
            None
            if pending is None
            else TraceRecord(pc=pending[0], addr=pending[1], bubble=pending[2])
        )


def multi_core_warmup_digest(
    mix: WorkloadMix, prefetcher: str, config: SimConfig, seed: int
) -> str:
    """Content address of a mix's warmup-boundary snapshot.

    Unlike the single-core key, ``measure_records`` stays in: the warmup
    phase interleaves cores by cycle order over laps of length
    ``warmup + measure``, so the measurement length shapes warmup state.
    """
    token = json.dumps(
        [
            "warmup-mc",
            mix.name,
            [spec.name for spec in mix.workloads],
            prefetcher,
            fingerprint_digest(config),
            seed,
        ]
    )
    return hashlib.sha256(token.encode("utf-8")).hexdigest()[:32]


class MultiCoreSim:
    """One mix simulation with explicit phases and snapshot support.

    ``state_dict()`` is valid at any record boundary of *either* phase:
    warmup snapshots capture the reusable warmed state, and — since the
    per-core measurement bookkeeping (``outcomes``) became sim state —
    mid-measurement snapshots restore to the exact record, captured
    outcomes included, under either engine.
    """

    def __init__(
        self,
        mix: WorkloadMix,
        prefetcher: str,
        config: Optional[SimConfig] = None,
        seed: int = 1,
    ) -> None:
        cores = mix.cores
        self.mix = mix
        self.prefetcher_name = prefetcher
        self.config = config or SimConfig.multicore(cores)
        self.seed = seed
        self.prefetchers: List[Prefetcher] = [
            make_prefetcher(prefetcher) for _ in range(cores)
        ]
        self.hierarchy = MemoryHierarchy(
            num_cores=cores,
            config=self.config.hierarchy,
            dram_config=self.config.dram,
            prefetchers=self.prefetchers,
        )
        self.o3cores = [O3Core(i, self.hierarchy, self.config.core) for i in range(cores)]
        chunk = self.config.warmup_records + self.config.measure_records
        self.traces = [
            _EndlessTrace(spec, chunk, seed + i, core=i)
            for i, spec in enumerate(mix.workloads)
        ]
        self.steps = [0] * cores
        self.measuring = False
        #: Per-core measured numbers, filled as each core crosses its
        #: ``measure_records`` target.  Sim state (not a ``measure()``
        #: local) so mid-measurement snapshots are resumable.
        self.outcomes: List[Optional[CoreOutcome]] = [None] * cores
        #: The driver for the per-access loop (``config.engine``); every
        #: phase advances through it, so scalar/batched is a pure seam.
        self._engine = make_engine(self.config)
        #: Records stepped so far across both phases (the cursor the
        #: telemetry cadence and checkpoint loop align on).
        self.consumed = 0
        self._telemetry: Optional[Telemetry] = None
        self._probe_set: Optional[ProbeSet] = None

    # -- probe surface (index-0 views, matching the single-core shape) ---------

    @property
    def core(self) -> O3Core:
        """Core 0: lets single-core telemetry probes attach unchanged."""
        return self.o3cores[0]

    @property
    def prefetcher(self) -> Prefetcher:
        """Core 0's prefetcher, for the same probe duck-typing."""
        return self.prefetchers[0]

    @property
    def measure_complete(self) -> bool:
        return self.measuring and all(
            outcome is not None for outcome in self.outcomes
        )

    def _min_cycle(self) -> float:
        """The schedule clock: the frontier all cores have reached."""
        return float(min(core.cycle for core in self.o3cores))

    # -- telemetry -------------------------------------------------------------

    def attach_telemetry(
        self, session: Optional[Telemetry], label: Optional[str] = None
    ) -> Optional[ProbeSet]:
        """Record this sim's phases and probe samples into ``session``.

        Identical contract to the single-core sim: probes are read-only
        and sample between records at ``probe_every``-aligned counts of
        ``consumed`` (quantum boundaries under the batched engine, which
        flushes all state first), so instrumented runs stay bit-identical
        with uninstrumented ones.
        """
        if session is None or not session.enabled:
            return None
        self._telemetry = session
        self._probe_set = session.attach(
            label or f"{self.mix.name}/{self.prefetcher_name}", self
        )
        self.hierarchy.stats.attach("telemetry", self._probe_set.stats_adapter())
        tracer = session.tracer
        if tracer.enabled:
            tracer.instant(
                "run_begin",
                self._min_cycle(),
                args={
                    "mix": self.mix.name,
                    "prefetcher": self.prefetcher_name,
                    "seed": self.seed,
                },
            )
        return self._probe_set

    # -- phases ----------------------------------------------------------------

    def advance(self, n_records: int) -> int:
        """Step up to ``n_records`` of the current phase through the
        engine; returns early (short count) when the phase completes."""
        if n_records <= 0:
            return 0
        if self._telemetry is not None:
            return self._advance_instrumented(n_records)
        return self._engine.advance_multi(self, n_records)

    def _advance_instrumented(self, n_records: int) -> int:
        """The traced twin of ``advance``: same stepping, plus sampling
        at each ``probe_every`` boundary of ``consumed``, stamped with
        the schedule clock (minimum core cycle)."""
        session = self._telemetry
        probe_set = self._probe_set
        tracer = session.tracer
        every = session.probe_every
        advance_multi = self._engine.advance_multi
        total_taken = 0
        remaining = n_records
        while remaining > 0:
            to_boundary = every - (self.consumed % every)
            chunk = to_boundary if to_boundary < remaining else remaining
            taken = advance_multi(self, chunk)
            total_taken += taken
            remaining -= taken
            if taken < chunk:
                break  # phase complete
            if probe_set is not None and self.consumed % every == 0:
                probe_set.sample(self._min_cycle(), tracer)
        return total_taken

    def _capture_core(self, i: int) -> None:
        """Capture core ``i``'s outcome at its ``measure_records`` mark.

        Called by the engine (contract point 4) right after the step
        that reaches the target, with the core's state flushed.  Drains
        outstanding loads first — exactly what the scalar loop did — so
        the drain's cycle movement is part of the schedule under every
        engine.
        """
        core = self.o3cores[i]
        core.drain()
        result = core.result()
        scoped = self.hierarchy.core_snapshot(i)
        self.outcomes[i] = CoreOutcome(
            workload=self.mix.workloads[i].name,
            instructions=result.instructions,
            cycles=result.cycles,
            l2_misses=int(scoped["l2.demand_misses"]),
            prefetches_issued=int(scoped["prefetcher.prefetch.issued"]),
            prefetches_useful=int(scoped["prefetcher.prefetch.useful"]),
            stats=scoped,
        )

    def warmup(self) -> None:
        """Warm every core up, in cycle order."""
        remaining = self.mix.cores * self.config.warmup_records - sum(self.steps)
        if self._telemetry is None:
            self.advance(remaining)
            return
        start = self._min_cycle()
        self.advance(remaining)
        tracer = self._telemetry.tracer
        if tracer.enabled:
            tracer.complete(
                "warmup",
                start,
                self._min_cycle() - start,
                args={"records": self.consumed},
            )

    def begin_measurement(self) -> None:
        self.hierarchy.reset_stats()
        for core in self.o3cores:
            core.begin_measurement()
        self.steps = [0] * self.mix.cores
        self.outcomes = [None] * self.mix.cores
        self.measuring = True
        if self._telemetry is not None and self._telemetry.tracer.enabled:
            self._telemetry.tracer.instant(
                "measure_begin", self._min_cycle(), args={"consumed": self.consumed}
            )

    def measure(self) -> MultiCoreResult:
        """Measure; finished cores keep running (replay) so the
        contention seen by still-measuring cores stays realistic."""
        start = self._min_cycle()
        while not self.measure_complete:
            if self.advance(1 << 30) == 0:
                break
        if self._telemetry is not None and self._telemetry.tracer.enabled:
            self._telemetry.tracer.complete(
                "measure",
                start,
                self._min_cycle() - start,
                args={"records": self.consumed},
            )
        return self.result()

    def result(self) -> MultiCoreResult:
        return MultiCoreResult(
            mix_name=self.mix.name,
            prefetcher=self.prefetcher_name,
            cores=[outcome for outcome in self.outcomes if outcome is not None],
        )

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "mix": self.mix.name,
            "workloads": [spec.name for spec in self.mix.workloads],
            "prefetcher": self.prefetcher_name,
            "seed": self.seed,
            "measuring": self.measuring,
            "consumed": self.consumed,
            "steps": list(self.steps),
            "outcomes": [
                dataclasses.asdict(outcome) if outcome is not None else None
                for outcome in self.outcomes
            ],
            "traces": [trace.state_dict() for trace in self.traces],
            "cores": [core.state_dict() for core in self.o3cores],
            "hierarchy": self.hierarchy.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        for key, expect in (
            ("mix", self.mix.name),
            ("prefetcher", self.prefetcher_name),
            ("seed", self.seed),
        ):
            if state.get(key) != expect:
                raise SnapshotError(
                    f"snapshot {key}={state.get(key)!r} does not match sim {expect!r}"
                )
        if len(state["traces"]) != self.mix.cores:
            raise SnapshotError(
                f"snapshot targets {len(state['traces'])} cores, mix has {self.mix.cores}"
            )
        for trace, trace_state in zip(self.traces, state["traces"]):
            trace.load_state(trace_state)
        for core, core_state in zip(self.o3cores, state["cores"]):
            core.load_state(core_state)
        self.hierarchy.load_state(state["hierarchy"])
        self.steps[:] = [int(n) for n in state["steps"]]
        self.measuring = bool(state["measuring"])
        self.consumed = int(state["consumed"])
        self.outcomes = [
            CoreOutcome(**outcome) if outcome is not None else None
            for outcome in state["outcomes"]
        ]

    def snapshot(self, phase: str) -> Snapshot:
        return Snapshot(
            kind=KIND_MULTI_CORE,
            payload=self.state_dict(),
            meta={
                "mix": self.mix.name,
                "prefetcher": self.prefetcher_name,
                "seed": self.seed,
                "phase": phase,
                "config_fingerprint": fingerprint_digest(self.config),
            },
        )


def _try_restore(sim: MultiCoreSim, snapshot: Optional[Snapshot]) -> bool:
    """Apply a snapshot if possible; any failure leaves state untouched
    logically (the caller rebuilds a fresh sim) and reports False."""
    if snapshot is None or snapshot.kind != KIND_MULTI_CORE:
        return False
    try:
        sim.load_state(snapshot.payload)
    except (SnapshotError, KeyError, ValueError, TypeError, IndexError):
        return False
    return True


def run_multi_core(
    mix: WorkloadMix,
    prefetcher: str,
    config: Optional[SimConfig] = None,
    seed: int = 1,
    *,
    warmup_store: Optional[SnapshotStore] = None,
    checkpoint_path: Optional[Path | str] = None,
    checkpoint_every: Optional[int] = None,
    telemetry: Optional[Telemetry] = _UNSET,
) -> MultiCoreResult:
    """Run one workload mix with the same prefetching scheme on every core.

    With ``warmup_store``, the warmed whole-mix state (all private
    caches, prefetcher tables, the shared LLC/DRAM and every trace
    cursor) restores from a prior run's snapshot when available —
    bit-identically — and is published after warmup otherwise.
    ``checkpoint_path``/``checkpoint_every`` add periodic mid-measurement
    checkpoints with restore-on-entry, at record granularity, exactly
    like the single-core driver; ``telemetry`` follows the same
    resolution rules (omitted = process session, ``None`` = off).
    """
    session = _resolve_telemetry(telemetry)
    sim = MultiCoreSim(mix, prefetcher, config, seed)

    restored = False
    if checkpoint_path is not None:
        checkpoint_path = Path(checkpoint_path)
        if checkpoint_path.exists():
            try:
                snapshot = load_snapshot(checkpoint_path)
            except SnapshotError:
                snapshot = None
            restored = _try_restore(sim, snapshot)
            if snapshot is not None and not restored:
                # Unusable leftover (corrupt or mismatched): start clean.
                sim = MultiCoreSim(mix, prefetcher, config, seed)

    save_warmup = False
    if not restored and warmup_store is not None and sim.config.warmup_records > 0:
        digest = multi_core_warmup_digest(mix, prefetcher, sim.config, seed)
        snapshot = warmup_store.load(digest)
        restored = _try_restore(sim, snapshot)
        if not restored:
            if snapshot is not None:
                # A failed load may have half-applied: start clean.
                sim = MultiCoreSim(mix, prefetcher, config, seed)
            save_warmup = True

    if session is not None:
        sim.attach_telemetry(session)
        if restored and session.tracer.enabled:
            session.tracer.instant(
                "restored", sim._min_cycle(), args={"consumed": sim.consumed}
            )

    if not sim.measuring:
        sim.warmup()
        if save_warmup:
            warmup_store.save(digest, sim.snapshot("warmup"))
        sim.begin_measurement()

    if checkpoint_path is not None and checkpoint_every:
        while not sim.measure_complete:
            sim.advance(checkpoint_every)
            if not sim.measure_complete:
                save_snapshot(checkpoint_path, sim.snapshot("measure"))
                if session is not None and session.tracer.enabled:
                    session.tracer.instant(
                        "checkpoint_save",
                        sim._min_cycle(),
                        args={"consumed": sim.consumed},
                    )
        return sim.result()
    return sim.measure()
