"""Single-core simulation driver (§5.3 single-core methodology).

One run = warmup loads (structures train, stats discarded) followed by
measured loads.  The result is a typed view over the hierarchy's stats
snapshot: the named counters every component registered into the stats
tree are captured wholesale (``RunResult.stats``), and the fields the
figures use most are lifted into typed attributes.  New metrics added
anywhere in the stack appear in ``stats`` without touching this module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, Mapping, Optional

from .. import registry
from ..checkpoint import (
    KIND_SINGLE_CORE,
    Snapshot,
    SnapshotError,
    SnapshotStore,
    load_snapshot,
    save_snapshot,
)
from ..core.ppf import make_ppf_spp  # noqa: F401  (registers "ppf")
from ..cpu.o3core import O3Core
from ..engine import make_engine
from ..memory.hierarchy import MemoryHierarchy
from ..prefetchers.base import Prefetcher
from ..telemetry.probes import ProbeSet
from ..telemetry.session import _UNSET, Telemetry
from ..telemetry.session import resolve as _resolve_telemetry
from ..workloads.spec2017 import WorkloadSpec
from ..zoo.filtered import FILTER_SPEC_PREFIX, make_filtered  # registers the zoo
from .config import SimConfig
from .fingerprint import fingerprint_digest

def make_prefetcher(name: str) -> Prefetcher:
    """Instantiate a prefetcher by name or ``filtered:<inner>`` spec.

    The single chokepoint every driver (CLI, suite workers,
    checkpoints) resolves prefetchers through — which is why
    the filter seam lives here: a ``filtered:`` spec rehydrates
    identically in any process.
    """
    if name.startswith(FILTER_SPEC_PREFIX):
        return make_filtered(name[len(FILTER_SPEC_PREFIX):])
    return registry.create("prefetcher", name)


@dataclass
class RunResult:
    """Measured outcome of one (workload, prefetcher) run.

    A typed view over the hierarchy stats snapshot taken at the end of
    the measurement window: the lifted fields below are what the paper's
    figures consume; the full flattened tree (every cache, the DRAM
    row buffer, the perceptron filter, PPF's tables…) rides along in
    ``stats`` under dotted paths like ``core0.l2.demand_misses``.
    """

    workload: str
    prefetcher: str
    instructions: int
    cycles: int
    l2_demand_accesses: int
    l2_misses: int
    llc_misses: int
    prefetches_issued: int
    prefetches_useful: int
    prefetch_candidates: int
    dram_accesses: int
    average_lookahead_depth: float = 0.0
    core: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    stats: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_snapshot(
        cls,
        workload: str,
        prefetcher: str,
        instructions: int,
        cycles: int,
        snapshot: Mapping[str, float],
        average_lookahead_depth: float = 0.0,
        core: int = 0,
    ) -> "RunResult":
        """Build the typed view for one core from a stats snapshot."""
        prefix = f"core{core}"
        get = snapshot.get
        return cls(
            workload=workload,
            prefetcher=prefetcher,
            instructions=instructions,
            cycles=cycles,
            l2_demand_accesses=int(get(f"{prefix}.l2.demand_accesses", 0)),
            l2_misses=int(get(f"{prefix}.l2.demand_misses", 0)),
            llc_misses=int(get("llc.demand_misses", 0)),
            prefetches_issued=int(get(f"{prefix}.prefetcher.prefetch.issued", 0)),
            prefetches_useful=int(get(f"{prefix}.prefetcher.prefetch.useful", 0)),
            prefetch_candidates=int(get(f"{prefix}.prefetcher.prefetch.candidates", 0)),
            dram_accesses=int(get("dram.accesses", 0)),
            average_lookahead_depth=average_lookahead_depth,
            core=core,
            stats=dict(snapshot),
        )

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def accuracy(self) -> float:
        if self.prefetches_issued == 0:
            return 0.0
        return self.prefetches_useful / self.prefetches_issued

    @property
    def l2_mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.l2_misses / self.instructions

    @property
    def llc_mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.llc_misses / self.instructions

    # -- one-line views over the snapshot --------------------------------------

    @property
    def row_buffer_hit_rate(self) -> float:
        """DRAM open-row hit rate over the measurement window."""
        return float(self.stats.get("dram.row_hit_rate", 0.0))

    @property
    def reject_table_recoveries(self) -> int:
        """PPF false negatives recovered through the Reject Table."""
        return int(self.stats.get(f"core{self.core}.prefetcher.ppf.reject_recoveries", 0))

    @cached_property
    def per_feature_training_updates(self) -> Dict[str, int]:
        """Effective weight movements per perceptron feature table.

        Cached on the instance: the snapshot is immutable once the run
        ends, and callers (plots, ablation reports) read this per
        feature, so rescanning the full stats dict each time is waste.
        """
        prefix = f"core{self.core}.prefetcher.filter.per_feature_updates."
        return {
            key[len(prefix):]: int(value)
            for key, value in self.stats.items()
            if key.startswith(prefix)
        }


def warmup_digest(
    workload: str, prefetcher: str, config: SimConfig, seed: int
) -> str:
    """Content address of a warmup-boundary snapshot.

    ``measure_records`` is normalized out of the config fingerprint:
    warmup state depends only on the warmup prefix, so sweep cells that
    differ solely in measurement length share one warmup snapshot —
    that sharing is the whole speedup.  The checkpoint schema version is
    already folded into the fingerprint itself.
    """
    warmup_config = dataclasses.replace(config, measure_records=0)
    token = json.dumps(
        ["warmup", workload, prefetcher, fingerprint_digest(warmup_config), seed]
    )
    return hashlib.sha256(token.encode("utf-8")).hexdigest()[:32]


class SingleCoreSim:
    """One (workload, prefetcher) simulation with explicit phases.

    Splits :func:`run_single_core`'s straight-line body into
    ``warmup()`` / ``begin_measurement()`` / ``measure()`` / ``result()``
    so a snapshot can be taken (or restored) at any record boundary:
    ``state_dict()`` composes the trace stream, the core and the whole
    hierarchy; ``load_state()`` on a freshly constructed sim — in any
    process — lands it in a bit-identical position.
    """

    def __init__(
        self,
        workload: WorkloadSpec,
        prefetcher: Prefetcher | str,
        config: Optional[SimConfig] = None,
        seed: int = 1,
    ) -> None:
        self.config = config or SimConfig.default()
        if isinstance(prefetcher, str):
            prefetcher = make_prefetcher(prefetcher)
        self.workload = workload
        self.prefetcher = prefetcher
        self.seed = seed
        self.hierarchy = MemoryHierarchy(
            num_cores=1,
            config=self.config.hierarchy,
            dram_config=self.config.dram,
            prefetchers=[prefetcher],
        )
        self.core = O3Core(0, self.hierarchy, self.config.core)
        self.trace = workload.trace(
            self.config.warmup_records + self.config.measure_records, seed=seed
        )
        #: The driver for the per-access loop (``config.engine``); every
        #: phase advances through it, so scalar/batched is a pure seam.
        self._engine = make_engine(self.config)
        #: Records stepped so far (the warmup/measure phase cursor).
        self.consumed = 0
        #: True once the stats were reset at the warmup boundary.
        self.measuring = False
        #: Active telemetry session and its probes; ``None`` keeps every
        #: phase on the untouched fast path (see ``advance``).
        self._telemetry: Optional[Telemetry] = None
        self._probe_set: Optional[ProbeSet] = None

    @property
    def total_records(self) -> int:
        return self.config.warmup_records + self.config.measure_records

    # -- telemetry -------------------------------------------------------------

    def attach_telemetry(
        self, session: Optional[Telemetry], label: Optional[str] = None
    ) -> Optional[ProbeSet]:
        """Record this sim's phases and probe samples into ``session``.

        Discovers every applicable registered probe, mounts their
        bookkeeping under ``telemetry.`` in the stats tree, and switches
        ``advance`` onto its instrumented branch.  Probes are strictly
        read-only and sampling happens *between* trace records, so an
        instrumented run's simulation state — and every non-``telemetry``
        stats key — is bit-identical with an uninstrumented one.
        """
        if session is None or not session.enabled:
            return None
        self._telemetry = session
        self._probe_set = session.attach(
            label or f"{self.workload.name}/{self.prefetcher.name}", self
        )
        self.hierarchy.stats.attach("telemetry", self._probe_set.stats_adapter())
        tracer = session.tracer
        if tracer.enabled:
            tracer.instant(
                "run_begin",
                float(self.core.cycle),
                args={
                    "workload": self.workload.name,
                    "prefetcher": self.prefetcher.name,
                    "seed": self.seed,
                },
            )
        return self._probe_set

    def advance(self, n_records: int) -> int:
        """Step up to ``n_records`` more trace records."""
        if n_records <= 0:
            return 0
        if self._telemetry is not None:
            return self._advance_instrumented(n_records)
        return self._engine.advance(self, n_records)

    def _advance_instrumented(self, n_records: int) -> int:
        """The traced twin of ``advance``: same stepping, plus sampling.

        Delegates the identical record stepping to the engine in chunks
        aligned to the session's ``probe_every`` cadence and samples
        every probe at each boundary, stamped with the simulated cycle.
        Engines flush all state before returning from ``advance`` (the
        seam contract), so probes see exactly what the uninstrumented
        run's machine state would be at the same record count — under
        the batched engine this is the chunk-boundary sampling shim: no
        per-access Python callbacks, probes fire between engine chunks.
        """
        session = self._telemetry
        probe_set = self._probe_set
        tracer = session.tracer
        every = session.probe_every
        engine_advance = self._engine.advance
        total_taken = 0
        remaining = n_records
        while remaining > 0:
            to_boundary = every - (self.consumed % every)
            chunk = to_boundary if to_boundary < remaining else remaining
            taken = engine_advance(self, chunk)
            total_taken += taken
            remaining -= taken
            if taken < chunk:
                break  # trace exhausted
            if probe_set is not None and self.consumed % every == 0:
                probe_set.sample(float(self.core.cycle), tracer)
        return total_taken

    def warmup(self) -> None:
        if self._telemetry is None:
            self.advance(self.config.warmup_records - self.consumed)
            return
        start = self.core.cycle
        self.advance(self.config.warmup_records - self.consumed)
        tracer = self._telemetry.tracer
        if tracer.enabled:
            tracer.complete(
                "warmup",
                float(start),
                float(self.core.cycle - start),
                args={"records": self.consumed},
            )

    def begin_measurement(self) -> None:
        self.hierarchy.reset_stats()
        self.core.begin_measurement()
        self.measuring = True
        if self._telemetry is not None and self._telemetry.tracer.enabled:
            self._telemetry.tracer.instant(
                "measure_begin", float(self.core.cycle), args={"consumed": self.consumed}
            )

    def measure(self) -> None:
        """Run the remaining records and drain outstanding loads."""
        if self._telemetry is None:
            self.advance(self.total_records - self.consumed)
            self.core.drain()
            return
        start = self.core.cycle
        self.advance(self.total_records - self.consumed)
        self.core.drain()
        tracer = self._telemetry.tracer
        if tracer.enabled:
            tracer.complete(
                "measure",
                float(start),
                float(self.core.cycle - start),
                args={"records": self.consumed},
            )

    def result(self) -> RunResult:
        core_result = self.core.result()
        return RunResult.from_snapshot(
            workload=self.workload.name,
            prefetcher=self.prefetcher.name,
            instructions=core_result.instructions,
            cycles=core_result.cycles,
            snapshot=self.hierarchy.snapshot(),
            average_lookahead_depth=getattr(
                self.prefetcher, "average_lookahead_depth", 0.0
            ),
        )

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        trace_state = getattr(self.trace, "state_dict", None)
        if trace_state is None:
            raise SnapshotError(
                f"trace of workload {self.workload.name!r} is not checkpointable"
            )
        return {
            "workload": self.workload.name,
            "prefetcher": self.prefetcher.name,
            "seed": self.seed,
            "consumed": self.consumed,
            "measuring": self.measuring,
            "trace": trace_state(),
            "core": self.core.state_dict(),
            "hierarchy": self.hierarchy.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        for key, expect in (
            ("workload", self.workload.name),
            ("prefetcher", self.prefetcher.name),
            ("seed", self.seed),
        ):
            if state.get(key) != expect:
                raise SnapshotError(
                    f"snapshot {key}={state.get(key)!r} does not match sim {expect!r}"
                )
        self.trace.load_state(state["trace"])
        self.core.load_state(state["core"])
        self.hierarchy.load_state(state["hierarchy"])
        self.consumed = int(state["consumed"])
        self.measuring = bool(state["measuring"])

    def snapshot(self, phase: str) -> Snapshot:
        return Snapshot(
            kind=KIND_SINGLE_CORE,
            payload=self.state_dict(),
            meta={
                "workload": self.workload.name,
                "prefetcher": self.prefetcher.name,
                "seed": self.seed,
                "phase": phase,
                "consumed": self.consumed,
                "warmup_records": self.config.warmup_records,
                "measure_records": self.config.measure_records,
                "config_fingerprint": fingerprint_digest(self.config),
            },
        )


def _try_restore(sim: SingleCoreSim, snapshot: Optional[Snapshot]) -> bool:
    """Apply a snapshot if possible; any failure leaves state untouched
    logically (the caller rebuilds a fresh sim) and reports False."""
    if snapshot is None or snapshot.kind != KIND_SINGLE_CORE:
        return False
    try:
        sim.load_state(snapshot.payload)
    except (SnapshotError, KeyError, ValueError, TypeError, IndexError):
        return False
    return True


def run_single_core(
    workload: WorkloadSpec,
    prefetcher: Prefetcher | str,
    config: Optional[SimConfig] = None,
    seed: int = 1,
    *,
    warmup_store: Optional[SnapshotStore] = None,
    checkpoint_path: Optional[Path | str] = None,
    checkpoint_every: Optional[int] = None,
    telemetry: Optional[Telemetry] = _UNSET,
) -> RunResult:
    """Simulate one workload on one core with one prefetching scheme.

    ``warmup_store`` enables warmup snapshot reuse: if a snapshot exists
    for this (workload, scheme, warmup-config, seed) it is restored in
    place of simulating warmup, otherwise warmup runs and the snapshot is
    published for the next cell.  ``checkpoint_path``/``checkpoint_every``
    add periodic mid-measurement checkpoints (and restore-on-entry),
    giving sweeps crash-resume at record granularity.  Both engage only
    for registry-named schemes — a caller passing a live prefetcher
    instance owns that instance's state.

    ``telemetry`` selects a recording session: omitted, the process's
    active session (``repro.telemetry.activate``) is used if one exists;
    an explicit ``None`` forces telemetry off regardless — sweep workers
    rely on that so cached cell results never carry trace state.  The
    disabled path does not install a tracer at all, so the per-record
    loop stays bit-for-bit the PR 3 hot path.

    Restores are bit-identical: every path through here reproduces the
    straight run's stats exactly.
    """
    config = config or SimConfig.default()
    session = _resolve_telemetry(telemetry)
    scheme = prefetcher if isinstance(prefetcher, str) else None
    sim = SingleCoreSim(workload, prefetcher, config, seed)

    restored = False
    if scheme is not None and checkpoint_path is not None:
        checkpoint_path = Path(checkpoint_path)
        if checkpoint_path.exists():
            try:
                snapshot = load_snapshot(checkpoint_path)
            except SnapshotError:
                snapshot = None
            restored = _try_restore(sim, snapshot)
            if snapshot is not None and not restored:
                # Unusable leftover (corrupt or mismatched): start clean.
                sim = SingleCoreSim(workload, scheme, config, seed)

    save_warmup = False
    if not restored and scheme is not None and warmup_store is not None:
        if config.warmup_records > 0:
            digest = warmup_digest(workload.name, scheme, config, seed)
            snapshot = warmup_store.load(digest)
            restored = _try_restore(sim, snapshot)
            if not restored:
                if snapshot is not None:
                    # A failed load may have half-applied: start clean.
                    sim = SingleCoreSim(workload, scheme, config, seed)
                save_warmup = True

    if session is not None:
        sim.attach_telemetry(session)
        if restored and session.tracer.enabled:
            session.tracer.instant(
                "restored", float(sim.core.cycle), args={"consumed": sim.consumed}
            )

    if not sim.measuring:
        sim.warmup()
        if save_warmup:
            warmup_store.save(digest, sim.snapshot("warmup"))
        sim.begin_measurement()

    if scheme is not None and checkpoint_path is not None and checkpoint_every:
        while sim.consumed < sim.total_records:
            sim.advance(min(checkpoint_every, sim.total_records - sim.consumed))
            if sim.consumed < sim.total_records:
                save_snapshot(checkpoint_path, sim.snapshot("measure"))
                if session is not None and session.tracer.enabled:
                    session.tracer.instant(
                        "checkpoint_save",
                        float(sim.core.cycle),
                        args={"consumed": sim.consumed},
                    )
        sim.core.drain()
    else:
        sim.measure()
    return sim.result()
