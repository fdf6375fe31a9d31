"""Top-level simulation configuration (paper Table 1 + §5.2 variants)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..cpu.o3core import CoreConfig
from ..memory.dram import DRAMConfig
from ..memory.hierarchy import HierarchyConfig


@dataclass
class SimConfig:
    """Everything a run needs besides the workload and the prefetcher."""

    core: CoreConfig = field(default_factory=CoreConfig.default)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig.default)
    dram: DRAMConfig = field(default_factory=DRAMConfig.default)
    warmup_records: int = 20_000
    measure_records: int = 100_000
    #: Simulation engine driving the access loop ("scalar" or "batched",
    #: resolved through the registry).  The scalar engine is the
    #: golden-stats oracle; the batched engine runs fused per-core
    #: runners in scheduling turns (see docs/performance.md).
    engine: str = "scalar"
    #: Cap on the records one core may run inside a single scheduling
    #: turn of the batched engine (0 = uncapped), one core or several.
    #: The cycle bound that preserves the shared-resource interleaving
    #: is computed per turn regardless, so this is a pure
    #: throughput/latency knob that cannot perturb results: a core cut
    #: short by the cap is still the schedule's minimum and is re-picked
    #: on the next turn.
    engine_quantum: int = 4_096
    #: Content digests of the file-backed traces this run consumes
    #: (sorted; empty for synthetic workloads).  Folded into
    #: ``config_fingerprint`` automatically, so result caches, warmup
    #: stores and ledgers keyed on the fingerprint can never mix
    #: versions of a trace file: new bytes, new digest, new keys.  The
    #: CLI's ``sweep --trace-file`` populates it; the digest also rides
    #: every file-backed workload's *name* (see
    #: :func:`repro.traces.trace_workload`), which covers per-cell keys.
    trace_digests: Tuple[str, ...] = ()

    @classmethod
    def default(cls) -> "SimConfig":
        """Single-core default: 2 MB LLC, 12.8 GB/s DRAM (§5.2)."""
        return cls()

    @classmethod
    def small_llc(cls) -> "SimConfig":
        """DPC-2 constraint study: LLC reduced to 512 KB (§5.2)."""
        return cls(hierarchy=HierarchyConfig.small_llc())

    @classmethod
    def low_bandwidth(cls) -> "SimConfig":
        """DPC-2 constraint study: DRAM limited to 3.2 GB/s (§5.2)."""
        return cls(dram=DRAMConfig.low_bandwidth())

    @classmethod
    def multicore(cls, cores: int) -> "SimConfig":
        """Multi-core default: 2 MB LLC per core, shared channels."""
        return cls(dram=DRAMConfig.multicore(cores))

    @classmethod
    def quick(cls, measure_records: int = 20_000, warmup_records: int = 5_000) -> "SimConfig":
        """Short runs for tests and smoke benches."""
        return cls(warmup_records=warmup_records, measure_records=measure_records)

    def describe(self) -> List[Tuple[str, str]]:
        """Human-readable parameter dump (the Table 1 reproduction)."""
        h = self.hierarchy
        d = self.dram
        c = self.core
        bandwidth_gbps = 64 * 4.0 / d.cycles_per_transfer  # 4 GHz core clock
        return [
            ("Core", f"{c.width}-wide OoO model, ROB {c.rob_size}, {c.mlp_limit} MSHRs"),
            ("L1D", f"{h.l1_size // 1024} KB, {h.l1_assoc}-way, {h.l1_latency}-cycle"),
            ("L2", f"{h.l2_size // 1024} KB, {h.l2_assoc}-way, {h.l2_latency}-cycle"),
            (
                "LLC",
                f"{h.llc_size_per_core // 1024} KB/core, {h.llc_assoc}-way, "
                f"{h.llc_latency}-cycle, shared",
            ),
            (
                "DRAM",
                f"{d.channels} channel(s), {bandwidth_gbps:.1f} GB/s/channel, "
                f"row hit/miss {d.row_hit_latency}/{d.row_miss_latency} cycles",
            ),
            ("Block size", "64 B"),
            ("Page size", "4 KB"),
            ("Replacement", "LRU at all levels"),
            ("Prefetch trigger", "L2 demand accesses only; fills to L2 or LLC"),
            ("Warmup / measure", f"{self.warmup_records} / {self.measure_records} loads"),
        ]
