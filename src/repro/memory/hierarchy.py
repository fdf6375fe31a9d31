"""Three-level cache hierarchy with prefetch-at-L2, as in the paper.

Per core: an L1D and a private L2 with one prefetcher instance.  Shared
across cores: the LLC and the DRAM model.  Prefetching is triggered only
on L2 demand accesses (paper §5.1); candidates fill either the L2 or the
LLC depending on the prefetcher's confidence decision.

Timing is latency-additive down the hierarchy, with two second-order
effects modelled because the paper's results depend on them:

* prefetch traffic occupies DRAM bandwidth (see :mod:`repro.memory.dram`),
  so inaccurate prefetching slows demand misses down;
* a prefetched line filled "in flight" stores its data-arrival cycle, and
  a demand access that arrives earlier pays the residual latency (late
  prefetches give partial benefit, as in ChampSim).

Writebacks are not modelled: the trace format carries loads (the PPF
mechanism trains only on the L2 demand-access/evict stream, which this
captures fully).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..prefetchers.base import NullPrefetcher, PrefetchCandidate, Prefetcher
from ..stats import GroupAdapter, StatsNode
from .cache import Cache, EvictedLine
from .dram import DRAM, DRAMConfig


@dataclass
class HierarchyConfig:
    """Cache geometry and latencies (core cycles), Table 1 defaults."""

    l1_size: int = 48 * 1024
    l1_assoc: int = 12
    l1_latency: int = 4
    l2_size: int = 512 * 1024
    l2_assoc: int = 8
    l2_latency: int = 10
    llc_size_per_core: int = 2 * 1024 * 1024
    llc_assoc: int = 16
    llc_latency: int = 38
    max_prefetches_per_trigger: int = 32
    #: In-flight prefetches a core may have outstanding (the prefetch
    #: insertion queue of Figure 4); candidates beyond it are dropped.
    prefetch_queue_size: int = 64

    @classmethod
    def default(cls) -> "HierarchyConfig":
        return cls()

    @classmethod
    def small_llc(cls) -> "HierarchyConfig":
        """DPC-2 small-LLC constraint: 512 KB last-level cache."""
        return cls(llc_size_per_core=512 * 1024)


@dataclass
class AccessResult:
    """Outcome of one demand access, for the core timing model."""

    __slots__ = ("ready_cycle", "level")

    ready_cycle: int
    level: str  # "l1", "l2", "llc" or "dram"


class MemoryHierarchy:
    """L1D/L2 per core, shared LLC and DRAM, prefetch hooks at L2."""

    def __init__(
        self,
        num_cores: int = 1,
        config: Optional[HierarchyConfig] = None,
        dram_config: Optional[DRAMConfig] = None,
        prefetchers: Optional[Sequence[Prefetcher]] = None,
    ) -> None:
        if num_cores < 1:
            raise ValueError("need at least one core")
        self.num_cores = num_cores
        self.config = config or HierarchyConfig.default()
        cfg = self.config
        self.l1: List[Cache] = [
            Cache(f"L1D{i}", cfg.l1_size, cfg.l1_assoc, cfg.l1_latency)
            for i in range(num_cores)
        ]
        self.l2: List[Cache] = [
            Cache(f"L2C{i}", cfg.l2_size, cfg.l2_assoc, cfg.l2_latency)
            for i in range(num_cores)
        ]
        self.llc = Cache(
            "LLC", cfg.llc_size_per_core * num_cores, cfg.llc_assoc, cfg.llc_latency
        )
        if dram_config is None:
            dram_config = (
                DRAMConfig.default() if num_cores == 1 else DRAMConfig.multicore(num_cores)
            )
        self.dram = DRAM(dram_config)
        if prefetchers is None:
            prefetchers = [NullPrefetcher() for _ in range(num_cores)]
        if len(prefetchers) != num_cores:
            raise ValueError("one prefetcher per core required")
        self.prefetchers: List[Prefetcher] = list(prefetchers)
        # Per-core prefetch insertion queue: completion cycles of
        # in-flight prefetches.  When full, further candidates drop.
        self._inflight_prefetches: List[List[int]] = [[] for _ in range(num_cores)]
        self.prefetches_dropped: List[int] = [0] * num_cores

        # The stats tree scopes every component's counters per level and
        # per core; ``snapshot()`` is what RunResult is built from.
        self.stats = StatsNode("hierarchy")
        for i in range(num_cores):
            scope = self.stats.child(f"core{i}")
            scope.attach("l1", self.l1[i].stats)
            scope.attach("l2", self.l2[i].stats)
            scope.attach("queue", self._queue_adapter(i))
            self.prefetchers[i].attach_stats(scope.child("prefetcher"))
        self.stats.attach("llc", self.llc.stats)
        self.stats.attach("dram", self.dram.stats)

    def _queue_adapter(self, core: int) -> GroupAdapter:
        # Close over the counter list, not ``self``: the hierarchy's own
        # stats tree mounts this adapter, so a closure over ``self`` would
        # make every finished machine a cycle only the collector frees.
        # Every writer updates the list in place.
        dropped = self.prefetches_dropped

        def snapshot():
            return {"prefetches_dropped": dropped[core]}

        def reset():
            dropped[core] = 0

        return GroupAdapter(snapshot, reset)

    def core_snapshot(self, core: int):
        """Flattened stats for one core's private scope."""
        return self.stats.child(f"core{core}").snapshot()

    # -- demand path ---------------------------------------------------------

    def access(self, core: int, pc: int, addr: int, cycle: int) -> AccessResult:
        """Serve one demand load for ``core``; returns data-ready cycle."""
        l1 = self.l1[core]
        line = l1.lookup(addr)
        if line is not None:
            return AccessResult(cycle + l1.latency, "l1")
        return self._l2_demand(core, pc, addr, cycle + l1.latency)

    def _l2_demand(self, core: int, pc: int, addr: int, cycle: int) -> AccessResult:
        l2 = self.l2[core]
        prefetcher = self.prefetchers[core]
        line = l2.lookup(addr)
        hit = line is not None
        if hit:
            level = "l2"
            fill_cycle = line.fill_cycle
            if fill_cycle > cycle:
                # Late prefetch: data still in flight, pay the residual.
                ready = fill_cycle + l2.latency
            else:
                ready = cycle + l2.latency
            if line.is_prefetch:
                line.is_prefetch = False  # count each prefetch useful once
                prefetcher.on_useful_prefetch(addr)
        else:
            ready, level = self._llc_demand(core, addr, cycle + l2.latency)
            self._fill_l2(core, addr, is_prefetch=False, data_cycle=ready)

        # Prefetcher observes every L2 demand access, then candidates issue.
        candidates = prefetcher.train(addr, pc, hit, cycle)
        if candidates:
            prefetcher.note_candidates(len(candidates))
            issue = self._issue_prefetch
            for candidate in candidates[: self.config.max_prefetches_per_trigger]:
                issue(core, candidate, cycle)
        self.l1[core].fill(addr, is_prefetch=False, cycle=ready)
        return AccessResult(ready, level)

    def _llc_demand(self, core: int, addr: int, cycle: int) -> Tuple[int, str]:
        llc = self.llc
        line = llc.lookup(addr)
        if line is not None:
            if line.is_prefetch:
                line.is_prefetch = False
                self.prefetchers[core].on_useful_prefetch(addr)
            fill_cycle = line.fill_cycle
            if fill_cycle > cycle:
                return fill_cycle + llc.latency, "llc"
            return cycle + llc.latency, "llc"
        ready = self.dram.access(addr, cycle + llc.latency, is_prefetch=False)
        self._fill_llc(addr, is_prefetch=False, data_cycle=ready)
        return ready, "dram"

    # -- prefetch path ---------------------------------------------------------

    def _issue_prefetch(self, core: int, candidate: PrefetchCandidate, cycle: int) -> None:
        addr = candidate.addr
        l2 = self.l2[core]
        if l2.contains(addr):
            return  # redundant with L2 residency
        if not candidate.fill_l2 and self.llc.contains(addr):
            return  # redundant with LLC residency
        inflight = self._inflight_prefetches[core]
        if inflight:
            self._inflight_prefetches[core] = inflight = [
                done for done in inflight if done > cycle
            ]
        if len(inflight) >= self.config.prefetch_queue_size:
            self.prefetches_dropped[core] += 1
            return  # prefetch queue full: drop, as ChampSim's PQ does
        prefetcher = self.prefetchers[core]
        prefetcher.on_prefetch_issued(candidate)
        if self.llc.contains(addr):
            data_cycle = cycle + self.llc.latency
            fills_llc_as_prefetch = False
        else:
            data_cycle = self.dram.access(addr, cycle, is_prefetch=True)
            fills_llc_as_prefetch = True
        inflight.append(data_cycle)
        if candidate.fill_l2:
            if fills_llc_as_prefetch:
                self._fill_llc(addr, is_prefetch=True, data_cycle=data_cycle)
            self._fill_l2(core, addr, is_prefetch=True, data_cycle=data_cycle)
        else:
            if fills_llc_as_prefetch:
                self._fill_llc(addr, is_prefetch=True, data_cycle=data_cycle)

    # -- fills ------------------------------------------------------------------

    def _fill_l2(self, core: int, addr: int, *, is_prefetch: bool, data_cycle: int) -> None:
        evicted = self.l2[core].fill(addr, is_prefetch=is_prefetch, cycle=data_cycle)
        if evicted is not None:
            self._notify_l2_eviction(core, evicted)

    def _fill_llc(self, addr: int, *, is_prefetch: bool, data_cycle: int) -> None:
        self.llc.fill(addr, is_prefetch=is_prefetch, cycle=data_cycle)

    def _notify_l2_eviction(self, core: int, evicted: EvictedLine) -> None:
        self.prefetchers[core].on_eviction(
            evicted.block << 6, evicted.is_prefetch, evicted.used
        )

    # -- stats -----------------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero every counter in the stats tree (the warmup boundary).

        Component *state* — cache contents, perceptron weights, SPP
        signatures — is untouched; only statistics reset.
        """
        self.stats.reset()
        for prefetcher in self.prefetchers:
            prefetcher.reset_stats()  # covers counters not mounted in the tree

    def snapshot(self):
        """Flattened stats for the whole hierarchy."""
        return self.stats.snapshot()

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self):
        """Compose every component's state into one tree.

        Stats ride along inside each component's section (and the queue
        drop counters here), so a mid-measurement snapshot resumes with
        its counters intact; warmup-boundary restores follow up with
        ``reset_stats()`` exactly like a straight run.
        """
        return {
            "l1": [cache.state_dict() for cache in self.l1],
            "l2": [cache.state_dict() for cache in self.l2],
            "llc": self.llc.state_dict(),
            "dram": self.dram.state_dict(),
            "prefetchers": [p.state_dict() for p in self.prefetchers],
            "inflight_prefetches": [list(q) for q in self._inflight_prefetches],
            "prefetches_dropped": list(self.prefetches_dropped),
        }

    def load_state(self, state) -> None:
        if len(state["l1"]) != self.num_cores or len(state["prefetchers"]) != self.num_cores:
            raise ValueError(
                f"snapshot targets {len(state['l1'])} cores, hierarchy has {self.num_cores}"
            )
        for cache, cache_state in zip(self.l1, state["l1"]):
            cache.load_state(cache_state)
        for cache, cache_state in zip(self.l2, state["l2"]):
            cache.load_state(cache_state)
        self.llc.load_state(state["llc"])
        self.dram.load_state(state["dram"])
        for prefetcher, prefetcher_state in zip(self.prefetchers, state["prefetchers"]):
            prefetcher.load_state(prefetcher_state)
        self._inflight_prefetches = [
            [int(cycle) for cycle in queue] for queue in state["inflight_prefetches"]
        ]
        self.prefetches_dropped[:] = [int(n) for n in state["prefetches_dropped"]]
