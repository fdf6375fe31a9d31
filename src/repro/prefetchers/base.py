"""Prefetcher interface shared by SPP, BOP, AMPM and the PPF wrapper.

The hierarchy calls prefetchers exactly the way ChampSim does:

* :meth:`Prefetcher.train` on every **L2 demand access** (hits and
  misses) — the prefetcher may return candidate prefetches;
* :meth:`Prefetcher.on_eviction` when L2 evicts a line;
* :meth:`Prefetcher.on_useful_prefetch` the first time a demand access
  touches a prefetched line;
* :meth:`Prefetcher.on_prefetch_issued` when the hierarchy actually
  sends a candidate to memory (redundant candidates are dropped and do
  not get this callback).

Candidates carry a ``fill_l2`` flag (L2 vs last-level fill, the paper's
two-level confidence decision) plus a free-form ``meta`` mapping that
lets PPF recover the underlying prefetcher's internal state (signature,
confidence, depth, delta …) for its feature vector.

**The hook contract.**  The hooks above, and ``note_candidates``, may
read and write only the prefetcher's own state: never a cache, the
DRAM model, the hierarchy or the core.  The batched engine's fused
runners rely on it (``repro.engine.multi_core``): they replay the
hierarchy inline and hold cache and DRAM counters in locals between two
hook calls, so a hook that looked at them would see stale values, and
one that wrote to them would be overwritten.  Everything a prefetcher
needs arrives as hook arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..checkpoint.state import group_state, load_group
from ..registry import register
from ..stats import StatGroup, StatsNode


@dataclass
class PrefetchCandidate:
    """One prefetch suggestion emitted by a prefetcher."""

    addr: int
    fill_l2: bool = True
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError("prefetch address must be non-negative")


@dataclass
class PrefetcherStats(StatGroup):
    """Issue/outcome counters every prefetcher shares."""

    derived = ("accuracy",)

    candidates: int = 0
    issued: int = 0
    issued_l2: int = 0
    issued_llc: int = 0
    useful: int = 0
    useless_evictions: int = 0

    @property
    def accuracy(self) -> float:
        """Fraction of issued prefetches that saw a demand hit."""
        if self.issued == 0:
            return 0.0
        return self.useful / self.issued


class Prefetcher:
    """Base class; concrete prefetchers override the hooks they need."""

    name = "none"

    def __init__(self) -> None:
        self.stats = PrefetcherStats()

    # -- hooks driven by the hierarchy --------------------------------------

    def train(
        self, addr: int, pc: int, cache_hit: bool, cycle: int
    ) -> List[PrefetchCandidate]:
        """Observe one L2 demand access; return candidate prefetches."""
        return []

    def on_prefetch_issued(self, candidate: PrefetchCandidate) -> None:
        """A candidate passed redundancy checks and went to memory."""
        self.stats.issued += 1
        if candidate.fill_l2:
            self.stats.issued_l2 += 1
        else:
            self.stats.issued_llc += 1

    def on_useful_prefetch(self, addr: int) -> None:
        """First demand hit on a line this prefetcher brought in."""
        self.stats.useful += 1

    def on_eviction(self, addr: int, was_prefetch: bool, was_used: bool) -> None:
        """L2 evicted the block at ``addr``."""
        if was_prefetch and not was_used:
            self.stats.useless_evictions += 1

    # -- bookkeeping ---------------------------------------------------------

    def note_candidates(self, count: int) -> None:
        self.stats.candidates += count

    def reset_stats(self) -> None:
        self.stats.reset()

    def attach_stats(self, node: StatsNode) -> None:
        """Mount this prefetcher's counters under a stats scope.

        Subclasses with extra structures (PPF's filter and tables)
        override this, call ``super()``, and mount their own groups.
        """
        node.attach("prefetch", self.stats)

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Serializable snapshot of all mutable state.

        Stateful subclasses extend the returned dict (calling ``super()``
        first) with their tables; the base contributes the shared issue
        counters, which is complete for stateless prefetchers like
        :class:`NullPrefetcher`.
        """
        return {"stats": group_state(self.stats)}

    def load_state(self, state: Dict[str, Any]) -> None:
        load_group(self.stats, state["stats"])


@register("prefetcher", "none")
class NullPrefetcher(Prefetcher):
    """The no-prefetching baseline every speedup is normalized to."""

    name = "none"
