"""Set-associative cache model with prefetch-aware line metadata.

This is the building block of the ChampSim-like hierarchy.  Each line
tracks whether it was filled by a prefetch and whether a demand access
has touched it since the fill — exactly the feedback PPF trains on
(useful prefetch = demand hit on a prefetched line; useless prefetch =
eviction of a never-used prefetched line), and the inputs to SPP's
global accuracy counter α.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..checkpoint.state import group_state, load_group
from ..stats import StatGroup
from .address import BLOCK_BITS
from .replacement import ReplacementPolicy, make_policy


@dataclass
class CacheLine:
    """Metadata for one resident cache block."""

    __slots__ = ("block", "is_prefetch", "used", "fill_cycle")

    block: int
    is_prefetch: bool
    used: bool
    fill_cycle: int


@dataclass
class EvictedLine:
    """What ``fill`` reports when it displaces a resident line."""

    __slots__ = ("block", "is_prefetch", "used")

    block: int
    is_prefetch: bool
    used: bool

    @property
    def was_useless_prefetch(self) -> bool:
        """True when a prefetched line dies without ever being demanded."""
        return self.is_prefetch and not self.used


@dataclass
class CacheStats(StatGroup):
    """Per-cache event counters used by the evaluation metrics.

    A :class:`~repro.stats.StatGroup`: ``snapshot()``/``reset()`` come
    from the engine and the ``derived`` rate appears in every snapshot.
    """

    derived = ("demand_hit_rate",)

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    fills: int = 0
    prefetch_fills: int = 0
    evictions: int = 0
    useful_prefetches: int = 0
    useless_prefetch_evictions: int = 0
    writebacks: int = 0

    @property
    def demand_hit_rate(self) -> float:
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_hits / self.demand_accesses

    @property
    def mpki_numerator(self) -> int:
        return self.demand_misses


class Cache:
    """A single set-associative cache level.

    Addresses are byte addresses; internally everything is tracked at
    block granularity.  The cache is a tag store only — data movement is
    implied.  ``lookup`` and ``fill`` are the two mutating operations;
    ``contains`` / ``probe`` are side-effect free.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        associativity: int,
        latency: int,
        replacement: str = "lru",
        replacement_seed: int = 0,
    ) -> None:
        if size_bytes <= 0 or associativity <= 0:
            raise ValueError("cache size and associativity must be positive")
        block_size = 1 << BLOCK_BITS
        num_blocks = size_bytes // block_size
        if num_blocks % associativity != 0:
            raise ValueError(
                f"{name}: {size_bytes} bytes / {associativity}-way does not "
                f"divide into whole sets of {block_size}-byte blocks"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.latency = latency
        self.num_sets = num_blocks // associativity
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(
                f"{name}: {self.num_sets} sets is not a power of two; set "
                f"indexing uses a bitmask, so size/associativity must yield "
                f"a power-of-two set count"
            )
        self._set_mask = self.num_sets - 1
        self.stats = CacheStats()
        self._policy: ReplacementPolicy = make_policy(replacement, replacement_seed)
        # Bound-method aliases shave an attribute hop off every access.
        self._policy_touch = self._policy.on_touch
        self._policy_insert = self._policy.on_insert
        self._policy_evict = self._policy.on_evict
        self._policy_victim = self._policy.victim
        self._sets: Dict[int, Dict[int, CacheLine]] = {}

    # -- indexing ----------------------------------------------------------

    def set_index(self, addr: int) -> int:
        """Map a byte address to its set."""
        return (addr >> BLOCK_BITS) & self._set_mask

    def _set_for(self, addr: int) -> Dict[int, CacheLine]:
        index = (addr >> BLOCK_BITS) & self._set_mask
        lines = self._sets.get(index)
        if lines is None:
            lines = {}
            self._sets[index] = lines
        return lines

    # -- queries -----------------------------------------------------------

    def contains(self, addr: int) -> bool:
        """Side-effect-free residency check."""
        block = addr >> BLOCK_BITS
        lines = self._sets.get(block & self._set_mask)
        return bool(lines) and block in lines

    def probe(self, addr: int) -> Optional[CacheLine]:
        """Side-effect-free line inspection (no stats, no LRU update)."""
        block = addr >> BLOCK_BITS
        lines = self._sets.get(block & self._set_mask)
        if not lines:
            return None
        return lines.get(block)

    # -- mutations ----------------------------------------------------------

    def lookup(self, addr: int, *, is_demand: bool = True) -> Optional[CacheLine]:
        """Access the cache; returns the line on a hit, ``None`` on a miss.

        Demand hits update recency, mark prefetched lines as used, and
        bump the stats.  Non-demand lookups (``is_demand=False``) model
        prefetch probes: they update nothing but the recency bit is also
        left untouched, so a stream of prefetch probes cannot keep dead
        lines alive.
        """
        block = addr >> BLOCK_BITS
        set_index = block & self._set_mask
        lines = self._sets.get(set_index)
        line = lines.get(block) if lines else None
        if not is_demand:
            return line
        stats = self.stats
        stats.demand_accesses += 1
        if line is None:
            stats.demand_misses += 1
            return None
        stats.demand_hits += 1
        if line.is_prefetch and not line.used:
            stats.useful_prefetches += 1
        line.used = True
        self._policy_touch(set_index, block)
        return line

    def fill(
        self,
        addr: int,
        *,
        is_prefetch: bool = False,
        cycle: int = 0,
    ) -> Optional[EvictedLine]:
        """Insert the block containing ``addr``; returns any evicted line.

        Filling a block that is already resident refreshes recency but
        keeps the stronger of the two origins (a demand fill clears the
        prefetch bit; a prefetch fill over a demand line is a no-op).
        """
        block = addr >> BLOCK_BITS
        set_index = block & self._set_mask
        lines = self._sets.get(set_index)
        if lines is None:
            lines = {}
            self._sets[set_index] = lines
        existing = lines.get(block)
        if existing is not None:
            if not is_prefetch:
                existing.is_prefetch = False
            self._policy_touch(set_index, block)
            return None
        evicted: Optional[EvictedLine] = None
        stats = self.stats
        if len(lines) >= self.associativity:
            victim = self._policy_victim(set_index)
            victim_line = lines.pop(victim)
            self._policy_evict(set_index, victim)
            stats.evictions += 1
            if victim_line.is_prefetch and not victim_line.used:
                stats.useless_prefetch_evictions += 1
            evicted = EvictedLine(
                victim_line.block, victim_line.is_prefetch, victim_line.used
            )
        lines[block] = CacheLine(block, is_prefetch, False, cycle)
        self._policy_insert(set_index, block)
        stats.fills += 1
        if is_prefetch:
            stats.prefetch_fills += 1
        return evicted

    def invalidate(self, addr: int) -> bool:
        """Drop the block containing ``addr``; True when it was resident."""
        block = addr >> BLOCK_BITS
        set_index = block & self._set_mask
        lines = self._sets.get(set_index)
        if not lines or block not in lines:
            return False
        del lines[block]
        self._policy_evict(set_index, block)
        return True

    def resident_blocks(self) -> int:
        """Total number of lines currently resident (for tests)."""
        return sum(len(lines) for lines in self._sets.values())

    @property
    def capacity_blocks(self) -> int:
        """How many lines fit (sets × ways)."""
        return self.num_sets * self.associativity

    def occupancy(self) -> float:
        """Resident fraction of capacity — a telemetry probe signal."""
        return self.resident_blocks() / self.capacity_blocks

    def reset_stats(self) -> None:
        self.stats.reset()

    # -- engine seam ---------------------------------------------------------

    def engine_view(self):
        """Raw mutable state for the batched engine's fused kernel.

        Returns ``(sets, lru_order, stats, associativity, set_mask,
        latency)`` or ``None`` when the replacement policy is not LRU (the
        fused runners only inline LRU; other policies step through
        ``MemoryHierarchy.access``).  The engine relies on two invariants the scalar methods
        maintain: a resident block's tag is always present in its set's
        LRU order (so a touch is a plain ``move_to_end``), and
        ``popitem(last=False)`` on the order is exactly victim-selection
        plus eviction.  Both dicts are mutated in place and lazily
        populated per set index, mirroring :meth:`lookup`/:meth:`fill`.
        """
        from .replacement import LRUPolicy

        if type(self._policy) is not LRUPolicy:
            return None
        return (
            self._sets,
            self._policy._order,
            self.stats,
            self.associativity,
            self._set_mask,
            self.latency,
        )

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Lines, replacement metadata and stats, order-preserving.

        Sets serialize as pair lists of pair lists: fill order within a
        set is live state (dict iteration feeds nothing today, but tag
        lookups and the policy's own ordering must agree after restore),
        and JSON objects would stringify the int keys.
        """
        return {
            "sets": [
                [
                    set_index,
                    [
                        [line.block, line.is_prefetch, line.used, line.fill_cycle]
                        for line in lines.values()
                    ],
                ]
                for set_index, lines in self._sets.items()
            ],
            "policy": self._policy.state_dict(),
            "stats": group_state(self.stats),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self._sets = {
            int(set_index): {
                int(block): CacheLine(int(block), bool(is_prefetch), bool(used), int(fill_cycle))
                for block, is_prefetch, used, fill_cycle in lines
            }
            for set_index, lines in state["sets"]
        }
        # The bound-method aliases keep pointing at this policy object,
        # which load_state mutates rather than replaces.
        self._policy.load_state(state["policy"])
        load_group(self.stats, state["stats"])
