"""The batched engine: fused per-core runners driven in turns.

Every batched advance, single-core or a mix, runs the per-core runners
of :mod:`repro.engine.multi_core`.  The *fused* runner inlines the
scalar hot path — O3 core bookkeeping, L1/L2/LLC indexing and tag
match, DRAM row-buffer timing, SPP's signature/pattern updates and
lookahead walk, and the perceptron's nine-feature index/sum — into one
suspended Python frame with every core-private counter held in locals
until the runner is closed.  A single-core advance is the one-core case
of the multi-core driver: with no runner-up on the schedule, each turn
runs unbounded, capped only by ``engine_quantum``.

Equivalence contract (see docs/performance.md, "Batched engine"):

* The runners replay the scalar engine's events in the *same order*
  within and across records, so results are **bit-identical**, not
  approximately equal.  The golden cells assert exact equality under
  both engines.
* Cross-record vectorization of the *decisions* is impossible by
  design: a demand access's timing depends on the prefetches issued by
  earlier accesses, and — with ``train_on_displacement`` — inserting
  one accepted candidate can move perceptron weights before the next
  candidate of the *same trigger* is scored.  What fusing buys is the
  removal of ~15 function calls plus several transient objects
  (``FeatureContext``/``PrefetchCandidate``/``meta`` dicts/
  ``AccessResult``/``TraceRecord``) per access.
* All state is flushed before ``advance`` returns: runners are closed
  (their ``finally`` writes every hoisted counter back), so
  ``state_dict()`` round-trips between engines and telemetry probes
  sampling between advances see exactly what the scalar engine would
  show.

Both fused runners need the stock machine: an ``O3Core`` on the stock
``MemoryHierarchy`` and ``DRAM`` with LRU caches.  On it the fused PPF
runner takes the production configuration (``PPF`` over ``SPP`` with
the stock flags, production feature catalog) and the fused *generic*
runner every other prefetcher, replaying the hierarchy inline and
calling the prefetcher only through its hooks.  Anything else (a
non-LRU cache, a subclassed hierarchy or DRAM, a foreign core) steps
through ``core.step``, which reaches ``MemoryHierarchy.access`` and is
bit-identical by construction.
"""

from __future__ import annotations

from ..registry import register
from .multi_core import batched_advance, batched_advance_multi


@register("engine", "batched")
class BatchedEngine:
    """Turn-based driver with a fused fast path for the PPF configuration."""

    name = "batched"

    def __init__(self, quantum: int = 4_096) -> None:
        self.quantum = quantum

    def configure(self, config) -> None:
        # 0 is a valid setting (uncapped turns), so no or-fallback here.
        self.quantum = int(getattr(config, "engine_quantum", self.quantum))

    def advance(self, sim, n_records: int) -> int:
        return batched_advance(sim, n_records, self.quantum)

    def advance_multi(self, sim, n_records: int) -> int:
        # The cycle-quantum driver over per-core suspended runners; see
        # repro.engine.multi_core for the schedule-preservation argument.
        return batched_advance_multi(sim, n_records, self.quantum)
