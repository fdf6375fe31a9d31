"""The engine seam: pluggable drivers for the per-access simulation loop.

An *engine* owns the inner loop that turns trace records into simulator
events.  :class:`~repro.sim.single_core.SingleCoreSim` delegates every
``advance`` to its engine, so the rest of the stack (phases, telemetry,
checkpoints, sweeps) never sees which driver is running:

* ``scalar`` — the original record-at-a-time loop.  Bit-identical with
  every previous release; the golden-stats oracle.
* ``batched`` — runs per-core runners in scheduling turns, a fused one
  that inlines the hot core/cache/SPP/perceptron path for the
  production configuration; a single-core sim is the one-core case of
  the multi-core driver (:mod:`repro.engine.multi_core`).
  Event-order equivalent with scalar (see docs/performance.md,
  "Batched engine").

Engines are registry components (kind ``"engine"``), so ``--engine``
names resolve — and fail — through the same catalog machinery as
prefetchers and workloads, and the engine name folds into
``config_fingerprint`` via :class:`~repro.sim.config.SimConfig`.

The contract every engine must honor:

1. ``advance(sim, n)`` steps at most ``n`` records, increments
   ``sim.consumed`` by the number actually stepped, and returns it.
2. When ``advance`` returns, *all* simulator state is flushed: stats
   counters, core clock, tables.  ``state_dict()`` between two
   ``advance`` calls must be byte-equal across engines, which is what
   keeps snapshots engine-portable and telemetry probes honest.
3. Engines never reorder events within or across records relative to
   the scalar loop — equivalence is exact, not approximate.

Multi-core simulations add a fourth point.  ``advance_multi(sim, n)``
drives :class:`~repro.sim.multi_core.MultiCoreSim` under the same three
rules, plus:

4. The *global interleaving* observable at the shared resources (LLC,
   DRAM channels) is the scalar schedule's: the next core to step is
   always the one with the minimum ``(cycle, core_index)`` key.  An
   engine may run one core for a bounded *cycle quantum* without
   re-consulting the schedule only while that key provably stays the
   minimum (see :mod:`repro.engine.multi_core`), and it must capture a
   core's measurement outcome at exactly the record where the scalar
   loop would (``sim._capture_core``), with that core's state flushed
   first.

Point 2 is phase-boundary exact in the multi-core case, with two
documented relaxations (both scalar-reachable, both enforced by the
cross-engine checkpoint tests):

* ``advance_multi`` drains whole scheduling turns, so it may overshoot
  ``n`` by the records already committed to the in-flight quantum (the
  return value reports the true count); a record pulled from the trace
  but suspended pre-execution stays parked in the trace's pending slot,
  where ``state_dict`` already serializes it.
* A batched engine may run records *ahead* of the global schedule when
  they provably touch no shared state (private-L1 hits in the
  non-inclusive hierarchy).  A **mid-measure** ``state_dict()`` is then
  a valid per-core record boundary that can sit a few records past the
  scalar engine's at the same call — restoring it (under either engine)
  still finishes bit-identical, and the states reconverge wherever
  runners flush: warmup end, every capture, and every return when
  telemetry is attached (*exact mode*: run-ahead disabled so probe
  samples land on scalar-identical record counts).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .. import registry


@runtime_checkable
class Engine(Protocol):
    """Driver for the per-access loop of one simulation."""

    name: str

    def advance(self, sim, n_records: int) -> int:
        """Step up to ``n_records`` of ``sim``'s trace; return the count."""
        ...

    def advance_multi(self, sim, n_records: int) -> int:
        """Step up to ``n_records`` of a multi-core sim's current phase.

        Cores are interleaved by the scalar ``(cycle, index)`` schedule
        (contract point 4); the call returns early when the phase
        completes (all cores warmed, or every measurement captured).
        """
        ...


def make_engine(config) -> Engine:
    """Resolve ``config.engine`` through the registry.

    Unknown names raise the registry's
    :class:`~repro.registry.UnknownComponentError` (with the sorted
    catalog in the message), which the CLI surfaces as a did-you-mean
    error.  Engines exposing a ``configure(config)`` hook receive the
    full :class:`~repro.sim.config.SimConfig` so they can read knobs
    like ``engine_quantum``.
    """
    engine = registry.create("engine", getattr(config, "engine", "scalar"))
    configure = getattr(engine, "configure", None)
    if configure is not None:
        configure(config)
    return engine
