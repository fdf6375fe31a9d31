"""The batched engine's drivers and per-core runners, for any core count.

One fused PPF runner, one generic runner and one ``core.step`` fallback
serve every batched advance.  A single-core sim is the one-core case
(:func:`batched_advance`): with no runner-up on the heap every turn is
unbounded, so there is no quantum bound and no run-ahead stash, and the
runner steps exactly the records it is given.  Both engines'
``advance_multi`` implementations live here too, built on one
scheduling fact.  The scalar multi-core loop picks, before every record,
the core with the minimum ``(cycle, core_index)`` key (``min`` over core
cycles with lowest-index tie break).  Between two consecutive picks only
the picked core's state changes — so once core ``i`` is the minimum it
*stays* the minimum until its own cycle passes the runner-up's key.
With the runner-up at ``(c2, j2)`` and integer cycles, core ``i`` may
run unsupervised exactly while::

    cycle_i <  c2          if j2 < i   (runner-up wins the tie)
    cycle_i <= c2          if i  < j2  (i wins the tie)

That window is the *cycle quantum*: a bound computed per scheduling turn
such that executing the whole quantum as a batch is — by construction —
bit-identical to the record-at-a-time interleaving, including everything
observable at the shared LLC and DRAM channels.

On top of the quantum, the fused runner gets one relaxation: *L1-hit
run-ahead*.  A record that hits in its core's private L1 never touches
shared state (the hierarchy is non-inclusive: LLC evictions do not
back-invalidate, so no other core can change an L1's contents), which
makes it commute with every other core's records.  The runner therefore
probes the L1 before committing to a record: hits execute even past the
quantum bound, and only a *missing* record at or past the bound suspends
— with the already-pulled record parked in a stash and replayed first on
resume, so the trace stream never loses a record.  The suspend key is
the record's pre-front-end cycle, exactly the scalar schedule key.  The
shared-access *order* is therefore still the scalar schedule's; states
at mid-phase ``advance`` boundaries are valid per-core record boundaries
that converge to the scalar state at every phase boundary (warmup end,
each capture), which the cross-engine checkpoint tests enforce.  When
telemetry is attached the driver runs *exact* (no run-ahead), so probe
samples land on scalar-identical global record counts.

* :func:`scalar_advance_multi` — the verbatim scalar loop (``O3Core.step``
  per record), with the O(cores) ``min`` scan replaced by a heap of
  ``(cycle, index)`` keys.  Same picks, same tie breaks: still the
  bit-identity oracle, just without rescanning every core per access.
* :func:`batched_advance_multi` — the cycle-quantum batched driver.  The
  same heap hands out quanta; within a quantum the picked core runs a
  per-core *runner*: the fused PPF kernel as a suspended generator over
  the core's private L1/L2 path (or the generic inlined-core loop, or
  plain ``core.step``).

Why generators: under contention the schedule switches cores every few
records (mean segment lengths of ~2-4 records are typical for 4-core
mixes), far too short to amortize re-hoisting the kernel's ~150 locals
per segment.  A generator hoists once per ``advance_multi``, suspends at
quantum boundaries with its locals intact, and writes everything back in
a ``finally`` block when closed.  Closing is the flush point: the driver
closes a core's runner before capturing its measurement outcome and
closes all runners before returning, which is what keeps contract points
2 and 4 (state flushed, captures at the exact scalar record) honest.

Shared-state rule for runners: per-core *private* state (core clock and
counters, L1/L2 views, SPP/PPF tables and scalars, the inflight queue)
may be hoisted into each runner's locals.  Counters on the *shared* LLC
and DRAM stats objects may not — two runners hoisting the same scalar
would drop each other's writebacks.  Instead the driver hoists them once
into one plain list that every fused runner aliases (sound because
exactly one runner executes between yields) and writes them back to the
live stats objects when the advance returns; this only engages when
*every* core takes the fused runner, otherwise fused-eligible cores are
demoted to the generic runner, which mutates the live objects directly.
Shared mutable containers (LLC set/LRU dicts, DRAM per-channel lists)
are safe to alias from any runner because every mutation is in place.
"""

from __future__ import annotations

from bisect import bisect
from collections import OrderedDict
from heapq import heapify, heappop, heappush
from itertools import accumulate, islice

from ..core.filter import PerceptronFilter
from ..core.ppf import PPF
from ..core.tables import TableEntry
from ..core.weights import WEIGHT_MAX, WEIGHT_MIN
from ..cpu.o3core import O3Core
from ..cpu.trace import TraceRecord
from ..memory.cache import CacheLine
from ..memory.dram import DRAM
from ..memory.hierarchy import MemoryHierarchy
from ..prefetchers.spp import SPP, _GHREntry, _PatternEntry, _SignatureEntry
from ..workloads.synthetic import _PC_BASE, _PC_STRIDE, HotsetPattern, TraceStream

#: Bound meaning "no runner-up: run until budget runs out".  A float
#: infinity compares above every int cycle, keeping the per-record guard
#: a single comparison.
_NO_BOUND = float("inf")

#: Most records the generic runner pulls in one burst on an unbounded
#: turn (any ``engine_quantum``, 0 included).
_BURST = 4_096

#: The shared LLC and DRAM counters the fused runners update through the
#: driver's hoist list (module docstring, shared-state rule), in list
#: order: ``sh[0]`` is the LLC's ``demand_accesses``, ``sh[8]`` DRAM's
#: ``accesses``.
_LLC_SHARED = (
    "demand_accesses",
    "demand_hits",
    "demand_misses",
    "fills",
    "prefetch_fills",
    "evictions",
    "useful_prefetches",
    "useless_prefetch_evictions",
)
_DRAM_SHARED = (
    "accesses",
    "demand_accesses",
    "prefetch_accesses",
    "row_hits",
    "row_misses",
    "total_queue_delay",
)

#: ``SPP.encode_delta`` precomputed for every reachable delta.  Block
#: offsets live in ``[0, 64)``, so every signature delta is in
#: ``[-63, 63]`` — index the table with the delta itself (negative
#: deltas land on the upper half via Python's negative indexing).
_ENC_TAB = list(range(64)) + [0] + [64 | d for d in range(63, 0, -1)]


# -- eligibility ----------------------------------------------------------------


def _hier_eligible(hier) -> bool:
    """Hierarchy-level preconditions of the fused kernel (any core count)."""
    if type(hier) is not MemoryHierarchy:
        return False
    if type(hier.dram) is not DRAM:
        return False
    if hier.llc.engine_view() is None:  # non-LRU replacement
        return False
    return True


def _ppf_core_eligible(hier, core, pf) -> bool:
    """Per-core preconditions of the fused kernel.

    Exact-type checks on purpose: a subclass overriding any hook would
    silently diverge from the inlined logic, so anything non-stock takes
    the generic runner.
    """
    if type(core) is not O3Core or core.hierarchy is not hier:
        return False
    if type(pf) is not PPF:
        return False
    if pf.recorder is not None:
        return False
    if not pf.use_reject_table or not pf.train_on_displacement:
        return False
    if type(pf.underlying) is not SPP:
        return False
    scfg = pf.underlying.config
    if scfg.emit_all_candidates or not scfg.compound_confidence:
        return False
    filt = pf.filter
    if type(filt) is not PerceptronFilter or not filt.engine_view()[4]:
        return False
    if pf.prefetch_table.entries < 64 or pf.reject_table.entries < 64:
        return False  # index hoists assume masks cover the offset bits
    for cache in (hier.l1[core.core_id], hier.l2[core.core_id]):
        if cache.engine_view() is None:
            return False
    return True


def _core_mode(core, hier, i: int) -> str:
    """The runner core ``i`` takes: ``"ppf"``, ``"generic"`` or ``"step"``."""
    if type(core) is not O3Core:
        return "step"
    if core.core_id != i or not _hier_eligible(hier):
        return "generic"
    if _ppf_core_eligible(hier, core, hier.prefetchers[i]):
        return "ppf"
    return "generic"


# -- scalar multi-core advance (the bit-identity oracle) ------------------------


def scalar_advance_multi(sim, n_records: int) -> int:
    """The extracted scalar loop, heap-scheduled.

    Warmup: only cores below ``warmup_records`` are schedulable; a core
    reaching its target leaves the heap.  Measure: every core stays
    schedulable forever (finished cores replay for contention realism);
    a core's outcome is captured right after the step that reaches
    ``measure_records``, and the phase ends once all are captured.
    """
    if n_records <= 0:
        return 0
    cores = sim.mix.cores
    o3cores = sim.o3cores
    traces = sim.traces
    steps = sim.steps
    taken = 0
    if not sim.measuring:
        target = sim.config.warmup_records
        heap = [(o3cores[i].cycle, i) for i in range(cores) if steps[i] < target]
        heapify(heap)
        while heap and taken < n_records:
            _, i = heappop(heap)
            o3cores[i].step(next(traces[i]))
            steps[i] += 1
            taken += 1
            if steps[i] < target:
                heappush(heap, (o3cores[i].cycle, i))
        sim.consumed += taken
        return taken
    outcomes = sim.outcomes
    if all(outcome is not None for outcome in outcomes):
        return 0
    target = sim.config.measure_records
    heap = [(o3cores[i].cycle, i) for i in range(cores)]
    heapify(heap)
    while taken < n_records:
        _, i = heappop(heap)
        o3cores[i].step(next(traces[i]))
        steps[i] += 1
        taken += 1
        if outcomes[i] is None and steps[i] >= target:
            sim._capture_core(i)
            if all(outcome is not None for outcome in outcomes):
                break
        # Post-capture pushes read the fresh cycle: drain() moved it.
        heappush(heap, (o3cores[i].cycle, i))
    sim.consumed += taken
    return taken


# -- cycle-quantum batched advance ----------------------------------------------


def batched_advance_multi(sim, n_records: int, quantum: int) -> int:
    """Drive the heap schedule in cycle quanta over per-core runners.

    Each scheduling turn pops the minimum ``(cycle, index)`` core,
    derives the bit-identity-preserving cycle bound from the runner-up's
    key (module docstring), and lets the core's suspended runner execute
    up to that bound — further capped by the remaining record budget,
    the phase target, and ``quantum`` (``SimConfig.engine_quantum``, a
    pure throughput/latency knob: a capped core is still the schedule
    minimum and is simply re-picked).  Runners are closed (flushed)
    before a measurement capture and before returning.

    A runner may suspend holding a pulled-but-unprocessed record (an
    L1-missing record at the bound, see the run-ahead note above).  The
    driver never returns mid-stash: once the record budget is spent it
    keeps scheduling single-record turns until every stash resolves, so
    the call may step slightly *more* than ``n_records`` (the return
    value and ``sim.consumed`` report the true count).  The one
    exception is measurement completion — the remaining stashes are
    records the scalar schedule never pulled, so they are parked in each
    trace's pending slot, to be replayed first if the sim ever advances
    or snapshots again.
    """
    if n_records <= 0:
        return 0
    cores = sim.mix.cores
    o3cores = sim.o3cores
    steps = sim.steps
    measuring = sim.measuring
    outcomes = sim.outcomes
    if measuring and all(outcome is not None for outcome in outcomes):
        return 0
    warm_target = sim.config.warmup_records
    measure_target = sim.config.measure_records
    cap = quantum if quantum > 0 else n_records
    #: Telemetry pins the exact schedule (no run-ahead): probe samples
    #: then land on scalar-identical global record counts.
    exact = sim._telemetry is not None
    hier = sim.hierarchy
    modes = [_core_mode(o3cores[i], hier, i) for i in range(cores)]
    shared = None
    if "ppf" in modes:
        if all(mode == "ppf" for mode in modes):
            # Captures only read the core<i> stats subtree, so the
            # hoisted shared counters need no mid-advance flush.
            shared = _hoist_shared(hier)
        else:
            # Mixed modes: generic/step cores mutate the live shared
            # stats objects directly, so the hoisted-list writeback
            # would clobber their increments.  Demote — the generic
            # runner is bit-identical, just slower.
            modes = ["generic" if mode == "ppf" else mode for mode in modes]
    if measuring:
        heap = [(o3cores[i].cycle, i) for i in range(cores)]
    else:
        heap = [(o3cores[i].cycle, i) for i in range(cores) if steps[i] < warm_target]
    heapify(heap)
    runners: list = [None] * cores
    stashed: list = [False] * cores
    pending = 0  # cores suspended on a pulled-but-unprocessed record
    taken_total = 0
    pop = heappop
    push = heappush
    try:
        while heap and (taken_total < n_records or pending):
            _, i = pop(heap)
            if heap:
                c2, j2 = heap[0]
                stop_at = c2 + 1 if i < j2 else c2
            else:
                stop_at = _NO_BOUND
            budget = n_records - taken_total
            if budget > cap:
                budget = cap
            if budget < 1:
                budget = 1  # draining stashes past the budget: minimal turns
            if measuring:
                capture = outcomes[i] is None
                if capture:
                    remaining = measure_target - steps[i]
                    if remaining < 1:
                        remaining = 1  # degenerate target: step once, then capture
                    if remaining < budget:
                        budget = remaining
            else:
                capture = False
                remaining = warm_target - steps[i]
                if remaining < budget:
                    budget = remaining
            runner = runners[i]
            if runner is None:
                runner = runners[i] = _start_runner(
                    modes[i], o3cores[i], sim.traces[i], shared, exact
                )
            new_cycle, seg, stash = runner.send((stop_at, budget))
            if stash != stashed[i]:
                stashed[i] = stash
                pending += 1 if stash else -1
            steps[i] += seg
            taken_total += seg
            if capture and steps[i] >= measure_target:
                runners[i] = None
                runner.close()  # flush core i before its stats are read
                sim._capture_core(i)
                if all(outcome is not None for outcome in outcomes):
                    break
                push(heap, (o3cores[i].cycle, i))  # drain() moved the clock
            elif not measuring and steps[i] >= warm_target:
                runners[i] = None
                runner.close()  # warmed up: out of the schedule
            else:
                push(heap, (new_cycle, i))
    finally:
        for runner in runners:
            if runner is not None:
                runner.close()
        if shared is not None:
            _write_shared(hier, shared)
    sim.consumed += taken_total
    return taken_total


def _hoist_shared(hier) -> list:
    """The shared LLC/DRAM counters as the one list every fused runner
    aliases (module docstring, shared-state rule)."""
    ll_stats = hier.llc.engine_view()[2]
    dstats = hier.dram.stats
    return [getattr(ll_stats, name) for name in _LLC_SHARED] + [
        getattr(dstats, name) for name in _DRAM_SHARED
    ]


def _write_shared(hier, shared: list) -> None:
    """Write :func:`_hoist_shared`'s list back to the live stats objects."""
    ll_stats = hier.llc.engine_view()[2]
    for name, value in zip(_LLC_SHARED, shared):
        setattr(ll_stats, name, value)
    dstats = hier.dram.stats
    for name, value in zip(_DRAM_SHARED, shared[len(_LLC_SHARED):]):
        setattr(dstats, name, value)


# -- single-core advance: the one-core case -------------------------------------


class _OneCoreTrace:
    """A single-core sim's trace, seen through a mix trace's fields.

    The runners read ``_stream``, ``_it``, ``_offset`` and ``_pending``
    off a mix's :class:`~repro.sim.multi_core._EndlessTrace`.  A
    single-core trace is not relocated and never parks a record (a
    one-core turn has no bound to stop at), and it never laps:
    ``_workload`` is ``None``, so the end of the stream ends the turn.
    """

    _workload = None
    _chunk = 0
    _offset = 0

    def __init__(self, stream) -> None:
        self._stream = stream
        self._it = iter(stream)
        self._pending = None

    def __iter__(self) -> "_OneCoreTrace":
        return self

    def __next__(self):
        return next(self._it)


def batched_advance(sim, n_records: int, quantum: int) -> int:
    """Step a single-core sim through one-core turns of the runners.

    With one core there is no runner-up, so every turn runs unbounded
    (``stop_at`` is ``_NO_BOUND``): the runner steps exactly ``budget``
    records, or fewer where the trace ends, and never stashes one.
    ``quantum`` (``SimConfig.engine_quantum``, 0 = uncapped) caps each
    turn as it does in a mix.  The runner is closed, flushing every
    hoisted counter, before the call returns (contract point 2).
    """
    if n_records <= 0:
        return 0
    core = sim.core
    hier = sim.hierarchy
    mode = _core_mode(core, hier, 0)
    shared = _hoist_shared(hier) if mode == "ppf" else None
    runner = _start_runner(mode, core, _OneCoreTrace(sim.trace), shared, False)
    cap = quantum if quantum > 0 else n_records
    taken = 0
    try:
        while taken < n_records:
            budget = n_records - taken
            if budget > cap:
                budget = cap
            seg = runner.send((_NO_BOUND, budget))[1]
            taken += seg
            if seg < budget:
                break  # the trace has ended
    finally:
        runner.close()
        if shared is not None:
            _write_shared(hier, shared)
    sim.consumed += taken
    return taken


# -- per-core runners -----------------------------------------------------------
#
# Runner protocol: the driver primes the generator with ``next()`` (runs
# the hoists, parks before any work), then repeatedly ``send``s a
# ``(stop_at, budget)`` pair; the runner steps records while fewer than
# ``budget`` records were stepped this turn and its schedule position
# allows (its cycle is below ``stop_at``, except fused L1-hit run-ahead),
# then yields ``(cycle, stepped, stashed)`` — ``stashed`` flags a pulled
# record suspended before processing (its key is the yielded cycle).
# ``close()`` runs the ``finally`` writeback and parks any stash in the
# trace's pending slot.  A mix's trace laps forever; a single-core
# trace ends, and its end ends the turn early (``stepped < budget``).
# On a bounded turn records are pulled one at a time straight off the
# underlying trace iterator (no read-ahead); an unbounded turn steps
# every record it pulls, so the generic runner takes those in bursts.
# Either way the trace stream's checkpoint cursor is exact whenever the
# driver returns.


def _start_runner(mode: str, core, trace, shared, exact: bool):
    """Build the runner for ``mode`` and prime it (hoist its locals and
    park it at the first yield)."""
    if mode == "ppf":
        runner = _ppf_runner(core, trace, shared, exact)
    elif mode == "generic":
        runner = _generic_runner(core, trace)
    else:
        runner = _step_runner(core, trace)
    next(runner)
    return runner


def _step_runner(core, trace):
    """Fallback for foreign core types: defer to the core's own step()."""
    step = core.step
    stop_at, budget = yield
    while True:
        seg = 0
        while seg < budget and core.cycle < stop_at:
            rec = next(trace, None)
            if rec is None:
                break  # a single-core trace has ended
            step(rec)
            seg += 1
        stop_at, budget = yield (core.cycle, seg, False)


def _generic_runner(core, trace):
    """Inlined O3Core bookkeeping around the real ``hierarchy.access``.

    Every memory-side event goes through the exact scalar code, so this
    path is bit-identical for any hierarchy/prefetcher combination.  No
    run-ahead here — a custom hierarchy may touch shared state on any
    access, so every record stays inside its quantum.
    """
    workload = trace._workload
    lap_chunk = trace._chunk
    reloc = trace._offset
    it = trace._it
    access = core.hierarchy.access
    core_id = core.core_id
    cfg = core.config
    width = cfg.width
    rob_size = cfg.rob_size
    mlp_limit = cfg.mlp_limit
    stats = core.stats
    outstanding = core._outstanding
    popleft = outstanding.popleft
    push = outstanding.append
    loads = stats.loads
    rob_stalls = stats.rob_stalls
    mlp_stalls = stats.mlp_stalls
    cycle = core.cycle
    instructions = core.instructions
    retire_frac = core._retire_frac
    seq = core._seq
    pending = trace._pending  # a post-completion stash parked by a fused runner
    if pending is not None:
        trace._pending = None
    stop_at, budget = yield
    try:
        while True:
            seg = 0
            while seg < budget and cycle < stop_at:
                # ---- _EndlessTrace.__next__, sans record rebuild ------------
                if pending is not None:
                    batch = (pending,)
                    pending = None
                elif stop_at == _NO_BOUND:
                    # An unbounded turn steps every record it pulls, so
                    # it pulls a burst: records produced back to back
                    # cost less than records produced between accesses
                    # (docs/performance.md, "Hot-path invariants").
                    want = budget - seg
                    if want > _BURST:
                        want = _BURST
                    batch = list(islice(it, want))
                else:
                    rec = next(it, None)
                    batch = () if rec is None else (rec,)
                if not batch:
                    if workload is None:
                        break  # a single-core trace has ended
                    trace.lap_seed += 1
                    trace._stream = workload.trace(lap_chunk, seed=trace.lap_seed)
                    it = trace._it = iter(trace._stream)
                    continue
                for rec in batch:
                    bubble = rec.bubble
                    retire = retire_frac + bubble
                    cycle += retire // width
                    retire_frac = retire % width
                    seq += 1
                    while outstanding and outstanding[0][0] <= cycle:
                        popleft()
                    rob_horizon = seq - rob_size
                    while outstanding and outstanding[0][1] <= rob_horizon:
                        rob_stalls += 1
                        completion = popleft()[0]
                        if completion > cycle:
                            cycle = completion
                        while outstanding and outstanding[0][0] <= cycle:
                            popleft()
                    while len(outstanding) >= mlp_limit:
                        mlp_stalls += 1
                        completion = popleft()[0]
                        if completion > cycle:
                            cycle = completion
                        while outstanding and outstanding[0][0] <= cycle:
                            popleft()
                    loads += 1
                    ready = access(core_id, rec.pc, rec.addr + reloc, cycle).ready_cycle
                    if ready > cycle:
                        push((ready, seq))
                    instructions += bubble + 1
                seg += len(batch)
            stop_at, budget = yield (cycle, seg, False)
    finally:
        if pending is not None:
            trace._pending = pending
        core.cycle = cycle
        core.instructions = instructions
        core._retire_frac = retire_frac
        core._seq = seq
        stats.loads = loads
        stats.rob_stalls = rob_stalls
        stats.mlp_stalls = mlp_stalls


def _ppf_runner(core, trace, sh: list, exact: bool):  # noqa: C901
    """The fused PPF fast path for one core as a suspended generator.

    Replays, record for record and event for event, what the scalar
    engine does for the production configuration (PPF over SPP with the
    stock flags, LRU everywhere, the production feature catalog):

      core front-end -> L1 lookup -> (L2 -> LLC -> DRAM demand path with
      inline fills/evictions) -> PPF demand feedback -> SPP signature/
      pattern update -> fused lookahead+decide with table inserts and
      displacement training -> prefetch issue at the L2-demand cycle ->
      L1 fill -> core tail.

    Every core-private counter lives in a local until ``close()``;
    mutable containers (cache sets, LRU orders, SPP tables, weight
    lists, decision-table slots) are shared in place.  Beyond that:

    * everything core-private indexes ``i``, the core's id (L1/L2
      views, prefetcher state, inflight queue, drop counter);
    * shared LLC/DRAM *counters* go through ``sh``, the driver-owned
      hoist list every fused runner aliases (see the module's
      shared-state rule) — the shared containers themselves are aliased
      live, every mutation is in place;
    * records are produced one at a time (for the synthetic
      ``TraceStream``, inline — see the trace-production hoist below —
      otherwise pulled from the trace's iterator; inline lap rollover,
      inline relocation) and addresses decomposed with shifts — no
      chunk buffer, so the trace cursor is exact at every suspend point
      (modulo one stashed record, flagged to the driver);
    * the L1 probe moves ahead of the front end (it has no side
      effects; the hit/miss paths below reuse its result unchanged), so
      L1 hits can run ahead of the quantum bound and only a missing
      record at the bound suspends, parked in ``stash``.
    """
    i = core.core_id
    workload = trace._workload
    lap_chunk = trace._chunk
    reloc = trace._offset
    it = trace._it

    # -- trace production -----------------------------------------------------
    # For the synthetic TraceStream the record loop is replicated inline
    # (``_generate``'s body, RNG call for RNG call): all of its mutable
    # state — the RNG, the per-pattern cursors, ``pc_counters`` — lives
    # on the stream instance *by design* (shared with the running
    # generator), so producing records here and writing ``emitted`` back
    # leaves the stream exactly where ``next(it)`` would have.  This
    # skips the generator resume plus one frozen-dataclass construction
    # per record.  Foreign stream types keep the plain iterator pull.
    stream = trace._stream
    fast_trace = type(stream) is TraceStream

    def _hoist_stream(s):
        mixes = s.mixes
        cw = list(accumulate(m.weight for m in mixes))
        spans = [2 * m.bubble_mean + 1 if m.bubble_mean else 0 for m in mixes]
        # Hotset mix elements (the heaviest weight in every SPEC model)
        # get their ``next_address`` replicated inline below; the tuple
        # carries the pattern fields the inline body reads.
        hots = [
            (
                (p, p._base, p.hot_blocks, p.hot_blocks.bit_length(), p.jump_every)
                if type(p) is HotsetPattern
                else None
            )
            for p in (m.pattern for m in mixes)
        ]
        return (
            s.rng,
            s.rng.random,
            s.rng.getrandbits,
            s.pc_counters,
            cw,
            cw[-1] + 0.0,
            len(mixes) - 1,
            [m.pattern.next_address for m in mixes],
            hots,
            [m.pc_pool for m in mixes],
            spans,
            [span.bit_length() for span in spans],
            [_PC_BASE + 0x10000 * k for k in range(len(mixes))],
            s.n_records,
        )

    if fast_trace:
        (
            rng,
            random_draw,
            getrandbits,
            pc_counters,
            cum_weights,
            total_w,
            hi_ix,
            next_addresses,
            hot_modes,
            pc_pools,
            bubble_spans,
            bubble_bits,
            pc_bases,
            lap_records,
        ) = _hoist_stream(stream)
        emitted = stream.emitted

    # -- core -----------------------------------------------------------------
    ccfg = core.config
    width = ccfg.width
    rob_size = ccfg.rob_size
    mlp_limit = ccfg.mlp_limit
    cstats = core.stats
    c_loads = cstats.loads
    c_rob = cstats.rob_stalls
    c_mlp = cstats.mlp_stalls
    outstanding = core._outstanding
    popleft = outstanding.popleft
    push = outstanding.append
    cycle = core.cycle
    instructions = core.instructions
    retire_frac = core._retire_frac
    seq = core._seq

    # -- hierarchy / caches ---------------------------------------------------
    hier = core.hierarchy
    hcfg = hier.config
    max_pft = hcfg.max_prefetches_per_trigger
    queue_size = hcfg.prefetch_queue_size
    l1_sets, l1_ord, l1_stats, l1_assoc, l1_mask, l1_lat = hier.l1[i].engine_view()
    l2_sets, l2_ord, l2_stats, l2_assoc, l2_mask, l2_lat = hier.l2[i].engine_view()
    ll_sets, ll_ord, _ll_stats, ll_assoc, ll_mask, ll_lat = hier.llc.engine_view()
    l1_da = l1_stats.demand_accesses
    l1_hit = l1_stats.demand_hits
    l1_miss = l1_stats.demand_misses
    l1_fill = l1_stats.fills
    l1_evt = l1_stats.evictions
    l1_useful = l1_stats.useful_prefetches
    l1_useless = l1_stats.useless_prefetch_evictions
    l2_da = l2_stats.demand_accesses
    l2_hit = l2_stats.demand_hits
    l2_miss = l2_stats.demand_misses
    l2_fill = l2_stats.fills
    l2_pfill = l2_stats.prefetch_fills
    l2_evt = l2_stats.evictions
    l2_useful = l2_stats.useful_prefetches
    l2_useless = l2_stats.useless_prefetch_evictions
    inflight = hier._inflight_prefetches[i]
    dropped = hier.prefetches_dropped[i]

    # -- DRAM (shared: counters ride in ``sh``) -------------------------------
    dram = hier.dram
    dcfg = dram.config
    channels = dcfg.channels
    cpt = dcfg.cycles_per_transfer
    rh_lat = dcfg.row_hit_latency
    rm_lat = dcfg.row_miss_latency
    next_free = dram._next_free
    open_row = dram._open_row

    # -- PPF / filter / tables ------------------------------------------------
    ppf = hier.prefetchers[i]
    (spp, filt, pft, rej, ppf_stats, p_base, _use_rej, _tod, _rec) = ppf.engine_view()
    pft_slots, pft_mask = pft.engine_view()
    rej_slots, rej_mask = rej.engine_view()
    pft_ins = pft.inserts
    pft_hits = pft.hits
    pft_conf = pft.conflicts
    rej_ins = rej.inserts
    rej_hits = rej.hits
    rej_conf = rej.conflicts
    disp_train = ppf_stats.displacement_trainings
    rej_rec = ppf_stats.reject_recoveries
    p_cand = p_base.candidates
    p_iss = p_base.issued
    p_iss2 = p_base.issued_l2
    p_iss3 = p_base.issued_llc
    p_useful = p_base.useful
    p_useless = p_base.useless_evictions
    fcfg, weight_lists, fnames, fstats, _fused = filt.engine_view()
    tau_hi = fcfg.tau_hi
    tau_lo = fcfg.tau_lo
    theta_p = fcfg.theta_p
    theta_n = fcfg.theta_n
    w0, w1, w2, w3, w4, w5, w6, w7, w8 = weight_lists
    f_inf = fstats.inferences
    f_l2 = fstats.accepted_l2
    f_llc = fstats.accepted_llc
    f_rej = fstats.rejected
    f_sup = fstats.suppressed_updates
    f_pos = fstats.positive_updates
    f_neg = fstats.negative_updates
    f_upd = [0] * 9  # per-feature update deltas, merged at writeback
    f_order = []  # feature indices in first-update order (dict-order fidelity)
    pcs_a, pcs_b, pcs_c = ppf._pcs

    def train9(ix, positive):
        # PerceptronFilter.train unrolled over the production feature
        # set, with the per-feature update counts batched into ``f_upd``
        # (one dict merge at writeback instead of one per update).  The
        # filter is core-private, so hoisting its counters is safe.
        nonlocal f_sup, f_pos, f_neg
        k0, k1, k2, k3, k4, k5, k6, k7, k8 = ix
        total = (
            w0[k0] + w1[k1] + w2[k2] + w3[k3] + w4[k4]
            + w5[k5] + w6[k6] + w7[k7] + w8[k8]
        )
        if positive:
            if total >= theta_p:
                f_sup += 1
                return
            v = w0[k0]
            if v < WEIGHT_MAX:
                w0[k0] = v + 1
                if not f_upd[0]:
                    f_order.append(0)
                f_upd[0] += 1
            v = w1[k1]
            if v < WEIGHT_MAX:
                w1[k1] = v + 1
                if not f_upd[1]:
                    f_order.append(1)
                f_upd[1] += 1
            v = w2[k2]
            if v < WEIGHT_MAX:
                w2[k2] = v + 1
                if not f_upd[2]:
                    f_order.append(2)
                f_upd[2] += 1
            v = w3[k3]
            if v < WEIGHT_MAX:
                w3[k3] = v + 1
                if not f_upd[3]:
                    f_order.append(3)
                f_upd[3] += 1
            v = w4[k4]
            if v < WEIGHT_MAX:
                w4[k4] = v + 1
                if not f_upd[4]:
                    f_order.append(4)
                f_upd[4] += 1
            v = w5[k5]
            if v < WEIGHT_MAX:
                w5[k5] = v + 1
                if not f_upd[5]:
                    f_order.append(5)
                f_upd[5] += 1
            v = w6[k6]
            if v < WEIGHT_MAX:
                w6[k6] = v + 1
                if not f_upd[6]:
                    f_order.append(6)
                f_upd[6] += 1
            v = w7[k7]
            if v < WEIGHT_MAX:
                w7[k7] = v + 1
                if not f_upd[7]:
                    f_order.append(7)
                f_upd[7] += 1
            v = w8[k8]
            if v < WEIGHT_MAX:
                w8[k8] = v + 1
                if not f_upd[8]:
                    f_order.append(8)
                f_upd[8] += 1
            f_pos += 1
        else:
            if total <= theta_n:
                f_sup += 1
                return
            v = w0[k0]
            if v > WEIGHT_MIN:
                w0[k0] = v - 1
                if not f_upd[0]:
                    f_order.append(0)
                f_upd[0] += 1
            v = w1[k1]
            if v > WEIGHT_MIN:
                w1[k1] = v - 1
                if not f_upd[1]:
                    f_order.append(1)
                f_upd[1] += 1
            v = w2[k2]
            if v > WEIGHT_MIN:
                w2[k2] = v - 1
                if not f_upd[2]:
                    f_order.append(2)
                f_upd[2] += 1
            v = w3[k3]
            if v > WEIGHT_MIN:
                w3[k3] = v - 1
                if not f_upd[3]:
                    f_order.append(3)
                f_upd[3] += 1
            v = w4[k4]
            if v > WEIGHT_MIN:
                w4[k4] = v - 1
                if not f_upd[4]:
                    f_order.append(4)
                f_upd[4] += 1
            v = w5[k5]
            if v > WEIGHT_MIN:
                w5[k5] = v - 1
                if not f_upd[5]:
                    f_order.append(5)
                f_upd[5] += 1
            v = w6[k6]
            if v > WEIGHT_MIN:
                w6[k6] = v - 1
                if not f_upd[6]:
                    f_order.append(6)
                f_upd[6] += 1
            v = w7[k7]
            if v > WEIGHT_MIN:
                w7[k7] = v - 1
                if not f_upd[7]:
                    f_order.append(7)
                f_upd[7] += 1
            v = w8[k8]
            if v > WEIGHT_MIN:
                w8[k8] = v - 1
                if not f_upd[8]:
                    f_order.append(8)
                f_upd[8] += 1
            f_neg += 1

    # -- SPP ------------------------------------------------------------------
    scfg, sig_table, pat_table, ghr = spp.engine_view()
    st_entries = scfg.signature_table_entries
    pat_entries = scfg.pattern_table_entries
    # Power-of-two pattern tables (every stock config) index by mask.
    pat_pow2 = pat_entries & (pat_entries - 1) == 0
    pat_imask = pat_entries - 1
    deltas_per = scfg.deltas_per_entry
    cmax = scfg.counter_max
    pref_th = scfg.prefetch_threshold
    la_th = scfg.lookahead_threshold
    max_depth = scfg.max_depth
    ghr_entries = scfg.ghr_entries
    acc_max = scfg.accuracy_counter_max
    sig_get = sig_table.get
    sig_move = sig_table.move_to_end
    # Dense mirror of the slot-indexed pattern table: list indexing
    # beats dict hashing in the walk's hottest lookup.  Entries are
    # mutated in place, so both views alias the same objects; inserts
    # dual-write (dict stays the live source of truth for writeback).
    plist = [None] * pat_entries
    for _k, _v in pat_table.items():
        plist[_k] = _v
    c_total = spp._c_total
    c_useful_ctr = spp._c_useful
    last_sig = spp.last_signature
    depth_sum = spp.depth_sum
    depth_count = spp.depth_count
    sstats = spp.stats
    s_cand = sstats.candidates
    s_iss = sstats.issued
    s_iss2 = sstats.issued_l2
    s_iss3 = sstats.issued_llc
    s_useful = sstats.useful
    s_useless = sstats.useless_evictions

    _Line = CacheLine
    _Entry = TableEntry
    _OD = OrderedDict
    _GHR = _GHREntry
    _Pat = _PatternEntry
    _Sig = _SignatureEntry
    enc_tab = _ENC_TAB
    # Same dense-mirror trick for the per-core L1/L2 set and LRU-order
    # maps (lazily populated, set-index keyed).  The shared LLC stays on
    # dict access: its containers are aliased by every runner.
    l1s = [None] * (l1_mask + 1)
    for _k, _v in l1_sets.items():
        l1s[_k] = _v
    l1o = [None] * (l1_mask + 1)
    for _k, _v in l1_ord.items():
        l1o[_k] = _v
    l2s = [None] * (l2_mask + 1)
    for _k, _v in l2_sets.items():
        l2s[_k] = _v
    l2o = [None] * (l2_mask + 1)
    for _k, _v in l2_ord.items():
        l2o[_k] = _v
    ll_get = ll_sets.get

    # Stash: a pulled-but-unprocessed record as a decomposed tuple
    # ``(pc, addr, block, si1, bubble)`` (addr relocated).  A parked
    # pending record from a previous advance is picked up here.
    pend0 = trace._pending
    stash = None
    if pend0 is not None:
        trace._pending = None
        p_addr = pend0.addr + reloc
        p_block = p_addr >> 6
        stash = (pend0.pc, p_addr, p_block, p_block & l1_mask, pend0.bubble)
    stop_at, budget = yield
    try:
        while True:
            seg = 0
            while seg < budget:
                if stash is None:
                    if exact and cycle >= stop_at:
                        break
                    if fast_trace:
                        # ---- TraceStream._generate, inline ------------------
                        if emitted >= lap_records:
                            if workload is None:
                                break  # a single-core trace has ended
                            trace.lap_seed += 1
                            stream = workload.trace(lap_chunk, seed=trace.lap_seed)
                            trace._stream = stream
                            trace._it = iter(stream)
                            (
                                rng,
                                random_draw,
                                getrandbits,
                                pc_counters,
                                cum_weights,
                                total_w,
                                hi_ix,
                                next_addresses,
                                hot_modes,
                                pc_pools,
                                bubble_spans,
                                bubble_bits,
                                pc_bases,
                                lap_records,
                            ) = _hoist_stream(stream)
                            emitted = stream.emitted
                        emitted += 1
                        which = bisect(cum_weights, random_draw() * total_w, 0, hi_ix)
                        hot = hot_modes[which]
                        if hot is None:
                            addr = next_addresses[which](rng) + reloc
                        else:
                            # HotsetPattern.next_address, inline — the
                            # two randrange draws via the exact
                            # _randbelow_with_getrandbits loops.
                            hpat, hbase, hblocks, hbits, hjump = hot
                            hcnt = hpat._count + 1
                            hpat._count = hcnt
                            if hjump and hcnt % hjump == 0:
                                r = getrandbits(17)
                                while r >= 65536:
                                    r = getrandbits(17)
                                hblock = hbase + hblocks + r
                            else:
                                a = getrandbits(hbits)
                                while a >= hblocks:
                                    a = getrandbits(hbits)
                                b = getrandbits(hbits)
                                while b >= hblocks:
                                    b = getrandbits(hbits)
                                hblock = hbase + (a if a < b else b)
                            addr = (hblock << 6) + reloc
                        pcc = pc_counters[which]
                        pc_counters[which] = pcc + 1
                        pc = pc_bases[which] + (pcc % pc_pools[which]) * _PC_STRIDE
                        span = bubble_spans[which]
                        if span:
                            # rng.randrange(span), sans the call layers:
                            # the exact _randbelow_with_getrandbits loop,
                            # so the RNG stream is bit-identical.
                            k = bubble_bits[which]
                            bubble = getrandbits(k)
                            while bubble >= span:
                                bubble = getrandbits(k)
                        else:
                            bubble = 0
                    else:
                        # ---- _EndlessTrace.__next__, sans record rebuild ----
                        try:
                            rec = next(it)
                        except StopIteration:
                            if workload is None:
                                break  # a single-core trace has ended
                            trace.lap_seed += 1
                            trace._stream = workload.trace(lap_chunk, seed=trace.lap_seed)
                            it = trace._it = iter(trace._stream)
                            rec = next(it)
                        pc = rec.pc
                        addr = rec.addr + reloc
                        bubble = rec.bubble
                    block = addr >> 6
                    si1 = block & l1_mask
                    lines1 = l1s[si1]
                    line = lines1.get(block) if lines1 else None
                    if line is None and cycle >= stop_at:
                        # An L1 miss at the bound: this record's shared
                        # accesses belong after the runner-up's records.
                        stash = (pc, addr, block, si1, bubble)
                        break
                else:
                    # No other core can touch this L1, so the probe's
                    # miss verdict from stash time still holds.
                    pc, addr, block, si1, bubble = stash
                    stash = None
                    lines1 = l1s[si1]
                    line = None

                # ---- O3Core.step front end ----------------------------------
                retire = retire_frac + bubble
                cycle += retire // width
                retire_frac = retire % width
                seq += 1
                while outstanding and outstanding[0][0] <= cycle:
                    popleft()
                rob_horizon = seq - rob_size
                while outstanding and outstanding[0][1] <= rob_horizon:
                    c_rob += 1
                    completion = popleft()[0]
                    if completion > cycle:
                        cycle = completion
                    while outstanding and outstanding[0][0] <= cycle:
                        popleft()
                while len(outstanding) >= mlp_limit:
                    c_mlp += 1
                    completion = popleft()[0]
                    if completion > cycle:
                        cycle = completion
                    while outstanding and outstanding[0][0] <= cycle:
                        popleft()
                c_loads += 1

                # ---- L1 lookup (probe result from above) --------------------
                l1_da += 1
                if line is not None:
                    l1_hit += 1
                    if line.is_prefetch and not line.used:
                        l1_useful += 1
                    line.used = True
                    l1o[si1].move_to_end(block)
                    ready = cycle + l1_lat
                    if ready > cycle:
                        push((ready, seq))
                    instructions += bubble + 1
                    seg += 1
                    continue
                l1_miss += 1
                cycle2 = cycle + l1_lat
                page = addr >> 12
                offset = block & 63

                # ---- L2 demand ----------------------------------------------
                si2 = block & l2_mask
                lines2 = l2s[si2]
                line2 = lines2.get(block) if lines2 else None
                l2_da += 1
                if line2 is not None:
                    l2_hit += 1
                    ipf = line2.is_prefetch
                    if ipf and not line2.used:
                        l2_useful += 1
                    line2.used = True
                    l2o[si2].move_to_end(block)
                    fc = line2.fill_cycle
                    ready = (fc if fc > cycle2 else cycle2) + l2_lat
                    if ipf:
                        line2.is_prefetch = False  # count each prefetch useful once
                        p_useful += 1
                        s_useful += 1
                        c_useful_ctr = min(c_useful_ctr + 1, acc_max)
                else:
                    l2_miss += 1
                    cycle3 = cycle2 + l2_lat
                    # ---- LLC demand (shared: counters in ``sh``) ------------
                    si3 = block & ll_mask
                    lines3 = ll_get(si3)
                    line3 = lines3.get(block) if lines3 else None
                    sh[0] += 1  # llc demand_accesses
                    if line3 is not None:
                        sh[1] += 1  # llc demand_hits
                        ipf = line3.is_prefetch
                        if ipf and not line3.used:
                            sh[6] += 1  # llc useful_prefetches
                        line3.used = True
                        ll_ord[si3].move_to_end(block)
                        if ipf:
                            # Credit goes to the accessing core (core i).
                            line3.is_prefetch = False
                            p_useful += 1
                            s_useful += 1
                            c_useful_ctr = min(c_useful_ctr + 1, acc_max)
                        fc = line3.fill_cycle
                        ready = (fc if fc > cycle3 else cycle3) + ll_lat
                    else:
                        sh[2] += 1  # llc demand_misses
                        # ---- DRAM demand access at cycle3 + ll_lat ----------
                        dc = cycle3 + ll_lat
                        ch = block % channels
                        nf = next_free[ch]
                        start = dc if dc > nf else nf
                        sh[13] += start - dc  # dram total_queue_delay
                        row = addr >> 13  # ROW_BITS
                        if open_row[ch] == row:
                            sh[11] += 1  # dram row_hits
                            ready = start + rh_lat
                        else:
                            sh[12] += 1  # dram row_misses
                            open_row[ch] = row
                            ready = start + rm_lat
                        next_free[ch] = start + cpt
                        sh[8] += 1  # dram accesses
                        sh[9] += 1  # dram demand_accesses
                        # ---- LLC demand fill (missed, so not resident) ------
                        if lines3 is None:
                            lines3 = {}
                            ll_sets[si3] = lines3
                        od3 = ll_ord.get(si3)
                        if od3 is None:
                            od3 = _OD()
                            ll_ord[si3] = od3
                        if len(lines3) >= ll_assoc:
                            victim, _ = od3.popitem(last=False)
                            vline = lines3.pop(victim)
                            sh[5] += 1  # llc evictions
                            if vline.is_prefetch and not vline.used:
                                sh[7] += 1  # llc useless_prefetch_evictions
                            # Evicted line objects are unreferenced once
                            # popped: recycle for the incoming fill.
                            vline.block = block
                            vline.is_prefetch = False
                            vline.used = False
                            vline.fill_cycle = ready
                            lines3[block] = vline
                        else:
                            lines3[block] = _Line(block, False, False, ready)
                        od3[block] = None
                        sh[3] += 1  # llc fills
                    # ---- L2 demand fill (missed, so not resident) -----------
                    if lines2 is None:
                        lines2 = {}
                        l2_sets[si2] = lines2
                        l2s[si2] = lines2
                    od2 = l2o[si2]
                    if od2 is None:
                        od2 = _OD()
                        l2_ord[si2] = od2
                        l2o[si2] = od2
                    if len(lines2) >= l2_assoc:
                        victim, _ = od2.popitem(last=False)
                        vline = lines2.pop(victim)
                        l2_evt += 1
                        if vline.is_prefetch and not vline.used:
                            l2_useless += 1
                            # PPF.on_eviction: base counters + table feedback
                            p_useless += 1
                            s_useless += 1
                            vb = vline.block
                            entry = pft_slots[vb & pft_mask]
                            if (
                                entry is not None
                                and entry.valid
                                and entry.tag == (vb >> 10) & 63
                            ):
                                pft_hits += 1
                                if not entry.useful:
                                    train9(entry.feature_indices, False)
                                    entry.valid = False
                        vline.block = block
                        vline.is_prefetch = False
                        vline.used = False
                        vline.fill_cycle = ready
                        lines2[block] = vline
                    else:
                        lines2[block] = _Line(block, False, False, ready)
                    od2[block] = None
                    l2_fill += 1

                # ==== PPF.train(addr, pc, hit, cycle2) =======================
                # Step 3/4 feedback first: prefetch-table hit -> positive.
                tag = (block >> 10) & 63
                entry = pft_slots[block & pft_mask]
                if entry is not None and entry.valid and entry.tag == tag:
                    pft_hits += 1
                    entry.useful = True
                    train9(entry.feature_indices, True)
                    entry.valid = False
                entry = rej_slots[block & rej_mask]
                if entry is not None and entry.valid and entry.tag == tag:
                    rej_hits += 1
                    rej_rec += 1
                    train9(entry.feature_indices, True)
                    entry.valid = False
                pcs_a, pcs_b, pcs_c = pc, pcs_a, pcs_b

                # ==== SPP.train: signature/pattern update ====================
                sentry = sig_get(page)
                if sentry is not None:
                    sig_move(page)
                    signature = sentry.signature
                    last_sig = signature
                    sdelta = offset - sentry.last_offset
                    if sdelta != 0:
                        # _update_pattern(signature, sdelta)
                        pix = (
                            signature & pat_imask
                            if pat_pow2
                            else signature % pat_entries
                        )
                        pentry = plist[pix]
                        if pentry is None:
                            pentry = _Pat()
                            pat_table[pix] = pentry
                            plist[pix] = pentry
                        pdeltas = pentry.deltas
                        if pentry.c_sig >= cmax:
                            pentry.c_sig //= 2
                            for known in list(pdeltas):
                                nv = pdeltas[known] // 2
                                if nv == 0:
                                    del pdeltas[known]
                                else:
                                    pdeltas[known] = nv
                        pentry.c_sig += 1
                        if sdelta in pdeltas:
                            nv = pdeltas[sdelta] + 1
                            pdeltas[sdelta] = nv if nv <= cmax else cmax
                        elif len(pdeltas) < deltas_per:
                            pdeltas[sdelta] = 1
                        else:
                            weakest = min(pdeltas, key=pdeltas.get)
                            del pdeltas[weakest]
                            pdeltas[sdelta] = 1
                        # update_signature, encode_delta via table
                        signature = ((signature << 3) ^ enc_tab[sdelta]) & 0xFFF
                        sentry.signature = signature
                        sentry.last_offset = offset
                else:
                    last_sig = 0
                    # _bootstrap_from_ghr(offset)
                    signature = 0
                    for g in ghr:
                        predicted = g.last_offset + g.delta
                        if (predicted >= 64 and predicted - 64 == offset) or (
                            predicted < 0 and predicted + 64 == offset
                        ):
                            signature = (
                                (g.signature << 3) ^ enc_tab[g.delta]
                            ) & 0xFFF
                            break
                    # _insert_signature_entry
                    if len(sig_table) >= st_entries:
                        sig_table.popitem(last=False)
                    sig_table[page] = _Sig(offset, signature)

                # ==== fused lookahead walk + perceptron decide ===============
                accepted = None
                n_raw = 0
                page6 = page << 6
                path_confidence = 100
                cur_off = offset
                cur_sig = signature
                if c_total < 32:
                    alpha = 100
                else:
                    alpha = (100 * c_useful_ctr) // c_total
                    if alpha > 100:
                        alpha = 100
                ph = (pcs_a ^ (pcs_b >> 1) ^ (pcs_c >> 2)) & 2047
                # Three feature indices are loop-invariant across the
                # whole walk (physical page, upper page bits, PC hash),
                # so their weights are pre-summed per record — and
                # re-summed after any in-walk displacement training,
                # which may touch exactly these rows.
                i1 = page & 4095
                i2 = (page >> 6) & 4095
                wsum3 = w1[i1] + w2[i2] + w4[ph]
                # Mask-free feature indices: every emit-time operand is
                # small enough that the table masks distribute over the
                # XOR/OR (confidence <= 100 < 128, enc < 128, target < 64),
                # so the per-candidate ANDs reduce to these hoists.
                pc10 = pc & 1023
                pl6 = (page & 63) << 6
                # cb >> 10 == page >> 4 (target < 64), and the table
                # masks cover the low six bits, so tag and slot indices
                # are record-invariant up to the OR with ``target``.
                ctag = (page >> 4) & 63
                pfp = page6 & pft_mask
                rjp = page6 & rej_mask
                depth = 1
                while depth <= max_depth:
                    pentry = plist[
                        cur_sig & pat_imask if pat_pow2 else cur_sig % pat_entries
                    ]
                    if pentry is None:
                        break
                    pcsig = pentry.c_sig
                    pdel = pentry.deltas
                    if pcsig == 0 or not pdel:
                        break
                    best_delta = None
                    best_conf = -1
                    i6 = (pc ^ depth) & 1023  # invariant across this depth
                    wsum4 = wsum3 + w6[i6]
                    sig11 = cur_sig & 2047
                    deep = depth > 1
                    for pd_delta, c_delta in pdel.items():
                        if deep:
                            conf = ((100 * c_delta) // pcsig * alpha) // 100
                            p_d = (path_confidence * conf) // 100
                        else:
                            # depth 1: path_confidence == 100, alpha
                            # unapplied — p_d is the raw confidence.
                            p_d = (100 * c_delta) // pcsig
                        if p_d > best_conf:
                            best_conf = p_d
                            best_delta = pd_delta
                        if p_d < pref_th:
                            continue
                        target = cur_off + pd_delta
                        if 0 <= target < 64:
                            # -- emit + decide inline ------------------------
                            # (i1/i2 reduce to page bits: the candidate
                            # stays in the trigger's page, so
                            # cand_addr >> 12 == page.)
                            n_raw += 1
                            confidence = 100 if p_d > 100 else p_d
                            cb = page6 | target
                            enc = enc_tab[pd_delta]
                            i0 = pl6 | target
                            i3 = i1 ^ confidence
                            i5 = sig11 ^ enc
                            i7 = pc10 ^ enc
                            total = (
                                wsum4 + w0[i0] + w3[i3]
                                + w5[i5] + w7[i7] + w8[confidence]
                            )
                            if total >= tau_hi:
                                f_l2 += 1
                                fill_l2 = True
                            elif total >= tau_lo:
                                f_llc += 1
                                fill_l2 = False
                            else:
                                f_rej += 1
                                fill_l2 = None
                            indices = (
                                i0, i1, i2, i3, ph, i5, i6, i7, confidence
                            )
                            if fill_l2 is not None:
                                # prefetch_table.insert + displacement
                                # train; occupied slots are rewritten in
                                # place (field-identical to a fresh
                                # entry, minus the allocation).
                                idx = pfp | target
                                entry = pft_slots[idx]
                                if entry is None:
                                    pft_slots[idx] = _Entry(
                                        True, ctag, False, True, indices, total
                                    )
                                else:
                                    if entry.valid and entry.tag != ctag:
                                        pft_conf += 1
                                        if not entry.useful:
                                            disp_train += 1
                                            train9(entry.feature_indices, False)
                                            # May have touched the
                                            # pre-summed rows: re-sum.
                                            wsum3 = w1[i1] + w2[i2] + w4[ph]
                                            wsum4 = wsum3 + w6[i6]
                                    entry.valid = True
                                    entry.tag = ctag
                                    entry.useful = False
                                    entry.perc_decision = True
                                    entry.feature_indices = indices
                                    entry.perc_sum = total
                                pft_ins += 1
                                cand_addr = cb << 6
                                if accepted is None:
                                    accepted = [(cand_addr, cb, fill_l2)]
                                else:
                                    accepted.append((cand_addr, cb, fill_l2))
                            else:
                                # reject_table.insert (displacements
                                # ignored); same in-place slot reuse.
                                idx = rjp | target
                                entry = rej_slots[idx]
                                if entry is None:
                                    rej_slots[idx] = _Entry(
                                        True, ctag, False, False, indices, total
                                    )
                                else:
                                    if entry.valid and entry.tag != ctag:
                                        rej_conf += 1
                                    entry.valid = True
                                    entry.tag = ctag
                                    entry.useful = False
                                    entry.perc_decision = False
                                    entry.feature_indices = indices
                                    entry.perc_sum = total
                                rej_ins += 1
                        else:
                            # _record_ghr: pattern crossed the page boundary
                            ghr.append(_GHR(cur_sig, p_d, cur_off, pd_delta))
                            if len(ghr) > ghr_entries:
                                ghr.pop(0)
                    if best_delta is None or best_conf < la_th:
                        break
                    next_off = cur_off + best_delta
                    if not 0 <= next_off < 64:
                        break
                    cur_off = next_off
                    cur_sig = ((cur_sig << 3) ^ enc_tab[best_delta]) & 0xFFF
                    path_confidence = best_conf
                    depth += 1
                if depth > 1:
                    depth_sum += depth - 1
                    depth_count += 1
                if n_raw:
                    s_cand += n_raw  # SPP sees the raw candidate count
                    f_inf += n_raw  # one inference per in-page candidate

                # ==== prefetch issue (after all decides) =====================
                if accepted:
                    n_acc = len(accepted)
                    p_cand += n_acc  # PPF sees the accepted count
                    if n_acc > max_pft:
                        accepted = accepted[:max_pft]
                    for cand_addr, cb, fill_l2 in accepted:
                        # _issue_prefetch(i, candidate, cycle2)
                        lset = l2s[cb & l2_mask]
                        if lset and cb in lset:
                            continue  # redundant with L2 residency
                        if fill_l2:
                            in_llc = None  # not yet probed
                        else:
                            lset = ll_get(cb & ll_mask)
                            in_llc = bool(lset) and cb in lset
                            if in_llc:
                                continue  # redundant with LLC residency
                        for done in inflight:
                            if done <= cycle2:  # rebuild only on expiry
                                inflight = [d for d in inflight if d > cycle2]
                                break
                        if len(inflight) >= queue_size:
                            dropped += 1
                            continue
                        # on_prefetch_issued: PPF base + SPP base + alpha
                        p_iss += 1
                        s_iss += 1
                        if fill_l2:
                            p_iss2 += 1
                            s_iss2 += 1
                        else:
                            p_iss3 += 1
                            s_iss3 += 1
                        c_total += 1
                        if c_total >= acc_max:
                            c_total //= 2
                            c_useful_ctr //= 2
                        if in_llc is None:
                            lset = ll_get(cb & ll_mask)
                            in_llc = bool(lset) and cb in lset
                        if in_llc:
                            data_cycle = cycle2 + ll_lat
                        else:
                            # DRAM prefetch access at cycle2 (shared ``sh``)
                            ch = cb % channels
                            nf = next_free[ch]
                            start = cycle2 if cycle2 > nf else nf
                            sh[13] += start - cycle2  # dram total_queue_delay
                            row = cand_addr >> 13
                            if open_row[ch] == row:
                                sh[11] += 1  # dram row_hits
                                data_cycle = start + rh_lat
                            else:
                                sh[12] += 1  # dram row_misses
                                open_row[ch] = row
                                data_cycle = start + rm_lat
                            next_free[ch] = start + cpt
                            sh[8] += 1  # dram accesses
                            sh[10] += 1  # dram prefetch_accesses
                        inflight.append(data_cycle)
                        if not in_llc:
                            # LLC prefetch fill (not resident)
                            si3 = cb & ll_mask
                            lines3 = ll_get(si3)
                            if lines3 is None:
                                lines3 = {}
                                ll_sets[si3] = lines3
                            od3 = ll_ord.get(si3)
                            if od3 is None:
                                od3 = _OD()
                                ll_ord[si3] = od3
                            if len(lines3) >= ll_assoc:
                                victim, _ = od3.popitem(last=False)
                                vline = lines3.pop(victim)
                                sh[5] += 1  # llc evictions
                                if vline.is_prefetch and not vline.used:
                                    sh[7] += 1  # llc useless_prefetch_evictions
                                vline.block = cb
                                vline.is_prefetch = True
                                vline.used = False
                                vline.fill_cycle = data_cycle
                                lines3[cb] = vline
                            else:
                                lines3[cb] = _Line(cb, True, False, data_cycle)
                            od3[cb] = None
                            sh[3] += 1  # llc fills
                            sh[4] += 1  # llc prefetch_fills
                        if fill_l2:
                            # L2 prefetch fill (not resident: checked above)
                            si2p = cb & l2_mask
                            lines2 = l2s[si2p]
                            if lines2 is None:
                                lines2 = {}
                                l2_sets[si2p] = lines2
                                l2s[si2p] = lines2
                            od2 = l2o[si2p]
                            if od2 is None:
                                od2 = _OD()
                                l2_ord[si2p] = od2
                                l2o[si2p] = od2
                            if len(lines2) >= l2_assoc:
                                victim, _ = od2.popitem(last=False)
                                vline = lines2.pop(victim)
                                l2_evt += 1
                                if vline.is_prefetch and not vline.used:
                                    l2_useless += 1
                                    p_useless += 1
                                    s_useless += 1
                                    vb = vline.block
                                    entry = pft_slots[vb & pft_mask]
                                    if (
                                        entry is not None
                                        and entry.valid
                                        and entry.tag == (vb >> 10) & 63
                                    ):
                                        pft_hits += 1
                                        if not entry.useful:
                                            train9(entry.feature_indices, False)
                                            entry.valid = False
                                vline.block = cb
                                vline.is_prefetch = True
                                vline.used = False
                                vline.fill_cycle = data_cycle
                                lines2[cb] = vline
                            else:
                                lines2[cb] = _Line(cb, True, False, data_cycle)
                            od2[cb] = None
                            l2_fill += 1
                            l2_pfill += 1

                # ---- L1 demand fill (missed on entry, so not resident) ------
                # ``lines1`` still holds the entry probe's set view: no
                # L1 mutation happens between probe and fill.
                if lines1 is None:
                    lines1 = {}
                    l1_sets[si1] = lines1
                    l1s[si1] = lines1
                od1 = l1o[si1]
                if od1 is None:
                    od1 = _OD()
                    l1_ord[si1] = od1
                    l1o[si1] = od1
                if len(lines1) >= l1_assoc:
                    victim, _ = od1.popitem(last=False)
                    vline = lines1.pop(victim)
                    l1_evt += 1
                    if vline.is_prefetch and not vline.used:
                        l1_useless += 1
                    vline.block = block
                    vline.is_prefetch = False
                    vline.used = False
                    vline.fill_cycle = ready
                    lines1[block] = vline
                else:
                    lines1[block] = _Line(block, False, False, ready)
                od1[block] = None
                l1_fill += 1

                # ---- O3Core.step tail ---------------------------------------
                if ready > cycle:
                    push((ready, seq))
                instructions += bubble + 1
                seg += 1
            stop_at, budget = yield (cycle, seg, stash is not None)
    finally:
        # ---- writeback (the flush point: close() lands here) ----------------
        if stash is not None:
            # Measurement completed with this record pulled but never
            # processed: park it (un-relocated, as the stream would have
            # yielded it) so the stream replays it first.
            trace._pending = TraceRecord(stash[0], stash[1] - reloc, stash[4])
        if fast_trace:
            stream.emitted = emitted
        core.cycle = cycle
        core.instructions = instructions
        core._retire_frac = retire_frac
        core._seq = seq
        cstats.loads = c_loads
        cstats.rob_stalls = c_rob
        cstats.mlp_stalls = c_mlp
        l1_stats.demand_accesses = l1_da
        l1_stats.demand_hits = l1_hit
        l1_stats.demand_misses = l1_miss
        l1_stats.fills = l1_fill
        l1_stats.evictions = l1_evt
        l1_stats.useful_prefetches = l1_useful
        l1_stats.useless_prefetch_evictions = l1_useless
        l2_stats.demand_accesses = l2_da
        l2_stats.demand_hits = l2_hit
        l2_stats.demand_misses = l2_miss
        l2_stats.fills = l2_fill
        l2_stats.prefetch_fills = l2_pfill
        l2_stats.evictions = l2_evt
        l2_stats.useful_prefetches = l2_useful
        l2_stats.useless_prefetch_evictions = l2_useless
        hier._inflight_prefetches[i] = inflight
        hier.prefetches_dropped[i] = dropped
        pft.inserts = pft_ins
        pft.hits = pft_hits
        pft.conflicts = pft_conf
        rej.inserts = rej_ins
        rej.hits = rej_hits
        rej.conflicts = rej_conf
        ppf_stats.displacement_trainings = disp_train
        ppf_stats.reject_recoveries = rej_rec
        p_base.candidates = p_cand
        p_base.issued = p_iss
        p_base.issued_l2 = p_iss2
        p_base.issued_llc = p_iss3
        p_base.useful = p_useful
        p_base.useless_evictions = p_useless
        fstats.inferences = f_inf
        fstats.accepted_l2 = f_l2
        fstats.accepted_llc = f_llc
        fstats.rejected = f_rej
        fstats.suppressed_updates = f_sup
        fstats.positive_updates = f_pos
        fstats.negative_updates = f_neg
        fw = fstats.per_feature_updates
        # Merge in first-update order so keys new to the dict land exactly
        # where the live ``filter.train`` path would have inserted them.
        for k in f_order:
            name = fnames[k]
            fw[name] = fw.get(name, 0) + f_upd[k]
        ppf._pcs = (pcs_a, pcs_b, pcs_c)
        spp._c_total = c_total
        spp._c_useful = c_useful_ctr
        spp.last_signature = last_sig
        spp.depth_sum = depth_sum
        spp.depth_count = depth_count
        sstats.candidates = s_cand
        sstats.issued = s_iss
        sstats.issued_l2 = s_iss2
        sstats.issued_llc = s_iss3
        sstats.useful = s_useful
        sstats.useless_evictions = s_useless

