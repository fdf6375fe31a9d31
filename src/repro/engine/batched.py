"""The batched engine: chunked trace pull + fused per-record kernel.

The engine pulls the trace in ``engine_chunk``-record chunks and drives
a *fused kernel* that inlines the scalar hot path — O3 core
bookkeeping, L1/L2/LLC indexing and tag match, DRAM row-buffer timing,
SPP's signature/pattern updates and lookahead walk, and the
perceptron's nine-feature index/sum — into one Python frame with every
counter held in locals until the chunk ends.

Equivalence contract (see docs/performance.md, "Batched engine"):

* The kernel replays the scalar engine's events in the *same order*
  within and across records, so results are **bit-identical**, not
  approximately equal.  The golden cells assert exact equality under
  both engines.
* Cross-record vectorization of the *decisions* is impossible by
  design: a demand access's timing depends on the prefetches issued by
  earlier accesses, and — with ``train_on_displacement`` — inserting
  one accepted candidate can move perceptron weights before the next
  candidate of the *same trigger* is scored.  What batching buys is
  chunked trace production and the removal of ~15 function calls plus
  several transient objects (``FeatureContext``/``PrefetchCandidate``/
  ``meta`` dicts/``AccessResult``) per access.
* All state is flushed before ``advance`` returns: chunk boundaries are
  drain points, so ``state_dict()`` round-trips between engines and
  telemetry probes sampling at chunk boundaries see exactly what the
  scalar engine would show.

The fully fused kernel engages only for the production configuration
(single core, ``MemoryHierarchy``, ``PPF`` over ``SPP`` with the stock
flags, LRU everywhere, production feature catalog).  Anything else runs
the *generic* kernel — inlined core bookkeeping around the real
``hierarchy.access`` call — which is structurally bit-identical for any
hierarchy/prefetcher combination.  Non-``O3Core`` cores fall back to
plain ``core.step``.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict

from ..core.tables import TableEntry
from ..cpu.o3core import O3Core
from ..memory.cache import CacheLine
from ..prefetchers.spp import _GHREntry, _PatternEntry, _SignatureEntry
from ..registry import register
from .multi_core import _hier_eligible, _ppf_core_eligible, batched_advance_multi

#: Fallback chunk when no SimConfig is supplied via ``configure``.
DEFAULT_CHUNK = 4_096


@register("engine", "batched")
class BatchedEngine:
    """Chunked driver with a fused fast path for the PPF configuration."""

    name = "batched"

    def __init__(self, chunk: int = DEFAULT_CHUNK, quantum: int = DEFAULT_CHUNK) -> None:
        self.chunk = chunk
        self.quantum = quantum

    def configure(self, config) -> None:
        chunk = int(getattr(config, "engine_chunk", 0) or 0)
        if chunk > 0:
            self.chunk = chunk
        # 0 is a valid setting (uncapped turns), so no or-fallback here.
        self.quantum = int(getattr(config, "engine_quantum", DEFAULT_CHUNK))

    def advance(self, sim, n_records: int) -> int:
        if n_records <= 0:
            return 0
        # Mode is re-selected per advance (not cached): checkpoint
        # restores rebind the underlying containers, and re-checking a
        # handful of types here is free at chunk granularity.
        mode = _select_mode(sim)
        chunk = self.chunk
        trace = sim.trace
        taken_total = 0
        remaining = n_records
        while remaining > 0:
            want = chunk if chunk < remaining else remaining
            records = list(itertools.islice(trace, want))
            if not records:
                break
            if mode == "ppf":
                _ppf_kernel(sim, records)
            elif mode == "generic":
                _run_generic_chunk(sim, records)
            else:  # unknown core type: defer to its own step()
                step = sim.core.step
                for rec in records:
                    step(rec)
            taken = len(records)
            sim.consumed += taken
            taken_total += taken
            remaining -= taken
            if taken < want:
                break  # trace exhausted
        return taken_total

    def advance_multi(self, sim, n_records: int) -> int:
        # The cycle-quantum driver over per-core suspended runners; see
        # repro.engine.multi_core for the schedule-preservation argument.
        return batched_advance_multi(sim, n_records, self.quantum)


def _select_mode(sim) -> str:
    if type(sim.core) is not O3Core:
        return "step"
    return "ppf" if _ppf_eligible(sim) else "generic"


def _ppf_eligible(sim) -> bool:
    """True when the fully fused kernel reproduces the scalar events.

    The hierarchy- and core-level predicates are shared with the
    multi-core runners (``repro.engine.multi_core``); this wrapper adds
    only the single-core framing.
    """
    hier = sim.hierarchy
    if not _hier_eligible(hier) or hier.num_cores != 1:
        return False
    core = sim.core
    if core.core_id != 0:
        return False
    pf = hier.prefetchers[0]
    if pf is not sim.prefetcher:
        return False
    return _ppf_core_eligible(hier, core, pf)


def _run_generic_chunk(sim, records) -> None:
    """Inlined O3Core bookkeeping around the real ``hierarchy.access``.

    Works for any hierarchy/prefetcher: every memory-side event goes
    through the exact scalar code, so this path is bit-identical by
    construction.  Only the core's own arithmetic is held in locals.
    """
    core = sim.core
    access = core.hierarchy.access
    core_id = core.core_id
    cfg = core.config
    width = cfg.width
    rob_size = cfg.rob_size
    mlp_limit = cfg.mlp_limit
    stats = core.stats
    loads = stats.loads
    rob_stalls = stats.rob_stalls
    mlp_stalls = stats.mlp_stalls
    outstanding = core._outstanding
    popleft = outstanding.popleft
    push = outstanding.append
    cycle = core.cycle
    instructions = core.instructions
    retire_frac = core._retire_frac
    seq = core._seq
    for rec in records:
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
        ready = access(core_id, rec.pc, rec.addr, cycle).ready_cycle
        if ready > cycle:
            push((ready, seq))
        instructions += bubble + 1
    core.cycle = cycle
    core.instructions = instructions
    core._retire_frac = retire_frac
    core._seq = seq
    stats.loads = loads
    stats.rob_stalls = rob_stalls
    stats.mlp_stalls = mlp_stalls


def _ppf_kernel(sim, records) -> None:
    """One chunk of the fully fused PPF fast path.

    Replays, record for record and event for event, exactly what the
    scalar engine does for the production configuration:

      core front-end -> L1 lookup -> (L2 -> LLC -> DRAM demand path with
      inline fills/evictions) -> PPF demand feedback -> SPP signature/
      pattern update -> fused lookahead+decide with table inserts and
      displacement training -> prefetch issue at the L2-demand cycle ->
      L1 fill -> core tail.

    Every hot counter lives in a local and is written back once at the
    end; mutable containers (cache sets, LRU orders, SPP tables, weight
    lists, decision-table slots) are shared in place.  Training goes
    through the live ``filter.train`` bound method so its stats/weights
    always have exactly one owner.
    """
    # -- core ----------------------------------------------------------------
    core = sim.core
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
    hier = sim.hierarchy
    hcfg = hier.config
    max_pft = hcfg.max_prefetches_per_trigger
    queue_size = hcfg.prefetch_queue_size
    l1_sets, l1_ord, l1_stats, l1_assoc, l1_mask, l1_lat = hier.l1[0].engine_view()
    l2_sets, l2_ord, l2_stats, l2_assoc, l2_mask, l2_lat = hier.l2[0].engine_view()
    ll_sets, ll_ord, ll_stats, ll_assoc, ll_mask, ll_lat = hier.llc.engine_view()
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
    ll_da = ll_stats.demand_accesses
    ll_hit = ll_stats.demand_hits
    ll_miss = ll_stats.demand_misses
    ll_fill = ll_stats.fills
    ll_pfill = ll_stats.prefetch_fills
    ll_evt = ll_stats.evictions
    ll_useful = ll_stats.useful_prefetches
    ll_useless = ll_stats.useless_prefetch_evictions
    inflight = hier._inflight_prefetches[0]
    dropped = hier.prefetches_dropped[0]

    # -- DRAM -----------------------------------------------------------------
    dram = hier.dram
    dcfg = dram.config
    channels = dcfg.channels
    cpt = dcfg.cycles_per_transfer
    rh_lat = dcfg.row_hit_latency
    rm_lat = dcfg.row_miss_latency
    next_free = dram._next_free
    open_row = dram._open_row
    dstats = dram.stats
    d_acc = dstats.accesses
    d_dem = dstats.demand_accesses
    d_pref = dstats.prefetch_accesses
    d_rh = dstats.row_hits
    d_rm = dstats.row_misses
    d_qd = dstats.total_queue_delay

    # -- PPF / filter / tables ------------------------------------------------
    ppf = hier.prefetchers[0]
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
    fcfg, weight_lists, _fnames, fstats, _fused = filt.engine_view()
    tau_hi = fcfg.tau_hi
    tau_lo = fcfg.tau_lo
    w0, w1, w2, w3, w4, w5, w6, w7, w8 = weight_lists
    f_inf = fstats.inferences
    f_l2 = fstats.accepted_l2
    f_llc = fstats.accepted_llc
    f_rej = fstats.rejected
    filt_train = filt.train  # live: training keeps one owner per counter
    pcs_a, pcs_b, pcs_c = ppf._pcs

    # -- SPP ------------------------------------------------------------------
    scfg, sig_table, pat_table, ghr = spp.engine_view()
    st_entries = scfg.signature_table_entries
    pat_entries = scfg.pattern_table_entries
    deltas_per = scfg.deltas_per_entry
    cmax = scfg.counter_max
    pref_th = scfg.prefetch_threshold
    la_th = scfg.lookahead_threshold
    max_depth = scfg.max_depth
    ghr_entries = scfg.ghr_entries
    acc_max = scfg.accuracy_counter_max
    sig_get = sig_table.get
    sig_move = sig_table.move_to_end
    pat_get = pat_table.get
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

    for rec in records:
        pc = rec.pc
        addr = rec.addr
        bubble = rec.bubble
        block = addr >> 6
        # ---- O3Core.step front end ----------------------------------------
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

        # ---- L1 lookup ------------------------------------------------------
        si1 = block & l1_mask
        lines1 = l1_sets.get(si1)
        line = lines1.get(block) if lines1 else None
        l1_da += 1
        if line is not None:
            l1_hit += 1
            if line.is_prefetch and not line.used:
                l1_useful += 1
            line.used = True
            l1_ord[si1].move_to_end(block)
            ready = cycle + l1_lat
            if ready > cycle:
                push((ready, seq))
            instructions += bubble + 1
            continue
        l1_miss += 1
        cycle2 = cycle + l1_lat
        page = addr >> 12
        offset = block & 63

        # ---- L2 demand ------------------------------------------------------
        si2 = block & l2_mask
        lines2 = l2_sets.get(si2)
        line2 = lines2.get(block) if lines2 else None
        l2_da += 1
        if line2 is not None:
            l2_hit += 1
            ipf = line2.is_prefetch
            if ipf and not line2.used:
                l2_useful += 1
            line2.used = True
            l2_ord[si2].move_to_end(block)
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
            # ---- LLC demand -------------------------------------------------
            si3 = block & ll_mask
            lines3 = ll_sets.get(si3)
            line3 = lines3.get(block) if lines3 else None
            ll_da += 1
            if line3 is not None:
                ll_hit += 1
                ipf = line3.is_prefetch
                if ipf and not line3.used:
                    ll_useful += 1
                line3.used = True
                ll_ord[si3].move_to_end(block)
                if ipf:
                    line3.is_prefetch = False
                    p_useful += 1
                    s_useful += 1
                    c_useful_ctr = min(c_useful_ctr + 1, acc_max)
                fc = line3.fill_cycle
                ready = (fc if fc > cycle3 else cycle3) + ll_lat
            else:
                ll_miss += 1
                # ---- DRAM demand access at cycle3 + ll_lat ------------------
                dc = cycle3 + ll_lat
                ch = block % channels
                nf = next_free[ch]
                start = dc if dc > nf else nf
                d_qd += start - dc
                row = addr >> 13  # ROW_BITS
                if open_row[ch] == row:
                    d_rh += 1
                    ready = start + rh_lat
                else:
                    d_rm += 1
                    open_row[ch] = row
                    ready = start + rm_lat
                next_free[ch] = start + cpt
                d_acc += 1
                d_dem += 1
                # ---- LLC demand fill (missed, so not resident) --------------
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
                    ll_evt += 1
                    if vline.is_prefetch and not vline.used:
                        ll_useless += 1
                lines3[block] = _Line(block, False, False, ready)
                od3[block] = None
                ll_fill += 1
            # ---- L2 demand fill (missed, so not resident) -------------------
            if lines2 is None:
                lines2 = {}
                l2_sets[si2] = lines2
            od2 = l2_ord.get(si2)
            if od2 is None:
                od2 = _OD()
                l2_ord[si2] = od2
            if len(lines2) >= l2_assoc:
                victim, _ = od2.popitem(last=False)
                vline = lines2.pop(victim)
                l2_evt += 1
                vip = vline.is_prefetch
                vused = vline.used
                if vip and not vused:
                    l2_useless += 1
                    # PPF.on_eviction: base counters + prefetch-table feedback
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
                            filt_train(entry.feature_indices, False)
                            entry.valid = False
            lines2[block] = _Line(block, False, False, ready)
            od2[block] = None
            l2_fill += 1

        # ==== PPF.train(addr, pc, hit, cycle2) ================================
        # Step 3/4 feedback first: prefetch-table hit -> positive train.
        tag = (block >> 10) & 63
        entry = pft_slots[block & pft_mask]
        if entry is not None and entry.valid and entry.tag == tag:
            pft_hits += 1
            entry.useful = True
            filt_train(entry.feature_indices, True)
            entry.valid = False
        entry = rej_slots[block & rej_mask]
        if entry is not None and entry.valid and entry.tag == tag:
            rej_hits += 1
            rej_rec += 1
            filt_train(entry.feature_indices, True)
            entry.valid = False
        pcs_a, pcs_b, pcs_c = pc, pcs_a, pcs_b

        # ==== SPP.train: signature/pattern update ============================
        sentry = sig_get(page)
        if sentry is not None:
            sig_move(page)
            signature = sentry.signature
            last_sig = signature
            sdelta = offset - sentry.last_offset
            if sdelta != 0:
                # _update_pattern(signature, sdelta)
                pentry = pat_get(signature % pat_entries)
                if pentry is None:
                    pentry = _Pat()
                    pat_table[signature % pat_entries] = pentry
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
                # update_signature, inlined with encode_delta
                mag = sdelta if sdelta >= 0 else -sdelta
                if mag > 63:
                    mag = 63
                enc = (64 | mag) if sdelta < 0 else mag
                signature = ((signature << 3) ^ enc) & 0xFFF
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
                    gd = g.delta
                    mag = gd if gd >= 0 else -gd
                    if mag > 63:
                        mag = 63
                    enc = (64 | mag) if gd < 0 else mag
                    signature = ((g.signature << 3) ^ enc) & 0xFFF
                    break
            # _insert_signature_entry
            if len(sig_table) >= st_entries:
                sig_table.popitem(last=False)
            sig_table[page] = _Sig(offset, signature)

        # ==== fused lookahead walk + perceptron decide =======================
        # Decisions interleave with emissions exactly as the scalar code
        # pair does: the walk never reads weights or decision tables, and
        # the decide/insert/displacement-train sequence per candidate is
        # preserved, so event order matches the scalar engine's
        # walk-then-loop structure.
        accepted = None
        n_raw = 0
        page_base = page << 12
        path_confidence = 100
        cur_off = offset
        cur_sig = signature
        alpha = (
            100
            if c_total < 32
            else min(100, (100 * c_useful_ctr) // c_total)
        )
        ph = (pcs_a ^ (pcs_b >> 1) ^ (pcs_c >> 2)) & 2047
        depth = 1
        while depth <= max_depth:
            pentry = pat_get(cur_sig % pat_entries)
            if pentry is None or pentry.c_sig == 0 or not pentry.deltas:
                break
            pcsig = pentry.c_sig
            best_delta = None
            best_conf = -1
            for pd_delta, c_delta in pentry.deltas.items():
                conf = (100 * c_delta) // pcsig
                if depth > 1:
                    conf = (conf * alpha) // 100
                p_d = (path_confidence * conf) // 100
                if p_d > best_conf:
                    best_conf = p_d
                    best_delta = pd_delta
                if p_d < pref_th:
                    continue
                target = cur_off + pd_delta
                if 0 <= target < 64:
                    # -- emit + decide inline --------------------------------
                    n_raw += 1
                    cand_addr = page_base | (target << 6)
                    confidence = 0 if p_d < 0 else (100 if p_d > 100 else p_d)
                    cb = cand_addr >> 6
                    mag = pd_delta if pd_delta >= 0 else -pd_delta
                    if mag > 63:
                        mag = 63
                    enc = (64 | mag) if pd_delta < 0 else mag
                    i0 = cb & 4095
                    i1 = (cand_addr >> 12) & 4095
                    i2 = (cand_addr >> 18) & 4095
                    i3 = (page ^ confidence) & 4095
                    i5 = (cur_sig ^ enc) & 2047
                    i6 = (pc ^ depth) & 1023
                    i7 = (pc ^ enc) & 1023
                    i8 = confidence & 127
                    total = (
                        w0[i0] + w1[i1] + w2[i2] + w3[i3] + w4[ph]
                        + w5[i5] + w6[i6] + w7[i7] + w8[i8]
                    )
                    f_inf += 1
                    if total >= tau_hi:
                        f_l2 += 1
                        fill_l2 = True
                    elif total >= tau_lo:
                        f_llc += 1
                        fill_l2 = False
                    else:
                        f_rej += 1
                        fill_l2 = None
                    indices = (i0, i1, i2, i3, ph, i5, i6, i7, i8)
                    ctag = (cb >> 10) & 63
                    if fill_l2 is not None:
                        # prefetch_table.insert + displacement training
                        idx = cb & pft_mask
                        displaced = pft_slots[idx]
                        if displaced is not None and displaced.valid:
                            if displaced.tag == ctag:
                                displaced = None
                            else:
                                pft_conf += 1
                        else:
                            displaced = None
                        pft_slots[idx] = _Entry(True, ctag, False, True, indices, total)
                        pft_ins += 1
                        if displaced is not None and not displaced.useful:
                            disp_train += 1
                            filt_train(displaced.feature_indices, False)
                        if accepted is None:
                            accepted = [(cand_addr, cb, fill_l2)]
                        else:
                            accepted.append((cand_addr, cb, fill_l2))
                    else:
                        # reject_table.insert (displacements ignored)
                        idx = cb & rej_mask
                        displaced = rej_slots[idx]
                        if displaced is not None and displaced.valid and displaced.tag != ctag:
                            rej_conf += 1
                        rej_slots[idx] = _Entry(True, ctag, False, False, indices, total)
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
            mag = best_delta if best_delta >= 0 else -best_delta
            if mag > 63:
                mag = 63
            enc = (64 | mag) if best_delta < 0 else mag
            cur_sig = ((cur_sig << 3) ^ enc) & 0xFFF
            path_confidence = best_conf
            depth += 1
        if depth > 1:
            depth_sum += depth - 1
            depth_count += 1
        if n_raw:
            s_cand += n_raw  # SPP sees the raw candidate count

        # ==== prefetch issue (drain point: after all decides) ================
        if accepted:
            n_acc = len(accepted)
            p_cand += n_acc  # PPF sees the accepted count
            if n_acc > max_pft:
                accepted = accepted[:max_pft]
            for cand_addr, cb, fill_l2 in accepted:
                # _issue_prefetch(0, candidate, cycle2)
                lset = l2_sets.get(cb & l2_mask)
                if lset and cb in lset:
                    continue  # redundant with L2 residency
                if fill_l2:
                    in_llc = None  # not yet probed
                else:
                    lset = ll_sets.get(cb & ll_mask)
                    in_llc = bool(lset) and cb in lset
                    if in_llc:
                        continue  # redundant with LLC residency
                if inflight:
                    inflight = [done for done in inflight if done > cycle2]
                if len(inflight) >= queue_size:
                    dropped += 1
                    continue
                # on_prefetch_issued: PPF base + SPP base + alpha C_total
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
                    lset = ll_sets.get(cb & ll_mask)
                    in_llc = bool(lset) and cb in lset
                if in_llc:
                    data_cycle = cycle2 + ll_lat
                else:
                    # DRAM prefetch access at cycle2
                    ch = cb % channels
                    nf = next_free[ch]
                    start = cycle2 if cycle2 > nf else nf
                    d_qd += start - cycle2
                    row = cand_addr >> 13
                    if open_row[ch] == row:
                        d_rh += 1
                        data_cycle = start + rh_lat
                    else:
                        d_rm += 1
                        open_row[ch] = row
                        data_cycle = start + rm_lat
                    next_free[ch] = start + cpt
                    d_acc += 1
                    d_pref += 1
                inflight.append(data_cycle)
                if not in_llc:
                    # LLC prefetch fill (not resident: contains was False)
                    si3 = cb & ll_mask
                    lines3 = ll_sets.get(si3)
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
                        ll_evt += 1
                        if vline.is_prefetch and not vline.used:
                            ll_useless += 1
                    lines3[cb] = _Line(cb, True, False, data_cycle)
                    od3[cb] = None
                    ll_fill += 1
                    ll_pfill += 1
                if fill_l2:
                    # L2 prefetch fill (not resident: checked on entry)
                    si2p = cb & l2_mask
                    lines2 = l2_sets.get(si2p)
                    if lines2 is None:
                        lines2 = {}
                        l2_sets[si2p] = lines2
                    od2 = l2_ord.get(si2p)
                    if od2 is None:
                        od2 = _OD()
                        l2_ord[si2p] = od2
                    if len(lines2) >= l2_assoc:
                        victim, _ = od2.popitem(last=False)
                        vline = lines2.pop(victim)
                        l2_evt += 1
                        vip = vline.is_prefetch
                        vused = vline.used
                        if vip and not vused:
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
                                    filt_train(entry.feature_indices, False)
                                    entry.valid = False
                    lines2[cb] = _Line(cb, True, False, data_cycle)
                    od2[cb] = None
                    l2_fill += 1
                    l2_pfill += 1

        # ---- L1 demand fill (missed on entry, so not resident) -------------
        lines1 = l1_sets.get(si1)
        if lines1 is None:
            lines1 = {}
            l1_sets[si1] = lines1
        od1 = l1_ord.get(si1)
        if od1 is None:
            od1 = _OD()
            l1_ord[si1] = od1
        if len(lines1) >= l1_assoc:
            victim, _ = od1.popitem(last=False)
            vline = lines1.pop(victim)
            l1_evt += 1
            if vline.is_prefetch and not vline.used:
                l1_useless += 1
        lines1[block] = _Line(block, False, False, ready)
        od1[block] = None
        l1_fill += 1

        # ---- O3Core.step tail ----------------------------------------------
        if ready > cycle:
            push((ready, seq))
        instructions += bubble + 1

    # ---- chunk-end writeback (the drain point) ------------------------------
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
    ll_stats.demand_accesses = ll_da
    ll_stats.demand_hits = ll_hit
    ll_stats.demand_misses = ll_miss
    ll_stats.fills = ll_fill
    ll_stats.prefetch_fills = ll_pfill
    ll_stats.evictions = ll_evt
    ll_stats.useful_prefetches = ll_useful
    ll_stats.useless_prefetch_evictions = ll_useless
    dstats.accesses = d_acc
    dstats.demand_accesses = d_dem
    dstats.prefetch_accesses = d_pref
    dstats.row_hits = d_rh
    dstats.row_misses = d_rm
    dstats.total_queue_delay = d_qd
    hier._inflight_prefetches[0] = inflight
    hier.prefetches_dropped[0] = dropped
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
