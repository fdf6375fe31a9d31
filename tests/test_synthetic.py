"""Tests for repro.workloads.synthetic pattern primitives."""

import json
import random
import tracemalloc
from itertools import islice

import pytest

from repro.memory.address import BLOCK_BITS, BLOCKS_PER_PAGE, page_number, page_offset_block
from repro.workloads import find_workload
from repro.workloads.synthetic import (
    HotsetPattern,
    PatternMix,
    PhaseDeltaPattern,
    PointerChasePattern,
    RandomPattern,
    ScatterGatherPattern,
    SequentialPattern,
    StridedPattern,
    _shuffled_ring,
    interleave,
)


def take(pattern, n, seed=0):
    rng = random.Random(seed)
    return [pattern.next_address(rng) for _ in range(n)]


class TestSequential:
    def test_unit_stride(self):
        addrs = take(SequentialPattern(start_page=1, stride_blocks=1), 10)
        deltas = {(b - a) for a, b in zip(addrs, addrs[1:])}
        assert deltas == {64}

    def test_custom_stride(self):
        addrs = take(SequentialPattern(start_page=1, stride_blocks=3), 10)
        assert all(b - a == 192 for a, b in zip(addrs, addrs[1:]))

    def test_region_hop_after_span(self):
        pattern = SequentialPattern(start_page=1, stride_blocks=1, span_pages=1, region_hop=10)
        addrs = take(pattern, BLOCKS_PER_PAGE + 1)
        assert page_number(addrs[-1]) == 11

    def test_rejects_zero_stride(self):
        with pytest.raises(ValueError):
            SequentialPattern(1, 0)

    def test_block_aligned(self):
        for addr in take(SequentialPattern(1, 1), 20):
            assert addr % 64 == 0


class TestStrided:
    def test_stride_within_page_then_next_page(self):
        pattern = StridedPattern(start_page=1, stride_blocks=16)
        addrs = take(pattern, 6)
        assert [page_offset_block(a) for a in addrs[:4]] == [0, 16, 32, 48]
        assert page_number(addrs[4]) == 2

    def test_rejects_nonpositive_stride(self):
        with pytest.raises(ValueError):
            StridedPattern(1, 0)


class TestPointerChase:
    def test_visits_whole_working_set(self):
        pattern = PointerChasePattern(start_page=1, working_set_blocks=32, seed=3)
        addrs = take(pattern, 32)
        assert len(set(addrs)) == 32

    def test_cycle_repeats(self):
        pattern = PointerChasePattern(start_page=1, working_set_blocks=16, seed=3)
        first = take(pattern, 16)
        second = take(pattern, 16)
        assert first == second

    def test_order_is_shuffled(self):
        pattern = PointerChasePattern(start_page=1, working_set_blocks=64, seed=3)
        addrs = take(pattern, 64)
        assert addrs != sorted(addrs)

    def test_rejects_tiny_working_set(self):
        with pytest.raises(ValueError):
            PointerChasePattern(1, 1, seed=0)


class TestPointerChaseRing:
    """The ring is stored as an array and built without ``rng.shuffle``,
    yet walks exactly the order ``shuffle`` gives a list."""

    @pytest.mark.parametrize(
        "blocks", [2, 3, 4, 5, 1 << 7, (1 << 7) + 1, 1 << 10, (1 << 10) + 1, 1 << 13, 1 << 17]
    )
    @pytest.mark.parametrize("seed", [0, 3, 1_000_011])
    def test_walk_is_the_shuffled_list(self, blocks, seed):
        base = 7 * BLOCKS_PER_PAGE
        expected = list(range(base, base + blocks))
        random.Random(seed).shuffle(expected)
        pattern = PointerChasePattern(start_page=7, working_set_blocks=blocks, seed=seed)
        assert take(pattern, blocks) == [block << BLOCK_BITS for block in expected]

    def test_footprint_is_about_eight_bytes_per_block(self):
        blocks = 1 << 15
        _shuffled_ring.cache_clear()  # an earlier test's ring would make this no build
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            PointerChasePattern(start_page=1, working_set_blocks=blocks, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # A list of int objects costs about 40 bytes per block.
        assert peak - before <= 9 * blocks

    def test_patterns_share_one_read_only_ring(self):
        """Rings are memoized per process: patterns built from the same
        arguments share one ring, and nothing can write to it."""
        first = PointerChasePattern(start_page=3, working_set_blocks=1 << 9, seed=11)
        second = PointerChasePattern(start_page=3, working_set_blocks=1 << 9, seed=11)
        other = PointerChasePattern(start_page=3, working_set_blocks=1 << 9, seed=12)
        assert first._ring is second._ring
        assert other._ring is not first._ring
        with pytest.raises(TypeError):
            first._ring[0] = 0
        assert take(first, 1 << 9) == take(second, 1 << 9)

    def test_state_is_the_position_only(self):
        pattern = PointerChasePattern(start_page=1, working_set_blocks=1 << 10, seed=3)
        take(pattern, 1_500)
        assert pattern.state_dict() == {"_position": 1_500 % (1 << 10)}

    def test_mid_run_checkpoint_continues_bit_identically(self):
        workload = find_workload("605.mcf_s")
        straight = workload.trace(6_000, seed=5)
        list(islice(straight, 2_500))
        state = json.loads(json.dumps(straight.state_dict()))
        resumed = workload.trace(6_000, seed=5)
        resumed.load_state(state)
        assert list(resumed) == list(straight)


class TestPhaseDelta:
    def test_follows_delta_schedule(self):
        pattern = PhaseDeltaPattern(start_page=1, delta_phases=[[2]], phase_length=100)
        addrs = take(pattern, 5)
        assert [page_offset_block(a) for a in addrs] == [0, 2, 4, 6, 8]

    def test_phase_switch_changes_deltas(self):
        pattern = PhaseDeltaPattern(
            start_page=1, delta_phases=[[1], [5]], phase_length=4
        )
        addrs = take(pattern, 8)
        first_deltas = [b - a for a, b in zip(addrs[:4], addrs[1:4])]
        later_deltas = [b - a for a, b in zip(addrs[4:], addrs[5:])]
        assert set(first_deltas) == {64}
        assert 5 * 64 in later_deltas

    def test_rejects_empty_phases(self):
        with pytest.raises(ValueError):
            PhaseDeltaPattern(1, [])
        with pytest.raises(ValueError):
            PhaseDeltaPattern(1, [[]])

    def test_wraps_to_next_page(self):
        pattern = PhaseDeltaPattern(start_page=1, delta_phases=[[60]], phase_length=100)
        addrs = take(pattern, 3)
        assert page_number(addrs[-1]) > 1


class TestHotset:
    def test_stays_in_hot_range_without_jumps(self):
        pattern = HotsetPattern(start_page=1, hot_blocks=16)
        base = BLOCKS_PER_PAGE  # page 1
        for addr in take(pattern, 100):
            assert base <= (addr >> 6) < base + 16

    def test_jump_every_leaves_hot_range(self):
        pattern = HotsetPattern(start_page=1, hot_blocks=4, jump_every=5)
        addrs = take(pattern, 50)
        out_of_range = [a for a in addrs if (a >> 6) >= BLOCKS_PER_PAGE + 4]
        assert out_of_range

    def test_skewed_toward_low_blocks(self):
        pattern = HotsetPattern(start_page=0, hot_blocks=100)
        addrs = take(pattern, 2000)
        low = sum(1 for a in addrs if (a >> 6) < 50)
        assert low > 1200  # triangular skew favors the low half

    def test_rejects_empty_hotset(self):
        with pytest.raises(ValueError):
            HotsetPattern(1, 0)


class TestScatterGather:
    def test_touches_per_page(self):
        pattern = ScatterGatherPattern(
            start_page=1, offset_blocks=3, touches_per_page=2, page_span=4
        )
        addrs = take(pattern, 8)
        pages = [page_number(a) for a in addrs]
        assert pages == [1, 1, 2, 2, 3, 3, 4, 4]

    def test_constant_global_offset_between_first_touches(self):
        pattern = ScatterGatherPattern(
            start_page=1, offset_blocks=3, touches_per_page=1, page_span=100
        )
        addrs = take(pattern, 10)
        deltas = {(b - a) >> 6 for a, b in zip(addrs, addrs[1:])}
        assert deltas == {BLOCKS_PER_PAGE}

    def test_laps_continue_beyond_span(self):
        pattern = ScatterGatherPattern(
            start_page=1, offset_blocks=1, touches_per_page=1, page_span=2
        )
        addrs = take(pattern, 4)
        assert page_number(addrs[2]) == 3  # next lap region


class TestRandom:
    def test_stays_in_footprint(self):
        pattern = RandomPattern(start_page=1, footprint_blocks=128)
        for addr in take(pattern, 200):
            assert BLOCKS_PER_PAGE <= (addr >> 6) < BLOCKS_PER_PAGE + 128

    def test_rejects_empty_footprint(self):
        with pytest.raises(ValueError):
            RandomPattern(1, 0)


class TestInterleave:
    def two_mixes(self):
        return [
            PatternMix(SequentialPattern(1, 1), weight=1.0, bubble_mean=4),
            PatternMix(SequentialPattern(1000, 1), weight=1.0, bubble_mean=4),
        ]

    def test_record_count(self):
        trace = list(interleave(self.two_mixes(), 100, seed=1))
        assert len(trace) == 100

    def test_deterministic_per_seed(self):
        a = list(interleave(self.two_mixes(), 50, seed=1))
        b = list(interleave(self.two_mixes(), 50, seed=1))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(interleave(self.two_mixes(), 50, seed=1))
        b = list(interleave(self.two_mixes(), 50, seed=2))
        assert a != b

    def test_pcs_disjoint_per_pattern(self):
        trace = list(interleave(self.two_mixes(), 200, seed=1))
        pcs_low = {r.pc for r in trace if page_number(r.addr) < 500}
        pcs_high = {r.pc for r in trace if page_number(r.addr) >= 500}
        assert not pcs_low & pcs_high

    def test_pc_pool_size(self):
        mixes = [PatternMix(SequentialPattern(1, 1), pc_pool=2)]
        trace = list(interleave(mixes, 100, seed=1))
        assert len({r.pc for r in trace}) == 2

    def test_bubble_mean_respected(self):
        mixes = [PatternMix(SequentialPattern(1, 1), bubble_mean=10)]
        trace = list(interleave(mixes, 2000, seed=1))
        mean = sum(r.bubble for r in trace) / len(trace)
        assert 8 < mean < 12

    def test_zero_bubble(self):
        mixes = [PatternMix(SequentialPattern(1, 1), bubble_mean=0)]
        trace = list(interleave(mixes, 10, seed=1))
        assert all(r.bubble == 0 for r in trace)

    def test_weights_bias_selection(self):
        mixes = [
            PatternMix(SequentialPattern(1, 1), weight=9.0),
            PatternMix(SequentialPattern(1000, 1), weight=1.0),
        ]
        trace = list(interleave(mixes, 1000, seed=1))
        heavy = sum(1 for r in trace if page_number(r.addr) < 500)
        assert heavy > 800

    def test_rejects_empty_mixes(self):
        with pytest.raises(ValueError):
            list(interleave([], 10))

    def test_rejects_bad_mix_parameters(self):
        with pytest.raises(ValueError):
            PatternMix(SequentialPattern(1, 1), weight=0)
        with pytest.raises(ValueError):
            PatternMix(SequentialPattern(1, 1), bubble_mean=-1)
        with pytest.raises(ValueError):
            PatternMix(SequentialPattern(1, 1), pc_pool=0)
