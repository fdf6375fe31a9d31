"""Composable synthetic access-pattern primitives.

The paper evaluates on SimPoint traces of SPEC CPU 2017/2006 and
CloudSuite.  Those traces are proprietary, so (per the substitution rule
in DESIGN.md) each benchmark is modelled by a *pattern program*: a
weighted interleaving of primitive access patterns whose structure
reproduces the property that matters to a prefetcher — delta
regularity, page residency, pointer-chasing irregularity, phase
changes, working-set size and memory intensity.

Primitives produce block-aligned byte addresses; :func:`interleave`
weaves them into a :class:`~repro.cpu.trace.TraceRecord` stream with
per-pattern PCs and a configurable instruction bubble (memory
intensity).  All randomness flows from one seeded generator, so traces
are fully deterministic.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from array import array
from bisect import bisect
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, List, Sequence

from ..checkpoint.state import decode_rng, encode_rng
from ..cpu.trace import TraceRecord
from ..memory.address import BLOCK_BITS, BLOCKS_PER_PAGE, PAGE_BITS

_PC_BASE = 0x400000
_PC_STRIDE = 0x40


class AccessPattern(ABC):
    """A stateful stream of block-aligned addresses."""

    @abstractmethod
    def next_address(self, rng: random.Random) -> int:
        """Produce the next byte address of this pattern."""

    def state_dict(self) -> dict:
        """Serializable position state: every int attribute.

        All pattern state is scalar ints (cursors, counters, phases);
        derived containers like :class:`PointerChasePattern`'s ring are
        rebuilt from constructor arguments, never snapshotted.  Config
        ints (strides, spans) ride along harmlessly — restoring into an
        identically-constructed pattern writes them back unchanged.
        """
        return {
            key: value
            for key, value in vars(self).items()
            if isinstance(value, int) and not isinstance(value, bool)
        }

    def load_state(self, state: dict) -> None:
        for key, value in state.items():
            if not hasattr(self, key):
                raise ValueError(
                    f"{type(self).__name__} has no state attribute {key!r}"
                )
            setattr(self, key, int(value))


class SequentialPattern(AccessPattern):
    """Unit (or small-stride) streaming through consecutive pages.

    The classic prefetch-friendly pattern: long runs of constant block
    deltas (bwaves/fotonik3d-like).  After ``span_pages`` pages the
    stream jumps to a fresh region, so coverage requires the prefetcher
    to re-learn page starts (what SPP's GHR bootstraps).
    """

    def __init__(
        self,
        start_page: int,
        stride_blocks: int = 1,
        span_pages: int = 64,
        region_hop: int = 1024,
    ) -> None:
        if stride_blocks == 0:
            raise ValueError("stride must be non-zero")
        self.stride = stride_blocks
        self.span_pages = span_pages
        self.region_hop = region_hop
        self._base_page = start_page
        self._block = start_page * BLOCKS_PER_PAGE if stride_blocks > 0 else (
            (start_page + span_pages) * BLOCKS_PER_PAGE - 1
        )

    def next_address(self, rng: random.Random) -> int:
        addr = self._block << BLOCK_BITS
        self._block += self.stride
        span_blocks = self.span_pages * BLOCKS_PER_PAGE
        start_block = self._base_page * BLOCKS_PER_PAGE
        if not start_block <= self._block < start_block + span_blocks:
            self._base_page += self.region_hop
            self._block = self._base_page * BLOCKS_PER_PAGE
            if self.stride < 0:
                self._block += span_blocks - 1
        return addr


class StridedPattern(AccessPattern):
    """Fixed stride within a page, then the next page: stencil-like."""

    def __init__(self, start_page: int, stride_blocks: int, page_hop: int = 1) -> None:
        if stride_blocks <= 0:
            raise ValueError("stride must be positive")
        self.stride = stride_blocks
        self.page_hop = page_hop
        self._page = start_page
        self._offset = 0

    def next_address(self, rng: random.Random) -> int:
        addr = (self._page << PAGE_BITS) | (self._offset << BLOCK_BITS)
        self._offset += self.stride
        if self._offset >= BLOCKS_PER_PAGE:
            self._offset %= self.stride  # keep phase alignment across pages
            self._page += self.page_hop
        return addr


@lru_cache(maxsize=2)
def _shuffled_ring(base: int, n: int, seed: int) -> memoryview:
    """Blocks ``base .. base + n - 1`` in ``random.Random(seed).shuffle`` order.

    The same in-place Fisher–Yates walk as ``shuffle``, with
    ``Random._randbelow`` inlined draw for draw: a bound ``i + 1`` draws
    ``getrandbits`` of its bit length until the draw is at most ``i``.
    The walk goes one bit length at a time, so every bound in an inner
    loop shares one width.  The ring is the one ``shuffle`` gives a list,
    held as 8-byte machine ints instead of a list of int objects.

    A pure function, memoized per process: every scheme of a sweep
    builds its model's rings from the same arguments, and a suite runs
    a model's schemes back to back, so two entries (the most rings one
    model builds) make each ring a one-time build per worker.  The ring
    comes back as a read-only view, so no caller can write to a shared
    ring; it costs the same 8 bytes per block and indexes as fast.
    """
    ring = array("q", range(base, base + n))
    getrandbits = random.Random(seed).getrandbits
    top = n - 1
    while top > 0:
        k = (top + 1).bit_length()
        bottom = (1 << (k - 1)) - 1  # the lowest i whose bound i + 1 has k bits
        for i in range(top, bottom - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            ring[i], ring[j] = ring[j], ring[i]
        top = bottom - 1
    return memoryview(ring).toreadonly()


class PointerChasePattern(AccessPattern):
    """A random permutation cycle over a working set (mcf-like).

    Each block "points to" the next; the walk order is random but fixed,
    so caches see reuse at working-set distance while delta-based
    prefetchers see noise.  The ring is a read-only view of an
    ``array("q")`` of block numbers, shared by every pattern built from
    the same arguments (:func:`_shuffled_ring`) and rebuilt from them on
    a restore.
    """

    def __init__(self, start_page: int, working_set_blocks: int, seed: int) -> None:
        if working_set_blocks < 2:
            raise ValueError("working set must hold at least two blocks")
        self._ring = _shuffled_ring(start_page * BLOCKS_PER_PAGE, working_set_blocks, seed)
        self._position = 0

    def next_address(self, rng: random.Random) -> int:
        addr = self._ring[self._position] << BLOCK_BITS
        self._position = (self._position + 1) % len(self._ring)
        return addr


class PhaseDeltaPattern(AccessPattern):
    """In-page delta pattern that *changes* every ``phase_length`` accesses.

    Models 623.xalancbmk_s: each phase walks pages with a different
    repeating delta sequence.  SPP's compounding confidence collapses at
    phase changes and throttles early; a filter that judges candidates
    individually can keep prefetching deeper (§6.1).
    """

    def __init__(
        self,
        start_page: int,
        delta_phases: Sequence[Sequence[int]],
        phase_length: int = 256,
    ) -> None:
        if not delta_phases or any(not phase for phase in delta_phases):
            raise ValueError("need at least one non-empty delta phase")
        self.delta_phases = [list(phase) for phase in delta_phases]
        self.phase_length = phase_length
        self._page = start_page
        self._offset = 0
        self._count = 0
        self._phase = 0
        self._step = 0

    def next_address(self, rng: random.Random) -> int:
        addr = (self._page << PAGE_BITS) | (self._offset << BLOCK_BITS)
        deltas = self.delta_phases[self._phase]
        delta = deltas[self._step % len(deltas)]
        self._step += 1
        self._offset += delta
        if not 0 <= self._offset < BLOCKS_PER_PAGE:
            self._page += 1
            self._offset %= BLOCKS_PER_PAGE
        self._count += 1
        if self._count >= self.phase_length:
            self._count = 0
            self._step = 0
            self._phase = (self._phase + 1) % len(self.delta_phases)
        return addr


class HotsetPattern(AccessPattern):
    """Skewed reuse over a small set of blocks: cache-resident traffic.

    Models the compute-bound SPEC applications (leela, exchange2 …)
    whose LLC MPKI is below 1 — most accesses hit, so prefetching earns
    nothing but can still pollute.
    """

    def __init__(self, start_page: int, hot_blocks: int, jump_every: int = 0) -> None:
        if hot_blocks < 1:
            raise ValueError("need at least one hot block")
        self._base = start_page * BLOCKS_PER_PAGE
        self.hot_blocks = hot_blocks
        self.jump_every = jump_every
        self._count = 0

    def next_address(self, rng: random.Random) -> int:
        self._count += 1
        if self.jump_every and self._count % self.jump_every == 0:
            # occasional compulsory miss outside the hot set
            block = self._base + self.hot_blocks + rng.randrange(1 << 16)
        else:
            # triangular skew: low indices are hotter
            block = self._base + min(rng.randrange(self.hot_blocks), rng.randrange(self.hot_blocks))
        return block << BLOCK_BITS


class ScatterGatherPattern(AccessPattern):
    """Short, constant-offset visits scattered across many pages.

    Models 607.cactuBSSN_s: a high-dimensional stencil touches each page
    only a couple of times before moving on, so SPP's per-page
    signatures never gain confidence — while a *global* best-offset
    relation holds between successive misses, which is exactly what BOP
    exploits (§6.1).
    """

    def __init__(
        self,
        start_page: int,
        offset_blocks: int = 3,
        touches_per_page: int = 2,
        page_span: int = 512,
    ) -> None:
        self.offset = offset_blocks
        self.touches = touches_per_page
        self.page_span = page_span
        self._start_page = start_page
        self._page_index = 0
        self._touch = 0
        self._lap = 0

    def next_address(self, rng: random.Random) -> int:
        page = self._start_page + self._lap * self.page_span + self._page_index
        offset = (self._touch * self.offset) % BLOCKS_PER_PAGE
        addr = (page << PAGE_BITS) | (offset << BLOCK_BITS)
        self._touch += 1
        if self._touch >= self.touches:
            self._touch = 0
            self._page_index += 1
            if self._page_index >= self.page_span:
                self._page_index = 0
                self._lap += 1
        return addr


class RandomPattern(AccessPattern):
    """Uniform random blocks over a large footprint: prefetch-hostile."""

    def __init__(self, start_page: int, footprint_blocks: int) -> None:
        if footprint_blocks < 1:
            raise ValueError("footprint must be positive")
        self._base = start_page * BLOCKS_PER_PAGE
        self.footprint = footprint_blocks

    def next_address(self, rng: random.Random) -> int:
        return (self._base + rng.randrange(self.footprint)) << BLOCK_BITS


@dataclass
class PatternMix:
    """One pattern plus its interleave weight, bubble and PC pool."""

    pattern: AccessPattern
    weight: float = 1.0
    bubble_mean: int = 4
    pc_pool: int = 4

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("pattern weight must be positive")
        if self.bubble_mean < 0:
            raise ValueError("bubble mean must be non-negative")
        if self.pc_pool < 1:
            raise ValueError("need at least one PC per pattern")


class TraceStream:
    """A deterministic, checkpointable interleaved trace.

    Iteration semantics match the generator this class replaced: the
    record loop itself still runs as a generator (the hot path the
    benchmarks pin), ``__iter__`` hands out *the same* generator every
    time, so partial consumption — ``islice`` for warmup, then ``for``
    for measurement — continues one stream exactly as before.

    On top of that the stream is snapshotable mid-flight: mutable state
    (the RNG, per-pattern PC counters, the emit count, each pattern's
    cursors) lives on the instance, shared with the running generator,
    so ``state_dict()`` between records captures everything needed for
    ``load_state()`` on a freshly built stream — in another process —
    to emit the identical remaining records.
    """

    def __init__(self, mixes: Sequence[PatternMix], n_records: int, seed: int = 1):
        if not mixes:
            raise ValueError("need at least one pattern")
        if n_records < 0:
            raise ValueError("record count must be non-negative")
        self.mixes = list(mixes)
        self.n_records = n_records
        self.seed = seed
        self.rng = random.Random(seed)
        self.pc_counters = [0] * len(self.mixes)
        # The record loop shares the emit count through this one-item list
        # and never holds the stream: a loop over ``self`` would make the
        # stream and its generator a reference cycle, keeping both (and
        # every pointer-chase ring in them) alive until the cyclic
        # collector's next pass instead of freeing them with their cell.
        self._emitted = [0]
        self._gen = self._generate(
            self.mixes, n_records, self.rng, self.pc_counters, self._emitted
        )

    @property
    def emitted(self) -> int:
        """Records emitted so far (the checkpoint cursor)."""
        return self._emitted[0]

    @emitted.setter
    def emitted(self, value: int) -> None:
        self._emitted[0] = value

    def __iter__(self) -> Iterator[TraceRecord]:
        return self._gen

    def __next__(self) -> TraceRecord:
        return next(self._gen)

    @staticmethod
    def _generate(
        mixes: List[PatternMix],
        n_records: int,
        rng: random.Random,
        pc_counters: List[int],
        emitted: List[int],
    ) -> Iterator[TraceRecord]:
        # The pattern draw replicates ``rng.choices(...)[0]`` inline — one
        # bisect over precomputed cumulative weights, one ``random()`` call —
        # so the RNG stream (and every downstream golden stat) is unchanged
        # while the per-record cum-weight rebuild disappears.
        cum_weights = list(accumulate(mix.weight for mix in mixes))
        total = cum_weights[-1] + 0.0
        hi = len(mixes) - 1
        random_draw = rng.random
        randrange = rng.randrange
        next_addresses = [mix.pattern.next_address for mix in mixes]
        pc_pools = [mix.pc_pool for mix in mixes]
        # A span of 0 marks a zero-mean bubble, which must not consume rng.
        bubble_spans = [2 * mix.bubble_mean + 1 if mix.bubble_mean else 0 for mix in mixes]
        pc_bases = [_PC_BASE + 0x10000 * i for i in range(len(mixes))]
        while emitted[0] < n_records:
            emitted[0] += 1
            which = bisect(cum_weights, random_draw() * total, 0, hi)
            addr = next_addresses[which](rng)
            pc_index = pc_counters[which] % pc_pools[which]
            pc_counters[which] += 1
            span = bubble_spans[which]
            yield TraceRecord(
                pc_bases[which] + pc_index * _PC_STRIDE,
                addr,
                randrange(span) if span else 0,
            )

    def state_dict(self) -> dict:
        return {
            "emitted": self.emitted,
            "rng": encode_rng(self.rng.getstate()),
            "pc_counters": list(self.pc_counters),
            "patterns": [mix.pattern.state_dict() for mix in self.mixes],
        }

    def load_state(self, state: dict) -> None:
        patterns = state["patterns"]
        counters = state["pc_counters"]
        if len(patterns) != len(self.mixes) or len(counters) != len(self.mixes):
            raise ValueError(
                f"trace state holds {len(patterns)} patterns, stream has {len(self.mixes)}"
            )
        self.emitted = int(state["emitted"])
        self.rng.setstate(decode_rng(state["rng"]))
        # In-place: the live generator closed over this exact list.
        self.pc_counters[:] = [int(count) for count in counters]
        for mix, pattern_state in zip(self.mixes, patterns):
            mix.pattern.load_state(pattern_state)


def interleave(
    mixes: Sequence[PatternMix],
    n_records: int,
    seed: int = 1,
) -> TraceStream:
    """Weave patterns into one trace, weighted-randomly, deterministically.

    Each pattern gets a disjoint pool of PCs that cycle per access
    (modelling the handful of load instructions in a loop body), and a
    geometric bubble around its ``bubble_mean``.  The returned
    :class:`TraceStream` iterates like the generator it wraps and adds
    the checkpoint protocol (``state_dict`` / ``load_state``).
    """
    return TraceStream(mixes, n_records, seed)


def _geometric_bubble(rng: random.Random, mean: int) -> int:
    """A small-variance integer bubble with the requested mean."""
    if mean == 0:
        return 0
    # Average of the uniform [0, 2*mean] is `mean`; cheap and bounded.
    return rng.randrange(2 * mean + 1)
