"""External trace formats: streaming, chunk-batched decoders.

Each format is a registry component (kind ``"trace_format"``) whose
``read_batches`` yields :class:`TraceBatch` column chunks — numpy
``(pcs, addrs, bubbles)`` int64 columns — which
:mod:`repro.traces.canonical` packs into ``.rpt`` files.  numpy is
imported by the decoders themselves, so registering the formats (as
``import repro`` does) does not load it; the first decode does.

Supported external formats:

``k6``
    DRAMSim2 k6/mase text records, one access per line::

        <hex address> <command> <cycle>

    e.g. ``0x7f6418 P_FETCH 5000``.  Commands from both the k6
    (``P_MEM_RD``/``P_MEM_WR``/``P_FETCH``/``P_LOCK_RD``/``P_LOCK_WR``)
    and mase (``READ``/``WRITE``/``IFETCH``) vocabularies are accepted;
    anything else is a typed error.  These traces carry no PC, so one is
    synthesized deterministically from a small per-command pool (the
    usual handful-of-load-instructions model the synthetic generators
    use), and the instruction bubble is derived from the cycle delta
    between consecutive records, clamped to ``[0, MAX_BUBBLE]``.

``champsim``
    A fixed-width binary ChampSim-style record: the three fields this
    simulator consumes (see :mod:`repro.cpu.trace`), packed
    little-endian as ``<u64 pc, u64 addr, u32 bubble>`` (:func:`record_dtype`)
    — 20 bytes per record, no header.  A file size that is not a whole
    number of records is a typed truncation error, not a silent drop.

``canonical``
    The repo's own converted format (:mod:`repro.traces.canonical`),
    registered here too so re-converting an already-canonical file is a
    plain pass-through of the same machinery.

All formats read through :func:`repro.traces.compress.open_stream`, so
gzip/zstd inputs decode transparently, and every malformed input raises
:class:`~repro.traces.errors.TraceFormatError` with file/line context.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

from ..registry import create as registry_create
from ..registry import names as registry_names
from ..registry import register
from .compress import open_stream, reraise_truncated, sniff_compression
from .errors import TraceFormatError

#: Records decoded per yielded batch (a throughput knob, not semantics).
DEFAULT_DECODE_CHUNK = 65_536

#: Cycle deltas are clamped here when synthesizing bubbles from k6
#: timestamps: DRAM-clock gaps can be huge (page faults, idle), and a
#: bubble is "non-memory instructions retired", which the O3 core model
#: caps at ROB reach anyway.
MAX_BUBBLE = 64

#: PC synthesis for PC-less formats: per-command pools of 4 load PCs,
#: matching the synthetic generators' bases/strides so downstream
#: signature tables see familiar shapes.
_PC_BASE = 0x400000
_PC_STRIDE = 0x40
_PC_POOL = 4

#: Command token -> PC-pool slot.  k6 and mase vocabularies.
K6_COMMANDS: Dict[str, int] = {
    "P_MEM_RD": 0,
    "P_MEM_WR": 1,
    "P_FETCH": 2,
    "P_LOCK_RD": 3,
    "P_LOCK_WR": 4,
    "READ": 0,
    "WRITE": 1,
    "IFETCH": 2,
}

#: Addresses/PCs must fit a signed int64 (numpy columns, TraceRecord).
_INT63_LIMIT = 1 << 63

#: Bytes per :func:`record_dtype` record.
RECORD_SIZE = 20


def record_dtype():
    """The record of ChampSim-style binary files and of the canonical
    ``.rpt`` body, as a numpy dtype: little-endian, unaligned
    ``<u64 pc, u64 addr, u32 bubble>``."""
    import numpy as np

    return np.dtype([("pc", "<u8"), ("addr", "<u8"), ("bubble", "<u4")])


@dataclass
class TraceBatch:
    """One decoded chunk: int64 numpy columns, one entry per record."""

    pcs: Sequence[int]
    addrs: Sequence[int]
    bubbles: Sequence[int]

    def __len__(self) -> int:
        return len(self.addrs)


class K6TraceFormat:
    """DRAMSim2 k6/mase ``<address> <command> <cycle>`` text records."""

    name = "k6"

    def read_batches(
        self, path: Path | str, chunk: int = DEFAULT_DECODE_CHUNK
    ) -> Iterator[TraceBatch]:
        pcs: List[int] = []
        addrs: List[int] = []
        bubbles: List[int] = []
        command_counts = [0] * (max(K6_COMMANDS.values()) + 1)
        prev_cycle: int | None = None
        total = 0
        with open_stream(path) as stream:
            line_number = 0
            while True:
                try:
                    raw = stream.readline()
                except (EOFError, OSError) as exc:
                    raise reraise_truncated(exc, path) from exc
                if not raw:
                    break
                line_number += 1
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError as exc:
                    raise TraceFormatError(
                        f"not a text trace (undecodable bytes): {exc}",
                        path=path,
                        line=line_number,
                    ) from exc
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise TraceFormatError(
                        f"expected '<address> <command> <cycle>', got {line!r}",
                        path=path,
                        line=line_number,
                    )
                try:
                    addr = int(parts[0], 16)
                except ValueError as exc:
                    raise TraceFormatError(
                        f"bad hex address {parts[0]!r}", path=path, line=line_number
                    ) from exc
                if not 0 <= addr < _INT63_LIMIT:
                    raise TraceFormatError(
                        f"address {parts[0]!r} out of range",
                        path=path,
                        line=line_number,
                    )
                slot = K6_COMMANDS.get(parts[1])
                if slot is None:
                    known = ", ".join(sorted(K6_COMMANDS))
                    raise TraceFormatError(
                        f"unknown command token {parts[1]!r} (known: {known})",
                        path=path,
                        line=line_number,
                    )
                try:
                    cycle = int(parts[2])
                except ValueError as exc:
                    raise TraceFormatError(
                        f"bad cycle count {parts[2]!r}", path=path, line=line_number
                    ) from exc
                if cycle < 0:
                    raise TraceFormatError(
                        f"negative cycle count {cycle}", path=path, line=line_number
                    )
                if prev_cycle is None:
                    bubble = 0
                else:
                    bubble = min(max(cycle - prev_cycle - 1, 0), MAX_BUBBLE)
                prev_cycle = cycle
                index = command_counts[slot]
                command_counts[slot] = index + 1
                pcs.append(_PC_BASE + 0x10000 * slot + (index % _PC_POOL) * _PC_STRIDE)
                addrs.append(addr)
                bubbles.append(bubble)
                if len(addrs) >= chunk:
                    total += len(addrs)
                    yield _batch(pcs, addrs, bubbles)
                    pcs, addrs, bubbles = [], [], []
        if addrs:
            total += len(addrs)
            yield _batch(pcs, addrs, bubbles)
        if total == 0:
            raise TraceFormatError("empty trace: no records", path=path)


class ChampSimTraceFormat:
    """Fixed-width binary ChampSim-style records (20 bytes, no header)."""

    name = "champsim"

    def read_batches(
        self, path: Path | str, chunk: int = DEFAULT_DECODE_CHUNK
    ) -> Iterator[TraceBatch]:
        import numpy as np

        dtype = record_dtype()
        size = RECORD_SIZE
        total = 0
        pending = b""
        with open_stream(path) as stream:
            while True:
                try:
                    blob = stream.read(chunk * size)
                except (EOFError, OSError) as exc:
                    raise reraise_truncated(exc, path) from exc
                if not blob:
                    break
                pending += blob
                usable = len(pending) - (len(pending) % size)
                if usable:
                    arr = np.frombuffer(pending[:usable], dtype=dtype)
                    pending = pending[usable:]
                    total += len(arr)
                    yield _batch_from_struct(arr, path, record_start=total - len(arr))
        if pending:
            raise TraceFormatError(
                f"truncated record: {len(pending)} trailing byte(s) after "
                f"{total} complete record(s) of {size} bytes",
                path=path,
            )
        if total == 0:
            raise TraceFormatError("empty trace: no records", path=path)


def _batch(pcs: List[int], addrs: List[int], bubbles: List[int]) -> TraceBatch:
    import numpy as np

    return TraceBatch(
        pcs=np.array(pcs, dtype=np.int64),
        addrs=np.array(addrs, dtype=np.int64),
        bubbles=np.array(bubbles, dtype=np.int64),
    )


def _batch_from_struct(arr, path: Path | str, record_start: int) -> TraceBatch:
    """Columns from a :func:`record_dtype` array, range-checked."""
    import numpy as np

    for fld in ("pc", "addr"):
        bad = arr[fld] >= _INT63_LIMIT
        if bad.any():
            index = record_start + int(np.argmax(bad))
            raise TraceFormatError(
                f"record {index}: {fld} 0x{int(arr[fld][np.argmax(bad)]):x} "
                "out of range",
                path=path,
            )
    return TraceBatch(
        pcs=arr["pc"].astype(np.int64),
        addrs=arr["addr"].astype(np.int64),
        bubbles=arr["bubble"].astype(np.int64),
    )


register("trace_format", "k6", K6TraceFormat)
register("trace_format", "champsim", ChampSimTraceFormat)
# "canonical" is registered by repro.traces.canonical on import (below the
# format it reads); keep the import at the bottom to avoid a cycle.


def trace_formats() -> List[str]:
    """Sorted names of every registered trace format."""
    return registry_names("trace_format")


def make_format(name: str):
    """Instantiate a registered trace format reader by name."""
    return registry_create("trace_format", name)


#: Extension hints for :func:`detect_format` (checked after stripping a
#: trailing compression suffix).
_TEXT_SUFFIXES = {".k6", ".mase", ".txt", ".trc"}
_BINARY_SUFFIXES = {".champsim", ".bin"}


def detect_format(path: Path | str) -> str:
    """Best-effort format name for ``path`` (``--format auto``).

    Canonical files are recognized by magic; otherwise the extension
    (with any ``.gz``/``.zst`` suffix stripped) decides, falling back to
    a printability sniff of the decompressed head: text → ``k6``,
    binary → ``champsim``.
    """
    from .canonical import CANONICAL_MAGIC

    path = Path(path)
    try:
        with open_stream(path) as stream:
            head = stream.read(512)
    except (EOFError, OSError) as exc:
        raise reraise_truncated(exc, path) from exc
    if head[: len(CANONICAL_MAGIC)] == CANONICAL_MAGIC:
        return "canonical"
    suffixes = [s.lower() for s in path.suffixes]
    if suffixes and suffixes[-1] in (".gz", ".zst", ".zstd"):
        suffixes = suffixes[:-1]
    if suffixes:
        if suffixes[-1] in _TEXT_SUFFIXES:
            return "k6"
        if suffixes[-1] in _BINARY_SUFFIXES:
            return "champsim"
    if not head:
        # Zero-length input: let the text reader raise the typed
        # "empty trace" error with file context.
        return "k6"
    printable = sum(
        1 for byte in head if byte in (9, 10, 13) or 32 <= byte < 127
    )
    return "k6" if printable / len(head) > 0.97 else "champsim"


__all__ = [
    "TraceBatch",
    "K6TraceFormat",
    "ChampSimTraceFormat",
    "K6_COMMANDS",
    "MAX_BUBBLE",
    "RECORD_SIZE",
    "record_dtype",
    "DEFAULT_DECODE_CHUNK",
    "detect_format",
    "make_format",
    "trace_formats",
    "sniff_compression",
]
