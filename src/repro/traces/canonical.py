"""The canonical on-disk trace format (``.rpt`` — repro packed trace).

Every external format converts *once* into this layout (see
:mod:`repro.traces.cache`), and everything downstream — the
:class:`~repro.traces.stream.TraceFileStream` workload adapter, both
simulation engines, checkpoint/resume — consumes only canonical files,
so random access and record counting are O(1) instead of a re-parse.

Layout (little-endian, no alignment padding)::

    offset  size  field
    0       4     magic  b"RPTC"
    4       4     u32    format version (currently 1)
    8       8     u64    record count
    16      20*N  records: <u64 pc, u64 addr, u32 bubble>

The header's record count is authoritative: a reader that finds a file
whose byte length disagrees with ``16 + 20 * count`` raises a typed
:class:`~repro.traces.errors.TraceFormatError` (the header survives a
truncating crash, the tail does not — though writes are atomic, so this
guards hand-made or externally-copied files).  Writes stage through the
shared unique-tmp + rename helper, so a converted trace is either
complete on disk or absent.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Iterator

from ..ioutil import atomic_write
from ..registry import register
from .errors import TraceFormatError
from .formats import (
    DEFAULT_DECODE_CHUNK,
    RECORD_SIZE,
    TraceBatch,
    _batch_from_struct,
    record_dtype,
)

CANONICAL_MAGIC = b"RPTC"
CANONICAL_VERSION = 1
CANONICAL_SUFFIX = ".rpt"

_HEADER = struct.Struct("<4sIQ")
HEADER_SIZE = _HEADER.size  # 16


def pack_header(count: int) -> bytes:
    return _HEADER.pack(CANONICAL_MAGIC, CANONICAL_VERSION, count)


def read_header(path: Path | str) -> int:
    """Validate ``path``'s header + length; return the record count."""
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as handle:
            blob = handle.read(HEADER_SIZE)
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace: {exc}", path=path) from exc
    if len(blob) < HEADER_SIZE:
        raise TraceFormatError(
            f"not a canonical trace: {len(blob)} byte(s), need a "
            f"{HEADER_SIZE}-byte header",
            path=path,
        )
    magic, version, count = _HEADER.unpack(blob)
    if magic != CANONICAL_MAGIC:
        raise TraceFormatError(
            f"not a canonical trace: bad magic {magic!r}", path=path
        )
    if version != CANONICAL_VERSION:
        raise TraceFormatError(
            f"canonical version {version} != supported {CANONICAL_VERSION}",
            path=path,
        )
    expected = HEADER_SIZE + RECORD_SIZE * count
    if size != expected:
        raise TraceFormatError(
            f"record count mismatch: header promises {count} record(s) "
            f"({expected} bytes), file holds {size} bytes",
            path=path,
        )
    return count


def write_canonical(batches: Iterable[TraceBatch], path: Path | str) -> int:
    """Stream ``batches`` into a canonical file; return the record count.

    The header is written with a zero count first and back-patched once
    the stream is exhausted, all inside the atomic-write staging file —
    a reader can never observe the intermediate state.  An empty stream
    is a typed error and publishes nothing.
    """
    import numpy as np

    path = Path(path)
    dtype = record_dtype()
    count = 0
    with atomic_write(path, "wb") as handle:
        handle.write(pack_header(0))
        for batch in batches:
            n = len(batch)
            if n == 0:
                continue
            arr = np.empty(n, dtype=dtype)
            arr["pc"] = batch.pcs
            arr["addr"] = batch.addrs
            arr["bubble"] = batch.bubbles
            handle.write(arr.tobytes())
            count += n
        if count == 0:
            raise TraceFormatError("empty trace: no records", path=path)
        handle.seek(0)
        handle.write(pack_header(count))
    return count


def read_batches(
    path: Path | str, chunk: int = DEFAULT_DECODE_CHUNK
) -> Iterator[TraceBatch]:
    """Decode a canonical file as column batches (validates the header)."""
    import numpy as np

    dtype = record_dtype()
    count = read_header(path)
    read = 0
    with open(path, "rb") as handle:
        handle.seek(HEADER_SIZE)
        while read < count:
            want = min(chunk, count - read)
            blob = handle.read(want * RECORD_SIZE)
            arr = np.frombuffer(blob, dtype=dtype)
            yield _batch_from_struct(arr, path, record_start=read)
            read += len(arr)


@register("trace_format", "canonical")
class CanonicalTraceFormat:
    """The canonical format, readable through the same registry seam."""

    name = "canonical"

    def read_batches(
        self, path: Path | str, chunk: int = DEFAULT_DECODE_CHUNK
    ) -> Iterator[TraceBatch]:
        return read_batches(path, chunk)
