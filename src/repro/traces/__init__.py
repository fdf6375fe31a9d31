"""Real-trace ingestion: external formats → canonical files → workloads.

The pipeline (ROADMAP item 3) that turns this repo from
"reproduction-on-synthetics" into a simulator that accepts real traces:

1. **Readers** (:mod:`.formats`) — registry kind ``"trace_format"``:
   DRAMSim2 k6/mase text and fixed-width ChampSim-style binary records,
   decoded through transparent gzip/zstd decompression
   (:mod:`.compress`) into chunked numpy column batches.  numpy is
   imported by the decode and write functions, not by this package, so
   the simulator never loads it unless a trace file is decoded.
2. **Canonical format** (:mod:`.canonical`) — one fixed binary layout
   (``.rpt``) everything downstream consumes; random access, O(1)
   record counts, atomic publication.
3. **Digest cache** (:mod:`.cache`) — conversion happens once per
   source-file *content*; re-runs are 16-byte header reads.
4. **Workload adapter** (:mod:`.stream`) — ``TraceFileStream`` and
   ``trace_workload`` make converted files first-class workloads:
   checkpointable (record-offset ``state_dict``), engine-agnostic,
   sweep-cacheable with the content digest folded into every cache key.

CLI: ``python -m repro trace convert`` and ``sweep --trace-file``.
Every malformed input raises :class:`TraceFormatError` with file/line
context.  See docs/architecture.md, "Trace ingestion".
"""

from .cache import ConvertResult, TraceCache, file_digest
from .canonical import (
    CANONICAL_MAGIC,
    CANONICAL_SUFFIX,
    CANONICAL_VERSION,
    read_header,
    write_canonical,
)
from .errors import TraceFormatError
from .formats import (
    TraceBatch,
    detect_format,
    make_format,
    trace_formats,
)
from .stream import TraceFileStream, trace_dir_workloads, trace_workload

__all__ = [
    "TraceFormatError",
    "TraceBatch",
    "TraceCache",
    "TraceFileStream",
    "ConvertResult",
    "CANONICAL_MAGIC",
    "CANONICAL_SUFFIX",
    "CANONICAL_VERSION",
    "detect_format",
    "file_digest",
    "make_format",
    "read_header",
    "trace_dir_workloads",
    "trace_formats",
    "trace_workload",
    "write_canonical",
]
