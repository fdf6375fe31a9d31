"""File-backed workloads: the ``TraceFileStream`` adapter.

:class:`TraceFileStream` makes a canonical trace file walk and talk
like the synthetic :class:`~repro.workloads.synthetic.TraceStream`:

* **Iteration** — ``__iter__`` hands out one persistent generator, so
  partial consumption (``islice`` for warmup, then ``for`` for
  measurement) continues a single stream; both engines pull records
  through the same path, and the decode is chunked — one numpy column
  batch per ``chunk`` records, materialized lazily (numpy itself loads
  on the first chunk, not at import).
* **Checkpointing** — ``state_dict()`` is just the record offset plus
  the file's identity (content digest and record count); ``load_state``
  on a freshly built stream verifies identity and repositions by
  seeking, so ``sweep --resume`` and mid-measure checkpoints work on
  file-backed workloads exactly as on synthetic ones — and a snapshot
  taken against one trace file can never silently resume against
  different bytes.
* **Looping** — a trace shorter than the requested record count wraps
  around to the start (the standard trace-driven convention when a
  SimPoint ends before the measurement window does).

:func:`trace_workload` wraps a canonical file as a
:class:`~repro.workloads.spec2017.WorkloadSpec` whose *name embeds the
content digest* — the sweep result cache, warmup-snapshot digests and
cell checkpoints all key on the workload name, so two versions of "the
same" trace file can never collide in any cache.  The builder is a
``functools.partial`` over module-level functions, hence picklable:
sweep workers receive file-backed specs exactly like synthetic ones.

The ``"traces"`` suite is registered next to the synthetic generators:
point ``REPRO_TRACE_DIR`` at a directory of converted ``*.rpt`` files
and they appear in ``python -m repro workloads``, resolve through
``find_workload`` and rehydrate by name in sweep workers.
"""

from __future__ import annotations

import os
from functools import partial
from pathlib import Path
from typing import Iterator, List, Optional

from ..cpu.trace import TraceRecord
from ..registry import register
from ..workloads.spec2017 import WorkloadSpec
from .cache import file_digest
from .canonical import CANONICAL_SUFFIX, HEADER_SIZE, read_header
from .errors import TraceFormatError
from .formats import RECORD_SIZE, record_dtype

#: Records decoded per buffered column batch.
DEFAULT_STREAM_CHUNK = 8_192


class _FileCursor:
    """The read side of a :class:`TraceFileStream`: its emit cursor, the
    decoded column buffer and the open file handle.

    The record generator holds this object and never the stream: a
    generator over the stream itself would make the two a reference
    cycle, keeping the buffers and the open handle alive until the
    cyclic collector's next pass instead of freeing them with their
    cell.  The handle closes when the cursor is freed.
    """

    __slots__ = ("path", "file_records", "chunk", "emitted", "handle", "buffer", "buffer_start")

    def __init__(self, path: Path, file_records: int, chunk: int) -> None:
        self.path = path
        self.file_records = file_records
        self.chunk = chunk
        self.emitted = 0
        self.handle = None
        # Buffered columns covering file records
        # [buffer_start, buffer_start + len) — invalidated by
        # ``TraceFileStream.load_state`` so the generator refetches at
        # the new cursor.
        self.buffer: Optional[tuple] = None
        self.buffer_start = 0

    def fill(self, position: int) -> None:
        """Decode one column chunk starting at file record ``position``."""
        import numpy as np

        if self.handle is None:
            self.handle = open(self.path, "rb")
        count = min(self.chunk, self.file_records - position)
        self.handle.seek(HEADER_SIZE + position * RECORD_SIZE)
        blob = self.handle.read(count * RECORD_SIZE)
        if len(blob) != count * RECORD_SIZE:
            raise TraceFormatError(
                f"short read at record {position}: file changed underneath "
                "the stream",
                path=self.path,
            )
        arr = np.frombuffer(blob, dtype=record_dtype())
        # .tolist() once per chunk: native ints beat per-record np
        # scalar unboxing in the record loop.
        self.buffer = (
            arr["pc"].astype(np.int64).tolist(),
            arr["addr"].astype(np.int64).tolist(),
            arr["bubble"].astype(np.int64).tolist(),
        )
        self.buffer_start = position

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()
            self.handle = None

    def __del__(self) -> None:
        self.close()


class TraceFileStream:
    """A deterministic, checkpointable stream over a canonical trace."""

    def __init__(
        self,
        path: Path | str,
        n_records: int,
        digest: Optional[str] = None,
        chunk: int = DEFAULT_STREAM_CHUNK,
    ) -> None:
        if n_records < 0:
            raise ValueError("record count must be non-negative")
        if chunk < 1:
            raise ValueError("chunk must be positive")
        self.path = Path(path)
        self.n_records = n_records
        self.chunk = chunk
        #: Records in the file; header-validated eagerly so a missing or
        #: corrupt file fails at construction, not mid-simulation.
        self.file_records = read_header(self.path)
        if self.file_records == 0 and n_records > 0:
            raise TraceFormatError("empty trace: no records", path=self.path)
        self.digest = digest if digest is not None else file_digest(self.path)
        self._cursor = _FileCursor(self.path, self.file_records, chunk)
        self._gen = self._generate(self._cursor, n_records)

    @property
    def emitted(self) -> int:
        """Records emitted so far (the checkpoint cursor)."""
        return self._cursor.emitted

    def __iter__(self) -> Iterator[TraceRecord]:
        return self._gen

    def __next__(self) -> TraceRecord:
        return next(self._gen)

    @staticmethod
    def _generate(cursor: _FileCursor, n_records: int) -> Iterator[TraceRecord]:
        file_records = cursor.file_records
        while cursor.emitted < n_records:
            position = cursor.emitted % file_records
            buffer = cursor.buffer
            if buffer is None or not (
                cursor.buffer_start <= position < cursor.buffer_start + len(buffer[0])
            ):
                cursor.fill(position)
                buffer = cursor.buffer
            index = position - cursor.buffer_start
            cursor.emitted += 1
            yield TraceRecord(buffer[0][index], buffer[1][index], buffer[2][index])

    # -- checkpoint protocol ---------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "emitted": self.emitted,
            "digest": self.digest,
            "file_records": self.file_records,
        }

    def load_state(self, state: dict) -> None:
        if state.get("digest") != self.digest:
            raise ValueError(
                f"trace state digest {state.get('digest')!r} does not match "
                f"file {self.path} ({self.digest})"
            )
        if int(state.get("file_records", -1)) != self.file_records:
            raise ValueError(
                f"trace state holds {state.get('file_records')} file records, "
                f"file has {self.file_records}"
            )
        self._cursor.emitted = int(state["emitted"])
        self._cursor.buffer = None  # live generator refetches at the new cursor

    def close(self) -> None:
        self._cursor.close()


def _open_trace_stream(
    path: str, digest: str, n_records: int, seed: int = 1
) -> TraceFileStream:
    """Module-level builder so file-backed WorkloadSpecs pickle.

    ``seed`` is accepted for builder-signature compatibility and
    ignored: a recorded trace is the same bytes for every seed.
    """
    return TraceFileStream(path, n_records, digest=digest)


def trace_workload(path: Path | str, name: Optional[str] = None) -> WorkloadSpec:
    """Wrap a canonical trace file as a registered-shape workload spec.

    The default name embeds the file's content digest
    (``trace:<stem>@<digest12>``): workload names key the result cache,
    warmup digests and cell checkpoints, so the digest riding the name
    is what keeps trace file *versions* apart everywhere downstream.
    """
    path = Path(path)
    records = read_header(path)  # fail fast with file context
    digest = file_digest(path)
    if name is None:
        name = f"trace:{path.stem}@{digest[:12]}"
    return WorkloadSpec(
        name=name,
        suite="traces",
        memory_intensive=True,
        description=f"file-backed trace ({records} records, {path.name})",
        builder=partial(_open_trace_stream, str(path), digest),
    )


@register("suite", "traces")
def trace_dir_workloads() -> List[WorkloadSpec]:
    """Converted traces found under ``$REPRO_TRACE_DIR`` (empty if unset).

    Unreadable or corrupt files are skipped rather than breaking the
    whole catalog — ``repro trace convert`` is the path that *reports*
    malformed inputs.
    """
    root = os.environ.get("REPRO_TRACE_DIR")
    if not root:
        return []
    specs: List[WorkloadSpec] = []
    for path in sorted(Path(root).glob(f"*{CANONICAL_SUFFIX}")):
        try:
            specs.append(trace_workload(path))
        except (TraceFormatError, OSError):
            continue
    return specs
