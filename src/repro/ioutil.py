"""Shared atomic file publication (the unique-tmp + rename idiom).

Three subsystems grew the same convention independently — the suite
runner's result cache, the checkpoint store and (since this module) the
telemetry exporters and trace converter: writers stage into a sibling
temp file whose name carries the pid plus a process-local counter, then
publish with ``Path.replace``.  Readers therefore only ever observe
complete files, concurrent writers racing on one path cannot interleave,
and a crash mid-write leaves at worst a ``*.tmp`` orphan, never a
truncated artifact that still carries a valid-looking schema header.

Text-mode writes default to ``newline=""`` so line endings are exactly
the ``\\n`` the writer emits on every platform — Windows' text-mode
``\\n`` → ``\\r\\n`` translation otherwise doubles line endings when the
``csv`` module (which writes ``\\r\\n`` itself) is involved, and makes
"deterministic, byte-identical artifacts" platform-dependent for
everything else.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

#: Distinguishes writers within one process; the pid distinguishes
#: processes sharing a directory.
_TMP_COUNTER = itertools.count()


def unique_tmp(path: Path | str) -> Path:
    """A collision-free temporary sibling of ``path``."""
    path = Path(path)
    return path.with_name(f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp")


@contextmanager
def atomic_write(
    path: Path | str,
    mode: str = "w",
    encoding: str | None = "utf-8",
    newline: str | None = "",
) -> Iterator[IO]:
    """Open a staging file that replaces ``path`` only on clean exit.

    Any exception (including ``KeyboardInterrupt``) unlinks the staging
    file and re-raises, so failed writes leave no artifact at all —
    the previous content of ``path``, if any, survives untouched.
    Binary modes ignore ``encoding``/``newline``.
    """
    if "r" in mode or "a" in mode or "+" in mode:
        raise ValueError(f"atomic_write is write-only, got mode {mode!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = unique_tmp(path)
    binary = "b" in mode
    try:
        with open(
            tmp,
            mode,
            encoding=None if binary else encoding,
            newline=None if binary else newline,
        ) as handle:
            yield handle
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path: Path | str, blob: bytes) -> Path:
    """Atomically publish ``blob`` at ``path``."""
    path = Path(path)
    with atomic_write(path, "wb") as handle:
        handle.write(blob)
    return path


def atomic_write_text(path: Path | str, text: str, encoding: str = "utf-8") -> Path:
    """Atomically publish ``text`` at ``path`` (``newline=""`` semantics)."""
    path = Path(path)
    with atomic_write(path, "w", encoding=encoding) as handle:
        handle.write(text)
    return path
