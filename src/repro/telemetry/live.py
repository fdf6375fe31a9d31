"""Live sweep progress: a throttled, single-line stderr renderer.

Consumes the cell lifecycle events the suite runner fans out to its
observers and keeps one ``\\r``-rewritten status line current on
stderr.  Three properties make it safe to leave on by default:

* **TTY-gated** — when stderr is not a terminal (CI logs, pipes) the
  renderer writes nothing at all, so redirected output stays
  byte-identical with and without it.
* **Throttled** — redraws are rate-limited (wall clock is fine here:
  this is presentation, never a recorded artifact), so ten thousand
  fast cached cells cost a handful of writes.
* **Stream-only** — it owns no state beyond counters; the authoritative
  record of the same events is the ledger, not this line.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Any, Dict, Optional, TextIO


class LiveProgress:
    """Render sweep lifecycle events as one updating stderr line."""

    def __init__(
        self,
        total: int = 0,
        stream: Optional[TextIO] = None,
        min_interval: float = 0.1,
        enabled: Optional[bool] = None,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            isatty = getattr(self.stream, "isatty", None)
            enabled = bool(isatty and isatty())
        self.enabled = enabled
        self.total = total
        self.min_interval = min_interval
        self.counts: Dict[str, int] = {
            "queued": 0,
            "cached": 0,
            "started": 0,
            "retried": 0,
            "finished": 0,
            "failed": 0,
        }
        self.running = 0
        self._last_draw = 0.0
        self._line_width = 0

    # -- observer entry point --------------------------------------------------

    def __call__(self, record: Dict[str, Any]) -> None:
        """Consume one ledger record; non-lifecycle records are ignored."""
        if record.get("event") != "lifecycle":
            return
        phase = record.get("phase", "")
        if phase in self.counts:
            self.counts[phase] += 1
        if phase == "started":
            self.running += 1
        elif phase == "finished":
            self.running = max(0, self.running - 1)
            if not record.get("ok", True):
                self.counts["failed"] += 1
        self._draw(force=phase == "finished" and self.done >= self.total > 0)

    # -- rendering -------------------------------------------------------------

    @property
    def done(self) -> int:
        return self.counts["finished"] + self.counts["cached"]

    def _render(self) -> str:
        counts = self.counts
        parts = [f"sweep {self.done}/{self.total or '?'}"]
        parts.append(f"running {self.running}")
        if counts["cached"]:
            parts.append(f"cached {counts['cached']}")
        if counts["retried"]:
            parts.append(f"retried {counts['retried']}")
        if counts["failed"]:
            parts.append(f"failed {counts['failed']}")
        return " | ".join(parts)

    def _draw(self, force: bool = False) -> None:
        if not self.enabled:
            return
        now = perf_counter()
        if not force and now - self._last_draw < self.min_interval:
            return
        self._last_draw = now
        line = self._render()
        pad = " " * max(0, self._line_width - len(line))
        self.stream.write(f"\r{line}{pad}")
        self.stream.flush()
        self._line_width = len(line)

    def close(self) -> None:
        """Finish the line so later output starts on a fresh row."""
        if not self.enabled:
            return
        self._draw(force=True)
        self.stream.write("\n")
        self.stream.flush()
