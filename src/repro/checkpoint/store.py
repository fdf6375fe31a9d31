"""Content-addressed snapshot cache (the warmup store).

Lives next to the suite runner's result cache and follows the same
philosophy: keys are short hex digests computed by the *caller* (the sim
layer owns the key recipe, because it owns the fingerprint machinery),
values are ``<digest>.ckpt`` files, and every read failure — missing
file, corruption, schema mismatch — degrades to a miss rather than an
error, since the store is strictly an accelerator: the simulator can
always recompute warmup from scratch.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .snapshot import Snapshot, SnapshotError, load_snapshot, save_snapshot


class SnapshotStore:
    """Digest-keyed snapshot directory with hit/miss accounting."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.ckpt"

    def contains(self, digest: str) -> bool:
        """Whether an entry exists under ``digest`` (no accounting).

        A cheap existence probe for the suite runner's warmup hit/miss
        stats, without charging the store a miss.
        """
        return self.path_for(digest).exists()

    def load(self, digest: str) -> Optional[Snapshot]:
        """The snapshot under ``digest``, or ``None`` on any miss."""
        path = self.path_for(digest)
        if not path.exists():
            self.misses += 1
            return None
        try:
            snapshot = load_snapshot(path)
        except SnapshotError:
            self.misses += 1
            return None
        self.hits += 1
        return snapshot

    def save(self, digest: str, snapshot: Snapshot) -> Path:
        return save_snapshot(self.path_for(digest), snapshot)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
