"""Complete, auto-derived fingerprints of simulation configurations.

The old ``_config_key`` hand-listed ten of ``SimConfig``'s fields, so
two configs differing in any *other* field (associativities, latencies,
prefetch queue size, DRAM row-buffer timing …) silently collided in the
result cache.  This module walks the dataclass tree instead: every
field of every nested dataclass contributes, so adding a parameter to
any config automatically extends the fingerprint.

:func:`config_fingerprint` produces a stable, hashable nested tuple
(usable as an in-memory cache key); :func:`fingerprint_digest` reduces
it to a short hex string (usable as an on-disk cache filename).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Tuple

from ..checkpoint.schema import CHECKPOINT_SCHEMA_VERSION
from ..telemetry import schema as telemetry_schema


def value_fingerprint(value: Any) -> Any:
    """A stable, hashable token for one config value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple(
            (f.name, value_fingerprint(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
    if isinstance(value, dict):
        return tuple(
            (value_fingerprint(k), value_fingerprint(v))
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
    if isinstance(value, (list, tuple)):
        return tuple(value_fingerprint(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value_fingerprint(item) for item in value))
    if isinstance(value, (bool, int, float, str, bytes)) or value is None:
        return value
    if callable(value):
        # Factories/builders: identity by qualified name, not address.
        return f"{getattr(value, '__module__', '?')}.{getattr(value, '__qualname__', repr(value))}"
    return repr(value)


def config_fingerprint(config: Any) -> Tuple:
    """Every field of a (nested) dataclass config, as a stable tuple.

    The checkpoint and telemetry schema versions participate: a schema
    bump changes every fingerprint, so result caches, warmup stores and
    ledgers from pre-bump builds invalidate together instead of
    colliding with artifacts whose snapshot payloads (or recorded trace
    artifacts) no longer load.  The telemetry version is read off the
    module at call time so tests can exercise the invalidation.
    """
    if not dataclasses.is_dataclass(config):
        raise TypeError(f"expected a dataclass config, got {type(config).__name__}")
    return (
        type(config).__name__,
        ("checkpoint_schema", CHECKPOINT_SCHEMA_VERSION),
        ("telemetry_schema", telemetry_schema.TELEMETRY_SCHEMA_VERSION),
        value_fingerprint(config),
    )


def fingerprint_digest(config: Any) -> str:
    """A short stable hex digest of :func:`config_fingerprint`."""
    blob = repr(config_fingerprint(config)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def token_digest(*parts: Any, length: int = 32) -> str:
    """A short stable hex digest of a JSON-encodable token list.

    The shared key recipe behind every content-addressed artifact that
    is named by *coordinates* rather than by config alone: result-cache
    entries and per-cell checkpoints both reduce a list of primitives to
    one hex name through this function, so any two subsystems that agree
    on the parts agree on the address.
    """
    blob = json.dumps(list(parts)).encode()
    return hashlib.sha256(blob).hexdigest()[:length]


def cell_digest(workload: str, prefetcher: str, config: Any, seed: int) -> str:
    """Content address of one sweep cell.

    Keys the cell's periodic mid-measure checkpoint in the snapshot
    store — because the digest folds in :func:`fingerprint_digest`, two
    sweeps over different configs can share one snapshot directory
    without their checkpoints colliding.
    """
    return token_digest("cell", workload, prefetcher, fingerprint_digest(config), seed)
