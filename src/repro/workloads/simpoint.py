"""SimPoint-style phase sampling (§5.3 methodology).

The paper simulates one-billion-instruction SimPoints: representative
program slices chosen by clustering basic-block vectors, each carrying a
weight, with per-application results computed as the weighted mean over
SimPoints.  This module reproduces that methodology at trace scale:

* a trace is cut into fixed-size windows;
* each window is summarized by a **signature vector** (the analogue of
  a basic-block vector: the distribution of load PCs plus coarse
  access-pattern statistics);
* k-means clustering groups similar windows into phases;
* the window nearest each cluster centroid becomes that phase's
  SimPoint, weighted by the phase's share of the trace.

``weighted_mean`` then aggregates per-SimPoint measurements exactly the
way the paper aggregates per-application speedups.

numpy is imported inside the functions that use it, so importing this
module (as ``repro.workloads`` does) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from ..cpu.trace import TraceRecord


@dataclass(frozen=True)
class SimPoint:
    """One representative window and its phase weight."""

    window_index: int
    weight: float

    def __post_init__(self) -> None:
        if self.window_index < 0:
            raise ValueError("window index must be non-negative")
        if not 0.0 < self.weight <= 1.0:
            raise ValueError("weight must be in (0, 1]")


def signature_vectors(
    trace: Sequence[TraceRecord], window_size: int, pc_buckets: int = 32
):
    """Per-window signature vectors (the basic-block-vector analogue).

    Returns an ``(n_windows, pc_buckets + 2)`` float numpy array.  Each
    vector concatenates a normalized histogram of load PCs (hashed
    into ``pc_buckets``) with two normalized pattern statistics: the
    mean absolute block delta and the fraction of block-sequential
    accesses.  Windows shorter than ``window_size`` (the tail) are
    dropped, as SimPoint drops partial intervals.
    """
    import numpy as np

    if window_size < 2:
        raise ValueError("window size must be at least 2")
    n_windows = len(trace) // window_size
    if n_windows == 0:
        raise ValueError("trace shorter than one window")
    vectors = np.zeros((n_windows, pc_buckets + 2))
    for w in range(n_windows):
        window = trace[w * window_size : (w + 1) * window_size]
        histogram = np.zeros(pc_buckets)
        deltas = []
        sequential = 0
        previous_block = None
        for rec in window:
            histogram[(rec.pc >> 2) % pc_buckets] += 1
            block = rec.addr >> 6
            if previous_block is not None:
                delta = block - previous_block
                deltas.append(abs(delta))
                if delta == 1:
                    sequential += 1
            previous_block = block
        histogram /= len(window)
        mean_delta = float(np.mean(deltas)) if deltas else 0.0
        vectors[w, :pc_buckets] = histogram
        vectors[w, pc_buckets] = min(1.0, mean_delta / 64.0)
        vectors[w, pc_buckets + 1] = sequential / max(1, len(window) - 1)
    return vectors


def _kmeans(vectors, k: int, seed: int, iterations: int = 25):
    """Plain deterministic k-means; returns (assignments, centroids).

    Initialization is farthest-point (a deterministic k-means++): the
    first centroid is the window at ``seed % n``, each further centroid
    is the window farthest from all chosen so far.  This guarantees that
    well-separated phases each seed a cluster.
    """
    import numpy as np

    n = vectors.shape[0]
    k = min(k, n)
    chosen = [seed % n]
    while len(chosen) < k:
        distances = np.min(
            np.linalg.norm(vectors[:, None, :] - vectors[chosen][None, :, :], axis=2),
            axis=1,
        )
        chosen.append(int(distances.argmax()))
    centroids = vectors[chosen].copy()
    assignments = np.zeros(n, dtype=int)
    for _ in range(iterations):
        distances = np.linalg.norm(vectors[:, None, :] - centroids[None, :, :], axis=2)
        new_assignments = distances.argmin(axis=1)
        if (new_assignments == assignments).all():
            break
        assignments = new_assignments
        for cluster in range(k):
            members = vectors[assignments == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
    return assignments, centroids


def select_simpoints(
    trace: Sequence[TraceRecord],
    window_size: int,
    max_clusters: int = 4,
    seed: int = 0,
) -> List[SimPoint]:
    """Choose representative windows and weights for a trace.

    Returns one SimPoint per non-empty cluster: the window closest to
    the cluster centroid, weighted by the cluster's share of all
    windows.  Weights sum to 1.
    """
    import numpy as np

    vectors = signature_vectors(trace, window_size)
    assignments, centroids = _kmeans(vectors, max_clusters, seed)
    simpoints: List[SimPoint] = []
    n_windows = vectors.shape[0]
    for cluster in range(centroids.shape[0]):
        member_indices = np.flatnonzero(assignments == cluster)
        if len(member_indices) == 0:
            continue
        member_vectors = vectors[member_indices]
        distances = np.linalg.norm(member_vectors - centroids[cluster], axis=1)
        representative = int(member_indices[distances.argmin()])
        simpoints.append(
            SimPoint(window_index=representative, weight=len(member_indices) / n_windows)
        )
    simpoints.sort(key=lambda sp: sp.window_index)
    return simpoints


def window_records(
    trace: Sequence[TraceRecord], window_size: int, window_index: int
) -> List[TraceRecord]:
    """Extract the records of one window (to simulate a SimPoint)."""
    start = window_index * window_size
    if start >= len(trace):
        raise IndexError(f"window {window_index} beyond trace")
    return list(trace[start : start + window_size])


def weighted_mean(values: Iterable[float], weights: Iterable[float]) -> float:
    """Per-application aggregate: weighted mean over its SimPoints."""
    values = list(values)
    weights = list(weights)
    if len(values) != len(weights):
        raise ValueError("need one weight per value")
    if not values:
        raise ValueError("weighted mean of no values")
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return sum(v * w for v, w in zip(values, weights)) / total


def phase_count(trace: Sequence[TraceRecord], window_size: int, max_clusters: int = 4,
                seed: int = 0) -> int:
    """Number of distinct phases SimPoint selection finds (diagnostic)."""
    return len(select_simpoints(trace, window_size, max_clusters, seed))
