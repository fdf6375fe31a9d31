"""Parallel, persistently-cached, fault-tolerant (workload × prefetcher) sweeps.

:class:`SuiteRunner` is the execution engine behind
:class:`repro.sim.runner.ExperimentRunner`:

* **Parallelism** — cache-missing cells fan out over a
  ``concurrent.futures.ProcessPoolExecutor`` (``jobs`` workers, default
  ``os.cpu_count()``).  Every run is an independent, deterministic
  function of ``(workload, prefetcher, config, seed)``, so parallel and
  serial sweeps produce bit-identical results (asserted by
  ``tests/test_determinism.py``).
* **Persistent caching** — with a ``cache_dir``, results are stored as
  JSON keyed by a complete, auto-derived fingerprint of ``SimConfig``
  (see :mod:`repro.sim.fingerprint`), so re-running a figure after
  touching one prefetcher only re-simulates the affected cells and a
  clean re-run does zero simulation work.
* **Fault tolerance** — one crashed or hung worker no longer aborts the
  sweep.  A :class:`CellPolicy` bounds each cell with a timeout and a
  retry budget; a cell that exhausts its pool attempts falls back to
  serial in-process execution; a broken process pool is recovered by
  salvaging every already-completed future and resubmitting only the
  lost cells to a fresh pool.  The outcome of every cell is written to
  an optional JSONL run ledger and summarized in the
  :class:`FailureReport` attached to each :class:`SuiteResult`, so
  callers can tell a *complete* sweep from a *degraded* one
  (:meth:`SuiteResult.require_complete`).

Workers rehydrate workloads by name through the component registry
(:func:`repro.workloads.find_workload`); workload specs whose builders
are picklable are shipped directly, so custom out-of-catalog specs
parallelize too, and anything else transparently runs in-process.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..checkpoint import SnapshotStore
from ..ioutil import atomic_write
from ..stats import Accumulator, StatGroup, StatsNode
from ..workloads.spec2017 import WorkloadSpec
from .config import SimConfig
from .fingerprint import cell_digest, config_fingerprint, fingerprint_digest, token_digest
from .metrics import geometric_mean
from .single_core import RunResult, run_single_core, warmup_digest

#: Bump when the RunResult schema changes so stale disk entries miss.
#: v3: cell ledger entries grew provenance fields (fingerprint,
#: result_path, snapshot_path, seed) and the config fingerprint itself
#: now folds in the checkpoint schema version.
CACHE_SCHEMA_VERSION = 3


class DegradedSweepError(RuntimeError):
    """A sweep lost cells that no recovery path could bring back."""


@dataclasses.dataclass(frozen=True)
class CellPolicy:
    """Failure-handling budget for each cell of a sweep.

    ``timeout``
        Seconds to wait for a pool cell's result before declaring it
        hung (``None``: wait forever).  A timed-out cell's pool is torn
        down — completed siblings are salvaged, running ones resubmitted
        to a fresh pool — and the cell itself is retried or falls back.
    ``retries``
        How many times a failed/timed-out/lost cell may be re-executed
        in a worker pool before falling back.
    ``fallback_serial``
        Whether a cell that exhausts its pool attempts is re-run
        serially in-process as a last resort.  When disabled (or when
        the serial run also fails) the cell is reported as unrecovered
        and simply missing from ``SuiteResult.runs``.
    """

    timeout: Optional[float] = None
    retries: int = 1
    fallback_serial: bool = True

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


@dataclasses.dataclass
class CellFailure:
    """One cell that failed at least once during a sweep."""

    workload: str
    prefetcher: str
    attempts: int  # failed execution attempts
    error: str  # last error observed
    recovered: bool
    recovery: Optional[str] = None  # "pool-retry" | "serial-fallback" | None


@dataclasses.dataclass
class FailureReport:
    """What went wrong (and was recovered) during one sweep."""

    failures: List[CellFailure] = dataclasses.field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    pool_breaks: int = 0
    salvaged: int = 0
    serial_fallbacks: int = 0

    @property
    def unrecovered(self) -> List[CellFailure]:
        return [f for f in self.failures if not f.recovered]

    @property
    def complete(self) -> bool:
        return not self.unrecovered

    def summary(self) -> str:
        parts = [
            f"failures={len(self.failures)}",
            f"unrecovered={len(self.unrecovered)}",
            f"retries={self.retries}",
            f"timeouts={self.timeouts}",
            f"pool_breaks={self.pool_breaks}",
            f"salvaged={self.salvaged}",
            f"serial_fallbacks={self.serial_fallbacks}",
        ]
        return " ".join(parts)


class RunLedger:
    """Append-only JSONL record of how every sweep cell was served.

    One object per line: ``{"event": "cell", ...}`` when a cell
    resolves (status, served-from provenance, attempts, wall time),
    ``{"event": "attempt", ...}`` for each failed execution attempt,
    ``{"event": "lifecycle", ...}`` for each cell state transition
    (queued/cached/started/retried/finished — the live-progress feed),
    and ``{"event": "sweep", ...}`` summarizing each sweep.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if self.path.parent != Path():
            self.path.parent.mkdir(parents=True, exist_ok=True)

    def record(self, **fields) -> None:
        with self.path.open("a") as fh:
            fh.write(json.dumps(fields) + "\n")


@dataclasses.dataclass
class SuiteResult:
    """All (workload × prefetcher) runs of one suite sweep.

    ``failure_report`` distinguishes a *complete* sweep from a
    *degraded* one: cells listed as unrecovered are absent from
    ``runs`` and every aggregate skips them.

    ``cache_hits``/``executed`` split the served cells into ones
    answered straight from the result cache (memory or disk) and ones
    that ran a simulation — the efficiency of the fingerprint cache: a
    re-run of an unchanged suite should be all hits.
    """

    runs: Dict[Tuple[str, str], RunResult] = dataclasses.field(default_factory=dict)
    failure_report: FailureReport = dataclasses.field(default_factory=FailureReport)
    cache_hits: int = 0
    executed: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of served cells answered from the result cache."""
        total = self.cache_hits + self.executed
        return self.cache_hits / total if total else 0.0

    def run_for(self, workload: str, prefetcher: str) -> RunResult:
        try:
            return self.runs[(workload, prefetcher)]
        except KeyError:
            raise KeyError(
                f"no run for cell ({workload!r}, {prefetcher!r}); "
                "the sweep may be degraded — see SuiteResult.failure_report"
            ) from None

    def require_complete(self) -> "SuiteResult":
        """Raise :class:`DegradedSweepError` if any cell was lost."""
        lost = self.failure_report.unrecovered
        if lost:
            cells = ", ".join(f"({f.workload}, {f.prefetcher})" for f in lost)
            raise DegradedSweepError(
                f"sweep lost {len(lost)} cell(s): {cells}; "
                f"last error: {lost[-1].error}"
            )
        return self

    def _baselines(
        self, prefetcher: str, baseline: str
    ) -> Iterable[Tuple[str, RunResult, Optional[RunResult]]]:
        """(workload, scheme run, baseline run or None) for each cell."""
        for (workload, name), result in self.runs.items():
            if name != prefetcher:
                continue
            yield workload, result, self.runs.get((workload, baseline))

    def speedups(self, prefetcher: str, baseline: str = "none") -> Dict[str, float]:
        """Per-workload IPC speedup of ``prefetcher`` over ``baseline``.

        Workloads whose baseline cell is missing (degraded sweep) are
        skipped; if *no* baseline run exists at all, raises a
        ``ValueError`` naming the missing cells instead of leaking a
        bare ``KeyError``.
        """
        out: Dict[str, float] = {}
        missing: List[str] = []
        for workload, result, base in self._baselines(prefetcher, baseline):
            if base is None:
                missing.append(workload)
            elif base.ipc > 0:
                out[workload] = result.ipc / base.ipc
        if missing and not out:
            raise ValueError(
                f"sweep has no {baseline!r} baseline run for "
                f"{sorted(missing)}; sweep with include_baseline=True "
                f"or pass baseline=<scheme>"
            )
        return out

    def geomean_speedup(
        self,
        prefetcher: str,
        workloads: Optional[Iterable[str]] = None,
        baseline: str = "none",
    ) -> float:
        per_workload = self.speedups(prefetcher, baseline)
        if workloads is not None:
            keep = set(workloads)
            per_workload = {k: v for k, v in per_workload.items() if k in keep}
        return geometric_mean(per_workload.values())

    def coverage(self, prefetcher: str, level: str = "l2", baseline: str = "none") -> float:
        """Suite-aggregate miss coverage vs ``baseline``.

        Missing-baseline handling matches :meth:`speedups`: degraded
        cells are skipped, a fully absent baseline raises ``ValueError``.
        """
        if level not in ("l2", "llc"):
            raise ValueError(f"unknown level {level!r}")
        baseline_misses = 0
        scheme_misses = 0
        matched = False
        missing: List[str] = []
        for workload, result, base in self._baselines(prefetcher, baseline):
            if base is None:
                missing.append(workload)
                continue
            matched = True
            if level == "l2":
                baseline_misses += base.l2_misses
                scheme_misses += result.l2_misses
            else:
                baseline_misses += base.llc_misses
                scheme_misses += result.llc_misses
        if missing and not matched:
            raise ValueError(
                f"sweep has no {baseline!r} baseline run for "
                f"{sorted(missing)}; sweep with include_baseline=True "
                f"or pass baseline=<scheme>"
            )
        if baseline_misses == 0:
            return 0.0
        return (baseline_misses - scheme_misses) / baseline_misses


@dataclasses.dataclass
class SweepStats(StatGroup):
    """Cumulative sweep-execution counters, mountable in a stats tree."""

    simulated: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    #: Cells whose warmup snapshot existed when they were dispatched
    #: (the simulation restores it instead of re-warming) / did not.
    snapshot_hits: int = 0
    snapshot_misses: int = 0
    #: Completed cells adopted from a prior run's ledger (crash-resume).
    resumed: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    pool_breaks: int = 0
    salvaged: int = 0
    serial_fallbacks: int = 0
    unrecovered: int = 0


def result_cache_path(
    cache_dir: Union[str, Path],
    workload: str,
    prefetcher: str,
    config: SimConfig,
    seed: int,
) -> Path:
    """Where one cell's cached :class:`RunResult` lives under ``cache_dir``."""
    digest = token_digest(
        CACHE_SCHEMA_VERSION, workload, prefetcher, fingerprint_digest(config), seed
    )
    return Path(cache_dir) / f"{digest}.json"


def _simulate_cell(
    payload: Union[str, WorkloadSpec],
    prefetcher: str,
    config: SimConfig,
    seed: int,
    snapshot_dir: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
) -> RunResult:
    """One sweep cell, runnable in a worker process.

    ``payload`` is either a picklable :class:`WorkloadSpec` or a
    workload name rehydrated through the registry-backed catalog.  With
    ``snapshot_dir``, the worker shares the sweep-wide warmup snapshot
    store and (with ``checkpoint_every``) publishes periodic mid-measure
    checkpoints named by the cell digest; the checkpoint is removed once
    the cell's result exists, so leftovers always mean interrupted work.
    """
    if isinstance(payload, str):
        from ..workloads import find_workload

        spec = find_workload(payload)
    else:
        spec = payload
    warmup_store = None
    checkpoint_path = None
    if snapshot_dir is not None:
        root = Path(snapshot_dir)
        warmup_store = SnapshotStore(root)
        if checkpoint_every is not None:
            checkpoint_path = root / f"{cell_digest(spec.name, prefetcher, config, seed)}.ckpt"
    # telemetry=None (not merely omitted) pins cells to the untraced
    # fast path even under an ambient ``repro.telemetry.activate``
    # session: cached results must never carry trace state, or a traced
    # sweep and an untraced one would disagree about cache contents.
    # Sweep observability lives at cell-lifecycle granularity instead.
    result = run_single_core(
        spec,
        prefetcher,
        config,
        seed=seed,
        warmup_store=warmup_store,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        telemetry=None,
    )
    if checkpoint_path is not None:
        checkpoint_path.unlink(missing_ok=True)
    return result


def _worker_payload(spec: WorkloadSpec) -> Optional[Union[str, WorkloadSpec]]:
    """How to ship one workload to a worker (None: not shippable)."""
    try:
        pickle.dumps(spec)
        return spec
    except Exception:
        pass
    try:
        from ..workloads import find_workload

        find_workload(spec.name)
        return spec.name
    except Exception:
        return None


class _Cell:
    """Mutable execution state of one pending sweep cell."""

    __slots__ = ("spec", "scheme", "payload", "attempts", "errors", "started", "provenance")

    def __init__(self, spec: WorkloadSpec, scheme: str) -> None:
        self.spec = spec
        self.scheme = scheme
        self.payload: Optional[Union[str, WorkloadSpec]] = None
        self.attempts = 0  # failed execution attempts so far
        self.errors: List[str] = []
        self.started = 0.0
        #: Ledger provenance fields (fingerprint, seed, artifact paths),
        #: fixed at dispatch time so every log site agrees.
        self.provenance: Dict[str, Optional[str]] = {}

    @property
    def key(self) -> Tuple[str, str]:
        return (self.spec.name, self.scheme)


class SuiteRunner:
    """Parallel sweep executor with caches, retries and a run ledger."""

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        seed: int = 1,
        jobs: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        policy: Optional[CellPolicy] = None,
        ledger_path: Optional[Union[str, Path]] = None,
        snapshot_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        observers: Optional[Sequence] = None,
    ) -> None:
        self.config = config or SimConfig.default()
        self.seed = seed
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive (or None)")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.policy = policy or CellPolicy()
        self.ledger = RunLedger(ledger_path) if ledger_path is not None else None
        #: Content-addressed warmup snapshots (plus in-progress cell
        #: checkpoints when ``checkpoint_every`` is set) live here, the
        #: snapshot analogue of ``cache_dir`` — shared by every worker.
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir is not None else None
        self.checkpoint_every = checkpoint_every
        self.snapshot_store = (
            SnapshotStore(self.snapshot_dir) if self.snapshot_dir is not None else None
        )
        self.memory_cache: Dict[Tuple, RunResult] = {}
        # Observability: how every cell of every sweep so far was served,
        # mounted as a stats tree so callers can fold sweep-execution
        # counters into larger reports.
        self.stats = StatsNode("sweep")
        self._exec: SweepStats = self.stats.attach("cells", SweepStats())
        self._wall: Accumulator = self.stats.attach("cell_seconds", Accumulator())
        #: Callables fed every lifecycle record (queued/cached/started/
        #: retried/finished) as it happens — the live progress renderer
        #: and anything else that wants to watch a sweep breathe.
        self.observers: List = list(observers or [])
        self._sweep_epoch = perf_counter()

    def add_observer(self, observer) -> None:
        """Subscribe ``observer`` (a callable taking one record dict)."""
        self.observers.append(observer)

    def _lifecycle(self, phase: str, workload: str, prefetcher: str, **extra) -> None:
        """Emit one cell state transition to the ledger and observers.

        Timestamps are seconds since the current sweep's epoch — a
        relative clock, so ledgers don't embed wall-clock time and two
        recordings of the same sweep stay comparable.
        """
        record = {
            "event": "lifecycle",
            "phase": phase,
            "workload": workload,
            "prefetcher": prefetcher,
            "t": round(perf_counter() - self._sweep_epoch, 6),
        }
        record.update(extra)
        self._log(**record)
        for observer in self.observers:
            try:
                observer(record)
            except Exception:
                pass  # a broken observer must never break the sweep

    # -- legacy counter views ----------------------------------------------------

    @property
    def simulated(self) -> int:
        return self._exec.simulated

    @property
    def memory_hits(self) -> int:
        return self._exec.memory_hits

    @property
    def disk_hits(self) -> int:
        return self._exec.disk_hits

    def _log(self, **fields) -> None:
        if self.ledger is not None:
            self.ledger.record(**fields)

    # -- cache plumbing ---------------------------------------------------------

    def _memory_key(self, workload: str, prefetcher: str, config: SimConfig) -> Tuple:
        return (workload, prefetcher, config_fingerprint(config), self.seed)

    def _disk_path(self, workload: str, prefetcher: str, config: SimConfig) -> Path:
        assert self.cache_dir is not None
        return result_cache_path(self.cache_dir, workload, prefetcher, config, self.seed)

    def _disk_load(self, workload: str, prefetcher: str, config: SimConfig) -> Optional[RunResult]:
        if self.cache_dir is None:
            return None
        path = self._disk_path(workload, prefetcher, config)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None  # unreadable/corrupt entry: treat as a miss
        return RunResult(**data)

    def _disk_store(
        self, workload: str, prefetcher: str, config: SimConfig, result: RunResult
    ) -> None:
        if self.cache_dir is None:
            return
        path = self._disk_path(workload, prefetcher, config)
        # Unique-tmp + rename via the shared helper: concurrent writers
        # racing on one path agree on content, readers never see a
        # partial entry.
        with atomic_write(path, "w") as handle:
            handle.write(json.dumps(dataclasses.asdict(result)))

    def _lookup(
        self, workload: str, prefetcher: str, config: SimConfig
    ) -> Optional[Tuple[RunResult, str]]:
        """Cached result plus its provenance ("memory" | "disk")."""
        key = self._memory_key(workload, prefetcher, config)
        cached = self.memory_cache.get(key)
        if cached is not None:
            self._exec.memory_hits += 1
            return cached, "memory"
        cached = self._disk_load(workload, prefetcher, config)
        if cached is not None:
            self._exec.disk_hits += 1
            self.memory_cache[key] = cached
            return cached, "disk"
        return None

    def _record(
        self, workload: str, prefetcher: str, config: SimConfig, result: RunResult
    ) -> RunResult:
        self.memory_cache[self._memory_key(workload, prefetcher, config)] = result
        self._disk_store(workload, prefetcher, config, result)
        return result

    # -- snapshot plumbing -------------------------------------------------------

    def _snapshot_args(self) -> Tuple[Optional[str], Optional[int]]:
        """(snapshot_dir, checkpoint_every) as shipped to workers."""
        if self.snapshot_dir is None:
            return None, None
        return str(self.snapshot_dir), self.checkpoint_every

    def _provenance(
        self, workload: str, prefetcher: str, config: SimConfig
    ) -> Dict[str, Optional[str]]:
        """Where this cell's durable artifacts live, for the ledger.

        ``result_path``/``snapshot_path`` name where the result JSON and
        warmup snapshot are published — recorded even before they exist
        so a resuming run can find whatever the crashed run got done.
        """
        result_path = (
            str(self._disk_path(workload, prefetcher, config))
            if self.cache_dir is not None
            else None
        )
        snapshot_path = (
            str(self.snapshot_store.path_for(warmup_digest(workload, prefetcher, config, self.seed)))
            if self.snapshot_store is not None
            else None
        )
        return {
            "fingerprint": fingerprint_digest(config),
            "seed": self.seed,
            "result_path": result_path,
            "snapshot_path": snapshot_path,
        }

    def _note_snapshot(self, workload: str, prefetcher: str, config: SimConfig) -> None:
        """Count warmup-snapshot availability for one dispatched cell."""
        if self.snapshot_store is None:
            return
        digest = warmup_digest(workload, prefetcher, config, self.seed)
        if self.snapshot_store.contains(digest):
            self._exec.snapshot_hits += 1
        else:
            self._exec.snapshot_misses += 1

    def preload_from_ledger(
        self, ledger_path: Union[str, Path], config: Optional[SimConfig] = None
    ) -> int:
        """Adopt completed cells from a prior (possibly crashed) run.

        Replays ``cell`` events out of a run ledger and loads every
        result whose config fingerprint and seed match this runner from
        its recorded ``result_path`` into the in-memory cache, so a
        subsequent :meth:`sweep` serves those cells without touching the
        simulator.  Unreadable lines and missing/corrupt result files
        are skipped — resume never fails harder than a cold start.
        Returns the number of adopted cells (also counted in the
        ``resumed`` sweep stat).
        """
        config = config or self.config
        expect = fingerprint_digest(config)
        path = Path(ledger_path)
        if not path.exists():
            return 0
        adopted = 0
        for line in path.read_text().splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if entry.get("event") != "cell" or entry.get("status") != "ok":
                continue
            if entry.get("fingerprint") != expect or entry.get("seed") != self.seed:
                continue
            workload = entry.get("workload")
            prefetcher = entry.get("prefetcher")
            result_path = entry.get("result_path")
            if not workload or not prefetcher or not result_path:
                continue
            key = self._memory_key(workload, prefetcher, config)
            if key in self.memory_cache:
                continue
            try:
                result = RunResult(**json.loads(Path(result_path).read_text()))
            except (OSError, ValueError, TypeError):
                continue
            self.memory_cache[key] = result
            adopted += 1
        self._exec.resumed += adopted
        return adopted

    # -- execution ---------------------------------------------------------------

    def single(
        self,
        workload: WorkloadSpec,
        prefetcher: str,
        config: Optional[SimConfig] = None,
    ) -> RunResult:
        """One cell: served from cache or simulated in-process.

        Unlike :meth:`sweep`, failures propagate to the caller — a
        single requested run has no siblings to degrade gracefully
        against.
        """
        config = config or self.config
        cached = self._lookup(workload.name, prefetcher, config)
        if cached is not None:
            return cached[0]
        self._note_snapshot(workload.name, prefetcher, config)
        start = perf_counter()
        result = _simulate_cell(
            workload, prefetcher, config, self.seed, *self._snapshot_args()
        )
        self._exec.simulated += 1
        self._wall.add(perf_counter() - start)
        return self._record(workload.name, prefetcher, config, result)

    def sweep(
        self,
        workloads: Sequence[WorkloadSpec],
        prefetchers: Sequence[str],
        config: Optional[SimConfig] = None,
        include_baseline: bool = True,
    ) -> SuiteResult:
        """Run every workload under every scheme (+ the baseline).

        Cache-missing cells are simulated concurrently when ``jobs > 1``;
        results are bit-identical to the serial path because each cell is
        an isolated deterministic simulation.  Worker crashes, hangs and
        pool deaths degrade the sweep instead of aborting it — see
        :class:`CellPolicy` and ``SuiteResult.failure_report``.
        """
        config = config or self.config
        names = list(prefetchers)
        if include_baseline and "none" not in names:
            names = ["none"] + names
        # Fail fast on typos (with did-you-mean) before any cell is
        # expanded, cached or shipped to a worker process.
        from ..zoo.filtered import validate_prefetcher_spec

        for scheme in names:
            validate_prefetcher_spec(scheme)

        sweep_start = perf_counter()
        self._sweep_epoch = sweep_start
        report = FailureReport()
        suite = SuiteResult(failure_report=report)
        served = {"memory": 0, "disk": 0}
        pending: List[_Cell] = []
        for spec in workloads:
            for scheme in names:
                cached = self._lookup(spec.name, scheme, config)
                if cached is not None:
                    result, source = cached
                    served[source] += 1
                    suite.runs[(spec.name, scheme)] = result
                    self._log(
                        event="cell",
                        workload=spec.name,
                        prefetcher=scheme,
                        status="ok",
                        source=source,
                        attempts=0,
                        wall_time=0.0,
                        error=None,
                        **self._provenance(spec.name, scheme, config),
                    )
                    self._lifecycle("cached", spec.name, scheme, source=source)
                else:
                    cell = _Cell(spec, scheme)
                    cell.provenance = self._provenance(spec.name, scheme, config)
                    self._note_snapshot(spec.name, scheme, config)
                    pending.append(cell)
                    self._lifecycle("queued", spec.name, scheme)

        if len(pending) > 1 and self.jobs > 1:
            self._run_parallel(pending, config, suite, report)
        else:
            for cell in pending:
                self._serial_cell(cell, config, suite, report, recovery=None)

        suite.cache_hits = served["memory"] + served["disk"]
        suite.executed = len(suite.runs) - suite.cache_hits
        self._log(
            event="sweep",
            cells=len(pending) + served["memory"] + served["disk"],
            ok=len(suite.runs),
            failed=len(report.unrecovered),
            memory_hits=served["memory"],
            disk_hits=served["disk"],
            cache_hit_rate=round(suite.cache_hit_rate, 6),
            retries=report.retries,
            timeouts=report.timeouts,
            pool_breaks=report.pool_breaks,
            salvaged=report.salvaged,
            serial_fallbacks=report.serial_fallbacks,
            wall_time=perf_counter() - sweep_start,
        )
        return suite

    # -- parallel execution with recovery ---------------------------------------

    def _run_parallel(
        self,
        pending: Sequence[_Cell],
        config: SimConfig,
        suite: SuiteResult,
        report: FailureReport,
    ) -> None:
        shippable: List[_Cell] = []
        local: List[_Cell] = []
        for cell in pending:
            cell.payload = _worker_payload(cell.spec)
            if cell.payload is None:
                local.append(cell)
            else:
                shippable.append(cell)
        if shippable:
            self._run_pool(shippable, config, suite, report)
        for cell in local:
            self._serial_cell(cell, config, suite, report, recovery=None)

    def _run_pool(
        self,
        cells: List[_Cell],
        config: SimConfig,
        suite: SuiteResult,
        report: FailureReport,
    ) -> None:
        """Drive pool execution until every cell is resolved.

        Each iteration of the outer loop owns one pool.  A healthy pool
        drains its futures in submission order; a hung cell (timeout) or
        a broken pool tears the pool down, salvages every completed
        future and requeues the rest for the next pool.  Cells whose
        retry budget is exhausted collect in ``fallback`` and run
        serially at the end.
        """
        queue = list(cells)
        fallback: List[_Cell] = []
        while queue:
            batch, queue = queue, []
            pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(batch)))
            inflight: Dict[_Cell, Future] = {}
            snapshot_dir, checkpoint_every = self._snapshot_args()
            for cell in batch:
                cell.started = perf_counter()
                self._lifecycle("started", cell.spec.name, cell.scheme, attempt=cell.attempts + 1)
                inflight[cell] = pool.submit(
                    _simulate_cell,
                    cell.payload,
                    cell.scheme,
                    config,
                    self.seed,
                    snapshot_dir,
                    checkpoint_every,
                )
            alive = True
            try:
                while inflight:
                    cell = next(iter(inflight))
                    future = inflight.pop(cell)
                    try:
                        result = future.result(timeout=self.policy.timeout)
                    except FuturesTimeout:
                        if future.done() and future.exception() is None:
                            # Lost the race with completion: not a hang.
                            self._complete_pool_cell(cell, future.result(), config, suite, report)
                            continue
                        self._attempt_failed(
                            cell, "timeout", f"no result after {self.policy.timeout:g}s"
                        )
                        report.timeouts += 1
                        self._exec.timeouts += 1
                        self._dispose(cell, queue, fallback, report)
                        self._abandon_pool(
                            pool, inflight, config, suite, report, queue, fallback, blame=False
                        )
                        alive = False
                        break
                    except BrokenProcessPool as err:
                        self._attempt_failed(
                            cell, "pool-broken", str(err) or "process pool died"
                        )
                        report.pool_breaks += 1
                        self._exec.pool_breaks += 1
                        self._dispose(cell, queue, fallback, report)
                        self._abandon_pool(
                            pool, inflight, config, suite, report, queue, fallback, blame=True
                        )
                        alive = False
                        break
                    except CancelledError:
                        queue.append(cell)
                    except Exception as err:  # the worker raised: pool is healthy
                        self._attempt_failed(cell, "crash", f"{type(err).__name__}: {err}")
                        self._exec.crashes += 1
                        self._dispose(cell, queue, fallback, report)
                    else:
                        self._complete_pool_cell(cell, result, config, suite, report)
            finally:
                if alive:
                    pool.shutdown(wait=True)
        for cell in fallback:
            self._serial_cell(cell, config, suite, report, recovery="serial-fallback")

    def _abandon_pool(
        self,
        pool: ProcessPoolExecutor,
        inflight: Dict[_Cell, Future],
        config: SimConfig,
        suite: SuiteResult,
        report: FailureReport,
        queue: List[_Cell],
        fallback: List[_Cell],
        blame: bool,
    ) -> None:
        """Tear one pool down, salvaging every already-completed future.

        Lost (unfinished) cells are requeued for the next pool.  After a
        pool break the culprit is unknowable, so ``blame=True`` charges
        every lost cell one attempt — a deterministic crasher therefore
        exhausts its budget within ``retries + 1`` pool generations.  A
        timeout kill (``blame=False``) requeues innocents for free.
        """
        lost: List[Tuple[_Cell, Future]] = []
        for cell, future in inflight.items():
            if future.done() and not future.cancelled() and future.exception() is None:
                self._complete_pool_cell(
                    cell, future.result(), config, suite, report, salvaged=True
                )
            else:
                lost.append((cell, future))
        inflight.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.kill()
            except OSError:
                pass
        pool.shutdown(wait=True)
        for cell, _future in lost:
            if blame:
                self._attempt_failed(cell, "lost", "process pool died")
                self._dispose(cell, queue, fallback, report)
            else:
                queue.append(cell)

    def _attempt_failed(self, cell: _Cell, kind: str, error: str) -> None:
        cell.attempts += 1
        cell.errors.append(error)
        self._log(
            event="attempt",
            workload=cell.spec.name,
            prefetcher=cell.scheme,
            kind=kind,
            attempt=cell.attempts,
            error=error,
        )

    def _dispose(
        self,
        cell: _Cell,
        queue: List[_Cell],
        fallback: List[_Cell],
        report: FailureReport,
    ) -> None:
        """Route a just-failed cell: pool retry, serial fallback, or give up."""
        if cell.attempts <= self.policy.retries:
            report.retries += 1
            self._exec.retries += 1
            queue.append(cell)
            self._lifecycle(
                "retried", cell.spec.name, cell.scheme, attempt=cell.attempts
            )
        elif self.policy.fallback_serial:
            fallback.append(cell)
        else:
            self._resolve_unrecovered(cell, report)

    def _resolve_unrecovered(self, cell: _Cell, report: FailureReport) -> None:
        report.failures.append(
            CellFailure(
                workload=cell.spec.name,
                prefetcher=cell.scheme,
                attempts=cell.attempts,
                error=cell.errors[-1] if cell.errors else "unknown",
                recovered=False,
            )
        )
        self._exec.unrecovered += 1
        self._log(
            event="cell",
            workload=cell.spec.name,
            prefetcher=cell.scheme,
            status="failed",
            source=None,
            attempts=cell.attempts,
            wall_time=None,
            error=cell.errors[-1] if cell.errors else "unknown",
            **cell.provenance,
        )
        self._lifecycle(
            "finished", cell.spec.name, cell.scheme, ok=False, attempts=cell.attempts
        )

    def _complete_pool_cell(
        self,
        cell: _Cell,
        result: RunResult,
        config: SimConfig,
        suite: SuiteResult,
        report: FailureReport,
        salvaged: bool = False,
    ) -> None:
        elapsed = perf_counter() - cell.started
        self._exec.simulated += 1
        self._wall.add(elapsed)
        suite.runs[cell.key] = self._record(cell.spec.name, cell.scheme, config, result)
        if salvaged:
            report.salvaged += 1
            self._exec.salvaged += 1
        if cell.errors:
            report.failures.append(
                CellFailure(
                    workload=cell.spec.name,
                    prefetcher=cell.scheme,
                    attempts=cell.attempts,
                    error=cell.errors[-1],
                    recovered=True,
                    recovery="pool-retry",
                )
            )
        self._log(
            event="cell",
            workload=cell.spec.name,
            prefetcher=cell.scheme,
            status="ok",
            source="simulated",
            salvaged=salvaged,
            attempts=cell.attempts + 1,
            wall_time=elapsed,
            error=cell.errors[-1] if cell.errors else None,
            **cell.provenance,
        )
        self._lifecycle(
            "finished",
            cell.spec.name,
            cell.scheme,
            ok=True,
            salvaged=salvaged,
            wall_time=round(elapsed, 6),
        )

    def _serial_cell(
        self,
        cell: _Cell,
        config: SimConfig,
        suite: SuiteResult,
        report: FailureReport,
        recovery: Optional[str],
    ) -> None:
        """Run one cell in-process; failures degrade instead of raising."""
        start = perf_counter()
        self._lifecycle(
            "started",
            cell.spec.name,
            cell.scheme,
            attempt=cell.attempts + 1,
            serial=True,
        )
        try:
            result = _simulate_cell(
                cell.spec, cell.scheme, config, self.seed, *self._snapshot_args()
            )
        except Exception as err:
            self._attempt_failed(cell, "crash", f"{type(err).__name__}: {err}")
            self._exec.crashes += 1
            self._resolve_unrecovered(cell, report)
            return
        elapsed = perf_counter() - start
        self._exec.simulated += 1
        self._wall.add(elapsed)
        suite.runs[cell.key] = self._record(cell.spec.name, cell.scheme, config, result)
        if recovery == "serial-fallback":
            report.serial_fallbacks += 1
            self._exec.serial_fallbacks += 1
        if cell.errors:
            report.failures.append(
                CellFailure(
                    workload=cell.spec.name,
                    prefetcher=cell.scheme,
                    attempts=cell.attempts,
                    error=cell.errors[-1],
                    recovered=True,
                    recovery=recovery,
                )
            )
        self._log(
            event="cell",
            workload=cell.spec.name,
            prefetcher=cell.scheme,
            status="ok",
            source=recovery or "simulated",
            attempts=cell.attempts + 1,
            wall_time=elapsed,
            error=cell.errors[-1] if cell.errors else None,
            **cell.provenance,
        )
        self._lifecycle(
            "finished",
            cell.spec.name,
            cell.scheme,
            ok=True,
            wall_time=round(elapsed, 6),
        )
