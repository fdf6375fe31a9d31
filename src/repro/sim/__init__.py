"""Simulation drivers, configuration and metrics."""

from .config import SimConfig
from .metrics import (
    accuracy,
    coverage,
    geometric_mean,
    mpki,
    percent_gain,
    speedup,
    summarize_speedups,
    weighted_ipc,
    weighted_speedup,
)
from .fingerprint import config_fingerprint, fingerprint_digest
from .multi_core import CoreOutcome, MultiCoreResult, run_multi_core
from .runner import ExperimentRunner
from .single_core import RunResult, make_prefetcher, run_single_core
from .suite import (
    CellFailure,
    CellPolicy,
    DegradedSweepError,
    FailureReport,
    RunLedger,
    SuiteResult,
    SuiteRunner,
)

__all__ = [
    "CellFailure",
    "CellPolicy",
    "DegradedSweepError",
    "FailureReport",
    "RunLedger",
    "SimConfig",
    "accuracy",
    "coverage",
    "geometric_mean",
    "mpki",
    "percent_gain",
    "speedup",
    "summarize_speedups",
    "weighted_ipc",
    "weighted_speedup",
    "CoreOutcome",
    "MultiCoreResult",
    "run_multi_core",
    "config_fingerprint",
    "fingerprint_digest",
    "ExperimentRunner",
    "SuiteResult",
    "SuiteRunner",
    "RunResult",
    "make_prefetcher",
    "run_single_core",
]
