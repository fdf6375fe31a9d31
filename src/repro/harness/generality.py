"""The generality experiment: does perceptron filtering go beyond SPP?

The paper evaluates the filter over SPP only; ROADMAP item 5 asks the
question it couldn't.  This experiment sweeps the full cross-product

    prefetcher × {unfiltered, filtered:<prefetcher>} × workload family

through :class:`~repro.sim.suite.SuiteRunner` (so it inherits caching
and fault tolerance) and reports, per cell, the three numbers that
answer the question: prefetch **accuracy**, miss **coverage** and
**IPC speedup** over the no-prefetch baseline, with the
filtered-vs-unfiltered IPC delta in the last column.  A positive delta
on a non-SPP prefetcher is the filter generalizing; a negative one is
the filter fighting a candidate stream it can't read.

``document()`` returns the JSON-serializable form of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.config import SimConfig
from ..sim.single_core import RunResult
from ..sim.suite import SuiteResult, SuiteRunner
from ..workloads import WorkloadSpec, suite as workload_suite
from ..zoo.filtered import FILTER_SPEC_PREFIX
from .report import render_table

#: The head-to-head the zoo exists for.
DEFAULT_PREFETCHERS: Tuple[str, ...] = ("spp", "pythia", "two-level")
#: Three workload families ≈ three candidate-stream personalities.
DEFAULT_FAMILIES: Tuple[str, ...] = ("spec2017", "spec2006", "cloudsuite")


@dataclass
class GeneralityResult:
    """Cross-product outcome: one row per (family, workload, prefetcher)."""

    prefetchers: Tuple[str, ...]
    families: Tuple[str, ...]
    rows: List[Dict[str, object]]
    suite: SuiteResult

    def document(self) -> Dict[str, object]:
        """JSON-ready comparison artifact."""
        return {
            "schema": "repro.generality/v1",
            "prefetchers": list(self.prefetchers),
            "families": list(self.families),
            "complete": self.suite.failure_report.complete,
            "rows": self.rows,
        }


def family_workloads(
    families: Sequence[str], per_family: int = 2
) -> List[Tuple[str, WorkloadSpec]]:
    """Pick ``per_family`` workloads per family, memory-intensive first.

    Deterministic: within a family the memory-intensive workloads keep
    their suite order, then the compute-bound ones — so the default
    selection exercises the streams where prefetching actually matters.
    """
    picks: List[Tuple[str, WorkloadSpec]] = []
    for family in families:
        specs = workload_suite(family)
        ordered = [s for s in specs if s.memory_intensive] + [
            s for s in specs if not s.memory_intensive
        ]
        for spec in ordered[:per_family]:
            picks.append((family, spec))
    return picks


def _metrics(result: RunResult, baseline: RunResult) -> Dict[str, float]:
    """accuracy / coverage / ipc / speedup for one cell."""
    useful = result.prefetches_useful
    covered = useful + result.l2_misses
    return {
        "accuracy": result.accuracy,
        "coverage": (useful / covered) if covered else 0.0,
        "ipc": result.ipc,
        "speedup": (result.ipc / baseline.ipc) if baseline.ipc else 0.0,
    }


def run_generality(
    config: Optional[SimConfig] = None,
    seed: int = 3,
    prefetchers: Sequence[str] = DEFAULT_PREFETCHERS,
    families: Sequence[str] = DEFAULT_FAMILIES,
    per_family: int = 2,
    jobs: Optional[int] = None,
    cache_dir=None,
) -> GeneralityResult:
    """Sweep the generality cross-product and assemble comparison rows.

    One SuiteRunner sweep covers every scheme — ``none`` (the speedup
    baseline), each prefetcher, and each ``filtered:<prefetcher>`` —
    over the family sample.
    """
    config = config or SimConfig.quick()
    pairs = family_workloads(families, per_family)
    workloads = [spec for _, spec in pairs]
    schemes: List[str] = []
    for base in prefetchers:
        schemes.append(base)
        schemes.append(FILTER_SPEC_PREFIX + base)
    runner = SuiteRunner(config, seed=seed, jobs=jobs, cache_dir=cache_dir)
    suite = runner.sweep(workloads, schemes)

    rows: List[Dict[str, object]] = []
    for family, spec in pairs:
        baseline = suite.runs.get((spec.name, "none"))
        if baseline is None:
            continue
        for base in prefetchers:
            unfiltered = suite.runs.get((spec.name, base))
            filtered = suite.runs.get((spec.name, FILTER_SPEC_PREFIX + base))
            if unfiltered is None or filtered is None:
                continue
            plain = _metrics(unfiltered, baseline)
            wrapped = _metrics(filtered, baseline)
            rows.append(
                {
                    "family": family,
                    "workload": spec.name,
                    "prefetcher": base,
                    "unfiltered": plain,
                    "filtered": wrapped,
                    "ipc_delta_pct": 100.0 * (wrapped["ipc"] - plain["ipc"]) / plain["ipc"]
                    if plain["ipc"]
                    else 0.0,
                }
            )
    return GeneralityResult(
        prefetchers=tuple(prefetchers),
        families=tuple(families),
        rows=rows,
        suite=suite,
    )


def report(result: GeneralityResult) -> str:
    """The per-cell comparison table answering the paper's question."""
    headers = [
        "family",
        "workload",
        "prefetcher",
        "acc",
        "cov",
        "speedup",
        "f.acc",
        "f.cov",
        "f.speedup",
        "dIPC%",
    ]
    table_rows = []
    for row in result.rows:
        plain = row["unfiltered"]
        wrapped = row["filtered"]
        table_rows.append(
            [
                row["family"],
                row["workload"],
                row["prefetcher"],
                plain["accuracy"],
                plain["coverage"],
                plain["speedup"],
                wrapped["accuracy"],
                wrapped["coverage"],
                wrapped["speedup"],
                row["ipc_delta_pct"],
            ]
        )
    title = (
        "Generality: prefetcher x {unfiltered, filtered} x family "
        "(f.* columns = under the perceptron filter)"
    )
    out = render_table(headers, table_rows, title=title)
    if not result.suite.failure_report.complete:
        out += "\n" + result.suite.failure_report.summary()
    return out
