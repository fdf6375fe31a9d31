"""What one pass of each benchmark workload simulates, and its oracle check.

A *pass* is every cell of a workload, from building a fresh sim (or a
fresh ``SuiteRunner``) through warmup, measure and result.  Each pass
gets its own seed derived from the benchmark's ``--seed``, so no pass
can be served from an earlier pass's work, and every cell's full result
is reduced to a digest that must equal the scalar engine's digest for
the same (workload, scheme, config, seed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

from repro import SimConfig, SuiteRunner, find_workload
from repro.sim import multi_core, single_core
from repro.workloads.mixes import WorkloadMix

#: Engine every timed and traced pass is pinned to (``SimConfig``
#: defaults to the scalar engine, which is the oracle).
TIMED_ENGINE = "batched"
ORACLE_ENGINE = "scalar"

#: Worker processes of the ``sweep-zoo`` pool: the host's two vCPUs.
SWEEP_JOBS = min(2, os.cpu_count() or 1)


@dataclasses.dataclass(frozen=True)
class Shape:
    """One workload: its cells and how many records each cell runs."""

    name: str
    kind: str  # "single" | "multi" | "sweep"
    models: Tuple[str, ...]
    schemes: Tuple[str, ...]
    warmup: int
    measure: int
    #: Records per cell of the untimed priming pass at setup.
    prime_warmup: int
    prime_measure: int

    def config(self, engine: str, priming: bool = False) -> SimConfig:
        base = SimConfig.multicore(len(self.models)) if self.kind == "multi" else SimConfig()
        warmup, measure = (
            (self.prime_warmup, self.prime_measure) if priming else (self.warmup, self.measure)
        )
        return dataclasses.replace(
            base, warmup_records=warmup, measure_records=measure, engine=engine
        )

    def cells(self) -> List[str]:
        if self.kind == "multi":
            return [f"bench4|{self.schemes[0]}"]
        return [f"{model}|{scheme}" for model in self.models for scheme in self.schemes]

    def records(self) -> int:
        """Nominal simulated records of one pass: cores x (warmup + measure)
        per cell, the work every cell's result is defined over."""
        per_core = self.warmup + self.measure
        if self.kind == "multi":
            return len(self.models) * per_core
        return len(self.cells()) * per_core


SHAPES: Dict[str, Shape] = {
    shape.name: shape
    for shape in (
        # Three contrasting SPEC 2017 models through the fused PPF kernel:
        # a busy filter (xalancbmk), pointer chasing (mcf), unit streams
        # (bwaves).
        Shape(
            "single-ppf",
            "single",
            ("623.xalancbmk_s", "605.mcf_s", "603.bwaves_s"),
            ("ppf",),
            warmup=1_500,
            measure=4_500,
            prime_warmup=300,
            prime_measure=700,
        ),
        # The 4-core bench4 mix: cycle-quantum scheduler, per-core fused
        # runners, measurement capture, shared LLC/DRAM contention.
        Shape(
            "multi-ppf",
            "multi",
            ("605.mcf_s", "603.bwaves_s", "619.lbm_s", "623.xalancbmk_s"),
            ("ppf",),
            warmup=300,
            measure=1_200,
            prime_warmup=100,
            prime_measure=300,
        ),
        # A cold parallel sweep: every cell takes the generic engine path;
        # one model per workload family.  filtered:spp is left out: it
        # builds the same PPF-over-SPP object as single-ppf.  Each
        # 429.mcf and cassandra cell first builds a pointer-chase ring of
        # fixed size (about 0.08 s), a third of an in-process pass at
        # these lengths; longer cells would dilute it further but leave
        # too few passes in a run to take the fastest of.
        Shape(
            "sweep-zoo",
            "sweep",
            ("623.xalancbmk_s", "429.mcf", "cassandra"),
            ("none", "spp", "pythia", "two-level", "filtered:pythia", "filtered:two-level"),
            warmup=600,
            measure=1_800,
            prime_warmup=100,
            prime_measure=200,
        ),
    )
}


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass ``index`` (``-1`` is the priming pass) of a run.

    Passes of one run, and runs with different ``--seed`` values, never
    share a seed.  The stride keeps clear of the small offsets the
    program adds itself (per-core ``seed + i``, per-lap ``+ 1``, per-
    pattern salts).
    """
    return seed * 1_000_000 + (index + 1) * 1_000


class Workload:
    """The built objects of one shape, ready to run passes."""

    def __init__(self, shape: Shape) -> None:
        self.shape = shape
        self.specs = [find_workload(name) for name in shape.models]
        self.mix = WorkloadMix(name="bench4", workloads=tuple(self.specs))

    def run_pass(
        self,
        seed: int,
        engine: str = TIMED_ENGINE,
        priming: bool = False,
        jobs: int = SWEEP_JOBS,
        observers: Optional[list] = None,
    ) -> Dict[str, object]:
        """Simulate every cell of the shape once; returns cell -> result.

        Cells missing from the returned map were lost (a failed sweep
        cell); callers count them as not ok.
        """
        shape = self.shape
        config = shape.config(engine, priming)
        # Entry points are looked up on their modules at call time, where
        # the traced run's wrappers (perfbench/spans.py) replace them.
        if shape.kind == "single":
            return {
                f"{spec.name}|{scheme}": single_core.run_single_core(
                    spec, scheme, config, seed=seed, telemetry=None
                )
                for spec in self.specs
                for scheme in shape.schemes
            }
        if shape.kind == "multi":
            scheme = shape.schemes[0]
            return {
                f"bench4|{scheme}": multi_core.run_multi_core(
                    self.mix, scheme, config, seed=seed, telemetry=None
                )
            }
        specs = self.specs
        if priming:
            # Every scheme once, in this process, on the first model (whose
            # trace is cheap to build): the timed passes' pool workers are
            # forked from this process and inherit what it warms, and no
            # pool spawn or ring build lands in set-up.
            specs, jobs = specs[:1], 1
        # No cache, snapshot or ledger directory: every cell simulates.
        runner = SuiteRunner(config, seed=seed, jobs=jobs, observers=observers)
        suite = runner.sweep(specs, list(shape.schemes), include_baseline=False)
        if suite.cache_hits:
            raise RuntimeError(f"a cold sweep was served {suite.cache_hits} cached cells")
        results = {f"{model}|{scheme}": run for (model, scheme), run in suite.runs.items()}
        results["__suite__"] = suite
        return results


def digest(result) -> str:
    """Content digest of one cell's full result (every stats key)."""
    text = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def digests(results: Dict[str, object]) -> Dict[str, str]:
    return {cell: digest(run) for cell, run in results.items() if not cell.startswith("__")}


def oracle(shape: Shape, seeds: List[int]) -> Dict[str, Dict[str, str]]:
    """Scalar-engine digests of every cell of a pass, per pass seed."""
    workload = Workload(shape)
    return {
        str(seed): digests(workload.run_pass(seed, engine=ORACLE_ENGINE, jobs=1))
        for seed in seeds
    }


def score(
    observed: Dict[int, Dict[str, str]],
    reference: Dict[str, Dict[str, str]],
    cells: List[str],
) -> Tuple[int, int, List[str]]:
    """Compare timed cells with the oracle: (attempted, ok, mismatches).

    Every cell the shape defines counts as attempted for every pass, so
    a lost or failed cell is not ok.
    """
    attempted = ok = 0
    bad: List[str] = []
    for seed, got in observed.items():
        want = reference.get(str(seed), {})
        for cell in cells:
            attempted += 1
            if cell in got and got[cell] == want.get(cell):
                ok += 1
            else:
                bad.append(f"seed {seed} {cell}")
    return attempted, ok, bad
