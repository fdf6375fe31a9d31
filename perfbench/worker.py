"""One fresh interpreter of the repo benchmark.

``run.py`` launches this file; it is not meant to be run by hand.

Modes:

* ``setup``  -- import ``repro``, build the workload, run one short
  untimed priming pass, print ``READY {...}`` and exit;
* ``timed``  -- set up as above, then run untraced passes, numbered
  from ``--first-pass``, for ``--seconds`` and print ``RESULT {...}``;
* ``traced`` -- set up, then alternate untraced and traced passes for
  ``--seconds`` (plus, for ``sweep-zoo``, one parallel sweep whose cells
  are timed inside the pool workers) and print ``RESULT {...}``; the
  spans go to ``--spans`` once, at exit;
* ``oracle`` -- print the scalar engine's digests for ``--seeds``.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


class PoolPeaks:
    """Peak RSS of the live pool workers of each sweep pass.

    A sweep observer: as each cell finishes, it reads every live pool
    worker's high-water mark (``VmHWM``) from ``/proc``.  The workers
    are gone once ``sweep`` returns, so this is read while they live.
    """

    def __init__(self) -> None:
        self._peaks: dict = {}
        self.per_pass: list = []

    def observer(self, record: dict) -> None:
        if record.get("phase") != "finished":
            return
        for child in multiprocessing.active_children():
            try:
                with open(f"/proc/{child.pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            self._peaks[child.pid] = int(line.split()[1]) / 1024.0
                            break
            except OSError:
                pass  # exited between listing and reading

    def end_pass(self) -> None:
        self.per_pass.append(sum(self._peaks.values()))
        self._peaks = {}


def probe_ops_per_s(n: int = 100_000) -> float:
    """A fixed pure-Python loop's speed: a witness of host speed only."""
    best = 0.0
    for _ in range(3):
        t0 = perf_counter()
        x = 0
        for i in range(n):
            x = (x * 31 + i) & 0xFFFF
        best = max(best, n / (perf_counter() - t0))
    return best


def _passes(seconds: float, first: int = 0):
    """Yield pass indices from ``first`` until ``seconds`` have gone by
    (at least two passes)."""
    deadline = perf_counter() + seconds
    index = first
    while index < first + 2 or perf_counter() < deadline:
        yield index
        index += 1


def run_timed(workload, seed: int, seconds: float, first: int) -> dict:
    """Untraced passes; reports this process's peak RSS and, for a
    sweep, each pass's pool workers' summed peaks."""
    from shapes import digests, pass_seed

    pool = PoolPeaks() if workload.shape.kind == "sweep" else None
    observers = [pool.observer] if pool else None
    walls, observed = [], {}
    for index in _passes(seconds, first):
        pseed = pass_seed(seed, index)
        t0 = perf_counter()
        results = workload.run_pass(pseed, observers=observers)
        walls.append(perf_counter() - t0)
        observed[pseed] = digests(results)
        if pool:
            pool.end_pass()
    return {
        "walls": walls,
        "observed": observed,
        "rss_mb": _rss_mb(resource.RUSAGE_SELF),
        "pool_rss_mb": pool.per_pass if pool else [],
    }


_CORE_KEY = re.compile(r"^core\d+\.(.+)$")


def _modelled(tracer, results: dict) -> dict:
    """Exact modelled counts of one pass, summed over its cells.

    Read after the pass from every sim it built (the stats tree at the
    end of the run) and, for instructions and cycles, from the results.
    """
    sums: dict = {}
    for sim in tracer.sims:
        for key, value in sim.hierarchy.snapshot().items():
            match = _CORE_KEY.match(key)
            name = match.group(1) if match else key
            sums[name] = sums.get(name, 0) + value
    instructions = cycles = 0
    for cell, run in results.items():
        if cell.startswith("__"):
            continue
        for core in getattr(run, "cores", None) or [run]:
            instructions += core.instructions
            cycles += core.cycles
    get = sums.get
    inferences = get("prefetcher.filter.inferences", 0)
    accepted = get("prefetcher.filter.accepted_l2", 0) + get("prefetcher.filter.accepted_llc", 0)
    issued = get("prefetcher.prefetch.issued", 0)
    row_total = get("dram.row_hits", 0) + get("dram.row_misses", 0)
    return {
        "core.accept_frac": accepted / inferences if inferences else 0.0,
        "core.reject_recoveries": get("prefetcher.ppf.reject_recoveries", 0),
        "memory.l2_demand_accesses": get("l2.demand_accesses", 0),
        "memory.l2_demand_misses": get("l2.demand_misses", 0),
        "memory.llc_demand_misses": get("llc.demand_misses", 0),
        "memory.dram_accesses": get("dram.accesses", 0),
        "memory.dram_row_hit_rate": get("dram.row_hits", 0) / row_total if row_total else 0.0,
        "prefetchers.candidates": get("prefetcher.prefetch.candidates", 0),
        "prefetchers.issued": issued,
        "prefetchers.useful": get("prefetcher.prefetch.useful", 0),
        "prefetchers.accuracy": get("prefetcher.prefetch.useful", 0) / issued if issued else 0.0,
        "cpu.instructions": instructions,
        "cpu.cycles": cycles,
        "cpu.ipc": instructions / cycles if cycles else 0.0,
        "cpu.rob_stalls": get("cpu.rob_stalls", 0),
        "cpu.mlp_stalls": get("cpu.mlp_stalls", 0),
    }


def _layer_metrics(tracer, wall: float, records: int, results: dict) -> dict:
    totals = tracer.layer_totals()
    claimed = sum(layer["self_s"] for layer in totals.values())
    metrics = {f"{name}.self_s": layer["self_s"] for name, layer in totals.items()}
    metrics.update(
        {
            "tracing.pass_s": wall,
            "other.self_s": wall - claimed,
            "workloads.records": records,
            "workloads.ns_per_record": 1e9 * totals["workloads"]["self_s"] / records,
            "engine.advance_calls": totals["engine"]["calls"],
            "engine.ns_per_record": 1e9 * totals["engine"]["self_s"] / records,
            "core.filter_calls": tracer.calls(
                "PerceptronFilter.infer", "PerceptronFilter.decide", "PerceptronFilter.train"
            ),
            "memory.access_calls": tracer.calls("MemoryHierarchy.access"),
            "prefetchers.train_calls": tracer.calls_where("prefetchers", "train"),
            "zoo.train_calls": tracer.calls_where("zoo", "train"),
            "sim.build_s": tracer.phase_s.get("__init__", 0.0),
            "sim.warmup_s": tracer.phase_s.get("warmup", 0.0),
            "sim.measure_s": tracer.phase_s.get("measure", 0.0),
            "sim.result_s": tracer.phase_s.get("result", 0.0),
        }
    )
    metrics.update(_modelled(tracer, results))
    return metrics


def _suite_metrics(workload, seed: int) -> dict:
    """One cold parallel sweep, its cells timed inside the pool workers."""
    from shapes import SWEEP_JOBS
    from spans import PoolCellClock

    clock = PoolCellClock()
    clock.install()
    try:
        t0 = perf_counter()
        results = workload.run_pass(seed, observers=[clock.observer])
        wall = perf_counter() - t0
    finally:
        clock.uninstall()
    suite = results["__suite__"]
    busy = wait = 0.0
    for key, run in suite.runs.items():
        stamp = getattr(run, PoolCellClock.ATTR, None)
        if stamp is None:
            raise RuntimeError("pool workers did not inherit the cell clock (not forked?)")
        start, end = stamp
        busy += end - start
        wait += max(0.0, start - clock.submitted[key])
    return {
        "results": results,
        "metrics": {
            "suite.cells": len(suite.runs) + len(suite.failure_report.unrecovered),
            "suite.busy_frac": busy / (SWEEP_JOBS * wall),
            "suite.queue_wait_s": wait,
            "suite.retries": suite.failure_report.retries,
            "suite.cache_hits": suite.cache_hits,
        },
    }


def run_traced(workload, seed: int, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes (ABAB); report the fastest
    traced pass's layer breakdown and the overhead against the fastest
    untraced pass.  Sweep passes run in-process (``jobs=1``) here so
    every cell is visible to the wrappers."""
    from shapes import digests, pass_seed
    from spans import Tracer

    tracer = Tracer()
    records = workload.shape.records()
    untraced, traced, observed = [], [], {}
    best = None
    for index in _passes(seconds):
        pseed = pass_seed(seed, index)
        if index % 2 == 0:
            t0 = perf_counter()
            results = workload.run_pass(pseed, jobs=1)
            untraced.append(perf_counter() - t0)
        else:
            tracer.install()
            try:
                tracer.begin_pass(f"pass {index}")
                results = workload.run_pass(pseed, jobs=1)
                wall = tracer.end_pass()
            finally:
                tracer.uninstall()
            traced.append(wall)
            if best is None or wall < best["tracing.pass_s"]:
                best = _layer_metrics(tracer, wall, records, results)
        observed[pseed] = digests(results)
    metrics = dict(best)
    metrics["tracing.overhead_frac"] = min(traced) / min(untraced) - 1.0
    metrics["run.passes"] = len(untraced)
    metrics["run.pass_spread"] = max(untraced) / min(untraced)
    suite_metrics = {"suite.cells": 0, "suite.busy_frac": 0.0, "suite.queue_wait_s": 0.0,
                     "suite.retries": 0, "suite.cache_hits": 0}
    if workload.shape.kind == "sweep":
        pseed = pass_seed(seed, index + 1)
        swept = _suite_metrics(workload, pseed)
        observed[pseed] = digests(swept["results"])
        suite_metrics = swept["metrics"]
    metrics.update(suite_metrics)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(
        json.dumps({"workload": workload.shape.name, "seed": seed,
                    "spans": tracer.spans, "cells": tracer.cells})
    )
    return {"walls": untraced, "observed": observed, "layers": metrics}


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "timed", "traced", "oracle"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--first-pass", type=int, default=0, help="index of the first timed pass")
    parser.add_argument("--seeds", default="", help="oracle mode: comma-separated pass seeds")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    from shapes import SHAPES, Workload, oracle, pass_seed  # imports repro

    shape = SHAPES[args.workload]
    if args.mode == "oracle":
        seeds = [int(s) for s in args.seeds.split(",") if s]
        print("RESULT " + json.dumps(oracle(shape, seeds)), flush=True)
        return 0

    t_import = perf_counter()
    workload = Workload(shape)
    t_build = perf_counter()
    workload.run_pass(pass_seed(args.seed, -1), priming=True)
    t_prime = perf_counter()
    ready = {
        "import_s": t_import - T_START,
        "build_s": t_build - t_import,
        "prime_s": t_prime - t_build,
        "rss_mb": _rss_mb(resource.RUSAGE_SELF),
    }
    print("READY " + json.dumps(ready), flush=True)
    if args.mode == "setup":
        return 0

    probes = [probe_ops_per_s()]
    if args.mode == "timed":
        result = run_timed(workload, args.seed, args.seconds, args.first_pass)
    else:
        result = run_traced(workload, args.seed, args.seconds, args.spans)
    probes.append(probe_ops_per_s())
    result["probe_ops_per_s"] = probes
    result["records"] = shape.records()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
