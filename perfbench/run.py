"""The repo benchmark: simulator throughput on the paper's sweep shapes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload single-ppf --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --describe          # workloads and every metric, with units

Each workload runs in fresh interpreters (``perfbench/worker.py``) with
a fixed ``PYTHONHASHSEED``:

* ``setup_s`` is the fastest of several fresh launches, from process
  start until the workload is built and primed;
* ``records_per_s`` is the fastest pass of the run's timed launches,
  which between them run passes for ``--seconds``
  (``perfbench/STEADINESS.md`` says why the fastest);
* ``peak_rss_mb`` is the largest peak resident memory of those
  launches, plus their pool workers';
* ``ok_frac`` is the share of timed cells whose full result digest
  equals the scalar engine's for the same inputs, read from
  ``perfbench/digests.json`` or computed untimed after each timed launch.

With ``--trace 1`` one launch alternates untraced and traced passes
instead and reports the per-layer metrics (see ``perfbench/spans.py``).
The last line of output is one JSON object; the exit code is non-zero
when any cell disagrees with the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"
SPANS_DIR = ROOT / ".perfbench"
#: The gated workloads, run length, metric names, units and directions.
BENCHMARK = ROOT / "BENCHMARK.json"

#: Timed launches per run, ``--seconds`` split evenly between them.
#: ``setup_s`` is the fastest of these and the set-up-only launches
#: around them.
TIMED_WINDOWS = 4
#: Parallel oracle processes (the host's two vCPUs).
ORACLE_PROCS = 2
#: Hard cap on any one child process.
CHILD_TIMEOUT_S = 150
DEFAULT_SEED = 1

#: name -> (why, layers it loads, layers it bypasses).  ``multi-ppf`` is
#: not in BENCHMARK.json and runs on request (see STEADINESS.md).
WORKLOADS = {
    "single-ppf": (
        "one core, ppf, batched engine, three SPEC 2017 models per pass: "
        "the path of every single-core figure",
        "engine (fused PPF kernel), core (filter training), workloads",
        "memory, prefetchers, zoo, cpu, suite (inlined or unused)",
    ),
    "multi-ppf": (
        "the 4-core bench4 mix under ppf: cycle-quantum scheduler, per-core fused "
        "runners, shared LLC/DRAM contention (Figs. 11-12)",
        "engine (quantum scheduler and fused runners)",
        "memory, prefetchers, zoo, core, cpu, suite (inlined or unused)",
    ),
    "sweep-zoo": (
        "a cold 2-worker SuiteRunner.sweep of six zoo schemes over three model "
        "families: the generic engine path, pool spawn and pickling; building "
        "the pointer-chase traces is about a third of a pass",
        "memory, prefetchers, zoo, core (filtered cells), workloads, suite",
        "the fused kernels",
    ),
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # Imports read cached bytecode, as an installed package's do; the
    # first launch in a checkout writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _launch(args: list) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _wait(proc: subprocess.Popen, what: str) -> str:
    """Wait for a worker to exit cleanly; returns its stdout."""
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what}: timed out after {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise BenchError(f"{what}: exit {proc.returncode}\n{err.strip()}")
    return out


def _result(out: str, what: str) -> dict:
    for line in reversed(out.splitlines()):
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise BenchError(f"{what}: printed no result")


def _launch_until_ready(args: list) -> tuple:
    """Start a worker; return it with its setup wall and phase times."""
    t0 = perf_counter()
    proc = _launch(args)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup_s = perf_counter() - t0
    watchdog.cancel()
    if not line.startswith("READY "):
        proc.kill()
        _out, err = proc.communicate()
        raise BenchError(f"worker failed during setup\n{err.strip()}")
    return proc, setup_s, json.loads(line[len("READY "):])


def _committed(workload: str) -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


def _oracle(workload: str, seeds: list, committed: dict) -> dict:
    """Reference digests per pass seed: committed ones, else computed
    now (untimed) with the scalar engine in parallel processes."""
    reference = {seed: committed[seed] for seed in seeds if seed in committed}
    missing = [seed for seed in seeds if seed not in reference]
    procs = [
        _launch(["--mode", "oracle", "--workload", workload, "--seeds", ",".join(chunk)])
        for chunk in (missing[part::ORACLE_PROCS] for part in range(ORACLE_PROCS))
        if chunk
    ]
    try:
        for proc in procs:
            reference.update(_result(_wait(proc, "oracle"), "oracle"))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return reference


def record_digests(passes: int) -> None:
    """Write the scalar engine's digests of the default seed's first
    ``passes`` passes of every workload (run after a change that is
    meant to move modelled results)."""
    from shapes import pass_seed

    seeds = [str(pass_seed(DEFAULT_SEED, index)) for index in range(passes)]
    table = {name: _oracle(name, seeds, {}) for name in WORKLOADS}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    """Every launch of one workload run; returns the result object with
    a value for each metric named in ``units`` (name -> unit)."""
    from shapes import SHAPES, score

    shape = SHAPES[workload]
    committed = _committed(workload)
    common = ["--workload", workload, "--seed", str(seed)]

    def setup_launch() -> tuple:
        proc, setup_s, phases = _launch_until_ready(["--mode", "setup", *common])
        _wait(proc, "setup")
        return setup_s, phases

    # Setup launches and timed windows alternate, and each window's
    # oracle check runs before the next window, so the samples of one
    # run are spread over all of its wall time.
    windows = 1 if trace else TIMED_WINDOWS
    launches, walls, observed, rss, pool_rss, probes = [], [], {}, [], [], []
    for _ in range(windows):
        launches.append(setup_launch())
        if trace:
            mode = ["--mode", "traced", "--seconds", str(seconds),
                    "--spans", str(SPANS_DIR / f"spans-{workload}-seed{seed}.json")]
        else:
            mode = ["--mode", "timed", "--seconds", str(seconds / windows),
                    "--first-pass", str(len(walls))]
        proc, setup_s, phases = _launch_until_ready([*mode, *common])
        launches.append((setup_s, phases))
        result = _result(_wait(proc, "timed launch"), "timed launch")
        walls += result["walls"]
        probes += result["probe_ops_per_s"]
        if not trace:
            rss.append(result["rss_mb"])
            pool_rss += result["pool_rss_mb"]
        window = result["observed"]
        observed.update(window)
        committed.update(_oracle(workload, sorted(window), committed))
    launches.append(setup_launch())

    attempted, ok, bad = score(observed, committed, shape.cells())
    for cell in bad:
        print(f"oracle mismatch: {workload} {cell}", file=sys.stderr)

    if trace:
        setup_s, phases = min(launches, key=lambda launch: launch[0])
        values = dict(result["layers"])
        values.update(
            {
                "setup.start_s": setup_s - phases["import_s"] - phases["build_s"] - phases["prime_s"],
                "setup.import_s": phases["import_s"],
                "setup.build_s": phases["build_s"],
                "setup.prime_s": phases["prime_s"],
                "setup.rss_mb": phases["rss_mb"],
                "host.probe_ops_per_s": max(probes),
            }
        )
    else:
        values = {
            "records_per_s": result["records"] / min(walls),
            "setup_s": min(launch[0] for launch in launches),
            "peak_rss_mb": max(rss) + (statistics.median(pool_rss) if pool_rss else 0.0),
            "ok_frac": ok / attempted,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"# {workload}: {len(walls)} passes, host probe {max(probes):.0f} ops/s", flush=True)
    return {"correct": ok == attempted, "attempted": attempted, "failed": attempted - ok,
            "metrics": metrics}


def _metrics(spec: dict, key: str) -> dict:
    """BENCHMARK.json's metric list ``key`` as name -> (unit, better)."""
    return {metric["name"]: (metric["unit"], metric["better"]) for metric in spec[key]}


def describe(spec: dict) -> None:
    gated = {workload["name"] for workload in spec["workloads"]}
    print("workloads (closed loop, one sweeping process; default seed "
          f"{DEFAULT_SEED}, {spec['run_seconds']}s per run):")
    for name, (why, loads, bypasses) in WORKLOADS.items():
        note = "" if name in gated else " [not in BENCHMARK.json]"
        print(f"  {name}{note}: {why}\n    loads: {loads}\n    bypasses: {bypasses}")
    for key, title in (("end_to_end", "end-to-end metrics (--trace 0)"),
                       ("per_layer", "per-layer metrics (--trace 1)")):
        print(f"{title}:")
        for name, (unit, better) in _metrics(spec, key).items():
            print(f"  {name} [{unit}] {better} is better")


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the workloads and every metric with its unit")
    parser.add_argument("--record-digests", type=int, metavar="PASSES",
                        help="rewrite perfbench/digests.json for the default seed's "
                             "first PASSES passes")
    args = parser.parse_args(argv)
    if args.describe:
        describe(spec)
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.record_digests:
        record_digests(args.record_digests)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = {name: unit for name, (unit, _) in
             _metrics(spec, "per_layer" if args.trace else "end_to_end").items()}
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), units)
            for name in names
        }
    except BenchError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 2
    for name, result in results.items():
        for metric, value in result["metrics"].items():
            print(f"{name:>10}  {metric:<26} {value['value']:>16.6g} {value['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
