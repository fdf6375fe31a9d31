"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``experiments``            — list the registered paper experiments
* ``run <id> [--records N] [--profile PATH]`` — regenerate one
  table/figure (optionally under cProfile, dumping pstats)
* ``bench``                  — run the performance microbenchmark suite
  and write the schema-versioned ``BENCH_sim.json`` report
* ``bench <workload> [--prefetcher P] [--records N]`` — one quick run
* ``sweep [--jobs N] [--cache-dir D] [--timeout S] [--retries N]
  [--ledger PATH] [--snapshot-dir D] [--checkpoint-every N]
  [--resume LEDGER] [--profile PATH] [--trace DIR] [--live|--quiet]
  [--trace-file F ...]``
  — parallel, cached, fault-tolerant suite sweep (exits non-zero when
  cells stay unrecovered after retry + fallback); ``--snapshot-dir``
  reuses warmup snapshots across cells and runs, ``--resume`` adopts
  completed cells from a crashed run's ledger, ``--trace`` records the
  cell schedule as telemetry artifacts, ``--live``/``--quiet`` force
  the TTY progress line on/off, ``--trace-file`` adds converted-on-the-
  fly file-backed workloads (their content digests fold into the
  result-cache fingerprint)
* ``trace convert FILE [FILE...] [--format NAME] [--cache-dir D]`` —
  canonicalize external trace files (DRAMSim2 k6/mase text,
  ChampSim-style binary; gzip/zstd transparent) into the
  content-digest trace cache; a repeated conversion of the same bytes
  is a cache hit
* ``trace record --workload W [--prefetcher P] [--probe-every N]
  --out DIR`` — run one traced simulation and export its telemetry
  artifacts (JSONL events, Chrome trace, time-series JSON/CSV)
* ``trace export LEDGER --out DIR`` — convert a sweep ledger's cell
  lifecycle events into a Perfetto-loadable Chrome trace
* ``trace summary PATH``     — per-series min/mean/max table of a
  recorded time-series artifact (a ``timeseries.json`` or its directory)
* ``checkpoint save PATH --workload W`` — warm one cell up and write
  its warmup-boundary snapshot
* ``checkpoint inspect PATH``— schema/kind/section summary of a snapshot
* ``checkpoint diff A B``    — leaf-level comparison of two snapshots
  (exit 1 when they differ)
* ``workloads``              — list the modelled benchmark suites
* ``registry list [--kind K]`` — every registered (kind, name) with its
  factory docstring one-liner (exit 2 on an unknown kind)

Component choices (prefetchers, workloads, suites) come from the
component registry, so a newly registered prefetcher is immediately
available to ``bench``/``sweep`` without touching this module — and
``--prefetcher``/``--prefetchers`` accept ``filtered:<inner>`` specs
composing the perceptron filter over any registered prefetcher.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys
from pathlib import Path

from . import registry
from .harness.experiments import EXPERIMENTS, run_experiment
from .registry import UnknownComponentError
from .harness.validate import report_scorecard, validate
from .sim.config import SimConfig
from .sim.single_core import run_single_core  # noqa: F401  (registers prefetchers)
from .sim.suite import CellPolicy, SuiteRunner
from .workloads import find_workload, suite, suites


def _cmd_experiments(_args: argparse.Namespace) -> int:
    for experiment in EXPERIMENTS.values():
        print(f"{experiment.id:10s} {experiment.paper_anchor:12s} {experiment.description}")
    return 0


def _profiled(profile_path: str | None, work):
    """Run ``work()``, optionally under cProfile dumping pstats.

    Returns whatever ``work`` returns.  The profile is written even when
    ``work`` raises, so hung-then-interrupted sweeps still leave data.
    """
    if not profile_path:
        return work()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        outcome = work()
    finally:
        profiler.disable()
        profiler.dump_stats(profile_path)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(15)
        print(f"profile written to {profile_path}", file=sys.stderr)
    return outcome


def _profiled_sweep(args: argparse.Namespace, runner, workloads):
    return _profiled(args.profile, lambda: runner.sweep(workloads, args.prefetchers))


def _make_session(args: argparse.Namespace):
    """A telemetry session when ``--trace`` was given, else ``None``."""
    if not getattr(args, "trace", None):
        return None
    from .telemetry import Telemetry

    return Telemetry(probe_every=getattr(args, "probe_every", None) or 1000)


def _export_session(session, out_dir: str) -> None:
    paths = session.export(out_dir)
    print(f"telemetry: {len(session.tracer.events())} event(s), "
          f"{len(session.series())} series -> {out_dir}")
    for name in sorted(paths):
        print(f"  {name}: {paths[name]}")


def _dir_inventory(target) -> tuple:
    """Snapshot an output directory before a subcommand writes into it.

    Paired with :func:`_discard_new_outputs`: a failed subcommand must
    leave the filesystem as it found it, so we record which entries (if
    any) predate the command.
    """
    path = Path(target)
    existed = path.is_dir()
    names = {child.name for child in path.iterdir()} if existed else set()
    return path, existed, names


def _discard_new_outputs(inventory: tuple) -> None:
    """Best-effort removal of outputs created since :func:`_dir_inventory`.

    Entries that predate the snapshot are never touched; a directory the
    failed command itself created is removed once emptied.  Cleanup is
    advisory — individual writes are already atomic, this just keeps a
    failed run from leaving a half-populated artifact directory behind.
    """
    import shutil

    path, existed, before = inventory
    if not path.is_dir():
        return
    for child in path.iterdir():
        if child.name in before:
            continue
        try:
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
            else:
                child.unlink()
        except OSError:
            pass
    if not existed:
        try:
            path.rmdir()
        except OSError:
            pass


def _apply_engine(config: SimConfig, engine: str | None) -> SimConfig:
    """Fold a ``--engine`` choice into the config, validated eagerly.

    Unknown names raise the registry's
    :class:`~repro.registry.UnknownComponentError` (with the catalog and
    did-you-mean suggestion) here in the CLI process, not later inside a
    sweep worker.  The engine name is part of ``config_fingerprint``
    automatically, since it is a :class:`SimConfig` field.
    """
    if engine is None:
        return config
    import dataclasses

    from .engine import make_engine  # noqa: F401  (registers engines)

    registry.create("engine", engine)
    return dataclasses.replace(config, engine=engine)


def _cmd_run(args: argparse.Namespace) -> int:
    config = SimConfig.quick(
        measure_records=args.records, warmup_records=args.records // 4
    )
    try:
        config = _apply_engine(config, args.engine)
    except UnknownComponentError as err:
        print(f"repro run: error: {err}", file=sys.stderr)
        return 2
    session = _make_session(args)

    def work() -> int:
        if session is None:
            print(run_experiment(args.id, config))
            return 0
        from .telemetry import activate

        with activate(session):
            print(run_experiment(args.id, config))
        _export_session(session, args.trace)
        return 0

    return _profiled(args.profile, work)


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.workload is None:
        return _cmd_bench_suite(args)
    try:
        workload = find_workload(args.workload)
        from .zoo.filtered import validate_prefetcher_spec

        validate_prefetcher_spec(args.prefetcher)
    except UnknownComponentError as err:
        print(f"repro bench: error: {err}", file=sys.stderr)
        return 2
    config = SimConfig.quick(
        measure_records=args.records, warmup_records=args.records // 4
    )
    try:
        config = _apply_engine(config, args.engine)
    except UnknownComponentError as err:
        print(f"repro bench: error: {err}", file=sys.stderr)
        return 2
    session = _make_session(args)
    baseline = run_single_core(workload, "none", config, telemetry=None)
    result = run_single_core(workload, args.prefetcher, config, telemetry=session)
    print(
        f"{workload.name} / {args.prefetcher}: "
        f"ipc={result.ipc:.3f} speedup={result.ipc / baseline.ipc:.3f} "
        f"accuracy={result.accuracy:.2f} l2mpki={result.l2_mpki:.2f}"
    )
    if session is not None:
        _export_session(session, args.trace)
    return 0


def _cmd_bench_suite(args: argparse.Namespace) -> int:
    from .bench import (
        build_report,
        format_report,
        load_baseline,
        run_benchmarks,
        write_report,
    )

    mode = "smoke" if args.smoke else "full"
    scale = 0.1 if args.smoke else 1.0
    repeats = args.repeat if args.repeat is not None else (1 if args.smoke else 3)
    try:
        # UnknownComponentError subclasses ValueError, so a bad --engine
        # lands here too, carrying the registry's did-you-mean message.
        results = run_benchmarks(
            names=args.only, scale=scale, repeats=repeats, engine=args.engine
        )
    except ValueError as err:
        print(f"repro bench: error: {err}", file=sys.stderr)
        return 2
    baseline = None if args.rebaseline else load_baseline(args.baseline)
    report = build_report(results, mode=mode, scale=scale, baseline=baseline)
    if args.rebaseline:
        from .bench.report import default_baseline_path

        path = write_report(report, default_baseline_path())
        print(f"baseline written to {path}")
    else:
        path = write_report(report, args.output)
        print(format_report(report))
        print(f"report written to {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = SimConfig.quick(
        measure_records=args.records, warmup_records=args.records // 4
    )
    try:
        config = _apply_engine(config, args.engine)
        # Eager spec validation (mirrors --engine): typos in
        # --prefetchers, including filtered:<inner> specs, fail here
        # with a did-you-mean instead of deep inside cell expansion.
        from .zoo.filtered import validate_prefetcher_spec

        for spec_name in args.prefetchers:
            validate_prefetcher_spec(spec_name)
        if args.workloads:
            workloads = [find_workload(name) for name in args.workloads]
        elif args.trace_files:
            workloads = []  # sweep exactly the given trace files
        else:
            workloads = [spec for spec in suite("spec2017") if spec.memory_intensive]
        if args.trace_files:
            import dataclasses

            from .traces import TraceCache, trace_workload

            cache = TraceCache(args.trace_cache)
            digests = []
            for source in args.trace_files:
                outcome = cache.convert(source)
                digests.append(outcome.digest)
                workloads.append(
                    trace_workload(
                        outcome.path,
                        name=f"trace:{Path(source).stem}@{outcome.digest[:12]}",
                    )
                )
            # trace_digests is a SimConfig field, so the content digests
            # fold into config_fingerprint and key the result cache:
            # editing a trace file invalidates its cached cells.
            config = dataclasses.replace(
                config, trace_digests=tuple(sorted(set(digests)))
            )
        runner = SuiteRunner(
            config,
            seed=args.seed,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            policy=CellPolicy(timeout=args.timeout, retries=args.retries),
            ledger_path=args.ledger,
            snapshot_dir=args.snapshot_dir,
            checkpoint_every=args.checkpoint_every,
        )
    except (UnknownComponentError, ValueError) as err:
        print(f"repro sweep: error: {err}", file=sys.stderr)
        return 2

    from .telemetry import LiveProgress

    schemes = list(args.prefetchers)
    if "none" not in schemes:
        schemes = ["none"] + schemes
    progress = LiveProgress(
        total=len(workloads) * len(schemes),
        enabled=True if args.live else (False if args.quiet else None),
    )
    runner.add_observer(progress)
    session = _make_session(args)
    if session is not None:
        from .telemetry.tracer import Event

        def _trace_lifecycle(record):
            if record.get("event") != "lifecycle":
                return
            args_out = {
                k: v
                for k, v in record.items()
                if k not in ("event", "phase", "t")
            }
            session.tracer.emit(
                Event(
                    f"{record['workload']}/{record['prefetcher']}:{record['phase']}",
                    "sweep",
                    "I",
                    record["t"],
                    args=args_out,
                )
            )

        runner.add_observer(_trace_lifecycle)

    if args.resume:
        adopted = runner.preload_from_ledger(args.resume)
        print(f"resume: adopted {adopted} completed cell(s) from {args.resume}")
    try:
        result = _profiled_sweep(args, runner, workloads)
    finally:
        progress.close()
    if session is not None:
        _export_session(session, args.trace)
    report = result.failure_report
    for scheme in args.prefetchers:
        print(f"{scheme}:")
        try:
            per_workload = result.speedups(scheme)
        except ValueError as err:
            print(f"  (unavailable: {err})")
            continue
        for workload, speedup in sorted(per_workload.items()):
            print(f"  {workload:20s} {speedup:6.3f}")
        if per_workload:
            print(f"  {'geomean':20s} {result.geomean_speedup(scheme):6.3f}")
    print(
        f"cells: simulated={runner.simulated} "
        f"memory_hits={runner.memory_hits} disk_hits={runner.disk_hits} "
        f"cached={result.cache_hits} executed={result.executed} "
        f"hit_rate={result.cache_hit_rate:.1%}"
    )
    if runner.snapshot_store is not None:
        print(
            f"snapshots: warmup_hits={runner._exec.snapshot_hits} "
            f"warmup_misses={runner._exec.snapshot_misses} "
            f"resumed={runner._exec.resumed}"
        )
    if report.failures:
        print(f"recovery: {report.summary()}")
    if not report.complete:
        for failure in report.unrecovered:
            print(
                f"repro sweep: unrecovered cell ({failure.workload}, "
                f"{failure.prefetcher}) after {failure.attempts} attempt(s): "
                f"{failure.error}",
                file=sys.stderr,
            )
        return 3
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    """``registry list [--kind K]``: the full component catalog.

    Importing the component-defining packages here is what fills the
    registry — the registry itself is populated purely by import side
    effects, so discovery must pull every package in first.
    """
    from . import prefetchers, traces  # noqa: F401
    from .core import features  # noqa: F401
    from .engine import make_engine  # noqa: F401
    from .memory import replacement  # noqa: F401
    from .telemetry import probes  # noqa: F401

    kinds = registry.kinds()
    if args.kind is not None:
        if args.kind not in kinds:
            known = ", ".join(kinds)
            print(
                f"repro registry: error: unknown component kind {args.kind!r}; "
                f"known kinds: {known}",
                file=sys.stderr,
            )
            return 2
        kinds = [args.kind]
    for kind in kinds:
        for name in registry.names(kind):
            factory = registry.get(kind, name)
            doc = (factory.__doc__ or "").strip().splitlines()
            one_liner = doc[0] if doc else ""
            print(f"{kind:14s} {name:24s} {one_liner}")
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from .checkpoint import SnapshotError, load_snapshot, save_snapshot
    from .checkpoint.inspect import diff_snapshots, summarize

    if args.action == "save":
        from .sim.single_core import SingleCoreSim

        config = SimConfig.quick(
            measure_records=args.records, warmup_records=args.records // 4
        )
        try:
            workload = find_workload(args.workload)
            from .zoo.filtered import validate_prefetcher_spec

            validate_prefetcher_spec(args.prefetcher)
        except UnknownComponentError as err:
            print(f"repro checkpoint: error: {err}", file=sys.stderr)
            return 2
        sim = SingleCoreSim(workload, args.prefetcher, config, seed=args.seed)
        inventory = _dir_inventory(Path(args.path).parent)
        try:
            sim.warmup()
            save_snapshot(Path(args.path), sim.snapshot("warmup"))
        except (OSError, SnapshotError, ValueError) as err:
            # The snapshot write is atomic, so a failure leaves no file;
            # drop any directory this command created on the way in.
            _discard_new_outputs(inventory)
            print(f"repro checkpoint: error: {err}", file=sys.stderr)
            return 2
        print(
            f"warmup snapshot ({workload.name} / {args.prefetcher}, "
            f"{sim.consumed} records) written to {args.path}"
        )
        return 0

    try:
        first = load_snapshot(Path(args.path))
    except (OSError, SnapshotError) as err:
        print(f"repro checkpoint: error: {args.path}: {err}", file=sys.stderr)
        return 2
    if args.action == "inspect":
        print(json.dumps(summarize(first), indent=2))
        return 0
    try:
        other = load_snapshot(Path(args.other))
    except (OSError, SnapshotError) as err:
        print(f"repro checkpoint: error: {args.other}: {err}", file=sys.stderr)
        return 2
    outcome = diff_snapshots(first, other, limit=args.limit)
    print(json.dumps(outcome, indent=2))
    return 0 if outcome["equal"] else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry import Telemetry, TelemetrySchemaError, validate_timeseries
    from .telemetry import export as tele_export
    from .telemetry.tracer import Event

    if args.action == "convert":
        from .traces import TraceCache, TraceFormatError

        inventory = _dir_inventory(args.cache_dir)
        cache = TraceCache(args.cache_dir)
        fmt = None if args.format == "auto" else args.format
        converted = 0
        try:
            for source in args.files:
                outcome = cache.convert(source, fmt=fmt)
                status = "cache hit" if outcome.cache_hit else "converted"
                print(
                    f"{outcome.source} -> {outcome.path} "
                    f"[{outcome.format}, {outcome.records} record(s), "
                    f"digest {outcome.digest[:12]}, {status}]"
                )
                converted += 1
        except (TraceFormatError, OSError) as err:
            # The failed conversion published nothing (atomic rename);
            # completed conversions are whole cache entries and stay.
            # Only a cache directory we created and never filled goes.
            if not converted:
                _discard_new_outputs(inventory)
            print(f"repro trace: error: {err}", file=sys.stderr)
            return 2
        return 0

    if args.action == "record":
        try:
            workload = find_workload(args.workload)
            from .zoo.filtered import validate_prefetcher_spec

            validate_prefetcher_spec(args.prefetcher)
        except UnknownComponentError as err:
            print(f"repro trace: error: {err}", file=sys.stderr)
            return 2
        config = SimConfig.quick(
            measure_records=args.records, warmup_records=args.records // 4
        )
        session = Telemetry(probe_every=args.probe_every)
        inventory = _dir_inventory(args.out)
        try:
            result = run_single_core(
                workload, args.prefetcher, config, seed=args.seed, telemetry=session
            )
            print(
                f"{workload.name} / {args.prefetcher}: ipc={result.ipc:.3f} "
                f"({len(session.tracer.events())} events, "
                f"{len(session.series())} series)"
            )
            _export_session(session, args.out)
        except (OSError, ValueError) as err:
            _discard_new_outputs(inventory)
            print(f"repro trace: error: {err}", file=sys.stderr)
            return 2
        return 0

    if args.action == "export":
        ledger_path = Path(args.ledger)
        if not ledger_path.exists():
            print(f"repro trace: error: no ledger at {ledger_path}", file=sys.stderr)
            return 2
        events = []
        open_cells: dict = {}
        for line in ledger_path.read_text().splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if entry.get("event") != "lifecycle":
                continue
            cell = f"{entry.get('workload')}/{entry.get('prefetcher')}"
            phase = entry.get("phase")
            t = entry.get("t", 0.0)
            if phase == "started":
                open_cells[cell] = t
            elif phase == "finished" and cell in open_cells:
                start = open_cells.pop(cell)
                events.append(
                    Event(cell, "sweep", "X", start, dur=max(0.0, t - start),
                          args={"ok": entry.get("ok", True)})
                )
                continue
            events.append(Event(f"{cell}:{phase}", "sweep", "I", t))
        events.sort(key=lambda e: e.ts)
        inventory = _dir_inventory(args.out)
        try:
            os.makedirs(args.out, exist_ok=True)
            path = tele_export.write_chrome_trace(
                events, str(Path(args.out) / "TRACE_sweep.json"),
                {"source": str(ledger_path)},
            )
        except OSError as err:
            _discard_new_outputs(inventory)
            print(f"repro trace: error: {err}", file=sys.stderr)
            return 2
        print(f"{len(events)} lifecycle event(s) -> {path}")
        return 0

    # summary
    from .harness.report import render_table

    target = Path(args.path)
    if target.is_dir():
        target = target / "timeseries.json"
    try:
        document = json.loads(target.read_text())
    except (OSError, ValueError) as err:
        print(f"repro trace: error: {target}: {err}", file=sys.stderr)
        return 2
    try:
        count = validate_timeseries(document)
    except TelemetrySchemaError as err:
        print(f"repro trace: error: {target}: {err}", file=sys.stderr)
        return 2
    rows = tele_export.summary_rows(document)
    print(
        render_table(
            ["series", "unit", "samples", "min", "mean", "max", "last"],
            rows,
            title=f"{count} series ({target})",
        )
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = SimConfig.quick(
        measure_records=args.records, warmup_records=args.records // 4
    )
    scorecard = validate(config, include_sweeps=not args.fast)
    print(report_scorecard(scorecard))
    return 0 if scorecard.all_passed else 1


#: Display titles for the listing; unlisted suites show their registry name.
_SUITE_TITLES = {
    "spec2017": "SPEC CPU 2017",
    "spec2006": "SPEC CPU 2006",
    "cloudsuite": "CloudSuite",
}


def _cmd_workloads(_args: argparse.Namespace) -> int:
    for suite_name in suites():
        if suite_name.endswith("-intensive"):
            continue  # views over their parent suites
        workloads = suite(suite_name)
        title = _SUITE_TITLES.get(suite_name, suite_name)
        print(f"{title} ({len(workloads)}):")
        for workload in workloads:
            marker = "*" if workload.memory_intensive else " "
            print(f"  {marker} {workload.name:20s} {workload.description}")
    print("\n(* = memory intensive, LLC MPKI > 1)")
    return 0


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list paper experiments")

    run_parser = sub.add_parser("run", help="regenerate one table/figure")
    run_parser.add_argument("id", choices=sorted(EXPERIMENTS))
    run_parser.add_argument("--records", type=int, default=20_000)
    run_parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="run under cProfile and dump pstats to PATH",
    )
    run_parser.add_argument(
        "--engine",
        default=None,
        metavar="NAME",
        help="simulation engine (scalar, batched, ...; registry-validated)",
    )
    run_parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="record telemetry for directly-driven runs and export to DIR",
    )
    run_parser.add_argument(
        "--probe-every",
        type=int,
        default=1000,
        metavar="N",
        help="probe sampling cadence in trace records (with --trace)",
    )

    bench_parser = sub.add_parser(
        "bench",
        help="performance microbenchmarks (or one quick workload run)",
    )
    bench_parser.add_argument(
        "workload",
        nargs="?",
        default=None,
        help="workload name for a quick simulation run; omit to run the "
        "microbenchmark suite and write BENCH_sim.json",
    )
    bench_parser.add_argument(
        "--prefetcher",
        default="ppf",
        metavar="SPEC",
        help="prefetcher name or filtered:<inner> spec (registry-validated)",
    )
    bench_parser.add_argument("--records", type=int, default=20_000)
    bench_parser.add_argument(
        "--smoke", action="store_true", help="reduced op counts (CI smoke job)"
    )
    bench_parser.add_argument(
        "--engine",
        default=None,
        metavar="NAME",
        help="simulation engine for the quick run / unpinned end-to-end "
        "benchmarks (scalar, batched, ...; registry-validated)",
    )
    bench_parser.add_argument(
        "--repeat", type=int, default=None, help="repeats per benchmark (best kept)"
    )
    bench_parser.add_argument(
        "--only", nargs="+", metavar="NAME", default=None, help="benchmark subset"
    )
    bench_parser.add_argument(
        "--output", default=None, metavar="PATH", help="report path (default BENCH_sim.json)"
    )
    bench_parser.add_argument(
        "--baseline", default=None, metavar="PATH", help="baseline report to compare against"
    )
    bench_parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="record this run as benchmarks/baseline_pre_pr.json instead",
    )
    bench_parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="with a workload: record telemetry and export artifacts to DIR",
    )
    bench_parser.add_argument(
        "--probe-every",
        type=int,
        default=1000,
        metavar="N",
        help="probe sampling cadence in trace records (with --trace)",
    )

    sweep_parser = sub.add_parser(
        "sweep", help="parallel, cached (workload × prefetcher) sweep"
    )
    sweep_parser.add_argument(
        "--workloads",
        nargs="+",
        metavar="NAME",
        help="workload names (default: memory-intensive SPEC 2017 subset)",
    )
    sweep_parser.add_argument(
        "--prefetchers",
        nargs="+",
        default=["spp", "ppf"],
        metavar="SPEC",
        help="prefetcher names and/or filtered:<inner> specs "
        "(registry-validated eagerly, with did-you-mean)",
    )
    sweep_parser.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default: all cores)"
    )
    sweep_parser.add_argument(
        "--cache-dir", default=None, help="persistent result cache directory"
    )
    sweep_parser.add_argument("--records", type=int, default=20_000)
    sweep_parser.add_argument("--seed", type=int, default=1)
    sweep_parser.add_argument(
        "--engine",
        default=None,
        metavar="NAME",
        help="simulation engine for every cell (folds into the result-"
        "cache fingerprint; scalar, batched, ...)",
    )
    sweep_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-cell timeout in seconds (default: unbounded)",
    )
    sweep_parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="pool re-executions per failed/hung cell before serial fallback",
    )
    sweep_parser.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="append a JSONL run ledger (per-cell status/attempts/provenance)",
    )
    sweep_parser.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help="warmup snapshot store (reused across cells and runs)",
    )
    sweep_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="with --snapshot-dir: periodic mid-measure checkpoint every "
        "N records (crash-resume granularity)",
    )
    sweep_parser.add_argument(
        "--resume",
        default=None,
        metavar="LEDGER",
        help="adopt completed cells recorded in a prior run's ledger",
    )
    sweep_parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="profile the sweep (parent process) and dump pstats to PATH",
    )
    sweep_parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="record the cell schedule as telemetry artifacts in DIR",
    )
    sweep_parser.add_argument(
        "--probe-every",
        type=int,
        default=1000,
        metavar="N",
        help="probe cadence for any directly-driven runs (with --trace)",
    )
    sweep_parser.add_argument(
        "--trace-file",
        dest="trace_files",
        action="append",
        metavar="PATH",
        default=None,
        help="external trace file (k6/mase text or ChampSim-style binary, "
        ".gz ok) to convert through the digest cache and sweep as a "
        "file-backed workload; repeatable",
    )
    sweep_parser.add_argument(
        "--trace-cache",
        default="trace-cache",
        metavar="DIR",
        help="canonical trace cache directory (with --trace-file)",
    )
    live_group = sweep_parser.add_mutually_exclusive_group()
    live_group.add_argument(
        "--live",
        action="store_true",
        help="force the one-line stderr progress renderer on",
    )
    live_group.add_argument(
        "--quiet",
        action="store_true",
        help="force the progress renderer off (default: on only for a TTY)",
    )

    checkpoint_parser = sub.add_parser(
        "checkpoint", help="save / inspect / diff simulation snapshots"
    )
    checkpoint_sub = checkpoint_parser.add_subparsers(dest="action", required=True)
    save_parser = checkpoint_sub.add_parser(
        "save", help="warm one cell up and write its warmup snapshot"
    )
    save_parser.add_argument("path", help="snapshot file to write")
    save_parser.add_argument("--workload", required=True)
    save_parser.add_argument(
        "--prefetcher",
        default="ppf",
        metavar="SPEC",
        help="prefetcher name or filtered:<inner> spec (registry-validated)",
    )
    save_parser.add_argument("--records", type=int, default=20_000)
    save_parser.add_argument("--seed", type=int, default=1)
    inspect_parser = checkpoint_sub.add_parser(
        "inspect", help="summarize one snapshot (schema, kind, sections)"
    )
    inspect_parser.add_argument("path")
    diff_parser = checkpoint_sub.add_parser(
        "diff", help="compare two snapshots leaf by leaf (exit 1 if different)"
    )
    diff_parser.add_argument("path")
    diff_parser.add_argument("other")
    diff_parser.add_argument(
        "--limit", type=int, default=40, help="max differing leaves to report"
    )

    trace_parser = sub.add_parser(
        "trace", help="record / export / summarize telemetry artifacts"
    )
    trace_sub = trace_parser.add_subparsers(dest="action", required=True)
    convert_parser = trace_sub.add_parser(
        "convert", help="canonicalize external trace files into the digest cache"
    )
    convert_parser.add_argument(
        "files",
        nargs="+",
        metavar="FILE",
        help="trace files (DRAMSim2 k6/mase text or ChampSim-style binary; "
        "gzip/zstd-compressed accepted)",
    )
    convert_parser.add_argument(
        "--format",
        default="auto",
        choices=["auto"] + registry.names("trace_format"),
        help="input format (default: sniff magic bytes, extension, content)",
    )
    convert_parser.add_argument(
        "--cache-dir",
        default="trace-cache",
        metavar="DIR",
        help="canonical trace cache directory (default: trace-cache)",
    )
    record_parser = trace_sub.add_parser(
        "record", help="run one traced simulation and export its artifacts"
    )
    record_parser.add_argument("--workload", required=True)
    record_parser.add_argument(
        "--prefetcher",
        default="ppf",
        metavar="SPEC",
        help="prefetcher name or filtered:<inner> spec (registry-validated)",
    )
    record_parser.add_argument("--records", type=int, default=20_000)
    record_parser.add_argument("--seed", type=int, default=1)
    record_parser.add_argument(
        "--probe-every", type=int, default=1000, metavar="N",
        help="probe sampling cadence in trace records",
    )
    record_parser.add_argument(
        "--out", default="trace-out", metavar="DIR", help="artifact directory"
    )
    export_parser = trace_sub.add_parser(
        "export", help="Chrome trace from a sweep ledger's lifecycle events"
    )
    export_parser.add_argument("ledger", help="JSONL run ledger (sweep --ledger)")
    export_parser.add_argument(
        "--out", default="trace-out", metavar="DIR", help="artifact directory"
    )
    summary_parser = trace_sub.add_parser(
        "summary", help="per-series table of a recorded time-series artifact"
    )
    summary_parser.add_argument(
        "path", help="timeseries.json (or the directory holding one)"
    )

    sub.add_parser("workloads", help="list modelled workloads")

    registry_parser = sub.add_parser(
        "registry", help="inspect the component registry"
    )
    registry_sub = registry_parser.add_subparsers(dest="action", required=True)
    list_parser = registry_sub.add_parser(
        "list", help="every registered (kind, name) with its docstring one-liner"
    )
    list_parser.add_argument(
        "--kind",
        default=None,
        metavar="KIND",
        help="restrict to one component kind (prefetcher, engine, probe, ...)",
    )

    validate_parser = sub.add_parser("validate", help="run the reproduction scorecard")
    validate_parser.add_argument("--records", type=int, default=15_000)
    validate_parser.add_argument(
        "--fast", action="store_true", help="structural claims only (no sweeps)"
    )

    args = parser.parse_args(argv)
    handlers = {
        "experiments": _cmd_experiments,
        "run": _cmd_run,
        "bench": _cmd_bench,
        "sweep": _cmd_sweep,
        "trace": _cmd_trace,
        "checkpoint": _cmd_checkpoint,
        "registry": _cmd_registry,
        "workloads": _cmd_workloads,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly with the
        # conventional SIGPIPE status instead of a traceback.  Point
        # stdout at devnull so the interpreter's exit-time flush of the
        # dead pipe cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
