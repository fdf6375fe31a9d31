"""Unit tests for the repro.telemetry subsystem.

Covers the tracer ring buffer, probes and probe discovery, session
resolution semantics (``_UNSET`` vs explicit ``None``), exporters and
schema validators, the live progress renderer, sweep lifecycle events,
and the harness phase-plot figure built on top of the time-series.
"""

import io
import json

import pytest

from repro.sim.config import SimConfig
from repro.sim.single_core import SingleCoreSim, run_single_core
from repro.sim.suite import SuiteRunner
from repro.telemetry import (
    _UNSET,
    CallableProbe,
    Event,
    LiveProgress,
    ProbeSet,
    Telemetry,
    TelemetrySchemaError,
    TimeSeries,
    Tracer,
    activate,
    current_session,
    resolve,
    validate_chrome_trace,
    validate_timeseries,
)
from repro.telemetry.export import (
    chrome_trace_document,
    export_session,
    read_events_jsonl,
    summary_rows,
    timeseries_document,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.workloads import find_workload

TINY = SimConfig.quick(measure_records=1_500, warmup_records=300)


class TestTracer:
    def test_events_in_emission_order(self):
        tracer = Tracer(capacity=8)
        tracer.instant("a", 1.0)
        tracer.counter("b", 2.0, {"x": 1})
        tracer.complete("c", 3.0, dur=4.0)
        names = [event.name for event in tracer.events()]
        assert names == ["a", "b", "c"]
        phases = [event.ph for event in tracer.events()]
        assert phases == ["I", "C", "X"]

    def test_ring_wraps_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.instant(f"e{i}", float(i))
        assert len(tracer) == 4
        assert tracer.dropped == 6
        # The survivors are the most recent four, oldest first.
        assert [event.name for event in tracer.events()] == ["e6", "e7", "e8", "e9"]

    def test_clear_resets_everything(self):
        tracer = Tracer(capacity=2)
        tracer.instant("a", 1.0)
        tracer.instant("b", 2.0)
        tracer.instant("c", 3.0)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0
        assert tracer.events() == []

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_event_to_dict_omits_absent_fields(self):
        bare = Event("a", "sim", "I", 1.0).to_dict()
        assert set(bare) == {"name", "cat", "ph", "ts"}
        full = Event("b", "sim", "X", 1.0, dur=2.0, args={"k": 1}).to_dict()
        assert full["dur"] == 2.0 and full["args"] == {"k": 1}


class TestTimeSeries:
    def test_append_and_summary(self):
        ts = TimeSeries("m", unit="u")
        for t, v in ((1.0, 2.0), (2.0, 6.0), (3.0, 4.0)):
            ts.append(t, v)
        summary = ts.summary()
        assert summary == {"count": 3, "min": 2.0, "max": 6.0, "mean": 4.0, "last": 4.0}
        assert ts.to_dict() == {"unit": "u", "t": [1.0, 2.0, 3.0], "v": [2.0, 6.0, 4.0]}

    def test_empty_summary_is_zeroes(self):
        assert TimeSeries("m").summary()["count"] == 0


class TestProbes:
    def test_probe_set_samples_callable_probe(self):
        readings = iter([{"x": 1.0, "y": 2.0}, {"x": 3.0, "y": 4.0}])
        probe_set = ProbeSet([CallableProbe("p", lambda: next(readings))])
        probe_set.sample(10.0)
        probe_set.sample(20.0)
        assert probe_set.samples == 2
        assert probe_set.series["p.x"].v == [1.0, 3.0]
        assert probe_set.series["p.y"].t == [10.0, 20.0]

    def test_sample_mirrors_counter_events_onto_tracer(self):
        tracer = Tracer(capacity=8)
        probe_set = ProbeSet([CallableProbe("p", lambda: {"x": 1.0})])
        probe_set.sample(5.0, tracer)
        (event,) = tracer.events()
        assert event.ph == "C" and event.name == "p" and event.args == {"x": 1.0}

    def test_discovery_covers_all_five_families_on_ppf(self):
        sim = SingleCoreSim(find_workload("605.mcf_s"), "ppf", TINY, seed=1)
        probe_set = ProbeSet.discover(sim)
        assert {probe.name for probe in probe_set.probes} == {
            "cache",
            "core",
            "dram",
            "ppf",
            "spp",
            "filter.spp",  # the zoo's seam probe labels ppf's inner SPP
        }

    def test_inapplicable_probes_skipped_on_no_prefetch(self):
        sim = SingleCoreSim(find_workload("605.mcf_s"), "none", TINY, seed=1)
        names = {probe.name for probe in ProbeSet.discover(sim).probes}
        assert "spp" not in names and "ppf" not in names
        assert {"cache", "core", "dram"} <= names

    def test_stats_adapter_reports_bookkeeping_only(self):
        probe_set = ProbeSet([CallableProbe("p", lambda: {"x": 1.0})])
        adapter = probe_set.stats_adapter()
        probe_set.sample(1.0)
        assert adapter.snapshot() == {"probe_samples": 1, "series": 1}
        adapter.reset()  # must NOT erase recorded series
        assert probe_set.series["p.x"].v == [1.0]


class TestSession:
    def test_resolve_semantics(self):
        session = Telemetry()
        assert resolve(None) is None
        assert resolve(session) is session
        assert resolve(_UNSET) is None  # no active session installed
        assert resolve(Telemetry(enabled=False)) is None

    def test_activate_installs_and_restores(self):
        outer, inner = Telemetry(), Telemetry()
        assert current_session() is None
        with activate(outer):
            assert resolve(_UNSET) is outer
            with activate(inner):
                assert resolve(_UNSET) is inner
            assert resolve(_UNSET) is outer
        assert current_session() is None

    def test_attach_deduplicates_labels(self):
        session = Telemetry()
        sim = SingleCoreSim(find_workload("605.mcf_s"), "none", TINY, seed=1)
        session.attach("cell", sim)
        session.attach("cell", sim)
        assert set(session.probe_sets) == {"cell", "cell-2"}

    def test_series_scoped_by_label_when_multiple_sets(self):
        session = Telemetry()
        for label in ("a", "b"):
            probe_set = ProbeSet([CallableProbe("p", lambda: {"x": 1.0})])
            session.probe_sets[label] = probe_set
            probe_set.sample(1.0)
        assert set(session.series()) == {"a/p.x", "b/p.x"}

    def test_rejects_nonpositive_cadence(self):
        with pytest.raises(ValueError):
            Telemetry(probe_every=0)


class TestExporters:
    def _session(self):
        session = Telemetry(probe_every=500)
        config = SimConfig.quick(measure_records=1_500, warmup_records=300)
        run_single_core(
            find_workload("605.mcf_s"), "ppf", config, seed=1, telemetry=session
        )
        return session

    def test_export_session_writes_valid_artifacts(self, tmp_path):
        session = self._session()
        paths = export_session(session, str(tmp_path))
        assert set(paths) == {"events", "chrome_trace", "timeseries_json", "timeseries_csv"}

        chrome = json.loads((tmp_path / "TRACE_sim.json").read_text())
        assert validate_chrome_trace(chrome) > 0
        timeseries = json.loads((tmp_path / "timeseries.json").read_text())
        assert validate_timeseries(timeseries) >= 5

        log = read_events_jsonl(str(tmp_path / "events.jsonl"))
        assert log["header"]["kind"] == "events"
        assert len(log["events"]) == len(session.tracer.events())

        csv_lines = (tmp_path / "timeseries.csv").read_text().splitlines()
        assert csv_lines[0] == "series,unit,t,v"
        assert len(csv_lines) > 1

    def test_export_is_deterministic(self, tmp_path):
        first = self._session()
        second = self._session()
        export_session(first, str(tmp_path / "a"))
        export_session(second, str(tmp_path / "b"))
        for artifact in ("events.jsonl", "TRACE_sim.json", "timeseries.json"):
            assert (tmp_path / "a" / artifact).read_bytes() == (
                tmp_path / "b" / artifact
            ).read_bytes(), artifact

    def test_chrome_trace_groups_categories_onto_tids(self):
        tracer = Tracer()
        tracer.instant("a", 1.0, cat="sim")
        tracer.counter("b", 2.0, {"x": 1})
        document = chrome_trace_document(tracer.events())
        tids = {event["cat"]: event["tid"] for event in document["traceEvents"]
                if event["ph"] != "M"}
        assert tids["sim"] != tids["probe"]

    def test_summary_rows_shape(self):
        ts = TimeSeries("m", unit="u")
        ts.append(1.0, 2.0)
        rows = summary_rows(timeseries_document({"m": ts}))
        assert rows == [["m", "u", "1", "2", "2", "2", "2"]]


class TestSchemaValidation:
    def test_rejects_unknown_phase(self):
        with pytest.raises(TelemetrySchemaError):
            validate_chrome_trace(
                {
                    "schema": "repro.telemetry/v1",
                    "otherData": {
                        "schema": "repro.telemetry/v1",
                        "schema_version": 1,
                        "kind": "chrome-trace",
                    },
                    "traceEvents": [
                        {"name": "a", "cat": "sim", "ph": "Z", "ts": 1, "pid": 1, "tid": 1}
                    ],
                }
            )

    def test_rejects_missing_pid_tid(self, tmp_path):
        tracer = Tracer()
        tracer.instant("a", 1.0)
        document = chrome_trace_document(tracer.events())
        del document["traceEvents"][-1]["pid"]
        with pytest.raises(TelemetrySchemaError, match="pid"):
            validate_chrome_trace(document)

    def test_rejects_mismatched_series_lengths(self):
        document = timeseries_document({})
        document["series"] = {"m": {"unit": "", "t": [1.0], "v": []}}
        with pytest.raises(TelemetrySchemaError, match="timestamps"):
            validate_timeseries(document)

    def test_written_chrome_trace_revalidates(self, tmp_path):
        tracer = Tracer()
        tracer.complete("slice", 1.0, dur=2.0)
        path = tmp_path / "t.json"
        write_chrome_trace(tracer.events(), str(path))
        document = json.loads(path.read_text())
        # Metadata (M) naming events count too; exactly one payload slice.
        assert validate_chrome_trace(document) >= 1
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 1 and slices[0]["dur"] == 2.0


class TestLiveProgress:
    def _lifecycle(self, phase, **extra):
        return {"event": "lifecycle", "phase": phase, "workload": "w",
                "prefetcher": "p", "t": 0.0, **extra}

    def test_disabled_renderer_writes_nothing(self):
        stream = io.StringIO()
        progress = LiveProgress(total=2, stream=stream, enabled=False)
        for phase in ("queued", "started", "finished"):
            progress(self._lifecycle(phase))
        progress.close()
        assert stream.getvalue() == ""

    def test_non_tty_stream_autodisables(self):
        progress = LiveProgress(stream=io.StringIO())
        assert progress.enabled is False

    def test_counts_and_final_line(self):
        stream = io.StringIO()
        progress = LiveProgress(total=2, stream=stream, enabled=True, min_interval=0.0)
        progress(self._lifecycle("cached", source="memory"))
        progress(self._lifecycle("started"))
        progress(self._lifecycle("retried"))
        progress(self._lifecycle("finished", ok=False))
        progress.close()
        assert progress.done == 2
        assert progress.counts["failed"] == 1
        out = stream.getvalue()
        assert "sweep 2/2" in out
        assert "cached 1" in out and "retried 1" in out and "failed 1" in out
        assert out.endswith("\n")

    def test_ignores_non_lifecycle_records(self):
        progress = LiveProgress(stream=io.StringIO(), enabled=True)
        progress({"event": "cell", "workload": "w"})
        assert progress.done == 0 and progress.running == 0


class TestSweepLifecycle:
    @pytest.mark.parametrize(
        "jobs, schemes",
        [
            pytest.param(1, ["spp"], id="serial"),
            # Two cells on two jobs take the process pool: the records of
            # cells simulated in workers must still reach the ledger and
            # the observers of the sweeping process.
            pytest.param(2, ["spp", "ppf"], id="pool"),
        ],
    )
    def test_lifecycle_events_reach_ledger_and_observers(self, tmp_path, jobs, schemes):
        ledger = tmp_path / "ledger.jsonl"
        seen = []
        runner = SuiteRunner(TINY, seed=1, jobs=jobs, ledger_path=ledger,
                             observers=[seen.append])
        workloads = [find_workload("605.mcf_s")]
        suite = runner.sweep(workloads, schemes, include_baseline=False)
        assert len(suite.runs) == len(schemes)

        for scheme in schemes:
            phases = [r["phase"] for r in seen if r["prefetcher"] == scheme]
            assert phases.count("queued") == 1
            assert phases.count("started") == 1
            assert phases.count("finished") == 1
        assert all(record["event"] == "lifecycle" for record in seen)
        assert all(isinstance(record["t"], float) for record in seen)
        # In-process cells mark their start ``serial``; pool cells do not.
        started = [r for r in seen if r["phase"] == "started"]
        assert all(r.get("serial", False) == (jobs == 1) for r in started)

        lines = [json.loads(line) for line in ledger.read_text().splitlines()]
        ledger_phases = [
            (r["phase"], r["prefetcher"]) for r in lines if r.get("event") == "lifecycle"
        ]
        assert ledger_phases == [(r["phase"], r["prefetcher"]) for r in seen]

    def test_cached_cells_emit_cached_not_started(self, tmp_path):
        seen = []
        runner = SuiteRunner(TINY, seed=1, jobs=1)
        workload = find_workload("605.mcf_s")
        runner.single(workload, "spp")
        runner.add_observer(seen.append)
        runner.sweep([workload], ["spp"], include_baseline=False)
        phases = [record["phase"] for record in seen]
        assert "cached" in phases and "started" not in phases

    def test_observer_exceptions_do_not_break_the_sweep(self):
        def explode(record):
            raise RuntimeError("observer bug")

        runner = SuiteRunner(TINY, seed=1, jobs=1, observers=[explode])
        suite = runner.sweep(
            [find_workload("605.mcf_s")], ["spp"], include_baseline=False
        )
        assert len(suite.runs) == 1

    def test_lifecycle_lines_are_benign_to_preload(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        workloads = [find_workload("605.mcf_s")]
        SuiteRunner(
            TINY, seed=1, jobs=1, ledger_path=ledger, cache_dir=tmp_path / "cache"
        ).sweep(workloads, ["spp"], include_baseline=False)
        resumed = SuiteRunner(TINY, seed=1, jobs=1)
        assert resumed.preload_from_ledger(ledger) == 1


class TestPhasePlot:
    def test_sparkline_resamples_and_handles_flat(self):
        from repro.harness.phase_plot import sparkline

        assert sparkline([]) == ""
        flat = sparkline([2.0, 2.0, 2.0], width=3)
        assert len(flat) == 3 and len(set(flat)) == 1
        ramp = sparkline([0.0, 1.0, 2.0, 3.0], width=4)
        assert ramp[0] == " " and ramp[-1] == "@"

    def test_report_roundtrips_through_document(self):
        from repro.harness.phase_plot import (
            report,
            result_from_document,
            run_phase_plot,
        )

        result = run_phase_plot(config=TINY, probe_every=250)
        assert len(result.series) >= 5
        rebuilt = result_from_document(result.document())
        assert rebuilt.series.keys() == result.series.keys()
        assert rebuilt.series["core.ipc"].v == result.series["core.ipc"].v
        out = report(result)
        assert "Phase plot" in out and "core.ipc" in out and "ppf.accept_rate" in out

    def test_report_notes_missing_series(self):
        from repro.harness.phase_plot import PhasePlotResult, report

        result = PhasePlotResult("w", "none", 100, series={})
        out = report(result, series_names=["spp.mean_confidence"])
        assert "no samples for" in out
