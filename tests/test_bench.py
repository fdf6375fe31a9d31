"""Tests for repro.bench (microbenchmarks + report)."""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    BENCHMARKS,
    build_report,
    format_report,
    load_baseline,
    run_benchmarks,
    write_report,
)
from repro.bench.micro import BenchResult


class TestRegistry:
    def test_expected_layers_present(self):
        expected = {
            "trace_gen",
            "cache_lookup_fill",
            "spp_train",
            "filter_inference",
            "filter_training",
            "end_to_end_single_core",
            "end_to_end_no_prefetch",
        }
        assert expected <= set(BENCHMARKS)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_benchmarks(names=["nope"])

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            run_benchmarks(names=["cache_lookup_fill"], scale=0)

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError):
            run_benchmarks(names=["cache_lookup_fill"], repeats=0)


class TestRunBenchmarks:
    def test_smoke_scale_runs_and_measures(self):
        results = run_benchmarks(
            names=["cache_lookup_fill", "filter_inference"], scale=0.01, repeats=2
        )
        assert [r.name for r in results] == ["cache_lookup_fill", "filter_inference"]
        for result in results:
            assert result.ops >= 1_000  # scale floor
            assert result.best_wall_s > 0
            assert result.best_wall_s <= result.mean_wall_s
            assert result.repeats == 2
            assert result.ops_per_sec > 0
            assert result.ns_per_op > 0

    def test_full_op_counts_are_fixed(self):
        """Cross-version comparability: counts only move via ``scale``."""
        assert BENCHMARKS["end_to_end_single_core"][1] == 10_000
        assert BENCHMARKS["cache_lookup_fill"][1] == 200_000


class TestReport:
    def _result(self, name="cache_lookup_fill", ops=1000, wall=0.5):
        return BenchResult(
            name=name, ops=ops, best_wall_s=wall, mean_wall_s=wall, repeats=1
        )

    def test_schema_fields(self):
        report = build_report([self._result()], mode="smoke", scale=0.1)
        assert report["schema"] == BENCH_SCHEMA
        assert report["schema_version"] == BENCH_SCHEMA_VERSION
        assert report["mode"] == "smoke"
        assert report["scale"] == 0.1
        assert report["baseline"] is None
        assert report["speedup_vs_baseline"] == {}
        entry = report["results"]["cache_lookup_fill"]
        assert entry["ops_per_sec"] == pytest.approx(2000.0)
        assert entry["ns_per_op"] == pytest.approx(500_000.0)

    def test_speedup_against_baseline(self):
        baseline = {
            "source": "x",
            "results": {"cache_lookup_fill": {"ops_per_sec": 1000.0}},
        }
        report = build_report([self._result()], baseline=baseline)
        assert report["speedup_vs_baseline"]["cache_lookup_fill"] == pytest.approx(2.0)

    def test_write_and_reload_round_trip(self, tmp_path):
        report = build_report([self._result()])
        path = write_report(report, tmp_path / "BENCH_sim.json")
        reloaded = json.loads(path.read_text())
        assert reloaded["schema"] == BENCH_SCHEMA
        assert "cache_lookup_fill" in reloaded["results"]

    def test_written_report_loads_as_baseline(self, tmp_path):
        report = build_report([self._result()])
        path = write_report(report, tmp_path / "base.json")
        baseline = load_baseline(path)
        assert baseline is not None
        assert baseline["source"] == str(path)
        assert "cache_lookup_fill" in baseline["results"]

    def test_missing_baseline_is_none(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") is None

    def test_format_report_mentions_every_benchmark(self):
        report = build_report([self._result()])
        text = format_report(report)
        assert "cache_lookup_fill" in text
        assert "ops/sec" in text
