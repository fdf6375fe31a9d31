"""Tests for repro.sim: config, single-core, multi-core, runner."""

import pytest

from repro import registry
from repro.prefetchers.spp import SPP
from repro.sim.config import SimConfig
from repro.sim.multi_core import run_multi_core
from repro.sim.runner import ExperimentRunner
from repro.sim.single_core import make_prefetcher, run_single_core
from repro.workloads.mixes import WorkloadMix
from repro.workloads.spec2017 import workload_by_name

TINY = SimConfig.quick(measure_records=2_000, warmup_records=500)


class TestSimConfig:
    def test_default_llc_is_2mb(self):
        assert SimConfig.default().hierarchy.llc_size_per_core == 2 * 1024 * 1024

    def test_small_llc_variant(self):
        assert SimConfig.small_llc().hierarchy.llc_size_per_core == 512 * 1024

    def test_low_bandwidth_variant(self):
        assert SimConfig.low_bandwidth().dram.cycles_per_transfer == 80

    def test_multicore_channels(self):
        assert SimConfig.multicore(8).dram.channels == 4

    def test_quick_sets_record_counts(self):
        cfg = SimConfig.quick(measure_records=123, warmup_records=45)
        assert cfg.measure_records == 123
        assert cfg.warmup_records == 45

    def test_describe_covers_table1_rows(self):
        labels = {label for label, _ in SimConfig.default().describe()}
        for expected in ("Core", "L1D", "L2", "LLC", "DRAM", "Block size", "Page size"):
            assert expected in labels


class TestPrefetcherRegistry:
    def test_paper_schemes_registered(self):
        for name in ("none", "bop", "da-ampm", "spp", "ppf"):
            assert name in registry.names("prefetcher")

    def test_make_prefetcher(self):
        assert isinstance(make_prefetcher("spp"), SPP)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_prefetcher("oracle")


class TestSingleCore:
    def test_baseline_run_shape(self):
        result = run_single_core(workload_by_name("603.bwaves_s"), "none", TINY)
        assert result.prefetcher == "none"
        assert result.instructions > 0
        assert result.cycles > 0
        assert 0 < result.ipc < 8
        assert result.prefetches_issued == 0

    def test_accepts_prefetcher_instance(self):
        result = run_single_core(workload_by_name("603.bwaves_s"), SPP(), TINY)
        assert result.prefetcher == "spp"
        assert result.prefetches_issued > 0

    def test_prefetching_cuts_misses_on_stream(self):
        workload = workload_by_name("649.fotonik3d_s")
        base = run_single_core(workload, "none", TINY)
        spp = run_single_core(workload, "spp", TINY)
        assert spp.l2_misses < base.l2_misses

    def test_measurement_excludes_warmup(self):
        cfg_a = SimConfig.quick(measure_records=2_000, warmup_records=100)
        cfg_b = SimConfig.quick(measure_records=2_000, warmup_records=1_000)
        workload = workload_by_name("641.leela_s")
        a = run_single_core(workload, "none", cfg_a)
        b = run_single_core(workload, "none", cfg_b)
        # Instructions measured are close (same measured record count);
        # bubble randomness differs slightly across windows.
        assert abs(a.instructions - b.instructions) / a.instructions < 0.2

    def test_derived_metrics(self):
        result = run_single_core(workload_by_name("603.bwaves_s"), "spp", TINY)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.l2_mpki >= result.llc_mpki >= 0

    def test_deterministic(self):
        workload = workload_by_name("605.mcf_s")
        a = run_single_core(workload, "spp", TINY, seed=4)
        b = run_single_core(workload, "spp", TINY, seed=4)
        assert a.cycles == b.cycles
        assert a.prefetches_issued == b.prefetches_issued


class TestMultiCore:
    def make_mix(self, cores=2):
        specs = [workload_by_name("603.bwaves_s"), workload_by_name("605.mcf_s")]
        return WorkloadMix(name="t", workloads=tuple(specs[:cores]))

    def test_runs_and_reports_per_core(self):
        mix = self.make_mix()
        cfg = SimConfig.multicore(2)
        cfg.warmup_records, cfg.measure_records = 300, 1_500
        result = run_multi_core(mix, "spp", cfg)
        assert len(result.cores) == 2
        assert result.cores[0].workload == "603.bwaves_s"
        assert all(c.instructions > 0 and c.cycles > 0 for c in result.cores)

    def test_totals(self):
        mix = self.make_mix()
        cfg = SimConfig.multicore(2)
        cfg.warmup_records, cfg.measure_records = 300, 1_500
        result = run_multi_core(mix, "spp", cfg)
        assert result.total_issued >= result.total_useful >= 0
        assert len(result.per_core_ipc) == 2

    def test_sharing_slows_cores_down(self):
        """A core in a 2-core mix is slower than the same workload alone."""
        workload = workload_by_name("603.bwaves_s")
        cfg = SimConfig.multicore(2)
        cfg.warmup_records, cfg.measure_records = 300, 2_000
        mix = WorkloadMix(name="t", workloads=(workload, workload))
        shared = run_multi_core(mix, "none", cfg)
        alone_cfg = SimConfig.quick(measure_records=2_000, warmup_records=300)
        alone = run_single_core(workload, "none", alone_cfg)
        assert min(shared.per_core_ipc) < alone.ipc


class TestRunner:
    def test_single_is_cached(self):
        runner = ExperimentRunner(TINY)
        workload = workload_by_name("641.leela_s")
        first = runner.single(workload, "none")
        second = runner.single(workload, "none")
        assert first is second

    def test_distinct_configs_not_conflated(self):
        runner = ExperimentRunner(TINY)
        workload = workload_by_name("641.leela_s")
        default = runner.single(workload, "none")
        other = runner.single(workload, "none", SimConfig.quick(2_000, 600))
        assert default is not other

    def test_sweep_includes_baseline(self):
        runner = ExperimentRunner(TINY)
        suite = runner.sweep([workload_by_name("603.bwaves_s")], ["spp"])
        assert ("603.bwaves_s", "none") in suite.runs
        assert ("603.bwaves_s", "spp") in suite.runs

    def test_speedups_and_geomean(self):
        runner = ExperimentRunner(TINY)
        suite = runner.sweep(
            [workload_by_name("603.bwaves_s"), workload_by_name("619.lbm_s")], ["spp"]
        )
        speedups = suite.speedups("spp")
        assert set(speedups) == {"603.bwaves_s", "619.lbm_s"}
        geomean = suite.geomean_speedup("spp")
        assert min(speedups.values()) <= geomean <= max(speedups.values())

    def test_coverage_levels(self):
        runner = ExperimentRunner(TINY)
        suite = runner.sweep([workload_by_name("603.bwaves_s")], ["spp"])
        assert -1.0 <= suite.coverage("spp", "l2") <= 1.0
        with pytest.raises(ValueError):
            suite.coverage("spp", "l4")

    def test_isolated_config_uses_full_llc(self):
        runner = ExperimentRunner(TINY)
        cfg = SimConfig.multicore(4)
        isolated = runner._isolated_config(cfg, 4)
        assert (
            isolated.hierarchy.llc_size_per_core
            == cfg.hierarchy.llc_size_per_core * 4
        )

    def test_mix_weighted_speedup_positive(self):
        cfg = SimConfig.multicore(2)
        cfg.warmup_records, cfg.measure_records = 200, 1_000
        runner = ExperimentRunner(cfg)
        mix = WorkloadMix(
            name="t",
            workloads=(workload_by_name("603.bwaves_s"), workload_by_name("619.lbm_s")),
        )
        value = runner.mix_weighted_speedup(mix, "spp", cfg)
        assert value > 0


class TestRunResultCoreViews:
    """Regression: snapshot views must honour the run's core index."""

    def _snapshot(self, core):
        prefix = f"core{core}"
        return {
            f"{prefix}.l2.demand_accesses": 10,
            f"{prefix}.l2.demand_misses": 4,
            f"{prefix}.prefetcher.prefetch.issued": 3,
            f"{prefix}.prefetcher.prefetch.useful": 2,
            f"{prefix}.prefetcher.prefetch.candidates": 5,
            f"{prefix}.prefetcher.ppf.reject_recoveries": 7,
            f"{prefix}.prefetcher.filter.per_feature_updates.PC": 11,
            f"{prefix}.prefetcher.filter.per_feature_updates.Delta": 13,
            "llc.demand_misses": 2,
            "dram.accesses": 6,
        }

    def test_from_snapshot_reads_the_requested_core(self):
        from repro.sim.single_core import RunResult

        snapshot = {**self._snapshot(1), **self._snapshot(0)}
        # Make core 0's counters distinct so a core0 fallback would show.
        snapshot["core0.prefetcher.ppf.reject_recoveries"] = 999
        snapshot["core0.prefetcher.filter.per_feature_updates.PC"] = 999
        result = RunResult.from_snapshot(
            workload="w", prefetcher="ppf", instructions=100, cycles=50,
            snapshot=snapshot, core=1,
        )
        assert result.core == 1
        assert result.l2_misses == 4
        assert result.reject_table_recoveries == 7
        assert result.per_feature_training_updates == {"PC": 11, "Delta": 13}

    def test_core_defaults_to_zero(self):
        from repro.sim.single_core import RunResult

        result = RunResult.from_snapshot(
            workload="w", prefetcher="ppf", instructions=100, cycles=50,
            snapshot=self._snapshot(0),
        )
        assert result.core == 0
        assert result.reject_table_recoveries == 7
