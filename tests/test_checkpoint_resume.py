"""Whole-simulation resume: the acceptance contract of repro.checkpoint.

The strong claims proven here:

* **Golden bit-identity across processes** — warm a cell up, snapshot
  it, restore it in a *fresh spawn process* (new interpreter, no shared
  object state), measure, and land on exactly the stats pinned by
  ``tests/golden/single_core_stats.json``.  All six golden cells.
* **Sweep equivalence** — a sweep with warmup snapshot reuse produces
  byte-identical ``SuiteResult`` stats to one without.
* **Crash-resume** — completed cells adopted from a prior run's ledger
  serve without any simulation; an interrupted cell resumes from its
  periodic checkpoint and still reproduces the straight-run result.
"""

import dataclasses
import json
import multiprocessing
from pathlib import Path

import pytest

from repro.checkpoint import SnapshotStore, load_snapshot
from repro.checkpoint.replay import complete_single_core
from repro.sim.config import SimConfig
from repro.sim.fingerprint import cell_digest
from repro.sim.multi_core import run_multi_core
from repro.sim.single_core import SingleCoreSim, run_single_core
from repro.sim.suite import SuiteRunner
from repro.workloads import find_workload
from repro.workloads.mixes import WorkloadMix
from repro.workloads.spec2017 import WorkloadSpec

# The golden recording contract, pinned identically in
# tests/test_golden_stats.py (duplicated: test modules are not
# importable from each other under pytest's importlib mode).
GOLDEN_PATH = Path(__file__).parent / "golden" / "single_core_stats.json"
MEASURE_RECORDS = 2_000
WARMUP_RECORDS = 500
SEED = 3

GOLDEN_CONFIG = SimConfig.quick(
    measure_records=MEASURE_RECORDS, warmup_records=WARMUP_RECORDS
)


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def _assert_matches_golden(cell, result):
    expect = _golden()[cell]
    assert result.instructions == expect["instructions"], cell
    assert result.cycles == expect["cycles"], cell
    assert result.average_lookahead_depth == pytest.approx(
        expect["average_lookahead_depth"], abs=0
    )
    mismatched = {
        stat: (result.stats.get(stat), value)
        for stat, value in expect["stats"].items()
        if result.stats.get(stat) != value
    }
    assert not mismatched, f"{cell}: {len(mismatched)} stat(s) diverged"


class TestGoldenResume:
    """warmup → snapshot → restore in a fresh process → golden stats."""

    def test_all_golden_cells_resume_bit_identically(self):
        jobs = []
        for cell in sorted(_golden()):
            workload_name, scheme = cell.split("/")
            sim = SingleCoreSim(
                find_workload(workload_name), scheme, GOLDEN_CONFIG, seed=SEED
            )
            sim.warmup()
            # JSON round-trip: exactly what the on-disk snapshot applies.
            payload = json.loads(json.dumps(sim.state_dict(), separators=(",", ":")))
            jobs.append((cell, (workload_name, scheme, GOLDEN_CONFIG, SEED, payload)))

        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:  # one child: spawn startup dominates
            results = [pool.apply(complete_single_core, args) for _, args in jobs]
        for (cell, _), result in zip(jobs, results):
            _assert_matches_golden(cell, result)


class TestSweepEquivalence:
    WORKLOADS = ("605.mcf_s", "623.xalancbmk_s")
    SCHEMES = ["spp", "ppf"]

    def _stats(self, suite):
        return {
            f"{w}/{s}": dataclasses.asdict(r) for (w, s), r in sorted(suite.runs.items())
        }

    def test_warmup_reuse_sweep_byte_identical(self, tmp_path):
        workloads = [find_workload(name) for name in self.WORKLOADS]
        plain = SuiteRunner(GOLDEN_CONFIG, seed=SEED, jobs=1).sweep(
            workloads, self.SCHEMES
        )
        snap = tmp_path / "snaps"
        cold_runner = SuiteRunner(GOLDEN_CONFIG, seed=SEED, jobs=1, snapshot_dir=snap)
        cold = cold_runner.sweep(workloads, self.SCHEMES)
        warm_runner = SuiteRunner(GOLDEN_CONFIG, seed=SEED, jobs=1, snapshot_dir=snap)
        warm = warm_runner.sweep(workloads, self.SCHEMES)

        baseline = json.dumps(self._stats(plain), sort_keys=True)
        assert json.dumps(self._stats(cold), sort_keys=True) == baseline
        assert json.dumps(self._stats(warm), sort_keys=True) == baseline
        assert cold_runner._exec.snapshot_misses == 6
        assert warm_runner._exec.snapshot_hits == 6

    def test_warmup_snapshot_shared_across_measure_lengths(self, tmp_path):
        """The digest normalizes measure_records: one warmup, many cells."""
        workload = find_workload("605.mcf_s")
        short = dataclasses.replace(GOLDEN_CONFIG, measure_records=500)
        runner = SuiteRunner(GOLDEN_CONFIG, seed=SEED, jobs=1, snapshot_dir=tmp_path)
        runner.single(workload, "spp", short)
        runner.single(workload, "spp", GOLDEN_CONFIG)
        assert runner._exec.snapshot_misses == 1
        assert runner._exec.snapshot_hits == 1
        # And the reused-warmup long run still matches golden exactly.
        fresh = run_single_core(workload, "spp", GOLDEN_CONFIG, seed=SEED)
        reused = runner.memory_cache[
            runner._memory_key("605.mcf_s", "spp", GOLDEN_CONFIG)
        ]
        assert reused == fresh


class TestCrashResume:
    def test_ledger_preload_skips_all_simulation(self, tmp_path):
        workloads = [find_workload("605.mcf_s"), find_workload("623.xalancbmk_s")]
        ledger = tmp_path / "ledger.jsonl"
        first = SuiteRunner(
            GOLDEN_CONFIG,
            seed=SEED,
            jobs=1,
            cache_dir=tmp_path / "cache",
            ledger_path=ledger,
        )
        done = first.sweep(workloads, ["spp"])

        resumed = SuiteRunner(GOLDEN_CONFIG, seed=SEED, jobs=1)
        adopted = resumed.preload_from_ledger(ledger)
        again = resumed.sweep(workloads, ["spp"])
        assert adopted == 4
        assert resumed._exec.simulated == 0
        assert resumed._exec.resumed == 4
        assert {k: dataclasses.asdict(v) for k, v in again.runs.items()} == {
            k: dataclasses.asdict(v) for k, v in done.runs.items()
        }

    def test_ledger_preload_rejects_foreign_fingerprint_and_seed(self, tmp_path):
        workloads = [find_workload("605.mcf_s")]
        ledger = tmp_path / "ledger.jsonl"
        SuiteRunner(
            GOLDEN_CONFIG, seed=SEED, jobs=1, cache_dir=tmp_path / "c", ledger_path=ledger
        ).sweep(workloads, ["spp"])
        other_config = dataclasses.replace(GOLDEN_CONFIG, measure_records=999)
        assert SuiteRunner(other_config, seed=SEED).preload_from_ledger(ledger) == 0
        assert SuiteRunner(GOLDEN_CONFIG, seed=SEED + 1).preload_from_ledger(ledger) == 0

    def test_periodic_checkpoint_resumes_mid_measure(self, tmp_path):
        """Kill a cell mid-measure; the rerun continues from its
        checkpoint and still reproduces the straight-run stats."""
        workload = find_workload("605.mcf_s")
        straight = run_single_core(workload, "spp", GOLDEN_CONFIG, seed=SEED)

        ckpt = tmp_path / "cell.ckpt"
        sim = SingleCoreSim(workload, "spp", GOLDEN_CONFIG, seed=SEED)
        sim.warmup()
        sim.begin_measurement()
        sim.advance(800)  # "crash" partway through measurement
        from repro.checkpoint import save_snapshot

        save_snapshot(ckpt, sim.snapshot("measure"))

        resumed = run_single_core(
            workload,
            "spp",
            GOLDEN_CONFIG,
            seed=SEED,
            checkpoint_path=ckpt,
            checkpoint_every=500,
        )
        assert resumed == straight
        _assert_matches_golden("605.mcf_s/spp", resumed)

    def test_worker_cleans_up_checkpoint_after_completion(self, tmp_path):
        from repro.sim.suite import _simulate_cell

        _simulate_cell(
            find_workload("605.mcf_s"), "spp", GOLDEN_CONFIG, SEED, str(tmp_path), 500
        )
        digest = cell_digest("605.mcf_s", "spp", GOLDEN_CONFIG, SEED)
        assert not (tmp_path / f"{digest}.ckpt").exists()
        # The warmup snapshot stays: it is the cross-run reuse artifact.
        assert list(tmp_path.glob("*.ckpt"))


class TestCheckpointCLI:
    def test_save_inspect_diff(self, tmp_path, capsys):
        from repro.__main__ import main

        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        base = ["checkpoint", "save", "--workload", "605.mcf_s",
                "--prefetcher", "spp", "--records", "1200"]
        assert main(base + [str(a), "--seed", "3"]) == 0
        assert main(base + [str(b), "--seed", "4"]) == 0
        assert main(["checkpoint", "inspect", str(a)]) == 0
        assert main(["checkpoint", "diff", str(a), str(a)]) == 0
        capsys.readouterr()
        assert main(["checkpoint", "diff", str(a), str(b), "--limit", "5"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["equal"] is False and len(out["entries"]) <= 5
        assert load_snapshot(a).meta["phase"] == "warmup"

    def test_sweep_resume_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        ledger = tmp_path / "ledger.jsonl"
        common = [
            "sweep", "--workloads", "605.mcf_s", "--prefetchers", "spp",
            "--records", "1000", "--seed", "3", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--snapshot-dir", str(tmp_path / "snaps"),
        ]
        assert main(common + ["--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert main(common + ["--resume", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "resume: adopted 2 completed cell(s)" in out


class TestWarmupStoreDirect:
    def test_store_round_trip_through_run_single_core(self, tmp_path):
        workload = find_workload("623.xalancbmk_s")
        store = SnapshotStore(tmp_path)
        cold = run_single_core(
            workload, "ppf", GOLDEN_CONFIG, seed=SEED, warmup_store=store
        )
        warm = run_single_core(
            workload, "ppf", GOLDEN_CONFIG, seed=SEED, warmup_store=store
        )
        plain = run_single_core(workload, "ppf", GOLDEN_CONFIG, seed=SEED)
        assert cold == warm == plain
        assert store.hits == 1 and store.misses == 1

    @staticmethod
    def _count_trace_builds(monkeypatch):
        calls = []
        build = WorkloadSpec.trace

        def counted(self, n_records, seed=1):
            calls.append(self.name)
            return build(self, n_records, seed)

        monkeypatch.setattr(WorkloadSpec, "trace", counted)
        return calls

    def test_cold_store_builds_the_trace_once(self, tmp_path, monkeypatch):
        workload = find_workload("605.mcf_s")
        plain = run_single_core(workload, "ppf", GOLDEN_CONFIG, seed=SEED)
        calls = self._count_trace_builds(monkeypatch)
        cold = run_single_core(
            workload, "ppf", GOLDEN_CONFIG, seed=SEED, warmup_store=SnapshotStore(tmp_path)
        )
        assert calls == ["605.mcf_s"]
        assert cold == plain

    def test_cold_store_builds_each_mix_trace_once(self, tmp_path, monkeypatch):
        mix = WorkloadMix(
            name="pair", workloads=(find_workload("605.mcf_s"), find_workload("603.bwaves_s"))
        )
        config = dataclasses.replace(
            SimConfig.multicore(2), warmup_records=200, measure_records=800
        )
        calls = self._count_trace_builds(monkeypatch)
        plain = run_multi_core(mix, "ppf", config, seed=SEED)
        straight_builds = len(calls)
        calls.clear()
        cold = run_multi_core(
            mix, "ppf", config, seed=SEED, warmup_store=SnapshotStore(tmp_path)
        )
        # One trace per core, plus one replay lap of the core that runs out.
        assert len(calls) == straight_builds == 3
        assert cold == plain
