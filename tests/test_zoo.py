"""The prefetcher zoo: checkpoints, golden stats, the filter seam.

Three contracts pinned here:

* every zoo prefetcher (and every ``filtered:<inner>`` composition)
  checkpoints bit-identically — a mid-measurement ``state_dict``
  round-tripped through JSON (the cross-process wire format) and loaded
  into a fresh sim must finish with exactly the stats of an
  uninterrupted run;
* ``filtered:spp`` *is* ``ppf`` — the seam reproduces the committed
  ``tests/golden/single_core_stats.json`` ppf cells bit for bit;
* ``tests/golden/zoo_stats.json`` pins full runs of the zoo prefetchers
  themselves.  Regenerate only for a deliberate semantic change:

      PYTHONPATH=src python tests/test_zoo.py --regenerate
"""

import json
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.checkpoint.snapshot import SnapshotError
from repro.registry import UnknownComponentError
from repro.sim.config import SimConfig
from repro.sim.single_core import SingleCoreSim, make_prefetcher, run_single_core
from repro.sim.suite import SuiteRunner
from repro.workloads import find_workload
from repro.zoo import (
    FILTER_SPEC_PREFIX,
    Pythia,
    TwoLevelFilter,
    make_filtered,
    validate_prefetcher_spec,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "zoo_stats.json"
PPF_GOLDEN_PATH = Path(__file__).parent / "golden" / "single_core_stats.json"

#: Must match test_golden_stats.py so the ppf-equivalence check can pin
#: ``filtered:spp`` against the *existing* golden cells.
MEASURE_RECORDS = 2_000
WARMUP_RECORDS = 500
SEED = 3

ZOO_SPECS = [
    "pythia",
    "two-level",
    "filtered:spp",
    "filtered:pythia",
    "filtered:two-level",
]


def _config(measure=MEASURE_RECORDS, warmup=WARMUP_RECORDS):
    return SimConfig.quick(measure_records=measure, warmup_records=warmup)


def _run_cell(workload_name, scheme, config=None):
    return run_single_core(
        find_workload(workload_name), scheme, config or _config(), seed=SEED
    )


# -- the seam itself -----------------------------------------------------------


class TestFilterSeam:
    def test_make_prefetcher_parses_filtered_specs(self):
        pf = make_prefetcher("filtered:pythia")
        assert pf.name == "filtered:pythia"
        assert pf.inner_name == "pythia"
        assert isinstance(pf.underlying, Pythia)

    def test_filtered_spp_builds_the_ppf_object_graph(self):
        from repro.prefetchers.spp import SPP, SPPConfig

        seam = make_filtered("spp")
        reference = make_prefetcher("ppf")
        assert isinstance(seam.underlying, SPP)
        assert seam.underlying.config == SPPConfig.aggressive()
        assert seam.underlying.config == reference.underlying.config
        assert seam.filter.config == reference.filter.config

    def test_filtered_two_level_disables_internal_filter(self):
        pf = make_filtered("two-level")
        assert isinstance(pf.underlying, TwoLevelFilter)
        assert not pf.underlying.config.internal_filter

    def test_validate_accepts_known_specs(self):
        for spec in ["spp", "none", *ZOO_SPECS]:
            assert validate_prefetcher_spec(spec) == spec

    def test_validate_suggests_close_matches(self):
        with pytest.raises(UnknownComponentError) as err:
            validate_prefetcher_spec("filtered:sp")
        assert "did you mean 'spp'" in str(err.value)
        with pytest.raises(UnknownComponentError) as err:
            validate_prefetcher_spec("pythi")
        assert "did you mean 'pythia'" in str(err.value)

    def test_validate_rejects_empty_and_nested_specs(self):
        with pytest.raises(UnknownComponentError):
            validate_prefetcher_spec("filtered:")
        with pytest.raises(UnknownComponentError, match="do not nest"):
            validate_prefetcher_spec("filtered:filtered:spp")

    def test_sweep_validates_schemes_eagerly(self, tmp_path):
        runner = SuiteRunner(_config(measure=500, warmup=100), seed=SEED, jobs=1)
        with pytest.raises(UnknownComponentError, match="did you mean"):
            runner.sweep([find_workload("605.mcf_s")], ["filtered:pythi"])


# -- checkpoint round-trips ----------------------------------------------------


@pytest.mark.parametrize("spec", ZOO_SPECS)
def test_checkpoint_roundtrip_bit_identical(spec):
    """state_dict -> JSON -> fresh sim -> load_state -> same finish."""
    config = _config(measure=1_500, warmup=400)
    workload = find_workload("605.mcf_s")

    straight = SingleCoreSim(workload, spec, config, seed=SEED)
    straight.warmup()
    straight.begin_measurement()
    straight.measure()
    expect = straight.result()

    half = SingleCoreSim(workload, spec, config, seed=SEED)
    half.warmup()
    half.begin_measurement()
    half.advance(700)
    payload = json.loads(json.dumps(half.state_dict()))

    resumed = SingleCoreSim(workload, spec, config, seed=SEED)
    resumed.load_state(payload)
    resumed.measure()
    got = resumed.result()

    assert got.instructions == expect.instructions
    assert got.cycles == expect.cycles
    assert got.stats == expect.stats


def test_checkpoint_rejects_mismatched_spec():
    config = _config(measure=500, warmup=100)
    workload = find_workload("605.mcf_s")
    donor = SingleCoreSim(workload, "filtered:pythia", config, seed=SEED)
    donor.warmup()
    state = donor.state_dict()
    other = SingleCoreSim(workload, "filtered:two-level", config, seed=SEED)
    with pytest.raises(SnapshotError):
        other.load_state(state)


# -- golden pins ---------------------------------------------------------------


def _load_golden(path):
    with path.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload_name", ["605.mcf_s", "623.xalancbmk_s"])
def test_filtered_spp_reproduces_ppf_golden(workload_name):
    """The seam composition is the paper configuration, bit for bit."""
    expect = _load_golden(PPF_GOLDEN_PATH)[f"{workload_name}/ppf"]
    result = _run_cell(workload_name, "filtered:spp")
    assert result.instructions == expect["instructions"]
    assert result.cycles == expect["cycles"]
    assert result.average_lookahead_depth == pytest.approx(
        expect["average_lookahead_depth"], abs=0
    )
    mismatched = {
        stat: (result.stats.get(stat), value)
        for stat, value in expect["stats"].items()
        if result.stats.get(stat) != value
    }
    assert not mismatched, f"{len(mismatched)} stat(s) diverged: {mismatched}"


@pytest.mark.parametrize(
    "cell", sorted(_load_golden(GOLDEN_PATH)) if GOLDEN_PATH.exists() else []
)
def test_zoo_run_matches_golden(cell):
    workload_name, scheme = cell.split("/")
    expect = _load_golden(GOLDEN_PATH)[cell]
    result = _run_cell(workload_name, scheme)
    assert result.instructions == expect["instructions"]
    assert result.cycles == expect["cycles"]
    mismatched = {
        stat: (result.stats.get(stat), value)
        for stat, value in expect["stats"].items()
        if result.stats.get(stat) != value
    }
    assert not mismatched, f"{cell}: {len(mismatched)} stat(s) diverged: {mismatched}"


def test_zoo_golden_covers_the_zoo():
    schemes = {cell.split("/")[1] for cell in _load_golden(GOLDEN_PATH)}
    assert {"pythia", "two-level"} <= schemes


# -- behaviour -----------------------------------------------------------------


def test_pythia_learns_and_reports_rewards():
    result = _run_cell("603.bwaves_s", "pythia")
    stats = result.stats
    rewarded = (
        stats["core0.prefetcher.pythia.rewards_accurate_timely"]
        + stats["core0.prefetcher.pythia.rewards_accurate_late"]
        + stats["core0.prefetcher.pythia.rewards_inaccurate"]
        + stats["core0.prefetcher.pythia.rewards_no_prefetch"]
    )
    assert rewarded > 0
    assert result.prefetches_issued > 0
    pythia = make_prefetcher("pythia")
    summary = pythia.qvalue_summary()
    assert set(summary) >= {"mean_abs_q", "q_saturation", "vault_occupancy"}


def test_two_level_adapts_thresholds():
    pf = make_prefetcher("two-level")
    config = _config(measure=4_000, warmup=500)
    run_single_core(find_workload("603.bwaves_s"), pf, config, seed=SEED)
    stats = pf.two_level_stats
    assert stats.triggers > 0
    # On a stream this regular the filter's accept accuracy leaves the
    # target band at least once, so the adaptive stage must have moved.
    assert stats.adaptations_tightened + stats.adaptations_loosened > 0


def test_filter_seam_probe_labels_inner_prefetcher():
    from repro.telemetry.probes import ProbeSet

    config = _config(measure=600, warmup=150)
    sim = SingleCoreSim(find_workload("605.mcf_s"), "filtered:pythia", config, seed=SEED)
    probes = ProbeSet.discover(sim)
    names = {probe.name for probe in probes.probes}
    assert "filter.pythia" in names
    assert "pythia" in names  # the Q-vault probe found the wrapped agent


# -- the generality experiment -------------------------------------------------


def test_generality_experiment_tiny():
    from repro.harness.generality import report, run_generality

    prefetchers = ("spp", "pythia", "two-level")
    families = ("spec2017", "cloudsuite")
    result = run_generality(
        config=_config(measure=600, warmup=150),
        prefetchers=prefetchers,
        families=families,
        per_family=1,
        jobs=1,
    )
    # The whole cross-product completes, one row per (family, prefetcher).
    pairs = [(row["family"], row["prefetcher"]) for row in result.rows]
    assert sorted(pairs) == sorted((f, p) for f in families for p in prefetchers)
    for row in result.rows:
        for side in ("unfiltered", "filtered"):
            assert set(row[side]) == {"accuracy", "coverage", "ipc", "speedup"}
    document = result.document()
    assert document["schema"] == "repro.generality/v1"
    assert document["complete"]
    rendered = report(result)
    assert "f.speedup" in rendered
    for name in prefetchers:
        assert name in rendered


# -- CLI -----------------------------------------------------------------------


class TestZooCLI:
    def test_registry_list_kind(self, capsys):
        assert main(["registry", "list", "--kind", "prefetcher"]) == 0
        out = capsys.readouterr().out
        for name in ("pythia", "two-level", "ppf", "spp"):
            assert name in out

    def test_registry_list_all_kinds(self, capsys):
        assert main(["registry", "list"]) == 0
        out = capsys.readouterr().out
        for kind in ("prefetcher", "engine", "suite", "probe"):
            assert kind in out

    def test_registry_list_unknown_kind_exits_2(self, capsys):
        assert main(["registry", "list", "--kind", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown component kind" in err

    def test_sweep_rejects_unknown_filtered_spec(self, capsys):
        code = main(
            ["sweep", "--prefetchers", "filtered:nope", "--records", "200", "--quiet"]
        )
        assert code == 2
        assert "unknown prefetcher" in capsys.readouterr().err

    def test_bench_accepts_filtered_spec(self, capsys):
        code = main(
            [
                "bench",
                "605.mcf_s",
                "--prefetcher",
                FILTER_SPEC_PREFIX + "pythia",
                "--records",
                "1000",
            ]
        )
        assert code == 0
        assert "filtered:pythia" in capsys.readouterr().out


# -- regeneration --------------------------------------------------------------


def _regenerate():
    golden = {}
    for workload_name in ("605.mcf_s", "623.xalancbmk_s"):
        for scheme in ("pythia", "two-level"):
            result = _run_cell(workload_name, scheme)
            golden[f"{workload_name}/{scheme}"] = {
                "instructions": result.instructions,
                "cycles": result.cycles,
                "stats": result.stats,
            }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} cells)")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
