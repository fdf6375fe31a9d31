"""Multi-core golden stats: the shared-LLC schedule must stay bit-identical.

``tests/golden/multi_core_stats.json`` captures a full 4-core mix run
(every per-core counter, instructions, cycles) for none/spp/ppf on a
pinned mix, recorded with the scalar engine.  Both engines must
reproduce every cell exactly: the cycle-quantum batched driver promises
the scalar interleaving at the shared LLC and DRAM — any change to
scheduling order, RNG consumption, or arithmetic anywhere in the
multi-core path shows up here as an exact-value mismatch.

The checkpoint tests extend the contract to mid-measure boundaries: a
snapshot taken under either engine, part-way through measurement,
resumes under the other and still finishes bit-identical.

Regenerate (only for a deliberate semantic change, with review):

    PYTHONPATH=src python tests/test_golden_multi_core.py --regenerate
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.engine.multi_core import _core_mode
from repro.sim.config import SimConfig
from repro.sim.multi_core import MultiCoreSim, run_multi_core
from repro.workloads.mixes import WorkloadMix
from repro.workloads.spec2017 import workload_by_name

GOLDEN_PATH = Path(__file__).parent / "golden" / "multi_core_stats.json"

#: The exact recording configuration; changing any of these invalidates
#: the golden file.
MIX_WORKLOADS = ("605.mcf_s", "603.bwaves_s", "619.lbm_s", "623.xalancbmk_s")
MEASURE_RECORDS = 900
WARMUP_RECORDS = 300
SEED = 3
SCHEMES = ("none", "spp", "ppf")
ENGINES = ("scalar", "batched")


def _mix() -> WorkloadMix:
    return WorkloadMix(
        name="golden4",
        workloads=tuple(workload_by_name(name) for name in MIX_WORKLOADS),
    )


def _config(engine: str = "scalar") -> SimConfig:
    config = SimConfig.multicore(len(MIX_WORKLOADS))
    return dataclasses.replace(
        config,
        warmup_records=WARMUP_RECORDS,
        measure_records=MEASURE_RECORDS,
        engine=engine,
    )


def _run_cell(scheme: str, engine: str):
    return run_multi_core(_mix(), scheme, _config(engine), seed=SEED)


def _as_cells(result) -> list:
    return [dataclasses.asdict(outcome) for outcome in result.cores]


def _load_golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def _assert_cores_match(result, expect, label: str) -> None:
    got = _as_cells(result)
    assert len(got) == len(expect), f"{label}: core count {len(got)} != {len(expect)}"
    for core_index, (got_core, want_core) in enumerate(zip(got, expect)):
        for field in ("workload", "instructions", "cycles", "l2_misses",
                      "prefetches_issued", "prefetches_useful"):
            assert got_core[field] == want_core[field], (
                f"{label} core{core_index}: {field} "
                f"{got_core[field]} != {want_core[field]}"
            )
        mismatched = {
            stat: (got_core["stats"].get(stat), value)
            for stat, value in want_core["stats"].items()
            if got_core["stats"].get(stat) != value
        }
        extra = sorted(set(got_core["stats"]) - set(want_core["stats"]))
        assert not mismatched and not extra, (
            f"{label} core{core_index}: {len(mismatched)} stat(s) diverged "
            f"{mismatched}, extra keys {extra}"
        )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_cell_matches_golden(scheme, engine):
    expect = _load_golden()[scheme]
    result = _run_cell(scheme, engine)
    _assert_cores_match(result, expect, f"{scheme}/{engine}")


def test_golden_covers_all_schemes():
    assert set(_load_golden()) == set(SCHEMES)


def test_ppf_mix_uses_the_fused_runner():
    """Guard against the fused multi-core runner silently demoting to
    the generic one (the golden comparison would still pass, but the
    2.5x gate is won by the fused runner)."""
    sim = MultiCoreSim(_mix(), "ppf", _config("batched"), seed=SEED)
    for core_index in range(len(MIX_WORKLOADS)):
        assert _core_mode(sim.o3cores[core_index], sim.hierarchy, core_index) == "ppf"


class TestMidMeasureCheckpoints:
    """Mid-measure multi-core snapshots are engine-portable in both
    directions: the batched driver flushes every runner before
    ``advance_multi`` returns, so any advance boundary is a valid
    scalar-reachable state."""

    @pytest.mark.parametrize(
        "first_engine,second_engine",
        [("scalar", "batched"), ("batched", "scalar")],
    )
    def test_mid_measure_resume_crosses_engines(self, first_engine, second_engine):
        reference = _run_cell("ppf", "scalar")

        sim = MultiCoreSim(_mix(), "ppf", _config(first_engine), seed=SEED)
        sim.warmup()
        sim.begin_measurement()
        sim.advance(777)  # mid-measure, not a phase boundary
        state = sim.state_dict()

        resumed = MultiCoreSim(_mix(), "ppf", _config(second_engine), seed=SEED)
        resumed.load_state(state)
        result = resumed.measure()
        _assert_cores_match(
            result, _as_cells(reference), f"{first_engine}->{second_engine}"
        )

    def test_two_hop_round_trip(self):
        """batched -> scalar -> batched across two mid-measure cursors."""
        reference = _run_cell("ppf", "scalar")

        sim = MultiCoreSim(_mix(), "ppf", _config("batched"), seed=SEED)
        sim.warmup()
        sim.begin_measurement()
        sim.advance(501)
        hop = MultiCoreSim(_mix(), "ppf", _config("scalar"), seed=SEED)
        hop.load_state(sim.state_dict())
        hop.advance(400)
        final = MultiCoreSim(_mix(), "ppf", _config("batched"), seed=SEED)
        final.load_state(hop.state_dict())
        result = final.measure()
        _assert_cores_match(
            result, _as_cells(reference), "batched->scalar->batched"
        )


def _regenerate():
    golden = {}
    for scheme in SCHEMES:
        golden[scheme] = _as_cells(_run_cell(scheme, "scalar"))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} cells)")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
