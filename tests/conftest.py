"""Suite-wide test configuration: hypothesis profiles and shared fixtures.

``--hypothesis-profile engine-fuzz-deep`` (hypothesis's own option) runs
the differential engine properties of ``tests/test_engine_fuzz.py`` at
depth: randomized, with many more examples than the derandomized fast
profile tier-1 runs.  Pass it with that file alone; a loaded profile
applies to every hypothesis test in the run.
"""

import struct

import pytest
from hypothesis import HealthCheck, settings

from repro.traces import TraceCache, trace_workload

settings.register_profile(
    "engine-fuzz-deep",
    max_examples=240,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture
def converted_trace(tmp_path):
    """``converted_trace(records)``: a ChampSim-style binary trace of
    ``records`` loads, converted to a file-backed ``.rpt`` workload."""
    record = struct.Struct("<QQI")

    def convert(records: int):
        source = tmp_path / "t.champsim"
        source.write_bytes(
            b"".join(
                record.pack(0x400000 + (i % 5) * 0x40, 0x9000000 + (i % 700) * 64, i % 12)
                for i in range(records)
            )
        )
        return trace_workload(TraceCache(tmp_path / "cache").convert(source).path)

    return convert
