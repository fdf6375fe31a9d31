"""Trace ingestion: formats, digest cache, file-backed workloads, CLI.

The acceptance contract of :mod:`repro.traces`:

* **Malformed inputs are typed** — truncated gzip, bad hex addresses,
  unknown command tokens, zero-length files and header/body count
  mismatches all raise :class:`TraceFormatError` carrying file (and,
  for text formats, line) context — never a bare ``ValueError``.
* **Round trips** — k6 text and ChampSim-style binary traces convert
  into the canonical format losslessly; gzip inputs decode
  transparently to the same canonical records.
* **Digest cache** — a second conversion of the same bytes is a cache
  hit; corrupt cache entries degrade to re-conversion.
* **Engine equivalence** — a converted trace simulates bit-identically
  under the scalar and batched engines.
* **Checkpoint/resume** — ``TraceFileStream`` restores mid-measure and
  reproduces the straight run exactly; digest mismatches refuse.
* **Fingerprint** — trace digests fold into ``config_fingerprint``.
* **CLI** — ``repro trace convert`` converts/hits with exit 0, fails
  with exit 2, and failed invocations leave no partial artifacts.
"""

import dataclasses
import gzip
import struct
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main
from repro.sim.config import SimConfig
from repro.sim.fingerprint import config_fingerprint
from repro.sim.single_core import run_single_core
from repro.traces import (
    CANONICAL_MAGIC,
    TraceCache,
    TraceFileStream,
    TraceFormatError,
    detect_format,
    file_digest,
    make_format,
    read_header,
    trace_formats,
    trace_workload,
    write_canonical,
)
from repro.traces.formats import RECORD_SIZE, record_dtype
from repro.workloads import find_workload, suite, suites

CONFIG = SimConfig.quick(measure_records=1_500, warmup_records=400)

_COMMANDS = ["P_MEM_RD", "P_MEM_WR", "P_FETCH", "READ", "WRITE", "IFETCH"]
_RECORD = struct.Struct("<QQI")  # the ChampSim-style 20-byte record


def _k6_lines(n=400):
    cycle = 0
    lines = []
    for i in range(n):
        cycle += (i * 7) % 23 + 1
        addr = 0x2000000 + (i % 181) * 64
        lines.append(f"0x{addr:x} {_COMMANDS[i % len(_COMMANDS)]} {cycle}\n")
    return lines


def _write_k6(path, n=400, compress=False):
    text = "".join(_k6_lines(n))
    if compress:
        with gzip.open(path, "wt") as handle:
            handle.write(text)
    else:
        Path(path).write_text(text)
    return Path(path)


def _write_champsim(path, n=300):
    blob = b"".join(
        _RECORD.pack(0x400000 + (i % 5) * 0x40, 0x9000000 + i * 64, i % 12)
        for i in range(n)
    )
    Path(path).write_bytes(blob)
    return Path(path)


def _convert(tmp_path, source):
    return TraceCache(tmp_path / "cache").convert(source)


class TestMalformedInputs:
    """Every malformed input: typed TraceFormatError with context."""

    def test_truncated_gzip(self, tmp_path):
        source = _write_k6(tmp_path / "t.k6.gz", n=2_000, compress=True)
        blob = source.read_bytes()
        source.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TraceFormatError) as err:
            _convert(tmp_path, source)
        assert "truncated" in str(err.value)
        assert str(source) in str(err.value)

    def test_bad_hex_address(self, tmp_path):
        source = tmp_path / "t.k6"
        source.write_text("0x100 P_MEM_RD 5\nnothex P_MEM_RD 9\n")
        with pytest.raises(TraceFormatError) as err:
            _convert(tmp_path, source)
        assert "bad hex address 'nothex'" in str(err.value)
        assert f"{source}:2:" in str(err.value)
        assert err.value.line == 2

    def test_unknown_command_token(self, tmp_path):
        source = tmp_path / "t.k6"
        source.write_text("0x100 P_MEM_EAT 5\n")
        with pytest.raises(TraceFormatError) as err:
            _convert(tmp_path, source)
        assert "unknown command token 'P_MEM_EAT'" in str(err.value)
        assert "P_MEM_RD" in str(err.value)  # lists the known vocabulary

    def test_zero_length_file(self, tmp_path):
        source = tmp_path / "t.k6"
        source.write_bytes(b"")
        with pytest.raises(TraceFormatError) as err:
            _convert(tmp_path, source)
        assert "empty trace" in str(err.value)

    def test_canonical_count_mismatch(self, tmp_path):
        source = _write_k6(tmp_path / "t.k6")
        converted = Path(_convert(tmp_path, source).path)
        with open(converted, "ab") as handle:
            handle.write(b"\x00" * 7)  # no longer 16 + 20 * count bytes
        with pytest.raises(TraceFormatError) as err:
            read_header(converted)
        assert "record count mismatch" in str(err.value)

    def test_champsim_trailing_bytes(self, tmp_path):
        source = _write_champsim(tmp_path / "t.champsim")
        with open(source, "ab") as handle:
            handle.write(b"\x01\x02\x03")
        with pytest.raises(TraceFormatError) as err:
            _convert(tmp_path, source)
        assert "3 trailing byte(s)" in str(err.value)

    def test_bad_field_count_and_cycle(self, tmp_path):
        for body, fragment in [
            ("0x100 P_MEM_RD\n", "expected '<address> <command> <cycle>'"),
            ("0x100 P_MEM_RD soon\n", "bad cycle count 'soon'"),
            ("0x100 P_MEM_RD -4\n", "negative cycle count"),
        ]:
            source = tmp_path / "t.k6"
            source.write_text(body)
            with pytest.raises(TraceFormatError) as err:
                make_format("k6").read_batches(source).__next__()
            assert fragment in str(err.value)

    def test_errors_are_typed_value_errors(self, tmp_path):
        """Callers can catch ValueError, but always get the typed class."""
        source = tmp_path / "t.k6"
        source.write_text("zzzz P_MEM_RD 5\n")
        with pytest.raises(ValueError) as err:
            _convert(tmp_path, source)
        assert isinstance(err.value, TraceFormatError)
        assert err.value.path == str(source)


class TestRoundTrips:
    def test_k6_conversion_counts_and_caps(self, tmp_path):
        source = _write_k6(tmp_path / "t.k6", n=400)
        outcome = _convert(tmp_path, source)
        assert outcome.records == 400
        assert outcome.format == "k6"
        stream = TraceFileStream(outcome.path, 400)
        records = list(stream)
        assert len(records) == 400
        assert all(0 <= r.bubble <= 64 for r in records)
        assert records[1].addr == 0x2000000 + 64

    def test_gzip_decodes_to_same_canonical_records(self, tmp_path):
        raw = _write_k6(tmp_path / "raw.k6", n=250)
        zipped = _write_k6(tmp_path / "zip.k6.gz", n=250, compress=True)
        a = Path(_convert(tmp_path, raw).path).read_bytes()
        b = Path(_convert(tmp_path, zipped).path).read_bytes()
        assert a == b  # canonical bytes identical; source digests differ
        assert file_digest(raw) != file_digest(zipped)

    def test_champsim_binary_roundtrip_is_lossless(self, tmp_path):
        source = _write_champsim(tmp_path / "t.champsim", n=300)
        outcome = _convert(tmp_path, source)
        assert outcome.records == 300
        stream = TraceFileStream(outcome.path, 300)
        for i, record in enumerate(stream):
            assert record.pc == 0x400000 + (i % 5) * 0x40
            assert record.addr == 0x9000000 + i * 64
            assert record.bubble == i % 12

    def test_detect_format(self, tmp_path):
        k6 = _write_k6(tmp_path / "t.k6")
        assert detect_format(k6) == "k6"
        assert detect_format(_write_champsim(tmp_path / "t.champsim")) == "champsim"
        # extension-less files fall back to a content sniff
        assert detect_format(_write_k6(tmp_path / "noext")) == "k6"
        assert detect_format(_write_champsim(tmp_path / "noext2")) == "champsim"
        converted = Path(_convert(tmp_path, k6).path)
        assert converted.read_bytes()[:4] == CANONICAL_MAGIC
        assert detect_format(converted) == "canonical"

    def test_registry_lists_formats(self):
        assert {"k6", "champsim", "canonical"} <= set(trace_formats())

    def test_record_size_matches_the_dtype(self):
        assert RECORD_SIZE == record_dtype().itemsize == _RECORD.size == 20


class TestDigestCache:
    def test_second_conversion_is_a_hit(self, tmp_path):
        source = _write_k6(tmp_path / "t.k6")
        cache = TraceCache(tmp_path / "cache")
        first = cache.convert(source)
        second = cache.convert(source)
        assert not first.cache_hit and second.cache_hit
        assert first.path == second.path
        assert first.records == second.records == 400
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_same_bytes_different_name_still_hit(self, tmp_path):
        source = _write_k6(tmp_path / "t.k6")
        copy = tmp_path / "elsewhere.trc"
        copy.write_bytes(source.read_bytes())
        cache = TraceCache(tmp_path / "cache")
        cache.convert(source)
        assert cache.convert(copy).cache_hit

    def test_corrupt_cache_entry_reconverts(self, tmp_path):
        source = _write_k6(tmp_path / "t.k6")
        cache = TraceCache(tmp_path / "cache")
        first = cache.convert(source)
        Path(first.path).write_bytes(b"garbage")
        again = cache.convert(source)
        assert not again.cache_hit
        assert read_header(again.path) == 400


class TestEngineEquivalence:
    def test_scalar_and_batched_stats_identical(self, tmp_path):
        source = _write_k6(tmp_path / "t.k6", n=900)
        spec = trace_workload(_convert(tmp_path, source).path)
        scalar = run_single_core(spec, "ppf", CONFIG, seed=2)
        batched = run_single_core(
            spec, "ppf", dataclasses.replace(CONFIG, engine="batched"), seed=2
        )
        assert scalar.stats == batched.stats
        assert scalar.instructions == batched.instructions
        assert scalar.cycles == batched.cycles


class TestTraceFileStream:
    def _canonical(self, tmp_path, n=300):
        return Path(_convert(tmp_path, _write_k6(tmp_path / "t.k6", n=n)).path)

    def test_short_trace_wraps_around(self, tmp_path):
        path = self._canonical(tmp_path, n=100)
        records = list(TraceFileStream(path, 250))
        assert len(records) == 250
        assert records[100] == records[0] and records[249] == records[49]

    def test_state_roundtrip_matches_straight_run(self, tmp_path):
        path = self._canonical(tmp_path)
        straight = list(TraceFileStream(path, 300))

        first = TraceFileStream(path, 300)
        head = list(islice(iter(first), 120))
        state = first.state_dict()
        assert state["emitted"] == 120

        resumed = TraceFileStream(path, 300)
        resumed.load_state(state)
        tail = list(resumed)
        assert head + tail == straight

    def test_load_state_refuses_wrong_digest(self, tmp_path):
        path = self._canonical(tmp_path)
        stream = TraceFileStream(path, 300)
        state = dict(stream.state_dict(), digest="f" * 32)
        with pytest.raises(ValueError):
            TraceFileStream(path, 300).load_state(state)

    def test_workload_name_embeds_digest(self, tmp_path):
        path = self._canonical(tmp_path)
        spec = trace_workload(path)
        assert spec.suite == "traces"
        assert spec.name == f"trace:{path.stem}@{file_digest(path)[:12]}"

    def test_trace_dir_suite_resolves_by_name(self, tmp_path, monkeypatch):
        path = self._canonical(tmp_path)
        monkeypatch.setenv("REPRO_TRACE_DIR", str(path.parent))
        assert "traces" in suites()
        specs = suite("traces")
        assert [s.name for s in specs] == [trace_workload(path).name]
        found = find_workload(specs[0].name)
        assert found.builder(50).file_records == 300


class TestFingerprint:
    def test_trace_digests_fold_into_fingerprint(self):
        tagged = dataclasses.replace(CONFIG, trace_digests=("a" * 32,))
        assert config_fingerprint(tagged) != config_fingerprint(CONFIG)


class TestConvertCLI:
    def test_convert_then_hit(self, tmp_path, capsys):
        source = _write_k6(tmp_path / "t.k6.gz", compress=True)
        cache = tmp_path / "cache"
        argv = ["trace", "convert", str(source), "--cache-dir", str(cache)]
        assert main(argv) == 0
        assert "converted" in capsys.readouterr().out
        assert main(argv) == 0
        assert "cache hit" in capsys.readouterr().out
        assert len(list(cache.glob("*.rpt"))) == 1

    def test_missing_file_exits_2_without_artifacts(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(
            ["trace", "convert", str(tmp_path / "no.k6"), "--cache-dir", str(cache)]
        ) == 2
        assert "repro trace: error" in capsys.readouterr().err
        assert not cache.exists()

    def test_malformed_file_exits_2_and_preserves_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        good = _write_k6(tmp_path / "good.k6")
        assert main(["trace", "convert", str(good), "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        before = sorted(p.name for p in cache.iterdir())
        bad = tmp_path / "bad.k6"
        bad.write_text("zzzz P_MEM_RD 5\n")
        assert main(["trace", "convert", str(bad), "--cache-dir", str(cache)]) == 2
        assert "bad hex address" in capsys.readouterr().err
        # prior entries untouched, nothing partial added
        assert sorted(p.name for p in cache.iterdir()) == before

    def test_explicit_format_overrides_detection(self, tmp_path, capsys):
        source = _write_champsim(tmp_path / "oddly.named")
        assert main(
            [
                "trace", "convert", str(source),
                "--format", "champsim", "--cache-dir", str(tmp_path / "cache"),
            ]
        ) == 0
        assert "[champsim, 300 record(s)" in capsys.readouterr().out


class TestSweepCLI:
    def test_sweep_trace_file_runs_and_caches(self, tmp_path, capsys):
        source = _write_k6(tmp_path / "mix.k6", n=600)
        argv = [
            "sweep",
            "--trace-file", str(source),
            "--trace-cache", str(tmp_path / "cache"),
            "--cache-dir", str(tmp_path / "results"),
            "--records", "1200",
            "--prefetchers", "ppf",
            "--jobs", "1",
            "--quiet",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        digest = file_digest(source)[:12]
        assert f"trace:mix@{digest}" in out
        assert "simulated=2" in out
        # identical rerun: both cells come back from the result cache
        assert main(argv) == 0
        assert "simulated=0" in capsys.readouterr().out

    def test_sweep_bad_trace_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.k6"
        bad.write_text("zzzz P_MEM_RD 5\n")
        assert main(
            [
                "sweep",
                "--trace-file", str(bad),
                "--trace-cache", str(tmp_path / "cache"),
                "--quiet",
            ]
        ) == 2
        assert "repro sweep: error" in capsys.readouterr().err


class TestCheckpointResume:
    def test_mid_measure_checkpoint_resumes_bit_identically(self, tmp_path):
        """Kill a trace-backed cell mid-measure; the rerun continues from
        its checkpoint and reproduces the straight-run stats."""
        from repro.checkpoint import save_snapshot
        from repro.sim.single_core import SingleCoreSim

        source = _write_k6(tmp_path / "t.k6", n=900)
        spec = trace_workload(_convert(tmp_path, source).path)
        straight = run_single_core(spec, "ppf", CONFIG, seed=2)

        ckpt = tmp_path / "cell.ckpt"
        sim = SingleCoreSim(spec, "ppf", CONFIG, seed=2)
        sim.warmup()
        sim.begin_measurement()
        sim.advance(700)  # "crash" partway through measurement
        save_snapshot(ckpt, sim.snapshot("measure"))

        resumed = run_single_core(
            spec, "ppf", CONFIG, seed=2, checkpoint_path=ckpt, checkpoint_every=400
        )
        assert resumed == straight

    def test_checkpoint_refuses_different_trace_bytes(self, tmp_path):
        """A snapshot taken against one trace version never resumes
        against different bytes: the digest check degrades to a clean
        fresh run instead of silently mixing streams."""
        from repro.checkpoint import save_snapshot
        from repro.sim.single_core import SingleCoreSim

        cache = TraceCache(tmp_path / "cache")
        spec_a = trace_workload(
            cache.convert(_write_k6(tmp_path / "a.k6", n=500)).path, name="same"
        )
        sim = SingleCoreSim(spec_a, "ppf", CONFIG, seed=2)
        sim.warmup()
        sim.begin_measurement()
        sim.advance(300)
        ckpt = tmp_path / "cell.ckpt"
        save_snapshot(ckpt, sim.snapshot("measure"))

        other = _write_k6(tmp_path / "b.k6", n=500)
        other.write_text(other.read_text().replace("0x2000", "0x3000"))
        spec_b = trace_workload(cache.convert(other).path, name="same")
        resumed = run_single_core(
            spec_b, "ppf", CONFIG, seed=2, checkpoint_path=ckpt, checkpoint_every=400
        )
        assert resumed == run_single_core(spec_b, "ppf", CONFIG, seed=2)
