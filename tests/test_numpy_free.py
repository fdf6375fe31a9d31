"""The simulator runs without numpy.

numpy is needed only to decode or write trace files (``repro.traces``)
and for SimPoint clustering (``repro.workloads.simpoint``), and both
import it inside the functions that use it.  Every simulation path --
either engine, one core or several, a sweep -- must run with numpy
unimportable, so no CLI call or pool worker pays for loading it.

Each case runs in a fresh interpreter: the test process itself has
long since imported numpy through other tests.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(script: str, tmp_path: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_simulation_path_runs_with_numpy_blocked(tmp_path):
    out = _run(
        """
        import sys

        sys.modules["numpy"] = None  # any ``import numpy`` now raises ImportError

        import dataclasses

        import repro
        import repro.__main__  # noqa: F401
        from repro import SimConfig, SuiteRunner, find_workload
        from repro.core.ppf import PPF
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.sim.multi_core import run_multi_core
        from repro.sim.single_core import run_single_core
        from repro.workloads.mixes import WorkloadMix


        def config(engine, base=None):
            return dataclasses.replace(
                base or SimConfig(), warmup_records=100, measure_records=300, engine=engine
            )


        xalan = find_workload("623.xalancbmk_s")
        mcf = find_workload("605.mcf_s")
        # The fused PPF runner calls neither MemoryHierarchy.access nor
        # PPF.train: the generic runner calls PPF.train, the step runner
        # MemoryHierarchy.access.
        calls = []
        access, train = MemoryHierarchy.access, PPF.train
        MemoryHierarchy.access = lambda self, *args: calls.append(1) or access(self, *args)
        PPF.train = lambda self, *args: calls.append(1) or train(self, *args)
        fused = run_single_core(xalan, "ppf", config("batched"), seed=1, telemetry=None)
        assert not calls, "ppf cell left the fused runner"
        MemoryHierarchy.access, PPF.train = access, train
        cells = [
            fused,
            run_single_core(mcf, "pythia", config("batched"), seed=1, telemetry=None),
            run_single_core(mcf, "spp", config("scalar"), seed=1, telemetry=None),
        ]
        mix = WorkloadMix(name="pair", workloads=(xalan, mcf))
        multi = run_multi_core(
            mix, "ppf", config("batched", SimConfig.multicore(2)), seed=1, telemetry=None
        )
        suite = SuiteRunner(config("batched"), seed=1, jobs=1).sweep(
            [xalan], ["spp", "ppf"], include_baseline=False
        )
        assert all(cell.instructions > 0 for cell in cells)
        assert len(multi.cores) == 2
        assert len(suite.runs) == 2
        print("ok")
        """,
        tmp_path,
    )
    assert out.strip() == "ok"


def test_numpy_loads_only_when_a_trace_file_is_decoded(tmp_path):
    out = _run(
        """
        import struct
        import sys
        from pathlib import Path

        import repro  # noqa: F401
        from repro.traces import trace_workload
        from repro.traces.canonical import pack_header

        record = struct.Struct("<QQI")
        path = Path("t.rpt")
        path.write_bytes(
            pack_header(64)
            + b"".join(record.pack(0x400000, 0x9000000 + i * 64, 1) for i in range(64))
        )
        spec = trace_workload(path)  # header and digest only
        assert "numpy" not in sys.modules, "numpy loaded before any decode"
        first = next(iter(spec.trace(10, seed=1)))
        assert first.addr == 0x9000000
        assert "numpy" in sys.modules
        print("ok")
        """,
        tmp_path,
    )
    assert out.strip() == "ok"
