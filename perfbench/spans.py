"""Outside-in layer attribution for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  :class:`Tracer` swaps
wrappers in for public calls of each ``repro`` layer (class attributes
and module functions), times every call with ``perf_counter`` and keeps,
per call site, a call count plus *self time*: the call's duration minus
the time of wrapped calls made inside it.  Summing self time by layer
therefore partitions a traced pass; whatever no wrapper claims is the
pass's own time (``other``).

Structured spans (pass -> cell -> phase -> engine advance, plus the
sweep around sweep cells) are also recorded one by one, each with a
parent link, and every span of one cell carries that cell's id.  Hot
calls (trace records, cache lookups, filter inferences, ...) are only
tallied.  Everything stays in memory; the caller writes it out once.

The wrappers add a fixed cost per call, which lands in the caller's self
time, so the shares of layers made of many small calls are upper
bounds; ``tracing.overhead_frac`` reports the total.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import repro  # noqa: F401  (registers every prefetcher, zoo and engine class)
from repro.core.filter import PerceptronFilter
from repro.cpu.o3core import O3Core
from repro.engine.batched import BatchedEngine
from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetchers.base import Prefetcher
from repro.sim import multi_core, single_core, suite
from repro.workloads.spec2017 import WorkloadSpec
from repro.workloads.synthetic import AccessPattern, TraceStream

#: Layers whose self time is reported, in report order.
LAYERS = ("workloads", "engine", "core", "memory", "prefetchers", "zoo", "cpu", "sim", "suite")

#: Prefetcher hooks the hierarchy calls; attributed to the layer of the
#: class that defines them (``repro.core`` for PPF, ``repro.zoo`` ...).
_PREFETCHER_CALLS = ("train", "on_prefetch_issued", "on_useful_prefetch", "on_eviction")

_SIM_PHASES = ("__init__", "warmup", "begin_measurement", "measure", "result")


def _layer(cls) -> str:
    return cls.__module__.split(".")[1]


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _call_sites() -> List[Tuple[object, str, str, Optional[str]]]:
    """(owner, attribute, layer, span kind or None for a hot call)."""
    sites: List[Tuple[object, str, str, Optional[str]]] = [
        (WorkloadSpec, "trace", "workloads", None),
        (TraceStream, "__next__", "workloads", None),
        (BatchedEngine, "advance", "engine", "advance"),
        (BatchedEngine, "advance_multi", "engine", "advance"),
        (MemoryHierarchy, "access", "memory", None),
        (MemoryHierarchy, "reset_stats", "memory", None),
        (MemoryHierarchy, "snapshot", "memory", None),
        (MemoryHierarchy, "core_snapshot", "memory", None),
        (Cache, "lookup", "memory", None),
        (Cache, "fill", "memory", None),
        (DRAM, "access", "memory", None),
        (PerceptronFilter, "infer", "core", None),
        (PerceptronFilter, "decide", "core", None),
        (PerceptronFilter, "train", "core", None),
        (O3Core, "step", "cpu", None),
        (O3Core, "drain", "cpu", None),
        (single_core, "run_single_core", "sim", "cell"),
        (suite, "run_single_core", "sim", "cell"),
        (multi_core, "run_multi_core", "sim", "cell"),
        (suite.SuiteRunner, "sweep", "suite", "sweep"),
    ]
    for pattern in _subclasses(AccessPattern):
        if "next_address" in vars(pattern) and pattern is not AccessPattern:
            sites.append((pattern, "next_address", "workloads", None))
    for cls in _subclasses(Prefetcher):
        for name in _PREFETCHER_CALLS:
            if name in vars(cls):
                sites.append((cls, name, _layer(cls), None))
    for sim_cls in (single_core.SingleCoreSim, multi_core.MultiCoreSim):
        for name in _SIM_PHASES:
            sites.append((sim_cls, name, "sim", "phase"))
    return sites


def _name(owner, attr: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{attr}"


class Tracer:
    """Wrappers, tallies and spans of one traced run."""

    def __init__(self) -> None:
        #: Child-time accumulators of the open wrapped calls; index 0 is
        #: the pass itself.  Closures hold this exact list.
        self.stack: List[float] = [0.0]
        #: call site -> [calls, self seconds] for the current pass.
        self.tally: Dict[str, List[float]] = {}
        self.layer_of: Dict[str, str] = {}
        self.spans: List[dict] = []
        self.cells: List[dict] = []
        #: Inclusive seconds of each sim phase this pass (a phase called
        #: inside another, like MultiCoreSim.result in measure, counts
        #: in both).
        self.phase_s: Dict[str, float] = {}
        #: Sims built during the current pass (read after it, untimed).
        self.sims: List[object] = []
        self._open: List[int] = []
        self._cell: Optional[int] = None
        self._cell_start: Dict[str, Tuple[float, float]] = {}
        self._pass_id: Optional[int] = None
        self._originals: List[Tuple[object, str, object]] = []
        self._wrappers: List[Tuple[object, str, Callable]] = []
        self._epoch = perf_counter()
        for owner, attr, layer, kind in _call_sites():
            key = _name(owner, attr)
            if key in self.tally:
                continue
            original = vars(owner)[attr]
            self.layer_of[key] = layer
            self.tally[key] = [0, 0.0]
            self._originals.append((owner, attr, original))
            self._wrappers.append((owner, attr, self._wrap(key, original, kind)))

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, key: str, fn: Callable, kind: Optional[str]) -> Callable:
        acc = self.tally[key]
        stack = self.stack
        clock = perf_counter
        if kind is None:

            def hot(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    acc[0] += 1
                    acc[1] += dt - stack.pop()
                    stack[-1] += dt

            return hot

        tracer = self

        def spanned(*args, **kwargs):
            token = tracer._enter(key, kind)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                acc[0] += 1
                acc[1] += dt - stack.pop()
                stack[-1] += dt
                tracer._exit(token, key, kind, t0, t1)
                if kind == "phase" and key.endswith(".__init__"):
                    tracer.sims.append(args[0])

        return spanned

    def install(self) -> None:
        # Engines pull records with ``islice(stream, n)``, i.e. through
        # ``iter(stream)``, which hands out the stream's generator and so
        # bypasses ``__next__``.  Returning the stream itself keeps every
        # pull on the (wrapped) public ``__next__``: same generator, same
        # records.
        TraceStream.__iter__ = _iter_self
        for owner, attr, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
        TraceStream.__iter__ = _ORIGINAL_ITER

    # -- spans -------------------------------------------------------------------

    def _enter(self, key: str, kind: str) -> int:
        sid = len(self.spans)
        if kind == "cell":
            self._cell = sid
            self._cell_start = {k: (v[0], v[1]) for k, v in self.tally.items()}
        self.spans.append(
            {
                "id": sid,
                "parent": self._open[-1] if self._open else None,
                "cell": self._cell,
                "pass": self._pass_id,
                "name": key,
                "kind": kind,
            }
        )
        self._open.append(sid)
        return sid

    def _exit(self, sid: int, key: str, kind: str, t0: float, t1: float) -> None:
        self._open.pop()
        span = self.spans[sid]
        span["t0"] = t0 - self._epoch
        span["t1"] = t1 - self._epoch
        if kind == "phase":
            phase = key.rsplit(".", 1)[1]
            self.phase_s[phase] = self.phase_s.get(phase, 0.0) + (t1 - t0)
        elif kind == "cell":
            calls = {}
            for k, (n, s) in self.tally.items():
                n0, s0 = self._cell_start[k]
                if n != n0:
                    calls[k] = {"calls": int(n - n0), "self_s": s - s0}
            self.cells.append({"cell": sid, "pass": self._pass_id, "calls": calls})
            self._cell = None

    # -- passes ------------------------------------------------------------------

    def begin_pass(self, label: str) -> None:
        """Zero the tallies and open a pass span (the stack's base)."""
        for acc in self.tally.values():
            acc[0] = 0
            acc[1] = 0.0
        self.stack[:] = [0.0]
        self.phase_s.clear()
        self.sims = []
        self._epoch = perf_counter()
        self._pass_id = len(self.spans)
        self.spans.append(
            {"id": self._pass_id, "parent": None, "cell": None, "pass": self._pass_id,
             "name": label, "kind": "pass", "t0": 0.0}
        )
        self._open = [self._pass_id]

    def end_pass(self) -> float:
        """Close the pass span; returns its wall seconds."""
        wall = perf_counter() - self._epoch
        self.spans[self._pass_id]["t1"] = wall
        self._open = []
        return wall

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: self seconds and calls of the current pass."""
        totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for key, (calls, self_s) in self.tally.items():
            layer = totals[self.layer_of[key]]
            layer["self_s"] += self_s
            layer["calls"] += int(calls)
        return totals

    def calls(self, *keys: str) -> int:
        return int(sum(self.tally[key][0] for key in keys))

    def calls_where(self, layer: str, attr: str) -> int:
        return int(
            sum(
                acc[0]
                for key, acc in self.tally.items()
                if self.layer_of[key] == layer and key.endswith("." + attr)
            )
        )


def _iter_self(stream):
    return stream


_ORIGINAL_ITER = TraceStream.__iter__


class PoolCellClock:
    """Times sweep cells inside pool workers, from outside.

    Wraps the suite module's ``run_single_core`` (what each sweep cell
    runs) so the worker stamps its own start and end on the returned
    result; the stamps ride back to the sweeping process with the
    pickled result.  Pool workers are forked from that process, so they
    inherit the wrapper.  ``perf_counter`` is the system-wide monotonic
    clock, so stamps from different processes compare directly.  An
    observer records when each cell was submitted.
    """

    ATTR = "perfbench_cell_span"

    def __init__(self) -> None:
        self.submitted: Dict[Tuple[str, str], float] = {}
        self._original = suite.run_single_core

    def observer(self, record: dict) -> None:
        if record.get("phase") == "started":
            self.submitted.setdefault((record["workload"], record["prefetcher"]), perf_counter())

    def install(self) -> None:
        original = self._original
        attr = self.ATTR

        def timed_cell(*args, **kwargs):
            t0 = perf_counter()
            result = original(*args, **kwargs)
            setattr(result, attr, (t0, perf_counter()))
            return result

        suite.run_single_core = timed_cell

    def uninstall(self) -> None:
        suite.run_single_core = self._original
