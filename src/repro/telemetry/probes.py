"""Periodic probes: typed time-series sampled from live components.

A probe is a tiny read-only adapter over one stateful component: its
``observe()`` returns a flat ``{signal: value}`` mapping computed from
the component's *current* state.  A :class:`ProbeSet` owns a collection
of probes, samples them every N accesses into per-signal
:class:`TimeSeries`, and mirrors each sample onto the tracer as a
Chrome ``C`` (counter) event so phase behaviour shows up in Perfetto.

Probes are **registered components** (``registry`` kind ``"probe"``):
each factory takes the simulation object and returns a probe — or
``None`` when the sim lacks the structures that probe reads (the SPP
probe on a ``none``-prefetcher run, say).  Discovery is duck-typed so
this package never imports the sim layer; layering stays
telemetry → (registry, stats) only.

The sampling contract is the same as the tracer's: probes *read*,
never mutate.  Every ``observe()`` below goes out of its way to use
side-effect-free accessors (``probe``-style cache walks, pure counter
arithmetic) so attaching probes cannot perturb a bit-identical run.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, List, Optional

from ..registry import names as registry_names
from ..registry import create as registry_create
from ..registry import register
from ..stats import GroupAdapter
from .tracer import Tracer


class TimeSeries:
    """One sampled signal: parallel timestamp/value lists."""

    __slots__ = ("name", "unit", "t", "v")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self.t: List[float] = []
        self.v: List[float] = []

    def append(self, t: float, value: float) -> None:
        self.t.append(t)
        self.v.append(value)

    def __len__(self) -> int:
        return len(self.v)

    def summary(self) -> Dict[str, float]:
        """Count/min/max/mean/last aggregate of the sampled values."""
        values = self.v
        if not values:
            return {"count": 0, "min": 0.0, "max": 0.0, "mean": 0.0, "last": 0.0}
        return {
            "count": len(values),
            "min": min(values),
            "max": max(values),
            "mean": sum(values) / len(values),
            "last": values[-1],
        }

    def to_dict(self) -> Dict[str, Any]:
        return {"unit": self.unit, "t": list(self.t), "v": list(self.v)}


class Probe:
    """Base class for component probes.

    Subclasses set ``name`` (the series prefix) and implement
    ``observe()`` returning ``{signal: value}``; units per signal are
    declared in ``units`` and ride into the exported series.
    """

    name = "probe"
    units: Dict[str, str] = {}

    def observe(self) -> Dict[str, float]:
        raise NotImplementedError


class CallableProbe(Probe):
    """Wrap a plain callable as a probe (handy in tests)."""

    def __init__(self, name: str, fn: Callable[[], Dict[str, float]]) -> None:
        self.name = name
        self._fn = fn

    def observe(self) -> Dict[str, float]:
        return self._fn()


class ProbeSet:
    """A sampled collection of probes feeding typed time-series.

    ``sample()`` is the only mutating entry point; it appends one value
    per signal into that signal's series and mirrors the probe's full
    reading onto the tracer as one counter event.  Mounted into a stats
    tree via :meth:`stats_adapter`, the set contributes
    ``telemetry.probe_samples`` / ``telemetry.series`` scalars to every
    RunResult snapshot — the footprint is deliberately tiny so traced
    and untraced snapshots differ only under the ``telemetry.`` scope.
    """

    def __init__(self, probes: Optional[List[Probe]] = None) -> None:
        self.probes: List[Probe] = list(probes or [])
        self.series: Dict[str, TimeSeries] = {}
        self.samples = 0

    @classmethod
    def discover(cls, sim: Any) -> "ProbeSet":
        """Build every registered probe that applies to ``sim``.

        Factories registered under kind ``"probe"`` are called with the
        simulation object; a ``None`` return means "not applicable"
        (e.g. the PPF probe on a plain-SPP run) and is skipped.
        """
        probes: List[Probe] = []
        for name in registry_names("probe"):
            probe = registry_create("probe", name, sim)
            if probe is not None:
                probes.append(probe)
        return cls(probes)

    def sample(self, t: float, tracer: Optional[Tracer] = None) -> None:
        """Take one reading of every probe at timestamp ``t``."""
        self.samples += 1
        series = self.series
        for probe in self.probes:
            values = probe.observe()
            prefix = probe.name
            units = probe.units
            for key, value in values.items():
                full = f"{prefix}.{key}"
                track = series.get(full)
                if track is None:
                    track = TimeSeries(full, units.get(key, ""))
                    series[full] = track
                track.append(t, value)
            if tracer is not None and tracer.enabled:
                tracer.counter(prefix, t, values)

    def stats_adapter(self) -> GroupAdapter:
        """A mountable stats group: sample/series counts only.

        Snapshot keys are deliberately restricted to bookkeeping scalars
        (never probe readings) so the golden-stats identity tests can
        strip the whole ``telemetry.`` scope and compare the rest
        key-for-key.

        The adapter holds the set weakly: the set's probes read the very
        machine whose stats tree mounts the adapter, so a strong reference
        would close a cycle through it.  The sim and the session own the
        set for as long as anything reads the tree.
        """
        probe_set = weakref.ref(self)

        def snapshot():
            live = probe_set()
            return {"probe_samples": live.samples, "series": len(live.series)}

        def reset():
            # Series are artifacts, not statistics: the warmup-boundary
            # reset must not erase recorded samples.
            return None

        return GroupAdapter(snapshot, reset)

    def to_dict(self) -> Dict[str, Any]:
        return {name: track.to_dict() for name, track in sorted(self.series.items())}


# -- registered probes ---------------------------------------------------------


class CacheProbe(Probe):
    """L2 demand MPKI plus L2/LLC occupancy."""

    name = "cache"
    units = {"l2_mpki": "misses/kinst", "l2_occupancy": "fraction", "llc_occupancy": "fraction"}

    def __init__(self, core: Any, l2: Any, llc: Any) -> None:
        self._core = core
        self._l2 = l2
        self._llc = llc

    def observe(self) -> Dict[str, float]:
        instructions = self._core.measured_instructions
        misses = self._l2.stats.demand_misses
        return {
            "l2_mpki": (1000.0 * misses / instructions) if instructions > 0 else 0.0,
            "l2_occupancy": self._l2.occupancy(),
            "llc_occupancy": self._llc.occupancy(),
        }


@register("probe", "cache")
def _cache_probe(sim: Any) -> Optional[Probe]:
    hierarchy = getattr(sim, "hierarchy", None)
    core = getattr(sim, "core", None)
    if hierarchy is None or core is None:
        return None
    return CacheProbe(core, hierarchy.l2[0], hierarchy.llc)


class DRAMProbe(Probe):
    """Row-buffer locality and queueing pressure at the memory controller."""

    name = "dram"
    units = {"row_hit_rate": "fraction", "mean_queue_delay": "cycles", "accesses": "count"}

    def __init__(self, dram: Any) -> None:
        self._dram = dram

    def observe(self) -> Dict[str, float]:
        stats = self._dram.stats
        return {
            "row_hit_rate": stats.row_hit_rate,
            "mean_queue_delay": stats.mean_queue_delay,
            "accesses": float(stats.accesses),
        }


@register("probe", "dram")
def _dram_probe(sim: Any) -> Optional[Probe]:
    hierarchy = getattr(sim, "hierarchy", None)
    if hierarchy is None or not hasattr(hierarchy, "dram"):
        return None
    return DRAMProbe(hierarchy.dram)


def _find_spp(prefetcher: Any) -> Optional[Any]:
    """The SPP engine behind a prefetcher, if any (duck-typed).

    PPF wraps its SPP as ``.underlying``; a bare SPP exposes the
    summary itself; anything else has no SPP state to probe.
    """
    if hasattr(prefetcher, "confidence_summary"):
        return prefetcher
    underlying = getattr(prefetcher, "underlying", None)
    if underlying is not None and hasattr(underlying, "confidence_summary"):
        return underlying
    return None


class SPPProbe(Probe):
    """SPP internals: alpha, table occupancy and confidence shape."""

    name = "spp"
    units = {
        "alpha": "percent",
        "pattern_entries": "count",
        "signature_entries": "count",
        "mean_confidence": "percent",
        "max_confidence": "percent",
    }

    def __init__(self, spp: Any) -> None:
        self._spp = spp

    def observe(self) -> Dict[str, float]:
        spp = self._spp
        confidence = spp.confidence_summary()
        return {
            "alpha": float(spp.alpha_percent),
            "pattern_entries": float(spp.pattern_entry_count()),
            "signature_entries": float(spp.signature_entry_count()),
            "mean_confidence": confidence["mean_confidence"],
            "max_confidence": confidence["max_confidence"],
        }


@register("probe", "spp")
def _spp_probe(sim: Any) -> Optional[Probe]:
    spp = _find_spp(getattr(sim, "prefetcher", None))
    if spp is None:
        return None
    return SPPProbe(spp)


class PPFProbe(Probe):
    """Perceptron-filter health: weight magnitudes, saturation, decisions."""

    name = "ppf"

    def __init__(self, ppf_filter: Any) -> None:
        self._filter = ppf_filter

    def observe(self) -> Dict[str, float]:
        ppf_filter = self._filter
        out: Dict[str, float] = {}
        for feature, metrics in ppf_filter.weight_summary().items():
            out[f"weight_abs_mean.{feature}"] = metrics["abs_mean"]
            out[f"weight_saturation.{feature}"] = metrics["saturation"]
        stats = ppf_filter.stats
        inferences = stats.inferences
        out["accept_rate"] = stats.accept_rate
        out["reject_rate"] = (stats.rejected / inferences) if inferences else 0.0
        return out


@register("probe", "ppf")
def _ppf_probe(sim: Any) -> Optional[Probe]:
    ppf_filter = getattr(getattr(sim, "prefetcher", None), "filter", None)
    if ppf_filter is None or not hasattr(ppf_filter, "weight_summary"):
        return None
    return PPFProbe(ppf_filter)


class PythiaProbe(Probe):
    """Pythia's learning health: Q saturation, vault churn, reward mix."""

    name = "pythia"
    units = {
        "mean_abs_q": "reward",
        "q_saturation": "fraction",
        "vault_occupancy": "fraction",
        "eq_occupancy": "fraction",
        "reward_accurate_timely_frac": "fraction",
        "reward_accurate_late_frac": "fraction",
        "reward_inaccurate_frac": "fraction",
        "reward_no_prefetch_frac": "fraction",
    }

    def __init__(self, pythia: Any) -> None:
        self._pythia = pythia

    def observe(self) -> Dict[str, float]:
        return self._pythia.qvalue_summary()


@register("probe", "pythia")
def _pythia_probe(sim: Any) -> Optional[Probe]:
    prefetcher = getattr(sim, "prefetcher", None)
    if hasattr(prefetcher, "qvalue_summary"):
        return PythiaProbe(prefetcher)
    underlying = getattr(prefetcher, "underlying", None)
    if hasattr(underlying, "qvalue_summary"):
        return PythiaProbe(underlying)
    return None


class FilterSeamProbe(Probe):
    """Accept/reject flow through a perceptron filter, labelled per
    inner prefetcher (``filter.<inner>.*``) so cross-product sweeps can
    compare how the same filter treats different candidate streams."""

    units = {"accepts": "count", "rejects": "count", "accept_rate": "fraction"}

    def __init__(self, inner: str, perceptron: Any) -> None:
        self.name = f"filter.{inner}"
        self._perceptron = perceptron

    def observe(self) -> Dict[str, float]:
        stats = self._perceptron.stats
        return {
            "accepts": float(stats.accepted_l2 + stats.accepted_llc),
            "rejects": float(stats.rejected),
            "accept_rate": stats.accept_rate,
        }


@register("probe", "filter_seam")
def _filter_seam_probe(sim: Any) -> Optional[Probe]:
    prefetcher = getattr(sim, "prefetcher", None)
    perceptron = getattr(prefetcher, "filter", None)
    if perceptron is None or not hasattr(perceptron, "stats"):
        return None
    inner = getattr(prefetcher, "inner_name", None)
    if inner is None:
        underlying = getattr(prefetcher, "underlying", None)
        inner = getattr(underlying, "name", None) if underlying is not None else None
    if inner is None:
        inner = "self"  # a prefetcher filtering its own candidates
    return FilterSeamProbe(inner, perceptron)


class CoreProbe(Probe):
    """ROB-window occupancy and measurement-window IPC."""

    name = "core"
    units = {"outstanding_loads": "count", "ipc": "inst/cycle", "instructions": "count"}

    def __init__(self, core: Any) -> None:
        self._core = core

    def observe(self) -> Dict[str, float]:
        core = self._core
        return {
            "outstanding_loads": float(core.outstanding_loads),
            "ipc": core.measured_ipc,
            "instructions": float(core.measured_instructions),
        }


@register("probe", "core")
def _core_probe(sim: Any) -> Optional[Probe]:
    core = getattr(sim, "core", None)
    if core is None or not hasattr(core, "measured_ipc"):
        return None
    return CoreProbe(core)
