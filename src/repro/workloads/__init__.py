"""Workload models: SPEC CPU 2017/2006- and CloudSuite-like generators.

Suites are registered components: ``suite("spec2017")`` (or any name in
``suites()``) resolves through :mod:`repro.registry`, and
:func:`find_workload` looks a benchmark up across every registered
suite — which is how parallel workers rehydrate workloads by name.
"""

from typing import List

from .. import registry
from .cloudsuite import cloudsuite_workloads
from .mixes import WorkloadMix, build_mixes, memory_intensive_mixes, random_mixes
from .recipes import Recipe, recipe
from .simpoint import (
    SimPoint,
    phase_count,
    select_simpoints,
    signature_vectors,
    weighted_mean,
    window_records,
)
from .spec2006 import spec2006_memory_intensive, spec2006_workloads
from .spec2017 import (
    WorkloadSpec,
    memory_intensive_subset,
    spec2017_workloads,
    workload_by_name,
)
from .synthetic import (
    AccessPattern,
    HotsetPattern,
    PatternMix,
    PhaseDeltaPattern,
    PointerChasePattern,
    RandomPattern,
    ScatterGatherPattern,
    SequentialPattern,
    StridedPattern,
    interleave,
)

# Imported for its registrations (suite "traces", kind "trace_format"):
# file-backed workloads resolve through find_workload like any other
# suite, which is how sweep workers rehydrate them by name.  Imported
# after the synthetic suites above so repro.traces can use WorkloadSpec.
from .. import traces as _traces  # noqa: E402,F401

def suite(name: str) -> List[WorkloadSpec]:
    """Instantiate a registered workload suite by name."""
    return registry.create("suite", name)


def suites() -> List[str]:
    """Sorted names of every registered workload suite."""
    return registry.names("suite")


def full_catalog() -> List[WorkloadSpec]:
    """Every workload of every registered suite (intensive subsets,
    being views over their parent suites, are skipped)."""
    out: List[WorkloadSpec] = []
    seen = set()
    for name in suites():
        for spec in registry.create("suite", name):
            if spec.name not in seen:
                seen.add(spec.name)
                out.append(spec)
    return out


def find_workload(name: str) -> WorkloadSpec:
    """Look one benchmark up by name across every registered suite."""
    for spec in full_catalog():
        if spec.name == name:
            return spec
    known = ", ".join(sorted(spec.name for spec in full_catalog()))
    raise registry.UnknownComponentError(
        f"unknown workload {name!r}; known workloads: {known}"
    )


__all__ = [
    "suite",
    "suites",
    "full_catalog",
    "find_workload",
    "cloudsuite_workloads",
    "WorkloadMix",
    "build_mixes",
    "memory_intensive_mixes",
    "random_mixes",
    "Recipe",
    "recipe",
    "SimPoint",
    "phase_count",
    "select_simpoints",
    "signature_vectors",
    "weighted_mean",
    "window_records",
    "spec2006_memory_intensive",
    "spec2006_workloads",
    "WorkloadSpec",
    "memory_intensive_subset",
    "spec2017_workloads",
    "workload_by_name",
    "AccessPattern",
    "HotsetPattern",
    "PatternMix",
    "PhaseDeltaPattern",
    "PointerChasePattern",
    "RandomPattern",
    "ScatterGatherPattern",
    "SequentialPattern",
    "StridedPattern",
    "interleave",
]
