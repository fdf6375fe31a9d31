"""The learned-prefetcher zoo (ROADMAP item 5).

Table-driven reductions of the competitors PAPERS.md names — Pythia's
online-RL prefetcher and the Jamet-style two-level neural predictor —
plus the generic ``filtered:<inner>`` seam that composes the paper's
perceptron filter over any registered prefetcher.  Importing this
package registers every zoo component; ``repro.sim.single_core``
imports it so sweep pool workers can rehydrate zoo prefetchers by
name.
"""

from .filtered import (
    FILTER_SPEC_PREFIX,
    filter_specs,
    inner_name,
    is_filter_spec,
    make_filtered,
    validate_prefetcher_spec,
)
from .pythia import Pythia, PythiaConfig, PythiaStats
from .two_level import TwoLevelConfig, TwoLevelFilter, TwoLevelStats, two_level_features

__all__ = [
    "FILTER_SPEC_PREFIX",
    "Pythia",
    "PythiaConfig",
    "PythiaStats",
    "TwoLevelConfig",
    "TwoLevelFilter",
    "TwoLevelStats",
    "filter_specs",
    "inner_name",
    "is_filter_spec",
    "make_filtered",
    "two_level_features",
    "validate_prefetcher_spec",
]
