"""The perceptron filter: hashed-perceptron inference and training (§3.1).

Inference sums one 5-bit weight per feature table and thresholds the sum
twice:

* ``sum >= tau_hi``            → prefetch into the **L2** (high confidence)
* ``tau_lo <= sum < tau_hi``   → prefetch into the **LLC** (moderate)
* ``sum < tau_lo``             → **reject** the candidate

Training follows the perceptron learning rule with saturation guards:
on a positive outcome weights are incremented only while the re-computed
sum is below ``theta_p``; on a negative outcome they are decremented
only while the sum is above ``theta_n``.  The guards prevent
over-training so the filter re-adapts quickly when program behaviour
shifts (§3.1, "Training").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..checkpoint.state import group_state, load_group
from ..stats import StatGroup
from .features import Feature, FeatureContext, production_features
from .weights import WEIGHT_MAX, WEIGHT_MIN, WeightTable


class Decision(Enum):
    """Where an accepted candidate fills, or that it was rejected."""

    PREFETCH_L2 = "l2"
    PREFETCH_LLC = "llc"
    REJECT = "reject"

    @property
    def accepted(self) -> bool:
        return self is not Decision.REJECT


#: Integer spellings of the three decisions for the inference fast path
#: (:meth:`PerceptronFilter.decide`): enum identity checks and property
#: lookups are measurable at millions of inferences per run.  Accepted
#: codes are truthy; ``DECISION_BY_CODE[code]`` recovers the enum.
REJECT_CODE = 0
PREFETCH_LLC_CODE = 1
PREFETCH_L2_CODE = 2
DECISION_BY_CODE = (Decision.REJECT, Decision.PREFETCH_LLC, Decision.PREFETCH_L2)


def _production_indices(ctx) -> Tuple[int, ...]:
    """All nine production feature indices in one call.

    Hand-fused version of the generic per-feature extract/mask walk,
    used only when the filter's feature set *is* the production catalog
    (same extractors, same table sizes — see ``_PRODUCTION_LANES``).
    Must stay index-for-index identical with
    :func:`repro.core.features.production_features`;
    ``tests/test_filter.py`` cross-checks the two paths.
    """
    cand = ctx.candidate_addr
    pc = ctx.pc
    pc1, pc2, pc3 = ctx.pcs
    delta = ctx.delta
    confidence = ctx.confidence
    # encode_delta, inlined: sign bit 6, magnitude saturating at 63.
    magnitude = delta if delta >= 0 else -delta
    if magnitude > 63:
        magnitude = 63
    encoded = (64 | magnitude) if delta < 0 else magnitude
    return (
        (cand >> 6) & 4095,  # phys_address
        (cand >> 12) & 4095,  # cache_line
        (cand >> 18) & 4095,  # page_address
        ((ctx.trigger_addr >> 12) ^ confidence) & 4095,  # page_xor_confidence
        (pc1 ^ (pc2 >> 1) ^ (pc3 >> 2)) & 2047,  # pc_path_hash
        (ctx.signature ^ encoded) & 2047,  # signature_xor_delta
        (pc ^ ctx.depth) & 1023,  # pc_xor_depth
        (pc ^ encoded) & 1023,  # pc_xor_delta
        confidence & 127,  # confidence
    )


#: (extract, entries) per production feature — the fused path engages
#: only on an exact match, so renamed/rescaled variants fall back to
#: the generic walk.
_PRODUCTION_LANES = tuple(
    (feature.extract, feature.table_entries) for feature in production_features()
)


@dataclass
class FilterConfig:
    """Inference and training thresholds.

    Defaults follow the reference PPF implementation: the inference
    thresholds sit slightly below zero so an untrained filter lets
    prefetches through (SPP only suggests candidates it has *some*
    confidence in), and the training thresholds stop weight movement
    once the sum is decisively correct.
    """

    tau_hi: int = -5
    tau_lo: int = -15
    theta_p: int = 90
    theta_n: int = -90

    def __post_init__(self) -> None:
        if self.tau_lo > self.tau_hi:
            raise ValueError("tau_lo must not exceed tau_hi")
        if self.theta_n > self.theta_p:
            raise ValueError("theta_n must not exceed theta_p")

    @classmethod
    def default(cls) -> "FilterConfig":
        return cls()

    @classmethod
    def single_level(cls) -> "FilterConfig":
        """Ablation: collapse the two fill thresholds into one."""
        return cls(tau_hi=-15, tau_lo=-15)


@dataclass
class FilterStats(StatGroup):
    """Inference/training counters, including a per-feature histogram."""

    derived = ("accept_rate",)

    inferences: int = 0
    accepted_l2: int = 0
    accepted_llc: int = 0
    rejected: int = 0
    positive_updates: int = 0
    negative_updates: int = 0
    suppressed_updates: int = 0  # skipped by the theta saturation guards
    #: Weight movements per feature table (saturated bumps don't count),
    #: flattened into snapshots as ``per_feature_updates.<feature>``.
    per_feature_updates: Dict[str, int] = field(default_factory=dict)

    @property
    def accept_rate(self) -> float:
        if self.inferences == 0:
            return 0.0
        return (self.accepted_l2 + self.accepted_llc) / self.inferences


class PerceptronFilter:
    """Hashed-perceptron usefulness predictor over a feature set."""

    def __init__(
        self,
        features: Optional[Sequence[Feature]] = None,
        config: Optional[FilterConfig] = None,
    ) -> None:
        self.features: List[Feature] = (
            list(features) if features is not None else production_features()
        )
        if not self.features:
            raise ValueError("perceptron filter needs at least one feature")
        self.config = config or FilterConfig.default()
        self.tables: List[WeightTable] = [
            WeightTable(feature.table_entries) for feature in self.features
        ]
        self.stats = FilterStats()
        # Hot-path caches.  The weight lists are direct references into
        # the tables (WeightTable.reset()/load() mutate in place, so
        # they never go stale); the lane tuples drop the per-candidate
        # Feature.index() method dispatch.
        self._lanes: List[Tuple] = [
            (feature.extract, feature.table_entries - 1) for feature in self.features
        ]
        self._feature_names: List[str] = [feature.name for feature in self.features]
        self._weight_lists: List[List[int]] = [table._weights for table in self.tables]
        self._fused_indices = (
            _production_indices
            if tuple(
                (feature.extract, feature.table_entries) for feature in self.features
            )
            == _PRODUCTION_LANES
            else None
        )

    # -- inference ---------------------------------------------------------------

    def feature_indices(self, ctx: FeatureContext) -> Tuple[int, ...]:
        """Compute each feature's table index for one candidate."""
        fused = self._fused_indices
        if fused is not None:
            return fused(ctx)
        return tuple(extract(ctx) & mask for extract, mask in self._lanes)

    def weight_sum(self, indices: Sequence[int]) -> int:
        """The perceptron sum for previously computed indices."""
        total = 0
        for weights, index in zip(self._weight_lists, indices):
            total += weights[index]
        return total

    def decide(self, ctx: FeatureContext) -> Tuple[int, int, Tuple[int, ...]]:
        """Decide one candidate; returns (decision code, sum, indices).

        The integer-code twin of :meth:`infer` — PPF's per-candidate
        loop calls this to skip the enum wrapping; ``DECISION_BY_CODE``
        maps the code back when the enum is wanted.
        """
        fused = self._fused_indices
        if fused is not None:
            indices = fused(ctx)
        else:
            indices = tuple(extract(ctx) & mask for extract, mask in self._lanes)
        total = 0
        for weights, index in zip(self._weight_lists, indices):
            total += weights[index]
        cfg = self.config
        stats = self.stats
        stats.inferences += 1
        if total >= cfg.tau_hi:
            stats.accepted_l2 += 1
            return PREFETCH_L2_CODE, total, indices
        if total >= cfg.tau_lo:
            stats.accepted_llc += 1
            return PREFETCH_LLC_CODE, total, indices
        stats.rejected += 1
        return REJECT_CODE, total, indices

    def infer(self, ctx: FeatureContext) -> Tuple[Decision, int, Tuple[int, ...]]:
        """Decide one candidate; returns (decision, sum, indices)."""
        code, total, indices = self.decide(ctx)
        return DECISION_BY_CODE[code], total, indices

    # -- engine seam ---------------------------------------------------------------

    def engine_view(self):
        """Raw mutable state for the batched engine's fused kernel.

        Returns ``(config, weight_lists, feature_names, stats, fused)``.
        ``weight_lists`` are direct references into the tables (restored
        in place by checkpoints, so never stale); ``fused`` is True only
        when the feature set is exactly the production catalog, which is
        what the fused kernel's inlined nine-index expression assumes.
        """
        return (
            self.config,
            self._weight_lists,
            self._feature_names,
            self.stats,
            self._fused_indices is not None,
        )

    # -- training ----------------------------------------------------------------

    def train(self, indices: Sequence[int], positive: bool) -> bool:
        """Apply one perceptron update; returns False when suppressed.

        The saturation guards re-read the *current* sum (the weights may
        have moved since inference), matching §3.1: "If the sum falls
        below a specific threshold, training occurs".
        """
        weight_lists = self._weight_lists
        total = 0
        for weights, index in zip(weight_lists, indices):
            total += weights[index]
        cfg = self.config
        stats = self.stats
        if positive:
            if total >= cfg.theta_p:
                stats.suppressed_updates += 1
                return False
        elif total <= cfg.theta_n:
            stats.suppressed_updates += 1
            return False
        updates = stats.per_feature_updates
        if positive:
            for name, weights, index in zip(self._feature_names, weight_lists, indices):
                value = weights[index]
                if value < WEIGHT_MAX:
                    weights[index] = value + 1
                    updates[name] = updates.get(name, 0) + 1
            stats.positive_updates += 1
        else:
            for name, weights, index in zip(self._feature_names, weight_lists, indices):
                value = weights[index]
                if value > WEIGHT_MIN:
                    weights[index] = value - 1
                    updates[name] = updates.get(name, 0) + 1
            stats.negative_updates += 1
        return True

    def retune(
        self, tau_hi: Optional[int] = None, tau_lo: Optional[int] = None
    ) -> None:
        """Adjust the inference thresholds in place.

        The hook for adaptive outer stages (the two-level filter moves
        its thresholds to chase a target accept accuracy).  Training
        thresholds are deliberately not retunable — only the
        accept/reject operating point moves.  A replacement
        :class:`FilterConfig` is constructed so its invariants
        (``tau_lo <= tau_hi``) keep holding.
        """
        cfg = self.config
        self.config = FilterConfig(
            tau_hi=cfg.tau_hi if tau_hi is None else tau_hi,
            tau_lo=cfg.tau_lo if tau_lo is None else tau_lo,
            theta_p=cfg.theta_p,
            theta_n=cfg.theta_n,
        )

    # -- introspection ------------------------------------------------------------

    @property
    def max_sum(self) -> int:
        """Largest sum the current feature count can produce."""
        from .weights import WEIGHT_MAX

        return WEIGHT_MAX * len(self.features)

    @property
    def min_sum(self) -> int:
        from .weights import WEIGHT_MIN

        return WEIGHT_MIN * len(self.features)

    def weight_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-feature weight-health metrics for telemetry probes.

        ``abs_mean`` tracks how far a table has trained away from zero;
        ``saturation`` is the fraction of entries pinned at either rail
        (WEIGHT_MIN/WEIGHT_MAX), the early-warning sign that a feature
        has run out of dynamic range.  Pure read: safe to sample mid-run.
        """
        summary: Dict[str, Dict[str, float]] = {}
        for name, weights in zip(self._feature_names, self._weight_lists):
            entries = len(weights)
            magnitude = 0
            saturated = 0
            for value in weights:
                magnitude += value if value >= 0 else -value
                if value <= WEIGHT_MIN or value >= WEIGHT_MAX:
                    saturated += 1
            summary[name] = {
                "abs_mean": magnitude / entries,
                "saturation": saturated / entries,
            }
        return summary

    def table_for(self, feature_name: str) -> WeightTable:
        for feature, table in zip(self.features, self.tables):
            if feature.name == feature_name:
                return table
        raise KeyError(f"no feature named {feature_name!r}")

    def total_weight_bits(self) -> int:
        return sum(table.storage_bits for table in self.tables)

    def reset(self) -> None:
        for table in self.tables:
            table.reset()
        self.stats.reset()

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "tables": [table.state_dict() for table in self.tables],
            "stats": group_state(self.stats),
        }

    def load_state(self, state: dict) -> None:
        tables = state["tables"]
        if len(tables) != len(self.tables):
            raise ValueError(
                f"snapshot has {len(tables)} weight tables, filter has {len(self.tables)}"
            )
        # Each table restores in place, so ``_weight_lists`` (direct
        # references into the tables) stays valid.
        for table, table_state in zip(self.tables, tables):
            table.load_state(table_state)
        load_group(self.stats, state["stats"])
