"""The generic filter seam: ``filtered:<inner>`` prefetcher specs.

The paper evaluates the perceptron filter over SPP; the open question is
whether the filtering generalizes.  This module makes the composition a
first-class spec: ``filtered:<inner>`` wraps *any* registered
candidate-producing prefetcher in :class:`~repro.core.ppf.PPF`, so
``ppf`` is exactly ``filtered:spp`` (bit-identical — both build a PPF
over aggressively-tuned SPP, pinned by ``tests/test_zoo.py`` against the
committed golden stats) and the generality cross-product is expressible
anywhere a prefetcher name is accepted: ``sweep --prefetchers``,
checkpoints, golden cells.

Inner prefetchers carry *filtered tunings*: per §4.1 the wrapped
prefetcher's internal throttles are discarded so the perceptron owns
every accept/reject decision.  Each known inner name maps to its
aggressive construction; unknown-but-registered names fall back to the
registry default so third-party prefetchers compose too.

:func:`validate_prefetcher_spec` is the eager front door — CLI handlers
and :meth:`SuiteRunner.sweep` call it before any cell expansion so a
typo fails fast with a did-you-mean suggestion instead of surfacing as
a raw ``UnknownComponentError`` deep inside a worker process.
"""

from __future__ import annotations

import difflib
from typing import Callable, Dict, List

from .. import registry
from ..core.ppf import PPF
from ..prefetchers.base import Prefetcher
from ..prefetchers.spp import SPP, SPPConfig
from ..registry import UnknownComponentError
from .pythia import Pythia, PythiaConfig
from .two_level import TwoLevelConfig, TwoLevelFilter

#: Spec prefix selecting the perceptron-filtered composition.
FILTER_SPEC_PREFIX = "filtered:"

#: Aggressive (§4.1 "internal throttles discarded") constructions used
#: when a prefetcher runs *under* the filter.  ``filtered:spp`` must
#: build the identical object graph to :func:`repro.core.ppf.make_ppf_spp`
#: so it reproduces the ``ppf`` golden stats bit for bit.
_FILTERED_TUNINGS: Dict[str, Callable[[], Prefetcher]] = {
    "spp": lambda: SPP(SPPConfig.aggressive()),
    "pythia": lambda: Pythia(PythiaConfig.aggressive()),
    "two-level": lambda: TwoLevelFilter(TwoLevelConfig.unfiltered()),
}


def is_filter_spec(spec: str) -> bool:
    return spec.startswith(FILTER_SPEC_PREFIX)


def inner_name(spec: str) -> str:
    """The inner prefetcher name of a ``filtered:<inner>`` spec."""
    return spec[len(FILTER_SPEC_PREFIX):]


def _suggest(name: str) -> str:
    """A did-you-mean suffix for an unknown prefetcher name (or '')."""
    known = registry.names("prefetcher")
    close = difflib.get_close_matches(name, known, n=1)
    if close:
        return f" (did you mean {close[0]!r}?)"
    return ""


def _require_prefetcher(name: str) -> None:
    try:
        registry.get("prefetcher", name)
    except UnknownComponentError as err:
        raise UnknownComponentError(err.message + _suggest(name)) from None


def validate_prefetcher_spec(spec: str) -> str:
    """Eagerly validate a prefetcher spec (plain name or ``filtered:``).

    Returns the spec unchanged when valid; raises
    :class:`UnknownComponentError` with a did-you-mean suggestion
    otherwise.  Called by the CLI and by ``SuiteRunner.sweep`` before
    any cell is expanded, mirroring the eager ``--engine`` validation.
    """
    if not is_filter_spec(spec):
        _require_prefetcher(spec)
        return spec
    inner = inner_name(spec)
    if not inner:
        raise UnknownComponentError(
            f"filter spec {spec!r} names no inner prefetcher; "
            f"expected filtered:<name>, e.g. filtered:spp"
        )
    if is_filter_spec(inner):
        raise UnknownComponentError(
            f"filter specs do not nest: {spec!r} (PPF already owns the "
            f"accept/reject decision for its inner prefetcher)"
        )
    _require_prefetcher(inner)
    return spec


def make_filtered(inner: str) -> PPF:
    """Build ``PPF(<aggressively tuned inner>)`` for a validated name.

    The returned instance reports ``name = "filtered:<inner>"`` so
    checkpoints, fingerprints and suite cells key on the full spec, and
    keeps ``inner_name`` for telemetry probes.
    """
    validate_prefetcher_spec(FILTER_SPEC_PREFIX + inner)
    tuned = _FILTERED_TUNINGS.get(inner)
    underlying = tuned() if tuned is not None else registry.create("prefetcher", inner)
    ppf = PPF(underlying=underlying)
    ppf.name = FILTER_SPEC_PREFIX + inner
    ppf.inner_name = inner
    return ppf


def filter_specs(inner_names: List[str]) -> List[str]:
    """``filtered:<name>`` specs for a list of inner prefetchers."""
    return [FILTER_SPEC_PREFIX + name for name in inner_names]
