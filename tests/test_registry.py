"""The unified component registry (repro.registry).

Every pluggable component kind — prefetchers, replacement policies,
workload suites, feature catalogs — resolves through one catalog, and
every unknown-name error names the offender *and* the sorted known
names, for each kind.
"""

import pytest

from repro import registry
from repro.core.features import production_features
from repro.memory.replacement import make_policy
from repro.prefetchers.base import Prefetcher
from repro.registry import RegistryView, UnknownComponentError
from repro.sim.single_core import make_prefetcher
from repro.workloads import find_workload, suite, suites


class TestCatalog:
    def test_all_kinds_registered(self):
        assert {"prefetcher", "replacement", "suite", "features"} <= set(registry.kinds())

    def test_prefetcher_names(self):
        assert {"none", "next-line", "stride", "spp", "bop", "ppf"} <= set(
            registry.names("prefetcher")
        )

    def test_names_sorted(self):
        for kind in registry.kinds():
            names = registry.names(kind)
            assert names == sorted(names)

    def test_create_prefetcher(self):
        assert isinstance(registry.create("prefetcher", "spp"), Prefetcher)

    def test_factories_view_is_live_mapping(self):
        view = registry.view("prefetcher")
        assert "ppf" in view
        assert isinstance(view, RegistryView)
        assert set(view) == set(registry.names("prefetcher"))
        assert len(view) == len(registry.names("prefetcher"))

    def test_register_and_unregister(self):
        @registry.register("prefetcher", "test-dummy")
        def make_dummy():
            return registry.create("prefetcher", "none")

        try:
            assert "test-dummy" in registry.names("prefetcher")
            assert isinstance(make_prefetcher("test-dummy"), Prefetcher)
        finally:
            registry.unregister("prefetcher", "test-dummy")
        assert "test-dummy" not in registry.names("prefetcher")


class TestErrorMessages:
    """One test per component kind: unknown name + sorted known names."""

    def test_unknown_prefetcher(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            make_prefetcher("sppp")
        message = str(excinfo.value)
        assert "sppp" in message
        for name in registry.names("prefetcher"):
            assert name in message

    def test_unknown_replacement_policy(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            make_policy("belady")
        message = str(excinfo.value)
        assert "belady" in message
        for name in ("fifo", "lru", "random"):
            assert name in message

    def test_unknown_suite(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            suite("spec2042")
        message = str(excinfo.value)
        assert "spec2042" in message
        for name in suites():
            assert name in message

    def test_unknown_feature_catalog(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            registry.create("features", "experimental")
        message = str(excinfo.value)
        assert "experimental" in message
        for name in registry.names("features"):
            assert name in message

    def test_unknown_workload(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            find_workload("999.nonesuch")
        message = str(excinfo.value)
        assert "999.nonesuch" in message
        assert "605.mcf_s" in message

    def test_unknown_kind(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            registry.get("branch-predictor", "tage")
        assert "branch-predictor" in str(excinfo.value)

    def test_known_names_sorted_in_message(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            make_prefetcher("nope")
        message = str(excinfo.value)
        positions = [message.index(name) for name in registry.names("prefetcher")]
        assert positions == sorted(positions)


class TestBackwardCompatibility:
    def test_unknown_error_is_keyerror_and_valueerror(self):
        # Legacy callers caught KeyError (prefetchers) or ValueError
        # (replacement policies); both must keep working.
        with pytest.raises(KeyError):
            make_prefetcher("nope")
        with pytest.raises(ValueError):
            make_policy("belady")

    def test_error_str_not_repr_quoted(self):
        # KeyError.__str__ reprs its arg; the override must keep the
        # message readable.
        err = UnknownComponentError("unknown prefetcher 'x'")
        assert str(err) == "unknown prefetcher 'x'"


class TestSuitesAndFeatures:
    def test_suite_resolution(self):
        names = suites()
        assert "spec2017" in names and "cloudsuite" in names
        assert len(suite("spec2017")) > 0

    def test_intensive_suites_are_subsets(self):
        full = {spec.name for spec in suite("spec2017")}
        intensive = {spec.name for spec in suite("spec2017-intensive")}
        assert intensive < full

    def test_feature_catalog_resolution(self):
        ours = registry.create("features", "production")
        assert [f.name for f in ours] == [f.name for f in production_features()]
