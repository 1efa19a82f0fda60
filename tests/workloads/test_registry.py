"""The workload registry: lookup, registration, discovery."""

import numpy as np
import pytest

from repro.workloads import (
    IsingWorkload,
    MaxCutWorkload,
    MaxSatWorkload,
    WeightedMaxCutWorkload,
    Workload,
    available_workloads,
    get_workload,
    register_workload,
)
from repro.workloads.registry import _REGISTRY, workload_summaries


class _Dummy(Workload):
    name = "dummy-test-problem"
    family = "dummy"
    summary = "a registry test double"

    def objective_values(self, graph):
        return np.zeros(2**graph.num_nodes)

    def append_cost_layer(self, circuit, graph, gamma):
        return circuit


@pytest.fixture
def scratch_registry():
    """Let a test register throwaway workloads without polluting the
    process-wide registry for the rest of the suite."""
    before = set(_REGISTRY)
    yield
    for name in set(_REGISTRY) - before:
        del _REGISTRY[name]


class TestBuiltinRegistrations:
    def test_all_four_builtin_workloads_are_registered(self):
        assert {"maxcut", "wmaxcut", "maxsat", "ising"} <= set(available_workloads())

    def test_available_is_sorted(self):
        assert list(available_workloads()) == sorted(available_workloads())

    @pytest.mark.parametrize(
        ("key", "cls"),
        [
            ("maxcut", MaxCutWorkload),
            ("wmaxcut", WeightedMaxCutWorkload),
            ("maxsat", MaxSatWorkload),
            ("ising", IsingWorkload),
        ],
    )
    def test_get_returns_the_right_type(self, key, cls):
        assert type(get_workload(key)) is cls

    def test_get_is_stable(self):
        assert get_workload("maxcut") is get_workload("maxcut")

    def test_summaries_cover_every_workload(self):
        summaries = workload_summaries()
        assert set(summaries) == set(available_workloads())
        assert all(isinstance(s, str) and s for s in summaries.values())


class TestLookupErrors:
    def test_unknown_workload_names_the_options(self):
        with pytest.raises(ValueError, match="maxcut"):
            get_workload("graph-coloring")

    def test_register_duplicate_rejected(self, scratch_registry):
        register_workload(_Dummy())
        with pytest.raises(ValueError, match="already registered"):
            register_workload(_Dummy())

    def test_register_replace_allows_override(self, scratch_registry):
        first = _Dummy()
        second = _Dummy()
        register_workload(first)
        register_workload(second, replace=True)
        assert get_workload("dummy-test-problem") is second

    def test_register_requires_a_name(self, scratch_registry):
        nameless = type("Nameless", (_Dummy,), {"name": ""})
        with pytest.raises(ValueError):
            register_workload(nameless())
