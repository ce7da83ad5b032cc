"""Formal coverage for the removed deprecation surface.

Policy: a shim ships for one release with a :class:`DeprecationWarning`,
then is removed. Every shim has completed that cycle: the
system-construction keywords (``spawn_node``/``register_client_endpoint``),
the boolean ``use_global_overhead`` policy flag, ``with_top_n`` and the
metrics mutators (``record_*``) must all be gone, and their replacements
must not warn.
"""

import dataclasses
import warnings

import pytest

from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.metrics.collector import MetricsCollector
from repro.nodes.hardware import profile_by_name


def make_system() -> EdgeSystem:
    return EdgeSystem(SystemConfig(seed=3))


def test_spawn_node_is_removed():
    assert not hasattr(make_system(), "spawn_node")


def test_register_client_endpoint_is_removed():
    assert not hasattr(make_system(), "register_client_endpoint")


def test_modern_construction_api_does_not_warn():
    from repro.net.topology import EndpointSpec

    system = make_system()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        node = system.add_node(
            "V1", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26))
        )
        system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
    assert node is system.nodes["V1"]
    assert node.alive
    assert system.topology.has_endpoint("alice")


def test_use_global_overhead_is_removed():
    names = {f.name for f in dataclasses.fields(SystemConfig)}
    assert "use_global_overhead" not in names
    assert not hasattr(SystemConfig(), "use_global_overhead")


def test_policy_spec_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        config = SystemConfig(policy_spec="reliability")
    assert config.selection_policy_spec == "reliability"
    assert SystemConfig().selection_policy_spec == "go"


def test_policy_spec_and_legacy_flag_together_rejected():
    with pytest.raises(TypeError, match="use_global_overhead"):
        SystemConfig(policy_spec="lo", use_global_overhead=True)


def test_metrics_record_shims_are_removed():
    collector = MetricsCollector()
    for name in (
        "record_frame",
        "record_probe",
        "record_discovery",
        "record_test_invocation",
        "record_join",
        "record_failure",
        "record_covered_failover",
        "record_switch",
        "record_alive_nodes",
    ):
        assert not hasattr(collector, name), name


def test_with_top_n_is_removed():
    assert not hasattr(SystemConfig(), "with_top_n")


def test_with_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert SystemConfig().with_(top_n=5).top_n == 5
