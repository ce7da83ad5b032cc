"""Tests for the adaptive TopN / T_probing controller."""

import pytest

from repro.core.adaptive_robustness import AdaptiveRobustness
from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import profile_by_name


def build_world(config):
    system = EdgeSystem(config)
    for i in range(5):
        system.add_node(
            f"n{i}",
            profile_by_name("t2.xlarge"),
            EndpointSpec(GeoPoint(44.95 + i * 0.01, -93.25)),
        )
    system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
    client = EdgeClient(system, "alice")
    system.add_client(client)
    return system, client


def test_controller_validation():
    with pytest.raises(ValueError):
        AdaptiveRobustness(min_top_n=5, max_top_n=3)
    with pytest.raises(ValueError):
        AdaptiveRobustness(min_period_ms=0.0)
    with pytest.raises(ValueError):
        AdaptiveRobustness(escalate_factor=1.0)
    with pytest.raises(ValueError):
        AdaptiveRobustness(decay_factor=0.9)
    with pytest.raises(ValueError):
        AdaptiveRobustness(quiet_window_ms=0.0)


def test_client_knobs_start_at_config():
    system, client = build_world(SystemConfig(seed=61, top_n=3))
    assert client.top_n == 3
    assert client.probing_period_ms == system.config.probing_period_ms


def test_escalation_on_failover():
    config = SystemConfig(seed=61, top_n=2, probing_period_ms=2_000.0)
    system, client = build_world(config)
    AdaptiveRobustness().attach(client)
    system.run_for(3_000.0)
    assert client.top_n == 2
    system.fail_node(client.current_edge)  # covered failover
    system.run_for(3_000.0)
    assert client.top_n == 3
    assert client.probing_period_ms < 2_000.0


def test_uncovered_failure_escalates_harder():
    config = SystemConfig(seed=61, top_n=1, probing_period_ms=2_000.0)
    system, client = build_world(config)
    controller = AdaptiveRobustness()
    controller.attach(client)
    system.run_for(3_000.0)
    system.fail_node(client.current_edge)  # no backups at TopN=1
    system.run_for(3_000.0)
    assert client.stats.uncovered_failures == 1
    assert client.top_n == 3  # +2 for the hard event
    assert client.probing_period_ms == pytest.approx(
        2_000.0 * controller.escalate_factor**2
    )


def test_bounds_are_respected():
    config = SystemConfig(seed=61, top_n=2, probing_period_ms=1_000.0)
    system, client = build_world(config)
    controller = AdaptiveRobustness(max_top_n=4, min_period_ms=800.0)
    controller.attach(client)
    for _ in range(4):  # repeated failures
        system.run_for(5_000.0)
        if client.current_edge is not None:
            system.fail_node(client.current_edge)
    system.run_for(3_000.0)
    assert client.top_n <= 4
    assert client.probing_period_ms >= 800.0


def test_quiet_period_decays_back_to_baseline():
    config = SystemConfig(seed=61, top_n=2, probing_period_ms=2_000.0)
    system, client = build_world(config)
    AdaptiveRobustness(quiet_window_ms=10_000.0).attach(client)
    system.run_for(3_000.0)
    system.fail_node(client.current_edge)
    system.run_for(3_000.0)
    escalated_top_n = client.top_n
    assert escalated_top_n > 2
    system.run_for(60_000.0)  # long quiet stretch
    assert client.top_n == 2
    assert client.probing_period_ms == pytest.approx(2_000.0)


def test_adaptive_period_changes_probe_cadence():
    """The self-rescheduling probe loop must honour the adapted period."""
    config = SystemConfig(
        seed=61, top_n=2, probing_period_ms=4_000.0, probing_jitter_ms=0.0
    )
    system, client = build_world(config)
    system.run_for(12_000.0)
    slow_probes = client.stats.probes_sent
    client.probing_period_ms = 500.0  # what an escalation would do
    system.run_for(12_000.0)
    fast_probes = client.stats.probes_sent - slow_probes
    assert fast_probes > 3 * slow_probes


def test_backup_list_grows_with_adapted_topn():
    config = SystemConfig(seed=61, top_n=2, probing_period_ms=1_000.0)
    system, client = build_world(config)
    system.run_for(3_000.0)
    assert len(client.failure_monitor.backups) == 1
    client.top_n = 4
    system.run_for(3_000.0)
    assert len(client.failure_monitor.backups) == 3
