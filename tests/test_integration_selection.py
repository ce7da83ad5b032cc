"""Integration tests: the full system behaving as the paper describes.

Each test runs a complete simulated deployment and asserts a *system-
level* property — accurate selection under heterogeneity, contention-
driven spreading, dynamic re-balancing, QoS admission, host-workload
reaction — rather than any single module's behaviour.
"""

import pytest

from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import HardwareProfile, profile_by_name
from repro.nodes.host_workload import HostWorkload, HostWorkloadSchedule
from repro.policy import GlobalOverheadPolicy, QosGatedPolicy


def test_selection_accounts_for_network_and_processing():
    """A slower machine on a much better network path must win —
    the paper's core heterogeneity argument (Fig. 3 / Table III)."""
    system = EdgeSystem(SystemConfig(seed=31, top_n=2))
    # Fast hardware, terrible access link (e.g. DSL volunteer).
    system.add_node(
        "fast-far",
        profile_by_name("V1"),  # 24 ms frames
        EndpointSpec(
            GeoPoint(44.96, -93.24), access_extra_ms=40.0  # +80 ms RTT
        ),
    )
    # Slower hardware, pristine access link.
    system.add_node(
        "slow-near",
        profile_by_name("V3"),  # 31 ms frames
        EndpointSpec(GeoPoint(44.96, -93.24), access_extra_ms=0.0),
    )
    system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(5_000.0)
    assert client.current_edge == "slow-near"


def test_users_spread_across_nodes_under_contention():
    """Six full-rate users cannot pile onto one node: GO-driven selection
    must spread them (the elasticity claim of Fig. 5/6)."""
    system = EdgeSystem(SystemConfig(seed=32, top_n=3))
    for i, name in enumerate(("A", "B", "C")):
        system.add_node(
            name,
            profile_by_name("t2.xlarge"),  # cap ~66 fps each
            EndpointSpec(GeoPoint(44.95 + i * 0.01, -93.25)),
        )
    for i in range(6):
        user = f"u{i}"
        system.add_client_endpoint(
            user, EndpointSpec(GeoPoint(44.96, -93.24 + i * 0.002))
        )
        client = EdgeClient(system, user)
        system.clients[user] = client
        system.sim.schedule(i * 1_000.0, client.start)
    system.run_for(40_000.0)
    per_node = {}
    for client in system.clients.values():
        per_node[client.current_edge] = per_node.get(client.current_edge, 0) + 1
    # 6 users x 20 fps = 120 fps; one node holds 66 fps: at least 2 nodes used
    assert len(per_node) >= 2
    assert max(per_node.values()) <= 4


def test_rebalancing_when_a_better_node_joins():
    """Fig. 8's downward latency steps: a newly joined node is discovered
    within a few probing periods and wins load."""
    config = SystemConfig(seed=33, top_n=2, min_dwell_ms=2_000.0)
    system = EdgeSystem(config)
    system.add_node(
        "old-slow", profile_by_name("V5"), EndpointSpec(GeoPoint(44.96, -93.24))
    )
    system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(10_000.0)
    assert client.current_edge == "old-slow"
    before = client.stats.mean_latency_ms
    system.add_node(
        "new-fast", profile_by_name("V1"), EndpointSpec(GeoPoint(44.96, -93.25))
    )
    system.run_for(15_000.0)
    assert client.current_edge == "new-fast"
    window = system.metrics.completed_latencies(start_ms=18_000.0)
    after = sum(window) / len(window)
    assert after < before


def test_qos_policy_rejects_when_no_node_qualifies():
    """QoS-constrained selection refuses to attach instead of violating
    the bound (§IV-D's admission control)."""
    system = EdgeSystem(SystemConfig(seed=34, top_n=2))
    system.add_node(
        "distant",
        profile_by_name("V1"),
        EndpointSpec(
            GeoPoint(44.96, -93.24), access_extra_ms=100.0  # LO far above any sane QoS
        ),
    )
    system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
    client = EdgeClient(
        system, "alice", local_policy=QosGatedPolicy(GlobalOverheadPolicy(), 60.0)
    )
    system.add_client(client)
    system.run_for(10_000.0)
    assert not client.attached
    assert client.stats.frames_completed == 0


def test_host_workload_drives_users_away():
    """Trigger type 3 end to end: background host load inflates the
    what-if and the client leaves for an unaffected node."""
    config = SystemConfig(seed=35, top_n=2, min_dwell_ms=2_000.0)
    system = EdgeSystem(config)
    interference = HostWorkloadSchedule(
        [HostWorkload(8_000.0, 60_000.0, cpu_fraction=0.85)]
    )
    system.add_node(
        "volatile",
        profile_by_name("V1"),
        EndpointSpec(GeoPoint(44.96, -93.24)),
        host_schedule=interference,
    )
    system.add_node(
        "steady", profile_by_name("V2"), EndpointSpec(GeoPoint(44.96, -93.25))
    )
    system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(6_000.0)
    assert client.current_edge == "volatile"  # faster while idle
    system.run_for(24_000.0)  # interference active
    assert client.current_edge == "steady"


def test_what_if_cache_bounds_test_invocations():
    """Many probes, few test-workload runs (Fig. 9 a vs b): probing reads
    the cache; only state changes invoke the synthetic workload."""
    config = SystemConfig(seed=36, top_n=2, probing_period_ms=500.0)
    system = EdgeSystem(config)
    system.add_node("A", profile_by_name("V1"), EndpointSpec(GeoPoint(44.96, -93.24)))
    system.add_node("B", profile_by_name("V2"), EndpointSpec(GeoPoint(44.96, -93.25)))
    for i in range(4):
        user = f"u{i}"
        system.add_client_endpoint(user, EndpointSpec(GeoPoint(44.97, -93.25)))
        system.add_client(EdgeClient(system, user))
    system.run_for(30_000.0)
    probes = system.metrics.total_probes()
    invocations = system.metrics.total_test_invocations()
    assert probes > 4 * invocations


def test_continuous_service_through_repeated_failures():
    """Rolling failures with TopN=3: every failover is covered by a
    backup and frames keep completing (Fig. 4's continuous service)."""
    config = SystemConfig(seed=37, top_n=3)
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
    system.run_for(5_000.0)
    for _ in range(3):
        victim = client.current_edge
        system.fail_node(victim)
        system.run_for(6_000.0)
        assert client.attached
    assert client.stats.uncovered_failures == 0
    assert client.stats.covered_failovers == 3
    # service continuity: frames completed in every 5-second slice
    for start in range(0, 20_000, 5_000):
        window = system.metrics.completed_latencies(float(start), float(start + 5_000))
        assert window, f"no frames completed in [{start}, {start + 5000})"


def test_elastic_scaling_with_user_count():
    """Average latency grows gracefully (not cliff-like) as users double,
    while per-node placement respects capacity."""

    def average_with(n_users):
        system = EdgeSystem(SystemConfig(seed=38, top_n=3))
        for i in range(4):
            system.add_node(
                f"n{i}",
                profile_by_name("t2.xlarge"),
                EndpointSpec(GeoPoint(44.95 + i * 0.01, -93.25)),
            )
        for i in range(n_users):
            user = f"u{i}"
            system.add_client_endpoint(user, EndpointSpec(GeoPoint(44.965, -93.245)))
            client = EdgeClient(system, user)
            system.clients[user] = client
            system.sim.schedule(i * 500.0, client.start)
        system.run_for(30_000.0)
        per_user = system.metrics.per_user_mean_latency(start_ms=20_000.0)
        return sum(per_user.values()) / len(per_user)

    light = average_with(2)
    heavy = average_with(8)
    assert light < heavy < light * 4


def test_heterogeneous_capacity_gets_proportional_load():
    """A node with 4x the capacity should end up with more users."""
    system = EdgeSystem(SystemConfig(seed=39, top_n=2))
    big = HardwareProfile("big", "big", 8, 20.0, parallelism=4)  # 200 fps
    small = HardwareProfile("small", "small", 2, 40.0, parallelism=1)  # 25 fps
    system.add_node("big", big, EndpointSpec(GeoPoint(44.96, -93.24)))
    system.add_node("small", small, EndpointSpec(GeoPoint(44.96, -93.25)))
    for i in range(6):
        user = f"u{i}"
        system.add_client_endpoint(user, EndpointSpec(GeoPoint(44.97, -93.25)))
        client = EdgeClient(system, user)
        system.clients[user] = client
        system.sim.schedule(i * 1_000.0, client.start)
    system.run_for(40_000.0)
    on_big = sum(1 for c in system.clients.values() if c.current_edge == "big")
    assert on_big >= 4
