"""Unit tests for EdgeSystem wiring: spawn/fail, notifications, clients."""

import pytest

from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.system import EdgeSystem, MANAGER_ID
from repro.geo.point import GeoPoint
from repro.net.latency import HashedPairRttModel
from repro.net.topology import EndpointSpec, NetworkTopology
from repro.nodes.hardware import profile_by_name


def test_manager_endpoint_auto_registered():
    system = EdgeSystem(SystemConfig(seed=1))
    assert system.topology.has_endpoint(MANAGER_ID)


def test_custom_topology_is_kept_even_when_empty():
    """Regression: NetworkTopology has __len__, so `topology or default`
    silently replaced an empty custom topology."""
    custom = NetworkTopology(rtt_model=HashedPairRttModel(8, 55, seed=7))
    system = EdgeSystem(SystemConfig(seed=1), topology=custom)
    assert system.topology is custom
    assert isinstance(system.topology.rtt_model, HashedPairRttModel)


def test_spawn_registers_endpoint_and_starts_node():
    system = EdgeSystem(SystemConfig(seed=1))
    node = system.add_node("V1", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26)))
    assert system.topology.has_endpoint("V1")
    assert node.alive
    assert system.alive_node_count() == 1


def test_spawn_duplicate_alive_id_rejected():
    system = EdgeSystem(SystemConfig(seed=1))
    system.add_node("V1", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26)))
    with pytest.raises(ValueError, match="already alive"):
        system.add_node(
            "V1", profile_by_name("V2"), EndpointSpec(GeoPoint(44.95, -93.20))
        )


def test_spawn_reuses_id_after_failure():
    system = EdgeSystem(SystemConfig(seed=1))
    system.add_node("V1", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26)))
    system.fail_node("V1")
    node = system.add_node("V1", profile_by_name("V2"), EndpointSpec(GeoPoint(44.95, -93.20)))
    assert node.alive


def test_node_id_reuse_reregisters_endpoint():
    """Regression: a node id reused after fail_node must re-register its
    endpoint — the replacement may sit somewhere else entirely, and any
    memoized network state for the old endpoint must not leak to it."""
    system = EdgeSystem(SystemConfig(seed=1))
    system.add_node("V1", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26)))
    rtt_before = system.topology.expected_rtt_ms(MANAGER_ID, "V1")
    system.fail_node("V1")
    system.add_node("V1", profile_by_name("V2"), EndpointSpec(GeoPoint(46.50, -94.00)))
    assert system.topology.endpoint("V1").point == GeoPoint(46.50, -94.00)
    assert system.topology.expected_rtt_ms(MANAGER_ID, "V1") != rtt_before


def test_add_node_rejects_id_of_non_node_endpoint():
    system = EdgeSystem(SystemConfig(seed=1))
    system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
    with pytest.raises(ValueError, match="non-node"):
        system.add_node("alice", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26)))


def test_fail_node_records_population_step():
    system = EdgeSystem(SystemConfig(seed=1))
    system.add_node("V1", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26)))
    system.add_node("V2", profile_by_name("V2"), EndpointSpec(GeoPoint(44.95, -93.20)))
    system.fail_node("V1")
    assert system.alive_node_count() == 1
    assert system.metrics.alive_nodes.values[-1] == 1.0


def test_fail_unknown_node_is_noop():
    system = EdgeSystem(SystemConfig(seed=1))
    system.fail_node("ghost")  # no exception


def test_fail_notifies_affected_clients_after_detection_delay():
    config = SystemConfig(seed=1, top_n=2, failure_detection_ms=250.0)
    system = EdgeSystem(config)
    system.add_node("V1", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26)))
    system.add_node("V2", profile_by_name("V2"), EndpointSpec(GeoPoint(44.95, -93.20)))
    system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
    client = EdgeClient(system, "alice")
    system.add_client(client)
    system.run_for(3_000.0)
    victim = client.current_edge
    system.fail_node(victim)
    system.run_for(200.0)  # before detection
    assert client.current_edge == victim
    system.run_for(100.0)  # after detection
    assert client.current_edge != victim


def test_add_client_requires_registered_endpoint():
    system = EdgeSystem(SystemConfig(seed=1))

    class Dummy:
        user_id = "ghost"

        def start(self):
            pass

        def observes_node(self, node_id):
            return False

        def on_edge_failure(self, node_id):
            pass

    with pytest.raises(ValueError, match="register"):
        system.add_client(Dummy())


def test_add_client_rejects_mis_shaped_client():
    system = EdgeSystem(SystemConfig(seed=1))

    class NotAClient:
        user_id = "ghost"

        def start(self):
            pass

    with pytest.raises(TypeError, match="ClientLike"):
        system.add_client(NotAClient())


def test_add_client_rejects_duplicates():
    system = EdgeSystem(SystemConfig(seed=1))
    system.add_node("V1", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26)))
    system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
    system.add_client(EdgeClient(system, "alice"))
    with pytest.raises(ValueError, match="already"):
        system.add_client(EdgeClient(system, "alice"))


def test_run_for_advances_clock():
    system = EdgeSystem(SystemConfig(seed=1))
    system.run_for(1_234.0)
    assert system.sim.now == 1_234.0
    system.run_for(766.0)
    assert system.sim.now == 2_000.0


def test_same_seed_reproduces_trajectory():
    def run():
        system = EdgeSystem(SystemConfig(seed=77, top_n=2))
        system.add_node(
            "V1", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26))
        )
        system.add_node(
            "V2", profile_by_name("V2"), EndpointSpec(GeoPoint(44.95, -93.20))
        )
        system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
        client = EdgeClient(system, "alice")
        system.add_client(client)
        system.run_for(10_000.0)
        return client.stats.latencies_ms

    assert run() == run()
