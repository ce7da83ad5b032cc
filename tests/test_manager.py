"""Unit tests for the Central Manager: registry, discovery, WRR."""

import pytest

from repro.core.config import SystemConfig
from repro.core.messages import DiscoveryQuery
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import profile_by_name


@pytest.fixture
def system():
    system = EdgeSystem(SystemConfig(seed=2, top_n=3))
    system.add_node("V1", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26)))
    system.add_node("V2", profile_by_name("V2"), EndpointSpec(GeoPoint(44.95, -93.20)))
    system.add_node("V5", profile_by_name("V5"), EndpointSpec(GeoPoint(44.90, -93.10)))
    system.run_for(200.0)  # let first heartbeats land
    return system


def query(top_n=3, exclude=(), lat=44.97, lon=-93.25):
    return DiscoveryQuery("u1", lat, lon, top_n=top_n, exclude=exclude)


def test_heartbeats_populate_registry(system):
    assert sorted(system.manager.known_node_ids()) == ["V1", "V2", "V5"]


def test_discover_returns_topn(system):
    result = system.manager.discover(query(top_n=2))
    assert len(result.node_ids) == 2
    assert system.manager.queries_served == 1


def test_discover_prefers_higher_availability(system):
    result = system.manager.discover(query(top_n=3))
    # V1 has 8 free cores, V5 has 2: V1 must rank above V5
    ids = list(result.node_ids)
    assert ids.index("V1") < ids.index("V5")


def test_discover_respects_exclude(system):
    result = system.manager.discover(query(exclude=("V1",)))
    assert "V1" not in result.node_ids


def test_stale_nodes_age_out(system):
    system.nodes["V2"].fail()
    system.run_for(system.config.heartbeat_timeout_ms + 1_500.0)
    assert "V2" not in [s.node_id for s in system.manager.alive_statuses()]


def test_forget_node(system):
    system.manager.forget_node("V1")
    assert "V1" not in system.manager.known_node_ids()
    assert "V1" not in system.manager.spatial_index


def test_spatial_index_tracks_registry_through_expiry(system):
    assert sorted(system.manager.spatial_index.node_ids()) == ["V1", "V2", "V5"]
    system.nodes["V2"].fail()
    system.run_for(system.config.heartbeat_timeout_ms + 1_500.0)
    system.manager.prune_stale()
    assert "V2" not in system.manager.spatial_index
    # survivors keep heartbeating and stay indexed
    assert sorted(system.manager.spatial_index.node_ids()) == ["V1", "V5"]


def test_expiry_heap_keeps_fresh_nodes(system):
    """Superseded heap entries (older heartbeats of a live node) must be
    skipped, not expire the node."""
    system.run_for(system.config.heartbeat_timeout_ms * 3)
    system.manager.prune_stale()
    assert sorted(system.manager.known_node_ids()) == ["V1", "V2", "V5"]


def test_discover_far_user_widens(system):
    # a user ~300 km away: outside the 80 km radius, inside the 400 km one
    result = system.manager.discover(query(lat=42.5, lon=-92.0))
    assert result.widened
    assert len(result.node_ids) > 0


def test_discover_empty_registry():
    system = EdgeSystem(SystemConfig(seed=3))
    result = system.manager.discover(query())
    assert result.node_ids == ()


# ----------------------------------------------------------------------
# Smooth weighted round robin (resource-aware baseline support)
# ----------------------------------------------------------------------
def test_wrr_assign_spreads_proportionally(system):
    counts = {"V1": 0, "V2": 0, "V5": 0}
    for _ in range(160):
        target = system.manager.wrr_assign(query())
        counts[target] += 1
    # weights are free cores: 8 / 6 / 2 -> expect ~80 / ~60 / ~20
    assert counts["V1"] > counts["V2"] > counts["V5"] > 0
    assert counts["V1"] == pytest.approx(80, abs=15)


def test_wrr_assign_respects_exclude(system):
    for _ in range(20):
        assert system.manager.wrr_assign(query(exclude=("V1", "V2"))) == "V5"


def test_wrr_assign_none_when_no_nodes():
    system = EdgeSystem(SystemConfig(seed=4))
    assert system.manager.wrr_assign(query()) is None


def test_wrr_smoothness_no_bursts(system):
    """Smooth WRR interleaves rather than grouping same-node picks."""
    picks = [system.manager.wrr_assign(query()) for _ in range(16)]
    longest_run = 1
    run = 1
    for a, b in zip(picks, picks[1:]):
        run = run + 1 if a == b else 1
        longest_run = max(longest_run, run)
    assert longest_run <= 3
