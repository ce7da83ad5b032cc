"""Tests for the multi-application extension (§III-B)."""

import pytest

from repro.core.config import SystemConfig
from repro.core.multiapp import ApplicationSpec, MultiAppDeployment
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.net.topology import EndpointSpec
from repro.nodes.hardware import profile_by_name
from repro.workload.ar import ARApplication

AR = ApplicationSpec(ARApplication(name="ar"), service_scale=1.0)
OCR = ApplicationSpec(
    ARApplication(name="ocr", max_fps=5.0, target_latency_ms=300.0),
    service_scale=2.0,
)


@pytest.fixture
def deployment():
    system = EdgeSystem(SystemConfig(seed=7, top_n=2))
    dep = MultiAppDeployment(system, [AR, OCR])
    dep.spawn_node("V1", profile_by_name("V1"), GeoPoint(44.98, -93.26))
    dep.spawn_node("V2", profile_by_name("V2"), GeoPoint(44.95, -93.20))
    system.add_client_endpoint("a1", EndpointSpec(GeoPoint(44.97, -93.25)))
    system.add_client_endpoint("o1", EndpointSpec(GeoPoint(44.96, -93.24)))
    return dep


def test_spec_validation():
    with pytest.raises(ValueError):
        ApplicationSpec(ARApplication(name="bad"), service_scale=0.0)


def test_deployment_validation():
    system = EdgeSystem(SystemConfig(seed=7))
    with pytest.raises(ValueError):
        MultiAppDeployment(system, [])
    with pytest.raises(ValueError, match="duplicate"):
        MultiAppDeployment(system, [AR, AR])


def test_one_manager_per_application(deployment):
    assert set(deployment.managers) == {"ar", "ocr"}
    assert deployment.managers["ar"] is not deployment.managers["ocr"]


def test_per_app_seq_nums_are_independent(deployment):
    deployment.system.run_for(500.0)
    node = deployment.nodes["V1"]
    ar_service = node.service("ar")
    ocr_service = node.service("ocr")
    seq_before = ocr_service.seq_num
    ar_service.unexpected_join("a1", fps=20.0)
    assert ocr_service.seq_num == seq_before  # untouched


def test_unknown_app_rejected(deployment):
    with pytest.raises(KeyError):
        deployment.scoped_system("nope")


def test_clients_of_both_apps_attach_and_offload(deployment):
    system = deployment.system
    ar_client = deployment.make_client("a1", "ar")
    ocr_client = deployment.make_client("o1", "ocr")
    ar_client.start()
    ocr_client.start()
    system.run_for(20_000.0)
    assert ar_client.attached and ocr_client.attached
    assert ar_client.stats.frames_completed > 100
    assert ocr_client.stats.frames_completed > 20
    # OCR frames cost 2x the node's AR frame time: its latency is higher.
    assert ocr_client.stats.mean_latency_ms > ar_client.stats.mean_latency_ms


def test_applications_share_node_compute(deployment):
    """Frames of both applications flow through one machine queue."""
    system = deployment.system
    ar_client = deployment.make_client("a1", "ar")
    ocr_client = deployment.make_client("o1", "ocr")
    ar_client.start()
    ocr_client.start()
    system.run_for(10_000.0)
    if ar_client.current_edge == ocr_client.current_edge:
        node = deployment.nodes[ar_client.current_edge]
        total = ar_client.stats.frames_completed + ocr_client.stats.frames_completed
        assert node.shared_processor.frames_processed >= total


def test_app_hosting_can_be_restricted():
    system = EdgeSystem(SystemConfig(seed=9, top_n=2))
    dep = MultiAppDeployment(system, [AR, OCR])
    dep.spawn_node("ar-only", profile_by_name("V1"), GeoPoint(44.98, -93.26), apps=["ar"])
    dep.spawn_node("both", profile_by_name("V2"), GeoPoint(44.95, -93.20))
    system.add_client_endpoint("o1", EndpointSpec(GeoPoint(44.96, -93.24)))
    ocr_client = dep.make_client("o1", "ocr")
    ocr_client.start()
    system.run_for(10_000.0)
    # The OCR client can only ever land on the node hosting OCR.
    assert ocr_client.current_edge == "both"
    assert "ocr" not in dep.nodes["ar-only"].services


def test_fail_node_breaks_both_apps(deployment):
    system = deployment.system
    ar_client = deployment.make_client("a1", "ar")
    ocr_client = deployment.make_client("o1", "ocr")
    ar_client.start()
    ocr_client.start()
    system.run_for(10_000.0)
    victim = ar_client.current_edge
    deployment.fail_node(victim)
    system.run_for(10_000.0)
    assert not deployment.nodes[victim].alive
    assert ar_client.current_edge != victim
    if ocr_client.current_edge is not None:
        assert ocr_client.current_edge != victim


def test_cross_app_contention_is_visible_to_probes(deployment):
    """Loading a node with OCR work raises the *AR* what-if on it —
    cross-application contention is part of the probe signal."""
    system = deployment.system
    system.run_for(1_000.0)
    node = deployment.nodes["V1"]
    ar_idle = node.service("ar").what_if_ms
    # Pile OCR users on V1 and let their frames flow.
    ocr_service = node.service("ocr")
    for i in range(4):
        ocr_service.unexpected_join(f"phantom-{i}", fps=5.0)
    for t in range(0, 2000, 50):  # 20 fps of 48 ms OCR frames
        node.shared_processor.submit(system.sim.now + t, service_ms=48.0)
    system.run_for(4_000.0)
    assert node.service("ar").what_if_ms > ar_idle
