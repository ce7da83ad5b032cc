"""The public import surface a downstream user relies on."""

import pytest


def test_top_level_exports():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_subpackage_exports():
    import repro.baselines as baselines
    import repro.churn as churn
    import repro.core as core
    import repro.experiments as experiments
    import repro.geo as geo
    import repro.metrics as metrics
    import repro.net as net
    import repro.nodes as nodes
    import repro.runtime as runtime
    import repro.sim as sim
    import repro.workload as workload

    for module in (
        baselines, churn, core, experiments, geo, metrics, net, nodes,
        runtime, sim, workload,
    ):
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{module.__name__}.{name}"


def test_version_is_semver_ish():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_readme_quickstart_is_accurate():
    """The README's quickstart snippet must keep working verbatim."""
    from repro import EdgeSystem, EdgeClient, SystemConfig
    from repro import EndpointSpec
    from repro.geo import GeoPoint
    from repro.nodes import profile_by_name

    system = EdgeSystem(SystemConfig(top_n=3, seed=7))
    system.add_node("V1", profile_by_name("V1"), EndpointSpec(GeoPoint(44.98, -93.26)))
    system.add_node("V2", profile_by_name("V2"), EndpointSpec(GeoPoint(44.95, -93.20)))
    system.add_client_endpoint("alice", EndpointSpec(GeoPoint(44.97, -93.25)))
    system.add_client(EdgeClient(system, "alice"))
    system.run_for(30_000)

    client = system.clients["alice"]
    assert client.current_edge in ("V1", "V2")
    assert client.stats.mean_latency_ms > 0


def test_experiment_runs_are_seed_deterministic():
    from repro.core.config import SystemConfig
    from repro.experiments.realworld import run_single_user_cdf

    a = run_single_user_cdf(
        SystemConfig(seed=13), target_nodes=("V1",), duration_ms=5_000.0
    )
    b = run_single_user_cdf(
        SystemConfig(seed=13), target_nodes=("V1",), duration_ms=5_000.0
    )
    assert a.latencies == b.latencies


def test_every_docstringed_public_module():
    """Every package module ships a module docstring (the API docs)."""
    import pathlib

    import repro

    src_root = pathlib.Path(repro.__file__).parent
    missing = []
    for path in src_root.rglob("*.py"):
        text = path.read_text()
        stripped = text.lstrip()
        if not stripped:
            continue
        if not stripped.startswith(('"""', "'''", 'r"""')):
            missing.append(str(path.relative_to(src_root)))
    assert missing == [], f"modules without docstrings: {missing}"
