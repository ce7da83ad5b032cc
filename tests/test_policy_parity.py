"""Bit-identity pins for the policy refactor.

``tests/golden/lo_policy_trace.jsonl`` was recorded before
``SelectionMachine`` learned about :class:`repro.policy.SelectionPolicy`
objects, with the pre-policy LO ranking.
Replaying the identical scenario through the policy subsystem must
reproduce that trace byte-for-byte — the only new output allowed is the
``policy_decision`` detail event, which we filter out before comparing
(and separately assert is present).

``tests/golden/go_policy_trace.jsonl`` pins GO the same way: it was
recorded from the seed-77 scenario below while the GO sort function the
policy object replaced was still in the tree, at a commit where the two
produced identical traces.
"""

import json
from pathlib import Path

from repro.api import ScenarioBuilder
from repro.core.config import SystemConfig
from repro.geo.point import GeoPoint
from repro.nodes.hardware import profile_by_name
from repro.policy import GlobalOverheadPolicy

GOLDEN = Path(__file__).parent / "golden" / "lo_policy_trace.jsonl"
GO_GOLDEN = Path(__file__).parent / "golden" / "go_policy_trace.jsonl"

NODES = [
    ("V1", GeoPoint(44.980, -93.260)),
    ("V2", GeoPoint(44.950, -93.200)),
    ("V3", GeoPoint(44.935, -93.155)),
    ("V4", GeoPoint(44.915, -93.130)),
    ("V5", GeoPoint(44.900, -93.100)),
]
CLIENTS = [
    ("u1", GeoPoint(44.970, -93.250)),
    ("u2", GeoPoint(44.940, -93.180)),
    ("u3", GeoPoint(44.910, -93.120)),
]


def _run_scenario(config, policy=None):
    """The exact scenario the golden trace was recorded from."""
    builder = ScenarioBuilder(config).observe(trace=True)
    if policy is not None:
        builder = builder.policy(policy)
    for node_id, point in NODES:
        builder = builder.node(node_id, profile_by_name(node_id), point=point)
    for user_id, point in CLIENTS:
        builder = builder.client(user_id, point=point)
    scenario = builder.build_scenario()
    system, tracer = scenario.system, scenario.tracer

    system.run_for(6_000.0)
    victim = system.clients["u1"].current_edge
    assert victim is not None
    system.fail_node(victim)
    system.run_for(6_000.0)
    system.restart_node(victim)
    system.run_for(6_000.0)
    tracer.close()
    return [json.dumps(e.to_dict(), sort_keys=True) for e in tracer.events()]


def test_lo_policy_replays_pre_refactor_golden_trace():
    config = SystemConfig(
        seed=1234, top_n=3, probing_period_ms=2_000.0, policy_spec="lo"
    )
    lines = _run_scenario(config)

    decisions = [l for l in lines if '"type": "policy_decision"' in l]
    assert decisions, "refactored machine should emit policy_decision events"
    replay = [l for l in lines if '"type": "policy_decision"' not in l]

    golden = GOLDEN.read_text().splitlines()
    assert replay == golden


def _trace_with(policy):
    config = SystemConfig(seed=77, top_n=3, probing_period_ms=2_000.0)
    lines = _run_scenario(config, policy=policy)
    return [l for l in lines if '"type": "policy_decision"' not in l]


def test_go_policy_replays_golden_trace():
    golden = GO_GOLDEN.read_text().splitlines()
    assert _trace_with(GlobalOverheadPolicy()) == golden


def test_policy_decisions_cover_every_probe_round():
    """Every client that completed a probe round got a scored decision."""
    config = SystemConfig(
        seed=1234, top_n=3, probing_period_ms=2_000.0, policy_spec="lo"
    )
    lines = _run_scenario(config)
    decisions = [
        json.loads(l) for l in lines if '"type": "policy_decision"' in l
    ]
    users = {d["user_id"] for d in decisions}
    assert users == {"u1", "u2", "u3"}
    for d in decisions:
        assert d["policy"] == "lo"
        assert len(d["ranked"]) == len(d["scores"]) > 0
        # LO scores are the local overheads, sorted ascending.
        assert list(d["scores"]) == sorted(d["scores"])
