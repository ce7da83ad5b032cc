"""Unit and scenario tests for the ``repro.policy`` subsystem.

Covers the registry/coercion surface (``build_policy``), the machine's
policy integration (score-based hysteresis, pickling with stateful
policies), the builder/runtime wiring, and the gray-node demotion case
the reliability policy exists for.
"""

import pickle

import pytest

from repro.api import ScenarioBuilder
from repro.core.client import EdgeClient
from repro.core.config import SystemConfig
from repro.core.probing import ProbeOutcome
from repro.geo.point import GeoPoint
from repro.nodes.hardware import profile_by_name
from repro.policy import (
    ChurnAwarePolicy,
    EwmaRttPolicy,
    GlobalOverheadPolicy,
    LocalOverheadPolicy,
    QosGatedPolicy,
    RankingContext,
    ReliabilityPolicy,
    build_policy,
    describe,
    get,
    make,
    policy_names,
)
from repro.policy.base import NodeFailureObserved, ProbeObserved
from repro.protocol.effects import SendJoin
from repro.protocol.events import (
    CandidatesReceived,
    JoinResult,
    ProbesCompleted,
    RoundStarted,
)
from repro.protocol.selection import SelectionConfig, SelectionMachine


def outcome(node_id, d_prop, d_proc, users=0, current=None, stay=None):
    return ProbeOutcome(
        node_id=node_id,
        d_prop_ms=d_prop,
        d_proc_ms=d_proc,
        seq_num=0,
        attached_users=users,
        current_proc_ms=d_proc if current is None else current,
        stay_ms=d_proc if stay is None else stay,
    )


# ----------------------------------------------------------------------
# Registry + coercion
# ----------------------------------------------------------------------
def test_registry_lists_builtins():
    assert {"lo", "go", "ewma", "reliability", "churn"} <= set(policy_names())
    for name in policy_names():
        assert describe(name)


def test_make_passes_constructor_params():
    policy = make("ewma", alpha=0.5)
    assert isinstance(policy, EwmaRttPolicy)
    assert policy.alpha == 0.5


def test_get_unknown_name_lists_known():
    with pytest.raises(KeyError, match="reliability"):
        get("nope")


def test_build_policy_from_name():
    assert isinstance(build_policy("lo"), LocalOverheadPolicy)
    assert isinstance(build_policy("go"), GlobalOverheadPolicy)


def test_build_policy_deep_copies_prototypes():
    prototype = ReliabilityPolicy(failure_weight=9.0)
    a = build_policy(prototype)
    b = build_policy(prototype)
    assert a is not prototype and b is not prototype and a is not b
    assert a.failure_weight == 9.0
    # State never leaks between instances built from one prototype.
    a.observe(NodeFailureObserved(now=0.0, node_id="n1", serving=True))
    assert a.suspicion("n1", 0.0) > 0.0
    assert b.suspicion("n1", 0.0) == 0.0
    assert prototype.suspicion("n1", 0.0) == 0.0


def test_build_policy_rejects_callables():
    def sort_by_lo(outcomes):
        return sorted(outcomes, key=lambda o: (o.local_overhead_ms, o.node_id))

    with pytest.raises(TypeError):
        build_policy(sort_by_lo)
    with pytest.raises(TypeError):
        SelectionMachine("u1", sort_by_lo, SelectionConfig())


def test_build_policy_params_rejected_for_prototypes():
    with pytest.raises(ValueError):
        build_policy(LocalOverheadPolicy(), params={"x": 1})


def test_build_policy_qos_gate_wraps():
    policy = build_policy("lo", qos_latency_ms=50.0)
    assert isinstance(policy, QosGatedPolicy)
    ctx = RankingContext(now=0.0)
    kept = policy.eligible(
        [outcome("near", 10.0, 10.0), outcome("far", 80.0, 10.0)], ctx
    )
    assert [o.node_id for o in kept] == ["near"]


def test_build_policy_binds_seed():
    policy = build_policy("reliability", seed=99)
    assert policy.params()["seed"] == 99
    # An explicit constructor seed wins over a bound one.
    pinned = ReliabilityPolicy(seed=7)
    pinned.bind_seed(99)
    assert pinned.params()["seed"] == 7


# ----------------------------------------------------------------------
# Machine integration: score-based hysteresis (the dwell bugfix)
# ----------------------------------------------------------------------
def _attach(machine, node_id, d_prop, d_proc, now=0.0):
    machine.handle(RoundStarted(now=now))
    machine.handle(CandidatesReceived(now=now + 1, node_ids=(node_id,)))
    machine.handle(
        ProbesCompleted(
            now=now + 2, outcomes=(outcome(node_id, d_prop, d_proc),)
        )
    )
    machine.handle(
        JoinResult(
            now=now + 3, node_id=node_id, accepted=True, attempted_at=now + 2
        )
    )
    assert machine.current_edge == node_id


def _second_round(machine, outcomes, now=10_000.0):
    machine.handle(RoundStarted(now=now))
    machine.handle(
        CandidatesReceived(
            now=now + 1, node_ids=tuple(o.node_id for o in outcomes)
        )
    )
    return machine.handle(ProbesCompleted(now=now + 2, outcomes=tuple(outcomes)))


# The regression scenario: staying on A is attractive in LO terms (its
# stay-projection is decent) but terrible in GO terms (four attached
# users each eating 30 ms of degradation). Candidate B wins the GO
# ranking outright. The pre-refactor machine ranked with GO but ran
# hysteresis on raw LO, so it blocked the switch its own ranking asked
# for; hysteresis now compares the policy's own scores.
#   A (current, stay-substituted): LO = 5 + 40 = 45, GO = 4*30 + 45 = 165
#   B: LO = GO = 38 + 1 = 39
#   LO gate: 39 >= 45 * 0.85 - 5 = 33.25 -> stay
#   GO gate: 39 <  165 * 0.85 - 5 = 135.25 -> switch
HYSTERESIS_CONFIG = SelectionConfig(
    top_n=3, min_dwell_ms=0.0, switch_penalty_ms=5.0,
    switch_penalty_fraction=0.15,
)


def _hysteresis_round(policy):
    machine = SelectionMachine("u1", policy, HYSTERESIS_CONFIG)
    _attach(machine, "A", 5.0, 20.0)
    second = [
        outcome("A", 5.0, 40.0, users=4, current=10.0, stay=40.0),
        outcome("B", 38.0, 1.0, users=0),
    ]
    return machine, _second_round(machine, second)


def test_go_hysteresis_uses_go_scores():
    machine, effects = _hysteresis_round(GlobalOverheadPolicy())
    joins = [e for e in effects if isinstance(e, SendJoin)]
    assert [j.outcome.node_id for j in joins] == ["B"]


def test_lo_hysteresis_still_blocks_the_switch():
    machine, effects = _hysteresis_round(LocalOverheadPolicy())
    assert not any(isinstance(e, SendJoin) for e in effects)
    assert machine.current_edge == "A"


# ----------------------------------------------------------------------
# Machine pickling with stateful policies
# ----------------------------------------------------------------------
def test_machine_pickles_with_stateful_policy():
    machine = SelectionMachine(
        "u1",
        ReliabilityPolicy(seed=5),
        SelectionConfig(top_n=3, min_dwell_ms=0.0),
    )
    _attach(machine, "A", 5.0, 20.0)
    machine.policy.observe(
        NodeFailureObserved(now=100.0, node_id="A", serving=True)
    )
    clone = pickle.loads(pickle.dumps(machine))
    assert clone.current_edge == "A"
    assert clone.policy.suspicion("A", 100.0) == pytest.approx(
        machine.policy.suspicion("A", 100.0)
    )
    # The revived machine keeps working (and its detail guard is off).
    effects = _second_round(clone, [outcome("B", 10.0, 10.0)])
    assert any(isinstance(e, SendJoin) for e in effects)


# ----------------------------------------------------------------------
# Gray-node demotion (the chaos-matrix case, policy level)
# ----------------------------------------------------------------------
def test_reliability_demotes_gray_node_lo_keeps_selecting():
    """A gray node keeps advertising its stale cheap what-if. LO takes
    the bait every round; reliability saw the projection jump when the
    drift re-prime exposed the real rate, and holds the node down."""
    lo = LocalOverheadPolicy()
    rel = ReliabilityPolicy()

    # History: the gray node 'g' looked cheap, then its what-if jumped
    # 6x (the drift-triggered cache re-prime) — the gray signature.
    for policy in (lo, rel):
        policy.observe(ProbeObserved(0.0, outcome("g", 5.0, 10.0)))
        policy.observe(ProbeObserved(0.0, outcome("s", 8.0, 12.0)))
        policy.observe(ProbeObserved(2_000.0, outcome("g", 5.0, 60.0)))
        policy.observe(ProbeObserved(2_000.0, outcome("s", 8.0, 12.0)))

    # Now the gray window's cache is stale-cheap again.
    ctx = RankingContext(now=4_000.0)
    current = [outcome("g", 5.0, 10.0), outcome("s", 8.0, 12.0)]
    assert lo.rank(current, ctx).ranked[0].node_id == "g"
    ranking = rel.rank(current, ctx)
    assert ranking.ranked[0].node_id == "s"
    assert ranking.score_of("g") > ranking.score_of("s")


def test_reliability_gray_detector_ignores_population_pileups():
    """An honest population jump raises the raw what-if but not the
    per-capita figure — no gray mark, no penalty."""
    rel = ReliabilityPolicy()
    rel.observe(ProbeObserved(0.0, outcome("s", 8.0, 12.0, users=0)))
    # Three users piled on: what-if triples but per-capita is flat.
    rel.observe(ProbeObserved(2_000.0, outcome("s", 8.0, 48.0, users=3)))
    assert rel.suspicion("s", 2_000.0) == 0.0


# ----------------------------------------------------------------------
# Builder + system + live-runtime wiring
# ----------------------------------------------------------------------
def _two_client_system(builder_policy=None, **config_kwargs):
    config = SystemConfig(seed=3, **config_kwargs)
    builder = ScenarioBuilder(config)
    if builder_policy is not None:
        if isinstance(builder_policy, tuple):
            builder = builder.policy(builder_policy[0], **builder_policy[1])
        else:
            builder = builder.policy(builder_policy)
    system = (
        builder.node("V1", profile_by_name("V1"), point=GeoPoint(44.98, -93.26))
        .client("u1", EdgeClient, point=GeoPoint(44.97, -93.25))
        .client("u2", EdgeClient, point=GeoPoint(44.94, -93.18))
        .build()
    )
    return system


def test_builder_policy_by_name_with_params():
    system = _two_client_system(builder_policy=("ewma", {"alpha": 0.6}))
    policies = [system.clients[u].local_policy for u in ("u1", "u2")]
    assert all(isinstance(p, EwmaRttPolicy) for p in policies)
    assert all(p.alpha == 0.6 for p in policies)
    assert policies[0] is not policies[1]


def test_builder_policy_prototype_is_copied_per_client():
    prototype = ReliabilityPolicy(failure_weight=9.0)
    system = _two_client_system(builder_policy=prototype)
    policies = [system.clients[u].local_policy for u in ("u1", "u2")]
    assert all(isinstance(p, ReliabilityPolicy) for p in policies)
    assert prototype not in policies
    assert policies[0] is not policies[1]


def test_config_policy_spec_reaches_clients():
    system = _two_client_system(policy_spec="churn")
    assert all(
        isinstance(system.clients[u].local_policy, ChurnAwarePolicy)
        for u in ("u1", "u2")
    )


def test_config_qos_still_wraps_named_policies():
    system = _two_client_system(policy_spec="ewma", qos_latency_ms=90.0)
    policy = system.clients["u1"].local_policy
    assert isinstance(policy, QosGatedPolicy)


def test_per_client_reliability_seeds_differ():
    system = _two_client_system(policy_spec="reliability")
    seeds = {
        system.clients[u].local_policy.params()["seed"] for u in ("u1", "u2")
    }
    assert len(seeds) == 2 and None not in seeds


def test_live_client_accepts_policy():
    from repro.runtime.client_runtime import LiveClient

    client = LiveClient(
        "u1", GeoPoint(44.97, -93.25), "127.0.0.1", 1, policy="reliability"
    )
    assert isinstance(client.policy, ReliabilityPolicy)
    assert client.policy.params()["seed"] is not None
    client.policy = "ewma"
    assert isinstance(client.policy, EwmaRttPolicy)
