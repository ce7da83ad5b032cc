"""Unit and property tests for probe outcomes (LO/GO) and the LO/GO/QoS
ranking policies."""

import pytest
from hypothesis import given, strategies as st

from repro.core.config import SystemConfig
from repro.core.probing import ProbeOutcome
from repro.policy import (
    GlobalOverheadPolicy,
    LocalOverheadPolicy,
    QosGatedPolicy,
    RankingContext,
    build_policy,
)

CTX = RankingContext(now=0.0)


def rank(policy, outcomes):
    return list(policy.rank(outcomes, CTX).ranked)


def by_lo(outcomes):
    return rank(LocalOverheadPolicy(), outcomes)


def by_go(outcomes):
    return rank(GlobalOverheadPolicy(), outcomes)


def outcome(node_id="n", d_prop=10.0, d_proc=30.0, n=0, current=30.0, seq=0):
    return ProbeOutcome(
        node_id=node_id,
        d_prop_ms=d_prop,
        d_proc_ms=d_proc,
        seq_num=seq,
        attached_users=n,
        current_proc_ms=current,
    )


# ----------------------------------------------------------------------
# LO / GO arithmetic (the §IV-D formulas)
# ----------------------------------------------------------------------
def test_local_overhead_is_prop_plus_proc():
    assert outcome(d_prop=12.0, d_proc=30.0).local_overhead_ms == 42.0


def test_global_overhead_formula():
    # GO = n * (what_if - current) + LO
    o = outcome(d_prop=10.0, d_proc=40.0, n=3, current=30.0)
    assert o.global_overhead_ms == pytest.approx(3 * 10.0 + 50.0)


def test_degradation_clamped_at_zero():
    o = outcome(d_proc=25.0, current=30.0, n=5)
    assert o.degradation_ms == 0.0
    assert o.global_overhead_ms == o.local_overhead_ms


def test_idle_node_go_equals_lo():
    o = outcome(n=0, d_proc=45.0, current=45.0)
    assert o.global_overhead_ms == o.local_overhead_ms


def test_outcome_validation():
    with pytest.raises(ValueError):
        outcome(d_prop=-1.0)
    with pytest.raises(ValueError):
        outcome(n=-1)


@given(
    st.floats(min_value=0, max_value=1_000),
    st.floats(min_value=0, max_value=1_000),
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=0, max_value=1_000),
)
def test_property_go_at_least_lo(d_prop, d_proc, n, current):
    o = outcome(d_prop=d_prop, d_proc=d_proc, n=n, current=current)
    assert o.global_overhead_ms >= o.local_overhead_ms - 1e-9


# ----------------------------------------------------------------------
# Local selection policies
# ----------------------------------------------------------------------
def test_lo_policy_picks_lowest_latency():
    fast = outcome("fast", d_prop=5.0, d_proc=20.0)
    slow = outcome("slow", d_prop=20.0, d_proc=50.0)
    assert by_lo([slow, fast])[0] is fast


def test_lo_ignores_existing_users():
    crowded = outcome("crowded", d_prop=5.0, d_proc=30.0, n=10, current=20.0)
    idle = outcome("idle", d_prop=10.0, d_proc=30.0, n=0)
    assert by_lo([idle, crowded])[0] is crowded


def test_go_policy_penalizes_inflicted_degradation():
    # identical LO, but joining 'crowded' would slow 10 existing users
    crowded = outcome("crowded", d_prop=5.0, d_proc=30.0, n=10, current=20.0)
    idle = outcome("idle", d_prop=5.0, d_proc=30.0, n=0)
    assert by_go([crowded, idle])[0] is idle


def test_policies_deterministic_tiebreak_by_node_id():
    a = outcome("a")
    b = outcome("b")
    assert [o.node_id for o in by_lo([b, a])] == ["a", "b"]


def test_policies_do_not_mutate_input():
    items = [outcome("b"), outcome("a")]
    by_lo(items)
    assert [o.node_id for o in items] == ["b", "a"]


def test_empty_input_gives_empty_ranking():
    assert by_lo([]) == []
    assert by_go([]) == []


def test_qos_filters_violating_candidates():
    ok = outcome("ok", d_prop=10.0, d_proc=30.0)  # LO 40
    bad = outcome("bad", d_prop=100.0, d_proc=100.0)  # LO 200
    ranked = rank(QosGatedPolicy(GlobalOverheadPolicy(), 100.0), [bad, ok])
    assert [o.node_id for o in ranked] == ["ok"]


def test_qos_can_reject_everyone():
    bad = outcome("bad", d_prop=100.0, d_proc=100.0)
    assert rank(QosGatedPolicy(GlobalOverheadPolicy(), 50.0), [bad]) == []


def test_qos_validates_bound():
    with pytest.raises(ValueError):
        QosGatedPolicy(GlobalOverheadPolicy(), 0.0)


def test_qos_base_policy_override():
    crowded = outcome("crowded", d_prop=5.0, d_proc=30.0, n=10, current=20.0)
    idle = outcome("idle", d_prop=5.0, d_proc=30.0, n=0)
    qos_lo = QosGatedPolicy(LocalOverheadPolicy(), 1_000.0)
    assert rank(qos_lo, [crowded, idle])[0].node_id == "crowded"


def test_policy_for_resolves_config_flags():
    crowded = outcome("crowded", d_prop=5.0, d_proc=30.0, n=10, current=20.0)
    idle = outcome("idle", d_prop=5.0, d_proc=30.0, n=0)

    def resolve(config):
        return build_policy(
            config.selection_policy_spec, qos_latency_ms=config.qos_latency_ms
        )

    go = resolve(SystemConfig(policy_spec="go"))
    lo = resolve(SystemConfig(policy_spec="lo"))
    assert rank(go, [crowded, idle])[0].node_id == "idle"
    assert rank(lo, [crowded, idle])[0].node_id == "crowded"
    qos = resolve(SystemConfig(policy_spec="go", qos_latency_ms=10.0))
    assert rank(qos, [crowded, idle]) == []


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=500),
            st.floats(min_value=0, max_value=500),
            st.integers(min_value=0, max_value=20),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_property_rankings_are_permutations_and_sorted(raw):
    outcomes = [
        outcome(f"n{i}", d_prop=p, d_proc=q, n=n, current=q * 0.8)
        for i, (p, q, n) in enumerate(raw)
    ]
    for policy, key in (
        (by_lo, lambda o: o.local_overhead_ms),
        (by_go, lambda o: o.global_overhead_ms),
    ):
        ranked = policy(outcomes)
        assert sorted(o.node_id for o in ranked) == sorted(o.node_id for o in outcomes)
        values = [key(o) for o in ranked]
        assert values == sorted(values)
