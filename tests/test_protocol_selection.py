"""Property and edge-case tests for the sans-IO selection machine.

These exercise :class:`repro.protocol.selection.SelectionMachine`
directly — no simulator, no sockets. Because the sim and live backends
are thin drivers over this exact class, every invariant proved here
holds on both backends by construction.
"""

from __future__ import annotations

from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.probing import ProbeOutcome
from repro.policy import GlobalOverheadPolicy
from repro.protocol.effects import (
    Attached,
    EmitTrace,
    ProbeCandidates,
    SendDiscovery,
    SendFailoverJoin,
    SendJoin,
    UpdateBackups,
)
from repro.protocol.events import (
    CandidatesReceived,
    EdgeFailed,
    FailoverResult,
    JoinResult,
    ProbesCompleted,
    RoundStarted,
)
from repro.protocol.selection import SelectionConfig, SelectionMachine

# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
node_ids = st.lists(
    st.sampled_from([f"n{i}" for i in range(8)]), min_size=0, max_size=6, unique=True
)
delays = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)


def outcome_for(node_id: str, d_prop: float, d_proc: float, users: int) -> ProbeOutcome:
    return ProbeOutcome(
        node_id=node_id,
        d_prop_ms=d_prop,
        d_proc_ms=d_proc,
        seq_num=0,
        attached_users=users,
        current_proc_ms=d_proc * 0.8,
        stay_ms=d_proc,
    )


@st.composite
def probe_rounds(draw):
    """A candidate list plus probe outcomes for a (possibly strict)
    subset of it — probes to dead/unreachable candidates return nothing."""
    candidates = draw(node_ids)
    answered = [c for c in candidates if draw(st.booleans())]
    outcomes = [
        outcome_for(
            c,
            draw(delays),
            draw(delays),
            draw(st.integers(min_value=0, max_value=5)),
        )
        for c in answered
    ]
    return candidates, outcomes


def fresh_machine(top_n: int = 3) -> SelectionMachine:
    return SelectionMachine(
        "u-prop",
        GlobalOverheadPolicy(),
        SelectionConfig(top_n=top_n, min_dwell_ms=0.0),
    )


def run_round(
    machine: SelectionMachine, candidates: List[str], outcomes: List[ProbeOutcome]
) -> List:
    """Drive one selection round up to (and including) ranking."""
    effects = machine.handle(RoundStarted(now=0.0))
    assert any(isinstance(e, SendDiscovery) for e in effects)
    effects = machine.handle(
        CandidatesReceived(now=1.0, node_ids=tuple(candidates))
    )
    probe_req: Optional[ProbeCandidates] = next(
        (e for e in effects if isinstance(e, ProbeCandidates)), None
    )
    if probe_req is None:
        return []  # empty candidate list: round already concluded
    # Only outcomes for nodes the machine asked to probe may answer.
    answered = [o for o in outcomes if o.node_id in probe_req.node_ids]
    return machine.handle(ProbesCompleted(now=2.0, outcomes=tuple(answered)))


# ----------------------------------------------------------------------
# Satellite 3a: a join is only ever sent to a probed node.
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(probe_rounds())
def test_send_join_targets_only_probed_nodes(round_data):
    candidates, outcomes = round_data
    machine = fresh_machine()
    effects = run_round(machine, candidates, outcomes)
    probed = {o.node_id for o in outcomes}
    for effect in effects:
        if isinstance(effect, SendJoin):
            assert effect.outcome.node_id in probed
            # ...and the join carries that node's probe verbatim, so the
            # seqNum echoed in Join() is the one learned from the probe.
            assert effect.outcome in outcomes


@settings(max_examples=100, deadline=None)
@given(probe_rounds())
def test_no_probe_answers_means_no_join(round_data):
    candidates, _ = round_data
    machine = fresh_machine()
    effects = run_round(machine, candidates, [])
    assert not any(isinstance(e, SendJoin) for e in effects)
    assert machine.current_edge is None
    assert not machine.round_in_progress


# ----------------------------------------------------------------------
# Satellite 3b: backups are exactly the ranked non-chosen candidates.
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(probe_rounds(), st.integers(min_value=1, max_value=5))
def test_backups_are_ranked_non_chosen(round_data, top_n):
    candidates, outcomes = round_data
    machine = fresh_machine(top_n=top_n)
    effects = run_round(machine, candidates, outcomes)
    join = next((e for e in effects if isinstance(e, SendJoin)), None)
    if join is None:
        return  # nothing rankable this round; nothing to check
    chosen = join.outcome.node_id
    effects = machine.handle(
        JoinResult(now=3.0, node_id=chosen, accepted=True, attempted_at=2.5)
    )
    ranked = sorted(outcomes, key=lambda o: (o.global_overhead_ms, o.node_id))
    expected = [o.node_id for o in ranked if o.node_id != chosen][: top_n - 1]
    assert machine.monitor.backups == expected
    update = next(e for e in effects if isinstance(e, UpdateBackups))
    assert [o.node_id for o in update.outcomes] == expected


# ----------------------------------------------------------------------
# Satellite 4: edge dies between join-accept and the next driver step.
# ----------------------------------------------------------------------
def test_failover_covered_when_edge_dies_right_after_join_accept():
    """The join-accept transition must commit the edge AND adopt the
    backups atomically: an ``EdgeFailed`` arriving as the *very next*
    event already finds the backup list populated, so the failure is
    covered. One protocol test — both backends execute this machine.
    """
    machine = fresh_machine(top_n=3)
    outcomes = [
        outcome_for("fast", 1.0, 10.0, 0),
        outcome_for("mid", 5.0, 20.0, 1),
        outcome_for("slow", 9.0, 40.0, 2),
    ]
    effects = run_round(machine, ["fast", "mid", "slow"], outcomes)
    join = next(e for e in effects if isinstance(e, SendJoin))
    assert join.outcome.node_id == "fast"
    effects = machine.handle(
        JoinResult(now=3.0, node_id="fast", accepted=True, attempted_at=2.5)
    )
    # Atomicity: backups were adopted in the SAME handle() call that
    # attached us — no driver step runs in between.
    assert machine.current_edge == "fast"
    assert machine.monitor.backups == ["mid", "slow"]

    # The edge dies immediately after accepting the join.
    effects = machine.handle(EdgeFailed(now=4.0, node_id="fast"))
    assert [type(e).__name__ for e in effects] == ["SendFailoverJoin"]
    assert effects[0].node_id == "mid"

    effects = machine.handle(
        FailoverResult(now=5.0, node_id="mid", accepted=True, rtt_ms=5.0)
    )
    attached = next(e for e in effects if isinstance(e, Attached))
    assert attached.via == "failover"
    assert machine.current_edge == "mid"
    assert machine.monitor.failovers_covered == 1
    assert machine.monitor.failovers_uncovered == 0
    trace_names = [
        type(e.event).__name__ for e in effects if isinstance(e, EmitTrace)
    ]
    assert "CoveredFailover" in trace_names


def test_failover_walks_past_dead_backup():
    machine = fresh_machine(top_n=3)
    outcomes = [
        outcome_for("a", 1.0, 10.0, 0),
        outcome_for("b", 2.0, 20.0, 0),
        outcome_for("c", 3.0, 30.0, 0),
    ]
    run_round(machine, ["a", "b", "c"], outcomes)
    machine.handle(JoinResult(now=3.0, node_id="a", accepted=True, attempted_at=2.5))
    effects = machine.handle(EdgeFailed(now=4.0, node_id="a"))
    assert effects[0].node_id == "b"
    # First backup is dead too: the machine walks to the next one.
    effects = machine.handle(
        FailoverResult(now=5.0, node_id="b", accepted=False)
    )
    assert isinstance(effects[0], SendFailoverJoin)
    assert effects[0].node_id == "c"


def test_uncovered_failure_triggers_rediscovery():
    machine = fresh_machine(top_n=1)  # top_n=1 -> no backups at all
    outcomes = [outcome_for("only", 1.0, 10.0, 0)]
    run_round(machine, ["only"], outcomes)
    machine.handle(
        JoinResult(now=3.0, node_id="only", accepted=True, attempted_at=2.5)
    )
    assert machine.monitor.backups == []
    effects = machine.handle(EdgeFailed(now=4.0, node_id="only"))
    trace_names = [
        type(e.event).__name__ for e in effects if isinstance(e, EmitTrace)
    ]
    assert "UncoveredFailure" in trace_names
    assert any(isinstance(e, SendDiscovery) for e in effects)
    assert machine.round_in_progress


def test_rejected_join_repeats_from_discovery_then_gives_up():
    machine = fresh_machine()
    outcomes = [outcome_for("a", 1.0, 10.0, 0)]
    run_round(machine, ["a"], outcomes)
    for attempt in range(machine.config.max_discovery_retries):
        effects = machine.handle(
            JoinResult(now=3.0, node_id="a", accepted=False, attempted_at=2.5)
        )
        assert any(isinstance(e, SendDiscovery) for e in effects), attempt
        machine.handle(CandidatesReceived(now=4.0, node_ids=("a",)))
        machine.handle(ProbesCompleted(now=5.0, outcomes=tuple(outcomes)))
    effects = machine.handle(
        JoinResult(now=6.0, node_id="a", accepted=False, attempted_at=5.5)
    )
    assert not any(isinstance(e, SendDiscovery) for e in effects)
    assert not machine.round_in_progress


def test_unknown_event_raises():
    machine = fresh_machine()
    with pytest.raises(TypeError):
        machine.handle(object())  # type: ignore[arg-type]
