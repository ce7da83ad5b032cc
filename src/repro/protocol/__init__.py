"""The sans-IO protocol core: the paper's algorithms, backend-free.

The 2-step distributed edge selection protocol (global candidate list →
local probe/rank/join with backups and instant failover) is implemented
**once**, as three pure state machines — one per protocol role:

- :class:`~repro.protocol.selection.SelectionMachine` — the client
  selection round (Algorithm 2) and the failover walk (§IV-E);
- :class:`~repro.protocol.admission.AdmissionMachine` — the edge
  server's seqNum join synchronization (Algorithm 1) and the what-if
  cache invalidation/update rules (§IV-C2);
- :class:`~repro.protocol.global_select.GlobalSelectionMachine` — the
  Central Manager's registry, expiry and TopN candidate ranking
  (§IV-B).

Each machine consumes typed :mod:`~repro.protocol.events` (every event
carries an explicit ``now``) and returns typed
:mod:`~repro.protocol.effects`; it has zero knowledge of clocks,
sockets, or the simulator kernel. The discrete-event backend
(``repro.core``) and the live asyncio backend (``repro.runtime``) are
thin drivers: they translate kernel callbacks / awaited messages into
input events and execute the returned effects in order.

This package is fully typed (checked with ``mypy --strict`` in CI) and
imports nothing from ``repro.core`` at runtime, so either backend can
import it freely. See DESIGN.md §8 for the event/effect tables and a
sequence diagram of one selection round.
"""

from repro.protocol.effects import (
    Attached,
    Effect,
    EmitTrace,
    FlushBacklog,
    NodeExpired,
    NodeOnline,
    ProbeCandidates,
    ReplyAssignment,
    ReplyCandidates,
    ReplyJoin,
    ReplyProbe,
    ScheduleTestWorkload,
    SendDiscovery,
    SendFailoverJoin,
    SendJoin,
    SendLeave,
    StartTimer,
    UpdateBackups,
)
from repro.protocol.events import (
    CandidatesReceived,
    DiscoveryRequested,
    EdgeFailed,
    FailoverResult,
    HeartbeatReceived,
    JoinRequested,
    JoinResult,
    LeaveRequested,
    MonitorSample,
    NodeFailed,
    NodeForgotten,
    ProbeRequested,
    ProbesCompleted,
    ProtocolEvent,
    PruneTick,
    RoundStarted,
    TestWorkloadCompleted,
    UnexpectedJoinRequested,
    WrrAssignRequested,
)
from repro.protocol.failure_monitor import FailureMonitor
from repro.protocol.selection import SelectionConfig, SelectionMachine
from repro.protocol.admission import AdmissionConfig, AdmissionMachine
from repro.protocol.global_select import GlobalSelectionMachine

__all__ = [
    # machines
    "SelectionMachine",
    "SelectionConfig",
    "AdmissionMachine",
    "AdmissionConfig",
    "GlobalSelectionMachine",
    "FailureMonitor",
    # events
    "ProtocolEvent",
    "RoundStarted",
    "CandidatesReceived",
    "ProbesCompleted",
    "JoinResult",
    "EdgeFailed",
    "FailoverResult",
    "ProbeRequested",
    "JoinRequested",
    "UnexpectedJoinRequested",
    "LeaveRequested",
    "TestWorkloadCompleted",
    "MonitorSample",
    "NodeFailed",
    "HeartbeatReceived",
    "DiscoveryRequested",
    "WrrAssignRequested",
    "PruneTick",
    "NodeForgotten",
    # effects
    "Effect",
    "EmitTrace",
    "SendDiscovery",
    "ProbeCandidates",
    "SendJoin",
    "SendLeave",
    "SendFailoverJoin",
    "Attached",
    "UpdateBackups",
    "FlushBacklog",
    "StartTimer",
    "ReplyProbe",
    "ReplyJoin",
    "ScheduleTestWorkload",
    "ReplyCandidates",
    "ReplyAssignment",
    "NodeOnline",
    "NodeExpired",
]
