"""The application user (client) — simulation driver over the protocol core.

An :class:`EdgeClient` runs three concurrent activities on the simulator:

1. **The offloading loop** — sends encoded frames to the attached edge
   node at the adaptive rate, measures end-to-end latency per response,
   and feeds the rate controller. While unattached, frames accumulate in
   a bounded client-side backlog and are flushed on (re)attach, so
   downtime shows up as latency spikes exactly as in Fig. 4.
2. **The periodic selection round** (Algorithm 2) — every ``T_probing``.
3. **Failure handling** — walking the backup list on a broken
   connection, falling back to reactive re-discovery only when every
   backup is dead too (counted as a *failure*, Fig. 10b).

All the *decisions* in 2 and 3 — ranking, dwell, hysteresis, join
retry, backup adoption, the failover walk — live in
:class:`repro.protocol.selection.SelectionMachine`; this class is the
sim-side **driver**: it translates kernel callbacks into protocol input
events, executes the returned effects (network sends with sampled RTT
delays, timers, trace emission), and owns the pure-I/O machinery —
frames, links, probing measurements, the backlog.

Baselines (geo-proximity, resource-aware WRR, ...) subclass this and
override only the selection round — frames, links, adaptation and
failure detection are shared machinery, so every strategy pays identical
costs elsewhere.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.controlplane.errors import ControlPlaneUnavailable
from repro.core.config import SystemConfig
from repro.core.messages import CandidateList, DiscoveryQuery
from repro.policy.base import SelectionPolicy
from repro.core.probing import ProbeOutcome
from repro.net.link import CONNECTION_SETUP_RTTS, Link
from repro.obs.events import (
    FrameDone,
    FrameStart,
    PhaseSpan,
    ProbeAnswered,
    ProbeSent,
    UncoveredFailure,
)
from repro.protocol.effects import (
    Attached,
    Effect,
    EmitTrace,
    FlushBacklog,
    ProbeCandidates,
    SendDiscovery,
    SendFailoverJoin,
    SendJoin,
    SendLeave,
    StartTimer,
    UpdateBackups,
)
from repro.protocol.events import (
    CandidatesReceived,
    DiscoveryFailed,
    EdgeFailed,
    FailoverResult,
    JoinResult,
    ProbesCompleted,
    ProtocolEvent,
    RoundStarted,
)
from repro.protocol.failure_monitor import FailureMonitor
from repro.protocol.selection import SelectionConfig, SelectionMachine
from repro.sim.kernel import TimerHandle
from repro.workload.adaptive import AdaptiveRateController
from repro.workload.ar import ARApplication
from repro.workload.frames import Frame, FrameSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import EdgeSystem
    from repro.faults.injector import MessageDecision


@dataclass
class ClientStats:
    """Per-client counters surfaced to experiments."""

    frames_sent: int = 0
    frames_completed: int = 0
    frames_lost: int = 0
    probes_sent: int = 0
    discovery_queries: int = 0
    joins_accepted: int = 0
    joins_rejected: int = 0
    switches: int = 0
    covered_failovers: int = 0
    uncovered_failures: int = 0
    latencies_ms: List[float] = field(default_factory=list)

    @property
    def mean_latency_ms(self) -> float:
        if not self.latencies_ms:
            raise ValueError("no completed frames yet")
        return sum(self.latencies_ms) / len(self.latencies_ms)


@runtime_checkable
class ClientLike(Protocol):
    """The contract :class:`~repro.core.system.EdgeSystem` requires of a
    registered client.

    Every client — :class:`EdgeClient`, the baselines, or a custom
    strategy — must expose this surface; ``EdgeSystem.add_client``
    validates it structurally at registration. The system never reaches
    into client internals beyond these members: in particular, failure
    notification asks the *client* whether it observes a node
    (:meth:`observes_node`) rather than duck-typing over
    ``failure_monitor``/``links`` attributes, which remain optional
    implementation details of :class:`EdgeClient`.
    """

    user_id: str

    def start(self) -> None:
        """Begin operating on the system's simulator."""
        ...

    def observes_node(self, node_id: str) -> bool:
        """True if this client holds any relationship to ``node_id``
        (open connection, current attachment, or backup) through which
        it would eventually notice the node failing."""
        ...

    def on_edge_failure(self, node_id: str) -> None:
        """Deliver a broken-connection notification for ``node_id``."""
        ...


class EdgeClient:
    """A user device running the client-centric edge selection.

    Args:
        system: owning :class:`~repro.core.system.EdgeSystem`.
        user_id: unique id; must match a registered network endpoint.
        app: application profile (defaults to the system's).
        local_policy: a :class:`~repro.policy.base.SelectionPolicy`;
            defaults to the system/config resolved policy
            (``EdgeSystem.make_selection_policy``), which honours
            ``ScenarioBuilder.policy(...)`` and ``SystemConfig.policy_spec``
            including QoS wrapping.
        proactive_connections: keep standing connections to backups
            (False reproduces the reactive "re-connect" baseline).
        backlog_limit: max frames buffered while unattached.
    """

    def __init__(
        self,
        system: "EdgeSystem",
        user_id: str,
        *,
        app: Optional[ARApplication] = None,
        local_policy: Optional[SelectionPolicy] = None,
        proactive_connections: bool = True,
        backlog_limit: int = 64,
    ) -> None:
        self.system = system
        self.user_id = user_id
        self.config: SystemConfig = system.config
        self.app = app or system.app
        self.proactive_connections = proactive_connections
        self.controller = AdaptiveRateController(self.app)
        rng = system.streams.get(f"client.{user_id}")
        self.frame_source = FrameSource(user_id, self.app, rng)
        self._rng = rng

        #: The sans-IO protocol core this driver executes.
        self._machine = SelectionMachine(
            user_id,
            local_policy
            if local_policy is not None
            else system.make_selection_policy(user_id),
            SelectionConfig(
                top_n=self.config.top_n,
                min_dwell_ms=self.config.min_dwell_ms,
                switch_penalty_ms=self.config.switch_penalty_ms,
                switch_penalty_fraction=self.config.switch_penalty_fraction,
                max_discovery_retries=self.config.max_discovery_retries,
            ),
            detail_guard=lambda: self.system.trace.enabled,
        )
        self.links: Dict[str, Link] = {}
        self.stats = ClientStats()
        #: Live robustness knob (§IV-E): an attached AdaptiveRobustness
        #: controller may move it with observed churn (``top_n`` lives on
        #: the machine and is mirrored below).
        self.probing_period_ms = self.config.probing_period_ms
        self.robustness_controller: Optional[object] = None
        self._backlog: Deque[Frame] = deque(maxlen=backlog_limit)
        self._probe_event: Optional[TimerHandle] = None
        self._offload_timer: Optional[TimerHandle] = None
        self._stopped = False
        # Interned hot-path event labels. The frame loop schedules ~4
        # kernel events per frame; rebuilding the same f-string label on
        # every call was measurable at metro scale, so each label is
        # built once per client here.
        uid = self.user_id
        self._lbl_probe = uid + ".probe"
        self._lbl_retry = uid + ".retry"
        self._lbl_discover_timeout = uid + ".discover-timeout"
        self._lbl_discover = uid + ".discover"
        self._lbl_probed = uid + ".probed"
        self._lbl_join = uid + ".join"
        self._lbl_failover = uid + ".failover"
        self._lbl_frame = uid + ".frame"
        self._lbl_dup = uid + ".dup"
        self._lbl_resp = uid + ".resp"
        self._lbl_uplink = uid + ".uplink"
        self._lbl_leave = uid + ".leave"

    # ------------------------------------------------------------------
    # Protocol-core state, exposed on the driver for experiments,
    # baselines and the adaptive robustness controller.
    # ------------------------------------------------------------------
    @property
    def local_policy(self) -> SelectionPolicy:
        return self._machine.policy

    @local_policy.setter
    def local_policy(self, policy: SelectionPolicy) -> None:
        self._machine.policy = policy

    @property
    def current_edge(self) -> Optional[str]:
        return self._machine.current_edge

    @current_edge.setter
    def current_edge(self, node_id: Optional[str]) -> None:
        self._machine.current_edge = node_id

    @property
    def top_n(self) -> int:
        return self._machine.top_n

    @top_n.setter
    def top_n(self, value: int) -> None:
        self._machine.top_n = value

    @property
    def failure_monitor(self) -> FailureMonitor:
        return self._machine.monitor

    @property
    def _round_in_progress(self) -> bool:
        return self._machine.round_in_progress

    @_round_in_progress.setter
    def _round_in_progress(self, value: bool) -> None:
        self._machine.round_in_progress = value

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Join the system: first selection round + periodic timers."""
        self._begin_selection_round()
        self._schedule_probe_round()
        self._schedule_next_frame(self.controller.interval_ms)

    def _schedule_probe_round(self) -> None:
        """Self-rescheduling probing timer.

        Self-rescheduling (rather than a fixed periodic timer) lets the
        probing cadence follow ``probing_period_ms`` when an adaptive
        robustness controller moves it between rounds.
        """
        if self._stopped:
            return
        delay = self.probing_period_ms
        if self.config.probing_jitter_ms > 0:
            delay += self._rng.uniform(
                -self.config.probing_jitter_ms, self.config.probing_jitter_ms
            )
        delay = max(delay, 100.0)

        def fire() -> None:
            if self._stopped:
                return
            self._begin_selection_round()
            self._schedule_probe_round()

        self._probe_event = self.system.sim.schedule(
            delay, fire, label=self._lbl_probe
        )

    def stop(self) -> None:
        """Leave the system (task finished)."""
        if self._stopped:
            return
        self._stopped = True
        if self._probe_event is not None:
            self._probe_event.cancel()
        if self._offload_timer is not None:
            self._offload_timer.cancel()
        if self.current_edge is not None:
            self._send_leave(self.current_edge, reason="finish")
            self.current_edge = None

    @property
    def attached(self) -> bool:
        return self.current_edge is not None

    # ------------------------------------------------------------------
    # Protocol-event feed + effect execution
    # ------------------------------------------------------------------
    def _feed(self, event: ProtocolEvent) -> None:
        """Advance the protocol machine and execute what it asks for."""
        if self._stopped:
            return
        self._run_effects(self._machine.handle(event))

    def _run_effects(self, effects: List[Effect]) -> None:
        for effect in effects:
            if isinstance(effect, EmitTrace):
                self.system.trace.emit(effect.event)
                if isinstance(effect.event, UncoveredFailure):
                    self.stats.uncovered_failures += 1
            elif isinstance(effect, SendDiscovery):
                self.stats.discovery_queries += 1
                self._perform_discovery(effect)
            elif isinstance(effect, ProbeCandidates):
                self._probe_candidates(list(effect.node_ids))
            elif isinstance(effect, SendJoin):
                self._perform_join(effect.outcome)
            elif isinstance(effect, SendLeave):
                self._send_leave(effect.node_id, reason=effect.reason)
            elif isinstance(effect, SendFailoverJoin):
                self._perform_failover_join(effect.node_id)
            elif isinstance(effect, Attached):
                if effect.via == "failover":
                    self.stats.covered_failovers += 1
                elif effect.previous is not None and (
                    effect.previous != effect.node_id
                ):
                    self.stats.switches += 1
                self._ensure_link(effect.node_id, effect.rtt_ms)
            elif isinstance(effect, UpdateBackups):
                if self.proactive_connections:
                    for outcome in effect.outcomes:
                        self._ensure_link(outcome.node_id, outcome.d_prop_ms)
                self._prune_links()
            elif isinstance(effect, FlushBacklog):
                self._flush_backlog()
            elif isinstance(effect, StartTimer):
                self.system.sim.schedule(
                    effect.delay_ms,
                    self._begin_selection_round,
                    label=self._lbl_retry,
                )
            else:  # pragma: no cover - forward-compatibility guard
                raise TypeError(f"unhandled effect {type(effect).__name__}")

    def _end_round(self) -> None:
        """Close the current selection round (used by baseline subclasses
        that bypass the protocol machine)."""
        self._round_in_progress = False

    # ------------------------------------------------------------------
    # Fault interception (repro.faults)
    # ------------------------------------------------------------------
    #: How long an unanswered discovery request waits before the driver
    #: reports :class:`~repro.protocol.events.DiscoveryFailed` (the live
    #: runtime's retry budget plays the same role on the wall clock).
    DISCOVERY_TIMEOUT_MS = 1_000.0

    def _decide_fault(self, dst: str, op: str) -> Optional["MessageDecision"]:
        """One injector verdict for a logical message exchange, or None.

        The sim intercepts each exchange *once at send time* — the
        verdict covers the round trip, so a rule matching either
        direction of a link should name the client as ``src``. Manager
        outages and symmetric partitions match regardless.
        """
        faults = self.system.faults
        if faults is None:
            return None
        return faults.decide(self.user_id, dst, op, self.system.sim.now)

    # ------------------------------------------------------------------
    # Selection round I/O (Algorithm 2) — overridden by baselines
    # ------------------------------------------------------------------
    def _begin_selection_round(self) -> None:
        if self._stopped or self._round_in_progress:
            return
        self._feed(RoundStarted(self.system.sim.now))

    def _perform_discovery(self, effect: SendDiscovery) -> None:
        """Edge discovery: one round trip to the Central Manager."""
        endpoint = self.system.topology.endpoint(self.user_id)
        query = DiscoveryQuery(
            user_id=self.user_id,
            lat=endpoint.point.lat,
            lon=endpoint.point.lon,
            top_n=effect.top_n,
            isp=endpoint.isp,
            exclude=effect.exclude,
        )
        rtt = self.system.topology.rtt_ms(self.user_id, self.system.manager_id)
        verdict = self._decide_fault(self.system.manager_id, "discover")
        if verdict is not None:
            if not verdict.deliver:
                # Black-holed: the client only learns via its timeout.
                self.system.sim.schedule(
                    self.DISCOVERY_TIMEOUT_MS,
                    lambda: self._feed(
                        DiscoveryFailed(self.system.sim.now, reason=verdict.kind)
                    ),
                    label=self._lbl_discover_timeout,
                )
                return
            rtt += verdict.extra_delay_ms
        self.system.sim.schedule(
            rtt,
            lambda: self._discover_at_manager(query),
            label=self._lbl_discover,
        )

    def _discover_at_manager(self, query: DiscoveryQuery) -> None:
        """The query reached the manager: answer, or shard unavailable.

        A control-plane shard with no serving replica (primary killed,
        standby not yet promoted) behaves exactly like an unreachable
        manager: the client only learns via its discovery timeout and
        then rides the degraded-fallback path — never an empty
        candidate list.
        """
        try:
            candidates = self.system.manager.discover(query)
        except ControlPlaneUnavailable as exc:
            # Bind now: `exc` is unbound once the except block exits,
            # but the lambda fires a discovery-timeout later.
            reason = exc.reason
            self.system.sim.schedule(
                self.DISCOVERY_TIMEOUT_MS,
                lambda: self._feed(
                    DiscoveryFailed(self.system.sim.now, reason=reason)
                ),
                label=self._lbl_discover_timeout,
            )
            return
        self._deliver_candidates(candidates)

    def _deliver_candidates(self, candidates: CandidateList) -> None:
        self._feed(
            CandidatesReceived(
                self.system.sim.now, candidates.node_ids, candidates.widened
            )
        )

    def _probe_candidates(self, node_ids: List[str]) -> None:
        """Probe all candidates in parallel; collect when the slowest returns.

        Each probe measures ``D_prop`` (the sampled RTT *is* the
        measurement) and reads the candidate's what-if cache. Dead
        candidates simply never answer and are dropped when the round
        closes. Probing a candidate also warms a connection to it —
        this is how proactive backup connections get established.
        """
        topology = self.system.topology
        trace = self.system.trace
        outcomes: List[ProbeOutcome] = []
        max_rtt = 0.0
        samples = self.config.rtt_probe_samples
        for node_id in node_ids:
            self.stats.probes_sent += 1
            trace.emit(ProbeSent(self.system.sim.now, self.user_id, node_id))
            if not topology.has_endpoint(node_id):
                continue
            verdict = self._decide_fault(node_id, "probe")
            if verdict is not None and not verdict.deliver:
                continue  # probe times out silently, like a dead node
            pings = [
                topology.rtt_ms(self.user_id, node_id) for _ in range(samples)
            ]
            rtt = sum(pings) / len(pings)
            if verdict is not None:
                rtt += verdict.extra_delay_ms
            max_rtt = max(max_rtt, rtt)
            node = self.system.nodes.get(node_id)
            if node is None:
                continue
            reply = node.process_probe()
            if reply is None:
                continue  # dead node: probe times out silently
            if trace.enabled:
                trace.emit(
                    ProbeAnswered(
                        self.system.sim.now + rtt,
                        self.user_id,
                        node_id,
                        rtt,
                        reply.what_if_ms,
                    )
                )
            outcomes.append(
                ProbeOutcome(
                    node_id=node_id,
                    d_prop_ms=rtt,
                    d_proc_ms=reply.what_if_ms,
                    seq_num=reply.seq_num,
                    attached_users=reply.attached_users,
                    current_proc_ms=reply.current_proc_ms,
                    stay_ms=reply.stay_ms or reply.what_if_ms,
                    probed_at_ms=self.system.sim.now,
                )
            )
            if self.proactive_connections:
                self._ensure_link(node_id, rtt)
        self.system.sim.schedule(
            max_rtt if max_rtt > 0 else 1.0,
            lambda: self._feed(
                ProbesCompleted(self.system.sim.now, tuple(outcomes))
            ),
            label=self._lbl_probed,
        )

    def _perform_join(self, best: ProbeOutcome) -> None:
        """``Join()`` the chosen candidate, echoing its probed seqNum."""
        node = self.system.nodes.get(best.node_id)
        rtt = self.system.topology.rtt_ms(self.user_id, best.node_id)
        verdict = self._decide_fault(best.node_id, "join")
        dropped = verdict is not None and not verdict.deliver
        if verdict is not None and verdict.deliver:
            rtt += verdict.extra_delay_ms

        def deliver() -> None:
            now = self.system.sim.now
            if dropped or node is None or not node.alive:
                # A dropped join is indistinguishable from a dead node:
                # no answer before the timeout.
                accepted, node_alive = False, False
            else:
                reply = node.join(self.user_id, best.seq_num, self.controller.fps)
                accepted, node_alive = reply.accepted, True
            if accepted:
                self.stats.joins_accepted += 1
            elif node_alive:
                self.stats.joins_rejected += 1
            self._feed(
                JoinResult(
                    now,
                    best.node_id,
                    accepted,
                    attempted_at=now,
                    node_alive=node_alive,
                )
            )

        self.system.sim.schedule(rtt, deliver, label=self._lbl_join)

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def _ensure_link(self, node_id: str, rtt_ms: float) -> Link:
        link = self.links.get(node_id)
        if link is None:
            link = Link(self.user_id, node_id, rtt_ms)
            link.mark_up(self.system.sim.now)  # warmed by the probe exchange
            self.links[node_id] = link
        else:
            link.rtt_ms = rtt_ms
        return link

    def _prune_links(self) -> None:
        """Close connections to nodes that are neither current nor backup."""
        keep = set(self.failure_monitor.backups)
        if self.current_edge is not None:
            keep.add(self.current_edge)
        for node_id in list(self.links):
            if node_id not in keep:
                del self.links[node_id]

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def observes_node(self, node_id: str) -> bool:
        """See :meth:`ClientLike.observes_node`: connection, attachment
        or backup-list membership all make a failure observable."""
        return (
            node_id in self.links
            or node_id == self.current_edge
            or node_id in self.failure_monitor.backups
        )

    def on_edge_failure(self, node_id: str) -> None:
        """A connection to ``node_id`` broke (delivered by the system
        ``failure_detection_ms`` after the node died)."""
        if self._stopped:
            return
        self.links.pop(node_id, None)
        self._feed(EdgeFailed(self.system.sim.now, node_id))

    def _perform_failover_join(self, backup_id: str) -> None:
        """``Unexpected_join()`` one backup after the connection delay."""
        node = self.system.nodes.get(backup_id)
        rtt = (
            self.system.topology.rtt_ms(self.user_id, backup_id)
            if self.system.topology.has_endpoint(backup_id)
            else self.config.common_rtt_ms
        )
        if not self.proactive_connections:
            rtt += CONNECTION_SETUP_RTTS * rtt  # fresh connection first
        verdict = self._decide_fault(backup_id, "unexpected_join")
        dropped = verdict is not None and not verdict.deliver
        if verdict is not None and verdict.deliver:
            rtt += verdict.extra_delay_ms

        def deliver() -> None:
            accepted = (
                not dropped
                and node is not None
                and node.alive
                and node.unexpected_join(self.user_id, self.controller.fps)
            )
            self._feed(
                FailoverResult(
                    self.system.sim.now, backup_id, accepted, rtt_ms=rtt
                )
            )

        self.system.sim.schedule(rtt, deliver, label=self._lbl_failover)

    # ------------------------------------------------------------------
    # Offloading loop
    # ------------------------------------------------------------------
    def _schedule_next_frame(self, delay_ms: float) -> None:
        if self._stopped:
            return
        self.system.sim.schedule(
            delay_ms, self._offload_tick, label=self._lbl_frame
        )

    def _offload_tick(self) -> None:
        if self._stopped:
            return
        frame = self.frame_source.next_frame(self.system.sim.now)
        if self.attached:
            self._send_frame(frame)
        else:
            self._backlog.append(frame)
        self._schedule_next_frame(self.controller.interval_ms)

    #: Frames older than this are useless to an AR application (the scene
    #: has moved on); they are dropped as lost rather than offloaded.
    FRAME_STALENESS_MS = 2_000.0

    def _flush_backlog(self) -> None:
        """Send frames buffered during downtime (their latency includes it).

        Frames that went stale during the outage are dropped and counted
        as lost — replaying seconds-old camera frames after a reconnect
        would only poison the queue and tell the user about the past.
        """
        now = self.system.sim.now
        while self._backlog and self.attached:
            frame = self._backlog.popleft()
            if now - frame.created_ms > self.FRAME_STALENESS_MS:
                self._record_lost(frame, self.current_edge or "none")
                continue
            self._send_frame(frame)

    def _send_frame(self, frame: Frame) -> None:
        edge_id = self.current_edge
        assert edge_id is not None
        node = self.system.nodes.get(edge_id)
        topology = self.system.topology
        trace = self.system.trace
        self.stats.frames_sent += 1
        if node is None or not topology.has_endpoint(edge_id):
            self._record_lost(frame, edge_id)
            return
        verdict = self._decide_fault(edge_id, "frame")
        if verdict is not None and not verdict.deliver:
            self._record_lost(frame, edge_id)
            return
        if trace.enabled:
            trace.emit(
                FrameStart(self.system.sim.now, self.user_id, edge_id,
                           frame.frame_id)
            )
        transfer = topology.transfer_ms(self.user_id, edge_id, frame.size_bytes)
        uplink_delay = topology.one_way_ms(self.user_id, edge_id) + transfer
        if verdict is not None:
            uplink_delay += verdict.extra_delay_ms
            for _ in range(verdict.copies - 1):
                # Duplicated frames still load the server's queue; the
                # client ignores the redundant response.
                self.system.sim.schedule_at(
                    self.system.sim.now + uplink_delay,
                    lambda: node.receive_frame(frame, self.system.sim.now),
                    label=self._lbl_dup,
                )
        # Time the frame spent in the client-side backlog before leaving
        # (0 for frames sent the moment they were captured) — part of the
        # queue phase of the latency decomposition.
        backlog_ms = self.system.sim.now - frame.created_ms
        arrival = self.system.sim.now + uplink_delay

        def arrive() -> None:
            completed = node.receive_frame(frame, self.system.sim.now)
            if completed is None:
                self._record_lost(frame, edge_id)
                return
            downlink = topology.one_way_ms(edge_id, self.user_id)

            def respond() -> None:
                if not node.alive and node.failed_at_ms is not None and (
                    node.failed_at_ms < completed.completion_ms
                ):
                    # The node died while the frame was queued/processing.
                    self._record_lost(frame, edge_id)
                    return
                now = self.system.sim.now
                latency = now - frame.created_ms
                self.stats.frames_completed += 1
                self.stats.latencies_ms.append(latency)
                if trace.enabled:
                    # The three spans sum exactly to `latency`:
                    # latency = backlog + uplink + wait + service + downlink.
                    trace.emit(
                        PhaseSpan(now, self.user_id, frame.frame_id, "rtt",
                                  uplink_delay + downlink)
                    )
                    trace.emit(
                        PhaseSpan(now, self.user_id, frame.frame_id, "queue",
                                  backlog_ms + completed.wait_ms)
                    )
                    trace.emit(
                        PhaseSpan(now, self.user_id, frame.frame_id, "process",
                                  completed.service_ms)
                    )
                trace.emit(
                    FrameDone(now, self.user_id, edge_id, frame.frame_id,
                              frame.created_ms, latency)
                )
                self.controller.observe(latency)

            self.system.sim.schedule_at(
                completed.completion_ms + downlink,
                respond,
                label=self._lbl_resp,
            )

        self.system.sim.schedule_at(arrival, arrive, label=self._lbl_uplink)

    def _record_lost(self, frame: Frame, edge_id: str) -> None:
        self.stats.frames_lost += 1
        self.system.trace.emit(
            FrameDone(self.system.sim.now, self.user_id, edge_id,
                      frame.frame_id, frame.created_ms, None)
        )

    # ------------------------------------------------------------------
    def _send_leave(self, node_id: str, reason: str) -> None:
        node = self.system.nodes.get(node_id)
        if node is None:
            return
        verdict = self._decide_fault(node_id, "leave")
        if verdict is not None and not verdict.deliver:
            return  # the node never hears the goodbye
        delay = (
            self.system.topology.one_way_ms(self.user_id, node_id)
            if self.system.topology.has_endpoint(node_id)
            else 1.0
        )
        if verdict is not None:
            delay += verdict.extra_delay_ms
        self.system.sim.schedule(
            delay, lambda: node.leave(self.user_id), label=self._lbl_leave
        )

    def __repr__(self) -> str:
        return (
            f"EdgeClient({self.user_id}, edge={self.current_edge}, "
            f"backups={self.failure_monitor.backups})"
        )
