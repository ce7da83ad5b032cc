"""The central metrics collector — a reducer over the trace-event bus.

One collector instance is shared by every component of a running system
(simulated or live). Since the observability redesign, components no
longer mutate the collector: they emit typed trace events on the
system's :class:`~repro.obs.tracer.Tracer`, and the collector — wired as
an always-on subscriber by :class:`~repro.core.system.EdgeSystem` —
*reduces* those events into the aggregates the experiment harnesses
read. Nothing in the selection algorithms ever reads the collector —
measurement is strictly one-way.

The pre-redesign mutation entry points (``record_frame`` & friends)
have been removed: emit the corresponding trace event via
``Tracer.emit()`` (or call :meth:`MetricsCollector.on_event` directly
in tests).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.metrics.timeseries import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import TraceEvent


@dataclass(frozen=True)
class FrameRecord:
    """One completed (or lost) offloading request."""

    user_id: str
    edge_id: str
    created_ms: float
    latency_ms: Optional[float]  # None = frame lost (node failed mid-flight)

    @property
    def lost(self) -> bool:
        return self.latency_ms is None


@dataclass
class MetricsCollector:
    """Accumulates every measurable event of a run.

    Attributes of interest to the figures:
        frames: all frame records (Figs. 3-8 derive from these).
        probes_sent: per-user count of ``Process_probe`` requests
            (Fig. 9a).
        test_invocations: per-node count of test-workload runs (Fig. 9b).
        failures: per-user count of *uncovered* failures, i.e. moments
            where every backup was dead too and the client had to fall
            back to re-discovery (Fig. 10b counts exactly these).
        switches: per-user count of voluntary better-node switches.
        covered_failovers: per-user count of failures absorbed by a
            backup node (no service disruption).
        alive_nodes: step time series of the node population (Fig. 8's
            grey stair line).
    """

    frames: List[FrameRecord] = field(default_factory=list)
    probes_sent: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    discovery_queries: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    test_invocations: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    join_accepts: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    join_rejects: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    failures: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    covered_failovers: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    switches: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: (user_id, sim time ms) of each uncovered failure / covered failover
    failure_events: List[Tuple[str, float]] = field(default_factory=list)
    failover_events: List[Tuple[str, float]] = field(default_factory=list)
    alive_nodes: TimeSeries = field(
        default_factory=lambda: TimeSeries(name="alive_nodes")
    )

    # ------------------------------------------------------------------
    # Trace-event reduction (the metrics-reporting API)
    # ------------------------------------------------------------------
    def on_event(self, event: "TraceEvent") -> None:
        """Reduce one trace event; unknown types are ignored.

        This is the collector's subscription entry point:
        ``tracer.subscribe(collector.on_event)`` wires a collector to a
        system's event bus (:class:`~repro.core.system.EdgeSystem` does
        this automatically). Detail events the collector has no
        aggregate for — phase spans, cache hits, probe answers — fall
        through the dispatch untouched.
        """
        handler = _REDUCERS.get(event.type)
        if handler is not None:
            handler(self, event)

    def _on_frame_done(self, event) -> None:
        self.frames.append(
            FrameRecord(event.user_id, event.node_id, event.created_ms,
                        event.latency_ms)
        )

    def _on_probe_sent(self, event) -> None:
        self.probes_sent[event.user_id] += 1

    def _on_discovery_issued(self, event) -> None:
        self.discovery_queries[event.user_id] += 1

    def _on_test_workload(self, event) -> None:
        self.test_invocations[event.node_id] += 1

    def _on_join_accept(self, event) -> None:
        self.join_accepts[event.user_id] += 1

    def _on_join_reject(self, event) -> None:
        self.join_rejects[event.user_id] += 1

    def _on_uncovered_failure(self, event) -> None:
        self.failures[event.user_id] += 1
        self.failure_events.append((event.user_id, event.t_ms))

    def _on_covered_failover(self, event) -> None:
        self.covered_failovers[event.user_id] += 1
        self.failover_events.append((event.user_id, event.t_ms))

    def _on_switch(self, event) -> None:
        self.switches[event.user_id] += 1

    def _on_population(self, event) -> None:
        self.alive_nodes.append(event.t_ms, float(event.count))

    # ------------------------------------------------------------------
    # Reductions used by experiment harnesses
    # ------------------------------------------------------------------
    def completed_latencies(
        self,
        start_ms: float = 0.0,
        end_ms: Optional[float] = None,
        user_id: Optional[str] = None,
    ) -> List[float]:
        """Latencies of completed frames in a window (optionally per user)."""
        result: List[float] = []
        for record in self.frames:
            if record.latency_ms is None:
                continue
            if record.created_ms < start_ms:
                continue
            if end_ms is not None and record.created_ms >= end_ms:
                continue
            if user_id is not None and record.user_id != user_id:
                continue
            result.append(record.latency_ms)
        return result

    def per_user_mean_latency(
        self, start_ms: float = 0.0, end_ms: Optional[float] = None
    ) -> Dict[str, float]:
        """Mean completed-frame latency per user over a window."""
        sums: Dict[str, float] = defaultdict(float)
        counts: Dict[str, int] = defaultdict(int)
        for record in self.frames:
            if record.latency_ms is None:
                continue
            if record.created_ms < start_ms:
                continue
            if end_ms is not None and record.created_ms >= end_ms:
                continue
            sums[record.user_id] += record.latency_ms
            counts[record.user_id] += 1
        return {user: sums[user] / counts[user] for user in sums}

    def lost_frames(self, user_id: Optional[str] = None) -> int:
        return sum(
            1
            for record in self.frames
            if record.lost and (user_id is None or record.user_id == user_id)
        )

    def total_probes(self) -> int:
        return sum(self.probes_sent.values())

    def total_test_invocations(self) -> int:
        return sum(self.test_invocations.values())

    def total_failures(self) -> int:
        return sum(self.failures.values())

    def total_switches(self) -> int:
        return sum(self.switches.values())


#: Event-type tag -> reducer method. Module-level so ``on_event`` pays a
#: single dict lookup per event on the hot path.
_REDUCERS: Dict[str, Callable[[MetricsCollector, object], None]] = {
    "frame_done": MetricsCollector._on_frame_done,
    "probe_sent": MetricsCollector._on_probe_sent,
    "discovery_issued": MetricsCollector._on_discovery_issued,
    "test_workload_invoked": MetricsCollector._on_test_workload,
    "join_accept": MetricsCollector._on_join_accept,
    "join_reject": MetricsCollector._on_join_reject,
    "uncovered_failure": MetricsCollector._on_uncovered_failure,
    "covered_failover": MetricsCollector._on_covered_failover,
    "switch": MetricsCollector._on_switch,
    "population": MetricsCollector._on_population,
}
