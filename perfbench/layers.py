"""Which public entry points each layer exposes, and the per-layer metrics.

:func:`install` wraps every entry point listed in :func:`_targets` for
one traced window; :func:`per_layer` turns the recorder's spans and
counters (plus a few counters the workload reads off the program)
into the ``per_layer`` metrics named in ``BENCHMARK.json``. Nothing
under ``src/`` knows it is being traced.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Tuple

import numpy as np

from perfbench.spans import (
    Observer,
    Patcher,
    SpanRecorder,
    async_timer,
    count_wrapper,
    span_wrapper,
)

SPAN, COUNT, ASYNC = "span", "count", "async"

#: RPC op on the wire -> the ``runtime.rpc.<name>_p50_ms`` it is part of.
RPC_OPS = {
    "discover": "discover",
    "rtt_probe": "probe",
    "process_probe": "probe",
    "join": "join",
    "frame": "frame",
}


def _targets(counts) -> Iterator[Tuple[object, str, str, str, object]]:
    """(owner, attribute, kind, metric name, observer or async key)."""
    from repro.controlplane.router import ShardRouter
    from repro.controlplane.sim_driver import ShardedCentralManager
    from repro.core import messages
    from repro.core.manager import CentralManager
    from repro.core.policies.global_policies import GlobalSelectionPolicy
    from repro.geo import point
    from repro.geo.spatial_index import GeohashSpatialIndex
    from repro.metro.kernel import MetroKernel
    from repro.net.topology import NetworkTopology
    from repro.nodes.processing import FrameProcessor
    from repro.obs.tracer import Tracer
    from repro.policy.base import SelectionPolicy
    from repro.protocol.admission import AdmissionMachine
    from repro.protocol.events import RoundStarted
    from repro.protocol.selection import SelectionMachine
    from repro.runtime import protocol
    from repro.sim.events import EventQueue
    from repro.sim.kernel import Simulator

    def on_select(args, kwargs, result) -> None:
        counts["core.queries"] += 1
        counts["core.returned"] += len(result[0])

    def on_routed(args, kwargs, routed) -> None:
        counts["core.queries"] += 1
        counts["core.returned"] += len(routed.node_ids)
        counts["controlplane.queries"] += 1
        counts["controlplane.partials"] += len(routed.local_shards) + len(routed.wide_shards)
        counts["controlplane.cross_shard"] += routed.cross_shard

    def on_query_cells(args, kwargs, statuses) -> None:
        counts["core.scanned"] += len(statuses)

    def on_selection_event(args, kwargs, result) -> None:
        if isinstance(args[1], RoundStarted):
            counts["core.rounds"] += 1

    def on_emit(args, kwargs, result) -> None:
        counts["obs.event." + args[1].type] += 1

    def on_submit(args, kwargs, completed) -> None:
        if completed is None and not kwargs.get("synthetic", False):
            counts["nodes.frames_shed"] += 1

    def rpc_key(position: int) -> Callable[[tuple, dict], str]:
        def key(args, kwargs) -> str:
            op = kwargs["op"] if "op" in kwargs else args[position]
            return "runtime.rpc." + RPC_OPS.get(op, op)

        return key

    yield Simulator, "run_until", SPAN, "sim.run_until", None
    for attr in ("push", "push_pooled"):
        yield EventQueue, attr, SPAN, "sim.EventQueue.push", None
    for attr in ("pop", "pop_until"):
        yield EventQueue, attr, SPAN, "sim.EventQueue.pop", None
    yield CentralManager, "discover", SPAN, "core.CentralManager.discover", None
    yield GlobalSelectionPolicy, "select", SPAN, "core.GlobalSelectionPolicy.select", on_select
    # One shard's phase of a routed query: the same selection work.
    yield GlobalSelectionPolicy, "select_partial", SPAN, "core.GlobalSelectionPolicy.select", None
    yield point, "haversine_km_coords", COUNT, "geo.haversine_km_coords", None
    yield GeohashSpatialIndex, "insert", SPAN, "geo.GeohashSpatialIndex.insert", None
    yield GeohashSpatialIndex, "remove", SPAN, "geo.GeohashSpatialIndex.remove", None
    yield GeohashSpatialIndex, "query_cells", SPAN, "geo.GeohashSpatialIndex.query_cells", on_query_cells
    yield ShardedCentralManager, "discover", SPAN, "controlplane.ShardedCentralManager.discover", None
    yield ShardRouter, "select", SPAN, "controlplane.ShardRouter.select", on_routed
    yield SelectionMachine, "handle", SPAN, "protocol.SelectionMachine.handle", on_selection_event
    yield AdmissionMachine, "handle", SPAN, "protocol.AdmissionMachine.handle", None
    yield SelectionPolicy, "rank", SPAN, "policy.SelectionPolicy.rank", None
    yield Tracer, "emit", SPAN, "obs.Tracer.emit", on_emit
    yield NetworkTopology, "rtt_ms", SPAN, "net.NetworkTopology.rtt_ms", None
    yield FrameProcessor, "submit", SPAN, "nodes.FrameProcessor.submit", on_submit
    yield protocol, "encode_frame", SPAN, "runtime.encode_frame", None
    yield protocol, "decode_frame", SPAN, "runtime.decode_frame", None
    yield messages, "to_wire", SPAN, "core.messages.to_wire", None
    yield messages, "from_wire", SPAN, "core.messages.from_wire", None
    yield protocol, "request", ASYNC, "", rpc_key(2)
    yield protocol.PersistentConnection, "request", ASYNC, "", rpc_key(1)
    yield MetroKernel, "step_to", SPAN, "metro.MetroKernel.step_to", None


def install(patcher: Patcher, recorder: SpanRecorder) -> None:
    """Wrap every layer entry point so calls land in ``recorder``."""
    for owner, attr, kind, name, extra in _targets(recorder.counts):
        if kind == SPAN:
            observer: Observer = extra  # type: ignore[assignment]
            make = lambda fn, n=name, o=observer: span_wrapper(recorder, n, fn, o)
        elif kind == COUNT:
            make = lambda fn, n=name: count_wrapper(recorder, n, fn)
        else:
            make = lambda fn, k=extra: async_timer(recorder, k, fn)
        if isinstance(owner, type):
            patcher.wrap_method(owner, attr, make)
        else:
            patcher.wrap_function(owner, attr, make)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(recorder: SpanRecorder, program: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced window.

    ``program`` holds what the workload read off the program or its
    untraced pass: ``sim.events``, the ``metro.*`` counters,
    ``runtime.frames_shed``, ``runtime.loop_lag_p99_ms``,
    ``trace.overhead_frac`` and the outcome metrics.
    """
    spans = recorder.summary()
    counts = recorder.counts

    def calls(name: str) -> float:
        return float(spans.get(name, {}).get("calls", 0))

    def self_s(*names: str) -> float:
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def p50(values) -> float:
        return float(np.median(values)) if len(values) else 0.0

    queries = counts["core.queries"]
    cp_queries = counts["controlplane.queries"]
    m: Dict[str, float] = {}
    m["sim.events"] = program.get("sim.events", 0.0)
    m["sim.EventQueue.push.calls"] = calls("sim.EventQueue.push")
    m["sim.EventQueue.pop.calls"] = calls("sim.EventQueue.pop")
    m["sim.EventQueue.self_s"] = self_s("sim.EventQueue.push", "sim.EventQueue.pop")
    m["sim.run_until.self_s"] = self_s("sim.run_until")
    m["core.CentralManager.discover.calls"] = calls("core.CentralManager.discover")
    m["core.CentralManager.discover.self_s"] = self_s("core.CentralManager.discover")
    m["core.CentralManager.discover.p50_us"] = 1e6 * p50(
        recorder.durations("core.CentralManager.discover")
    )
    m["core.GlobalSelectionPolicy.select.self_s"] = self_s("core.GlobalSelectionPolicy.select")
    haversine = float(counts["geo.haversine_km_coords"])
    m["geo.haversine_km_coords.calls"] = haversine
    m["geo.haversine_per_query"] = _ratio(haversine, queries)
    m["core.candidates_per_query"] = _ratio(counts["core.scanned"], counts["core.returned"])
    m["geo.GeohashSpatialIndex.insert.calls"] = calls("geo.GeohashSpatialIndex.insert")
    m["geo.GeohashSpatialIndex.remove.calls"] = calls("geo.GeohashSpatialIndex.remove")
    m["geo.GeohashSpatialIndex.self_s"] = self_s(
        "geo.GeohashSpatialIndex.insert",
        "geo.GeohashSpatialIndex.remove",
        "geo.GeohashSpatialIndex.query_cells",
    )
    m["controlplane.ShardedCentralManager.discover.calls"] = calls(
        "controlplane.ShardedCentralManager.discover"
    )
    m["controlplane.ShardedCentralManager.discover.self_s"] = self_s(
        "controlplane.ShardedCentralManager.discover", "controlplane.ShardRouter.select"
    )
    m["controlplane.partials_per_query"] = _ratio(counts["controlplane.partials"], cp_queries)
    m["controlplane.cross_shard_frac"] = _ratio(counts["controlplane.cross_shard"], cp_queries)
    for machine in ("SelectionMachine", "AdmissionMachine"):
        name = f"protocol.{machine}.handle"
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
    for name in (
        "policy.SelectionPolicy.rank",
        "obs.Tracer.emit",
        "net.NetworkTopology.rtt_ms",
        "nodes.FrameProcessor.submit",
        "runtime.encode_frame",
        "runtime.decode_frame",
    ):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
    m["nodes.frames_shed"] = float(counts["nodes.frames_shed"])
    m["core.rounds"] = float(counts["core.rounds"])
    m["core.failovers_covered"] = float(counts["obs.event.covered_failover"])
    m["core.failovers_uncovered"] = float(counts["obs.event.uncovered_failure"])
    m["core.messages.to_wire.self_s"] = self_s("core.messages.to_wire")
    m["core.messages.from_wire.self_s"] = self_s("core.messages.from_wire")
    for rpc in ("discover", "probe", "join", "frame"):
        m[f"runtime.rpc.{rpc}_p50_ms"] = 1e3 * p50(recorder.samples.get("runtime.rpc." + rpc, ()))
    m["metro.MetroKernel.step_to.self_s"] = self_s("metro.MetroKernel.step_to")
    for name in (
        "runtime.loop_lag_p99_ms",
        "runtime.frames_shed",
        "metro.control_ops",
        "metro.switches",
        "metro.frames_advanced",
        "metro.handoffs",
        "frame_mean_ms",
        "frame_p99_ms",
        "frames_failed_frac",
        "wall_s_per_sim_s",
        "live_round_p50_ms",
        "live_round_p99_ms",
        "trace.overhead_frac",
    ):
        m[name] = float(program.get(name, 0.0))
    m["metro.switch_per_control_op"] = _ratio(m["metro.switches"], m["metro.control_ops"])
    m["trace.unattributed_frac"] = (
        max(0.0, 1.0 - recorder.top_level_s() / recorder.window_s) if recorder.window_s else 0.0
    )
    return m
