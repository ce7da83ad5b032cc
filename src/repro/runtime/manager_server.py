"""The live Central Manager — asyncio driver over the protocol core.

Registry, expiry, geo-filter and TopN ranking all live in
:class:`repro.protocol.global_select.GlobalSelectionMachine` (shared
with the simulated :class:`repro.core.manager.CentralManager`); this
module only owns the TCP surface and the address book — live clients
need ``(host, port)`` pairs for the candidates, which the sim does not.

Expiry stamps on this backend are ``time.monotonic()`` seconds (the sim
uses virtual milliseconds); the machine never interprets stamp units, it
only compares them against ``heartbeat_timeout``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional

from repro.core.messages import CandidateList, DiscoveryQuery, NodeStatus, from_wire, to_wire
from repro.core.policies.global_policies import GlobalSelectionPolicy
from repro.obs.events import PopulationChanged
from repro.obs.tracer import Tracer
from repro.protocol.effects import (
    Effect,
    NodeExpired,
    NodeOnline,
    ReplyCandidates,
    ReplyPartialCandidates,
)
from repro.protocol.events import (
    DiscoveryRequested,
    HeartbeatReceived,
    PartialDiscoveryRequested,
    PruneTick,
)
from repro.protocol.global_select import GlobalSelectionMachine, RegistrySnapshot
from repro.runtime import protocol


class ManagerServer:
    """Asyncio TCP server implementing the Central Manager role.

    Operations:
        - ``heartbeat`` — payload: wire-encoded :class:`NodeStatus` plus
          the node's serving address; refreshes the registry.
        - ``discover`` — payload: wire-encoded :class:`DiscoveryQuery`;
          replies with a :class:`CandidateList` and an address book for
          the candidates.
        - ``discover_partial`` — one fixed-radius phase of a routed
          discovery (the sharded control plane's RouterServer owns the
          widening decision globally; this shard just answers its
          slice): replies with the exact in-radius count plus the
          per-shard TopN statuses.
        - ``snapshot`` / ``restore`` — serialize / install the
          deduplicated registry snapshot (replication and standby
          re-seeding; stamps are host-monotonic seconds, so snapshots
          only transfer between processes sharing a clock — the
          loopback cluster's case).
        - ``status`` — introspection for tests/operators.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        policy: Optional[GlobalSelectionPolicy] = None,
        heartbeat_timeout_s: float = 3.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        #: The sans-IO Central Manager core this driver executes.
        self._machine = GlobalSelectionMachine(
            policy or GlobalSelectionPolicy(),
            heartbeat_timeout=heartbeat_timeout_s,
        )
        self._addresses: Dict[str, tuple] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self.queries_served = 0
        self.heartbeats_received = 0

    # ------------------------------------------------------------------
    # Protocol-core state, exposed on the driver for tests/operators.
    # ------------------------------------------------------------------
    @property
    def policy(self) -> GlobalSelectionPolicy:
        return self._machine.policy

    @policy.setter
    def policy(self, policy: GlobalSelectionPolicy) -> None:
        self._machine.policy = policy

    @property
    def _registry(self) -> Dict[str, NodeStatus]:
        return self._machine.registry

    async def start(self) -> None:
        """Bind and start serving; resolves the actual port when 0."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    def _run_effects(self, effects: List[Effect]) -> Optional[Effect]:
        """Execute registry effects in order; return the reply (if any).

        Node arrivals and expiries both surface as a single
        :class:`PopulationChanged` trace per batch (matching what an
        operator watching the registry size would observe).
        """
        reply: Optional[Effect] = None
        population_changed = False
        for effect in effects:
            if isinstance(effect, NodeOnline):
                if effect.new:
                    population_changed = True
            elif isinstance(effect, NodeExpired):
                self._addresses.pop(effect.node_id, None)
                population_changed = True
            elif isinstance(effect, (ReplyCandidates, ReplyPartialCandidates)):
                reply = effect
            else:  # pragma: no cover - forward-compatibility guard
                raise TypeError(f"unhandled effect {type(effect).__name__}")
        if population_changed:
            self.tracer.emit(
                PopulationChanged(self.tracer.now(), len(self._machine.registry))
            )
        return reply

    def _alive_statuses(self) -> List[NodeStatus]:
        """Prune stale entries, then snapshot the registry."""
        self._run_effects(self._machine.handle(PruneTick(time.monotonic())))
        return list(self._machine.registry.values())

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                frame = await protocol.read_frame(reader)
                if frame is None:
                    break
                try:
                    reply = self._dispatch(frame)
                except protocol.MALFORMED_PAYLOAD as exc:
                    reply = protocol.malformed_reply(frame["op"], exc)
                writer.write(protocol.encode_frame("reply", reply))
                await writer.drain()
        except (protocol.ProtocolError, ConnectionResetError):
            pass
        except asyncio.CancelledError:
            # Server teardown cancels in-flight handlers; ending the
            # task cleanly avoids spurious loop-callback logging.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (  # pragma: no cover - teardown races
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                # CancelledError: server teardown raced the hang-up —
                # the socket is gone either way, so end the task clean.
                pass

    def _dispatch(self, frame: dict) -> dict:
        op = frame["op"]
        payload = frame["payload"]
        if op == "heartbeat":
            status: NodeStatus = from_wire(payload["status"])
            address = (payload["host"], payload["port"])
            self.heartbeats_received += 1
            self._run_effects(
                self._machine.handle(
                    HeartbeatReceived(stamp=time.monotonic(), status=status)
                )
            )
            self._addresses[status.node_id] = address
            return {"ok": True}
        if op == "discover":
            query: DiscoveryQuery = from_wire(payload["query"])
            self.queries_served += 1
            reply = self._run_effects(
                self._machine.handle(
                    DiscoveryRequested(
                        now=self.tracer.now(), stamp=time.monotonic(), query=query
                    )
                )
            )
            assert isinstance(reply, ReplyCandidates)
            candidates = CandidateList(
                user_id=query.user_id,
                node_ids=reply.node_ids,
                widened=reply.widened,
            )
            return {
                "ok": True,
                "candidates": to_wire(candidates),
                "addresses": {
                    node_id: list(self._addresses[node_id])
                    for node_id in reply.node_ids
                    if node_id in self._addresses
                },
            }
        if op == "discover_partial":
            query = from_wire(payload["query"])
            assert isinstance(query, DiscoveryQuery)
            self.queries_served += 1
            reply = self._run_effects(
                self._machine.handle(
                    PartialDiscoveryRequested(
                        now=self.tracer.now(),
                        stamp=time.monotonic(),
                        query=query,
                        radius_km=float(payload["radius_km"]),
                    )
                )
            )
            assert isinstance(reply, ReplyPartialCandidates)
            return {
                "ok": True,
                "count": reply.count,
                "statuses": [to_wire(s) for s in reply.statuses],
                "addresses": {
                    s.node_id: list(self._addresses[s.node_id])
                    for s in reply.statuses
                    if s.node_id in self._addresses
                },
            }
        if op == "snapshot":
            snapshot = self._machine.snapshot_state()
            return {
                "ok": True,
                "statuses": [to_wire(s) for s in snapshot.statuses],
                "stamps": snapshot.stamps,
                "wrr": snapshot.wrr_current,
                "addresses": {
                    node_id: list(addr)
                    for node_id, addr in self._addresses.items()
                },
            }
        if op == "restore":
            statuses = tuple(from_wire(s) for s in payload["statuses"])
            self._machine.restore_state(
                RegistrySnapshot(
                    statuses=statuses,
                    stamps={k: float(v) for k, v in payload["stamps"].items()},
                    wrr_current={k: float(v) for k, v in payload["wrr"].items()},
                )
            )
            self._addresses = {
                node_id: tuple(addr)
                for node_id, addr in payload.get("addresses", {}).items()
            }
            return {"ok": True, "entries": len(statuses)}
        if op == "status":
            return {
                "ok": True,
                "nodes": sorted(self._machine.registry),
                "queries_served": self.queries_served,
                "heartbeats_received": self.heartbeats_received,
            }
        return {"ok": False, "error": f"unknown op: {op!r}"}
