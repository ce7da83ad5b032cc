"""The paper's primary contribution: client-centric distributed edge selection.

The pieces map one-to-one onto Fig. 2 of the paper:

- :class:`~repro.core.manager.CentralManager` — collects node status and
  answers edge-discovery queries with a TopN *candidate edge list*
  (step 1: global edge selection).
- :class:`~repro.core.edge_server.EdgeServer` — an edge node running the
  application server; exposes the probing APIs of Table I
  (``RTT_probe``, ``Process_probe``, ``Join``, ``Unexpected_join``,
  ``Leave``), maintains the "what-if" cache, the ``seqNum`` join
  synchronization (Algorithm 1) and the performance monitor.
- :class:`~repro.core.client.EdgeClient` — the user side: the
  performance-probing procedure of Algorithm 2, local edge selection
  (LO / GO policies in :mod:`repro.policy`), the offloading loop,
  and the failure monitor with proactive backup connections.
- :class:`~repro.core.system.EdgeSystem` — wiring: the simulator, the
  network topology, and the live registry of nodes and clients; also the
  hook point for churn injection.
"""

from repro.core.client import ClientStats, EdgeClient
from repro.core.config import SystemConfig
from repro.core.edge_server import EdgeServer, NodeState
from repro.core.manager import CentralManager
from repro.core.messages import (
    CandidateList,
    DiscoveryQuery,
    JoinReply,
    NodeStatus,
    ProbeReply,
)
from repro.core.probing import ProbeOutcome
from repro.core.system import EdgeSystem

__all__ = [
    "SystemConfig",
    "EdgeSystem",
    "CentralManager",
    "EdgeServer",
    "NodeState",
    "EdgeClient",
    "ClientStats",
    "NodeStatus",
    "DiscoveryQuery",
    "CandidateList",
    "ProbeReply",
    "JoinReply",
    "ProbeOutcome",
]
