"""The typed scenario-building API.

This module is the recommended front door for constructing simulated
deployments. It rests on two ideas:

- :class:`EndpointSpec` — one frozen value object carrying a
  participant's entire network identity (position, tier, ISP, bandwidth
  caps, last-mile overhead). Defined next to the topology it feeds
  (:mod:`repro.net.topology`) and re-exported here.
- :class:`ScenarioBuilder` — a fluent, declarative builder: declare
  nodes, user endpoints and clients (with per-kind spec defaults so
  shared network facts are stated once), then ``build()`` a fully wired
  :class:`~repro.core.system.EdgeSystem`.

Quickstart::

    from repro.api import EndpointSpec, ScenarioBuilder
    from repro.core.client import EdgeClient
    from repro.core.config import SystemConfig
    from repro.geo.point import GeoPoint
    from repro.nodes.hardware import profile_by_name

    scenario = (
        ScenarioBuilder(SystemConfig(top_n=3, seed=7))
        .default_node_spec(EndpointSpec(GeoPoint(44.97, -93.26), uplink_mbps=40.0))
        .node("V1", profile_by_name("V1"), point=GeoPoint(44.98, -93.26))
        .node("V2", profile_by_name("V2"), point=GeoPoint(44.95, -93.20))
        .client("u1", EdgeClient, spec=EndpointSpec(GeoPoint(44.97, -93.25)))
        .build()
    )
    scenario.run_for(30_000)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.core.client import ClientLike, EdgeClient
from repro.core.config import SystemConfig
from repro.core.policies.global_policies import GlobalSelectionPolicy
from repro.core.system import EdgeSystem
from repro.geo.point import GeoPoint
from repro.metro.spec import MetroSpec, ShardSpec
from repro.net.topology import EndpointSpec, NetworkTopology
from repro.nodes.hardware import HardwareProfile
from repro.nodes.host_workload import HostWorkloadSchedule
from repro.obs.profile import KernelProfiler
from repro.obs.tracer import Tracer, as_sink
from repro.workload.ar import ARApplication, DEFAULT_AR_APP

if TYPE_CHECKING:  # pragma: no cover - import cycle-free typing only
    from repro.metro.runner import MetroSimulation
    from repro.policy import PolicySpec

__all__ = [
    "ClientFactory",
    "ClientLike",
    "EndpointSpec",
    "MetroSpec",
    "ScenarioBuilder",
    "ShardSpec",
]

#: Builds a client for a system — ``EdgeClient`` itself and every
#: baseline subclass already match this shape.
ClientFactory = Callable[[EdgeSystem, str], ClientLike]


@dataclass
class _NodeDecl:
    node_id: str
    profile: HardwareProfile
    spec: EndpointSpec
    dedicated: bool
    host_schedule: Optional[HostWorkloadSchedule]
    start: bool


@dataclass
class _ClientDecl:
    user_id: str
    spec: EndpointSpec
    factory: Optional[ClientFactory]
    start: bool


@dataclass
class BuiltScenario:
    """What :meth:`ScenarioBuilder.build_scenario` hands back: the wired
    system plus the ids it created, so experiments can iterate entities
    without re-deriving them."""

    system: EdgeSystem
    node_ids: List[str] = field(default_factory=list)
    user_ids: List[str] = field(default_factory=list)
    #: The tracer wired into the system (disabled unless the builder's
    #: :meth:`ScenarioBuilder.observe` asked for capture).
    tracer: Optional[Tracer] = None


class ScenarioBuilder:
    """Fluent, declarative construction of an :class:`EdgeSystem`.

    Every mutator returns ``self``; nothing touches a simulator until
    :meth:`build` (declarations are replayed in order, so node startup
    and client arrival ordering is exactly the declaration ordering).
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        *,
        topology: Optional[NetworkTopology] = None,
        app: ARApplication = DEFAULT_AR_APP,
        manager_point: Optional[GeoPoint] = None,
        global_policy: Optional[GlobalSelectionPolicy] = None,
    ) -> None:
        self._config = config
        self._topology = topology
        self._app = app
        self._manager_point = manager_point
        self._global_policy = global_policy
        self._policy_spec: "Optional[PolicySpec]" = None
        self._policy_params: dict = {}
        self._node_default: Optional[EndpointSpec] = None
        self._client_default: Optional[EndpointSpec] = None
        self._decls: List[Tuple[str, object]] = []
        self._observe_trace = False
        self._observe_sink: object = None
        self._observe_capacity = 65536
        self._observe_profile_kernel = False
        self._metro_spec: Optional[MetroSpec] = None
        self._shard_overrides: dict = {}
        self._control_plane: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # Defaults
    # ------------------------------------------------------------------
    def default_node_spec(self, spec: EndpointSpec) -> "ScenarioBuilder":
        """Network spec template for nodes declared with only a point."""
        self._node_default = spec
        return self

    def default_client_spec(self, spec: EndpointSpec) -> "ScenarioBuilder":
        """Network spec template for clients declared with only a point."""
        self._client_default = spec
        return self

    def policy(self, spec: "PolicySpec", **params: object) -> "ScenarioBuilder":
        """Select the client ranking policy for every built client.

        ``spec`` is a :mod:`repro.policy` registry name (``"ewma"``,
        ``"reliability"``, ...), a :class:`~repro.policy.SelectionPolicy`
        prototype (deep-copied per client, so per-node state is never
        shared); keyword ``params`` are constructor arguments when
        ``spec`` is a name::

            ScenarioBuilder(config).policy("ewma", alpha=0.5)

        Overrides ``SystemConfig.policy_spec``. QoS admission from
        ``qos_latency_ms`` still wraps the chosen policy.
        """
        self._policy_spec = spec
        self._policy_params = dict(params)
        return self

    def observe(
        self,
        trace: bool = True,
        *,
        sink: object = None,
        capacity: int = 65536,
        profile_kernel: bool = False,
    ) -> "ScenarioBuilder":
        """Turn on structured trace capture for the built system.

        Args:
            trace: capture trace events into the tracer's ring buffer.
                When False the system still gets a tracer (metrics flow
                through it either way) but event capture is disabled.
            sink: optional streaming destination — a path/str (JSONL
                file), an open file-like object, or any
                :class:`~repro.obs.tracer.TraceSink`.
            capacity: ring-buffer size (events) when tracing.
            profile_kernel: additionally install a
                :class:`~repro.obs.profile.KernelProfiler` on the
                simulator, recording per-handler wall time + queue depth.
        """
        self._observe_trace = trace
        self._observe_sink = sink
        self._observe_capacity = capacity
        self._observe_profile_kernel = profile_kernel
        return self

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def control_plane(
        self, *, shards: int = 1, replicas: int = 1
    ) -> "ScenarioBuilder":
        """Run the Central Manager as a sharded, replicated control plane.

        ``shards`` partitions the registry by geohash range behind a
        deterministic router (cross-shard discovery merges to the exact
        single-manager TopN — bit-identical, held by a property test);
        ``replicas`` adds per-shard standbys that a shard-targeted
        outage promotes after the failure-detection window. The default
        ``shards=1, replicas=1`` builds the plain single manager, and a
        ``control_plane(shards=1, replicas=1)`` system behaves
        bit-identically to one that never called this method::

            ScenarioBuilder(config).control_plane(shards=4, replicas=2)

        Overlays ``SystemConfig.control_plane_shards`` /
        ``control_plane_replicas`` at build time.
        """
        if shards < 1 or replicas < 1:
            raise ValueError("control_plane needs shards >= 1 and replicas >= 1")
        self._control_plane = (shards, replicas)
        return self

    # ------------------------------------------------------------------
    # Metro scale
    # ------------------------------------------------------------------
    def metro(
        self,
        nodes: Optional[int] = None,
        users: Optional[int] = None,
        *,
        region_km: float = 40.0,
        shards: int = 1,
        center: Optional[GeoPoint] = None,
        fps: float = 10.0,
        spec: Optional[MetroSpec] = None,
    ) -> "ScenarioBuilder":
        """Declare a metro-scale synthetic deployment.

        Either give a full :class:`MetroSpec` via ``spec=``, or the
        common knobs directly::

            ScenarioBuilder(config).metro(nodes=100_000, users=1_000_000,
                                          region_km=40, shards=4)

        ``build_metro()`` then returns a runnable
        :class:`~repro.metro.runner.MetroSimulation` instead of an
        :class:`EdgeSystem`. Compose with :meth:`shard` for worker
        processes and boundary-epoch tuning.
        """
        if spec is not None:
            if nodes is not None or users is not None:
                raise ValueError("give spec= or nodes=/users=, not both")
            self._metro_spec = spec
        else:
            if nodes is None or users is None:
                raise ValueError("metro() needs nodes= and users= (or spec=)")
            self._metro_spec = MetroSpec(
                nodes=nodes,
                users=users,
                region_km=region_km,
                fps=fps,
                **({"center": center} if center is not None else {}),
                shard=ShardSpec(count=shards),
            )
        return self

    def shard(
        self,
        *,
        by: str = "geohash",
        count: Optional[int] = None,
        workers: int = 1,
        precision: Optional[int] = None,
        boundary_epoch_ms: Optional[float] = None,
    ) -> "ScenarioBuilder":
        """Tune the metro partition declared by :meth:`metro`.

        ``count`` overrides the shard count; ``workers`` steps shards in
        forked worker processes; ``precision``/``boundary_epoch_ms``
        control the shard prefix size and the boundary-channel period.
        """
        self._shard_overrides = {
            "by": by,
            **({"count": count} if count is not None else {}),
            "workers": workers,
            **({"precision": precision} if precision is not None else {}),
            **(
                {"boundary_epoch_ms": boundary_epoch_ms}
                if boundary_epoch_ms is not None
                else {}
            ),
        }
        return self

    def build_metro(self) -> "MetroSimulation":
        """Wire the declared metro into a runnable simulation.

        Requires a prior :meth:`metro` call; :meth:`observe` composes
        (``trace=True`` captures the typed event stream per shard).
        """
        if self._metro_spec is None:
            raise ValueError("call .metro(...) before build_metro()")
        from repro.metro.runner import MetroSimulation

        spec = self._metro_spec
        if self._shard_overrides:
            spec = spec.with_shard(replace(spec.shard, **self._shard_overrides))
        return MetroSimulation(
            spec,
            self._config,
            capture_trace=self._observe_trace,
        )

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def node(
        self,
        node_id: str,
        profile: HardwareProfile,
        spec: Optional[EndpointSpec] = None,
        *,
        point: Optional[GeoPoint] = None,
        dedicated: bool = False,
        host_schedule: Optional[HostWorkloadSchedule] = None,
        start: bool = True,
    ) -> "ScenarioBuilder":
        """Declare an edge node.

        Give either a full ``spec``, or just a ``point`` to inherit the
        :meth:`default_node_spec` template at that position.
        """
        self._decls.append(
            (
                "node",
                _NodeDecl(
                    node_id,
                    profile,
                    self._resolve(spec, point, self._node_default, node_id),
                    dedicated,
                    host_schedule,
                    start,
                ),
            )
        )
        return self

    def client_endpoint(
        self,
        user_id: str,
        spec: Optional[EndpointSpec] = None,
        *,
        point: Optional[GeoPoint] = None,
    ) -> "ScenarioBuilder":
        """Declare a user endpoint without a client object (experiments
        that attach strategy-specific clients later)."""
        self._decls.append(
            (
                "client",
                _ClientDecl(
                    user_id,
                    self._resolve(spec, point, self._client_default, user_id),
                    None,
                    False,
                ),
            )
        )
        return self

    def client(
        self,
        user_id: str,
        factory: ClientFactory = EdgeClient,
        spec: Optional[EndpointSpec] = None,
        *,
        point: Optional[GeoPoint] = None,
        start: bool = True,
    ) -> "ScenarioBuilder":
        """Declare a user endpoint plus a client built by ``factory``
        (``EdgeClient`` and every baseline class qualify as factories)."""
        self._decls.append(
            (
                "client",
                _ClientDecl(
                    user_id,
                    self._resolve(spec, point, self._client_default, user_id),
                    factory,
                    start,
                ),
            )
        )
        return self

    @staticmethod
    def _resolve(
        spec: Optional[EndpointSpec],
        point: Optional[GeoPoint],
        default: Optional[EndpointSpec],
        entity_id: str,
    ) -> EndpointSpec:
        if spec is not None:
            if point is not None:
                raise ValueError(
                    f"{entity_id!r}: give either spec= or point=, not both"
                )
            return spec
        if point is None:
            raise ValueError(f"{entity_id!r}: needs a spec= or a point=")
        if default is not None:
            return default.moved_to(point)
        return EndpointSpec(point)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build_scenario(self) -> BuiltScenario:
        """Wire everything and return the system plus created ids."""
        tracer: Optional[Tracer] = None
        if self._observe_trace or self._observe_sink is not None:
            tracer = Tracer(
                enabled=self._observe_trace,
                capacity=self._observe_capacity,
                sink=as_sink(self._observe_sink),
            )
        config = self._config
        if self._control_plane is not None:
            shards, replicas = self._control_plane
            config = replace(
                config if config is not None else SystemConfig(),
                control_plane_shards=shards,
                control_plane_replicas=replicas,
            )
        system = EdgeSystem(
            config,
            topology=self._topology,
            app=self._app,
            manager_point=self._manager_point,
            global_policy=self._global_policy,
            selection_policy=self._policy_spec,
            selection_policy_params=self._policy_params or None,
            trace=tracer,
        )
        if self._observe_profile_kernel:
            system.sim.profiler = KernelProfiler()
        built = BuiltScenario(system=system, tracer=system.trace)
        for kind, decl in self._decls:
            if kind == "node":
                assert isinstance(decl, _NodeDecl)
                system.add_node(
                    decl.node_id,
                    decl.profile,
                    decl.spec,
                    dedicated=decl.dedicated,
                    host_schedule=decl.host_schedule,
                    start=decl.start,
                )
                built.node_ids.append(decl.node_id)
            else:
                assert isinstance(decl, _ClientDecl)
                system.add_client_endpoint(decl.user_id, decl.spec)
                if decl.factory is not None:
                    system.add_client(
                        decl.factory(system, decl.user_id), start=decl.start
                    )
                built.user_ids.append(decl.user_id)
        return built

    def build(self) -> EdgeSystem:
        """Wire everything and return just the system."""
        return self.build_scenario().system
