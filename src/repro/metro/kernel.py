"""The metro-scale simulation kernel.

:class:`MetroKernel` advances one shard (or the whole metro when
unsharded) of a :class:`~repro.metro.spec.MetroSpec` population. It is a
deliberately coarser model than the high-fidelity
:class:`~repro.core.system.EdgeSystem` kernel — built to answer
population-scale questions (load balance, failover coverage, handoff
rates at 10^5 nodes / 10^6 users) that the per-message kernel cannot
reach:

- **Tick quantization.** All control-plane activity — initial attach,
  periodic re-selection rounds, node failures, failure detections, shard
  boundary epochs — happens on multiples of ``SystemConfig.
  cohort_tick_ms``. Within a tick window the world is frozen, which is
  the load-bearing property behind cohort batching: frame outcomes in a
  window are a pure function of per-user state at the window's start,
  so whole cohorts can be advanced with array arithmetic.
- **Analytic queueing.** Instead of simulating each node's frame queue,
  per-frame wait uses the M/D/1 mean-wait closed form over the node's
  attached offered load. Service and propagation reuse the constants of
  :class:`~repro.net.latency.DistanceRttModel` (HOME_WIFI endpoints).
- **Two stepping modes, one control plane.** ``cohort_batching=True``
  advances frames with numpy; ``False`` schedules one pooled event per
  frame through the real :class:`~repro.sim.events.EventQueue`. Both
  modes share every line of control-plane code and emit the same
  trace-event multiset (property-tested) — the per-client mode is the
  reference implementation and the fallback semantics for clients in
  failover/re-selection are identical by construction.

Entity naming: node ``i`` of the population is ``n{i}`` in every trace
event and public API; user ``j`` is ``u{j}``. Shard-local arrays map to
these global indices via ``n_gid``/``u_gid``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.geo import geohash
from repro.geo.point import EARTH_RADIUS_KM
from repro.metro.spec import MetroPopulation, MetroSpec, quantize_ticks
from repro.net.latency import (
    MS_PER_KM,
    PATH_STRETCH,
    RTT_FLOOR_MS,
    TIER_INFLATION_MS,
    NetworkTier,
)
from repro.obs.events import (
    CoveredFailover,
    FrameDone,
    JoinAccept,
    NodeFail,
    ShardHandoff,
    Switch,
    TraceEvent,
    UncoveredFailure,
)
from repro.obs.tracer import Tracer
from repro.sim.events import EventPool, EventQueue

__all__ = [
    "MetroKernel",
    "MetroShardReport",
    "MigrationRecord",
    "ShardOutbox",
    "ShardInbox",
]

#: Both endpoints on the HOME_WIFI tier (the volunteer/user last mile).
_TIER_MS = 2.0 * TIER_INFLATION_MS[NetworkTier.HOME_WIFI]
#: M/D/1 utilization cap — matches the EdgeSystem queue's stability
#: guard: beyond this the analytic wait would explode to infinity.
_RHO_CAP = 0.95


def _haversine_km(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    """Vectorized great-circle distance (same formula as GeoPoint)."""
    p1 = np.radians(lat1)
    p2 = np.radians(lat2)
    dphi = p2 - p1
    dlmb = np.radians(lon2 - lon1)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlmb / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


@dataclass
class MigrationRecord:
    """One user crossing the shard boundary channel (picklable)."""

    user_gid: int
    target_gid: int
    from_shard: str
    lat: float
    lon: float
    phase_ms: float
    frames_done: int
    frames_lost: int
    latency_sum_ms: float
    latency_max_ms: float


@dataclass
class ShardOutbox:
    """What one shard publishes at an epoch boundary."""

    shard_id: str
    #: Authoritative (load_fps, alive) for every node this shard owns
    #: that is ghost-advertised elsewhere.
    exports: Dict[int, Tuple[float, bool]] = field(default_factory=dict)
    migrations: List[MigrationRecord] = field(default_factory=list)


@dataclass
class ShardInbox:
    """What one shard receives at an epoch boundary (already routed)."""

    #: Ghost refresh: node gid -> (load_fps, alive).
    ghost_updates: Dict[int, Tuple[float, bool]] = field(default_factory=dict)
    migrations: List[MigrationRecord] = field(default_factory=list)


@dataclass
class MetroShardReport:
    """Counters and (optionally captured) trace of one shard kernel."""

    shard_id: str
    nodes: int
    users: int
    frames_done: int
    frames_lost: int
    switches: int
    covered_failovers: int
    uncovered_failures: int
    handoffs_out: int
    handoffs_in: int
    unattached_initial: int
    latency_sum_ms: float
    latency_max_ms: float
    frames_advanced: int
    control_ops: int
    pool_acquired: int
    pool_recycled: int
    trace_events: List[TraceEvent] = field(default_factory=list)

    @property
    def mean_latency_ms(self) -> float:
        if self.frames_done == 0:
            raise ValueError("no completed frames")
        return self.latency_sum_ms / self.frames_done


class MetroKernel:
    """One shard of the cohort-batched metro simulation.

    Args:
        config: system tunables; the metro kernel honours ``top_n``,
            ``probing_period_ms``, ``failure_detection_ms``,
            ``min_dwell_ms``, ``switch_penalty_ms``/``_fraction`` and
            the metro knobs (``cohort_batching``, ``cohort_tick_ms``).
        spec: the metro deployment shape.
        population: generated entity arrays (shared, never mutated).
        shard_id: name used in handoff trace events.
        node_gids: global indices of nodes this shard *owns* (ascending;
            None = all).
        user_gids: global indices of users starting on this shard
            (ascending; None = all).
        ghost_gids: global indices of boundary nodes owned by other
            shards but advertised here (ascending).
        ghost_shards: owning shard id per ghost (parallel to
            ``ghost_gids``).
        export_gids: owned nodes that other shards ghost-advertise; their
            (load, alive) goes into every epoch outbox.
        tracer: trace capture; defaults to a disabled tracer.
    """

    def __init__(
        self,
        config: SystemConfig,
        spec: MetroSpec,
        population: MetroPopulation,
        *,
        shard_id: str = "metro",
        node_gids: Optional[np.ndarray] = None,
        user_gids: Optional[np.ndarray] = None,
        ghost_gids: Optional[np.ndarray] = None,
        ghost_shards: Optional[List[str]] = None,
        export_gids: Optional[np.ndarray] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.spec = spec
        self.shard_id = shard_id
        self.trace = tracer if tracer is not None else Tracer.disabled()

        if node_gids is None:
            node_gids = np.arange(population.nodes, dtype=np.int64)
        if user_gids is None:
            user_gids = np.arange(population.users, dtype=np.int64)
        if ghost_gids is None:
            ghost_gids = np.empty(0, dtype=np.int64)
        ghost_shards = list(ghost_shards or [])
        if len(ghost_shards) != ghost_gids.size:
            raise ValueError("ghost_shards must parallel ghost_gids")
        self._export_gids = (
            np.asarray(export_gids, dtype=np.int64)
            if export_gids is not None
            else np.empty(0, dtype=np.int64)
        )

        # --- node table: owned nodes first, then ghosts --------------
        own = np.asarray(node_gids, dtype=np.int64)
        gho = np.asarray(ghost_gids, dtype=np.int64)
        self.n_gid = np.concatenate([own, gho])
        self.n_lat = population.node_lat[self.n_gid].copy()
        self.n_lon = population.node_lon[self.n_gid].copy()
        self.n_service = population.node_service_ms[self.n_gid].copy()
        self.n_alive = np.ones(self.n_gid.size, dtype=bool)
        self.n_load = np.zeros(self.n_gid.size, dtype=np.float64)
        self.n_ghost = np.zeros(self.n_gid.size, dtype=bool)
        self.n_ghost[own.size :] = True
        self._ghost_shard: Dict[int, str] = {
            int(own.size + i): ghost_shards[i] for i in range(gho.size)
        }
        self._node_local: Dict[int, int] = {
            int(g): i for i, g in enumerate(self.n_gid)
        }
        n_cell = population.node_cell[self.n_gid]
        #: cell id -> ascending local node indices hosted in that cell.
        self._cell_nodes: Dict[int, np.ndarray] = {}
        order = np.argsort(n_cell, kind="stable")
        sorted_cells = n_cell[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_cells[1:] != sorted_cells[:-1]]
        )
        bounds = np.r_[starts, sorted_cells.size]
        for i, s in enumerate(starts):
            members = np.sort(order[s : bounds[i + 1]])
            self._cell_nodes[int(sorted_cells[s])] = members
        self._cell_cands: Dict[int, np.ndarray] = {}

        # --- user table ----------------------------------------------
        ug = np.asarray(user_gids, dtype=np.int64)
        self.u_gid = ug.copy()
        self.u_lat = population.user_lat[ug].copy()
        self.u_lon = population.user_lon[ug].copy()
        self.u_phase = population.user_phase_ms[ug].copy()
        self.u_cell = population.user_cell[ug].copy()
        self.u_node = np.full(ug.size, -1, dtype=np.int64)
        self.u_base = np.zeros(ug.size, dtype=np.float64)
        self.u_active = np.ones(ug.size, dtype=bool)
        self.u_join_tick = np.zeros(ug.size, dtype=np.int64)
        self.u_pending = np.full(ug.size, -1, dtype=np.int64)
        self.u_frames = np.zeros(ug.size, dtype=np.int64)
        self.u_lost = np.zeros(ug.size, dtype=np.int64)
        self.u_lat_sum = np.zeros(ug.size, dtype=np.float64)
        self.u_lat_max = np.zeros(ug.size, dtype=np.float64)

        # --- time & quantized control parameters ---------------------
        self.tick_ms = config.cohort_tick_ms
        self.interval_ms = spec.interval_ms
        self.fps = spec.fps
        self._tick_index = 0
        self._detect_ticks = quantize_ticks(config.failure_detection_ms, self.tick_ms)
        self._period_ticks = quantize_ticks(config.probing_period_ms, self.tick_ms)
        self._dwell_ticks = int(ceil(config.min_dwell_ms / self.tick_ms - 1e-9))
        self._agenda: Dict[int, List[Tuple[str, int]]] = {}
        self._pending_handoffs: List[int] = []

        self.batched = config.cohort_batching
        self._queue = EventQueue()
        # Sized to hold a full tick window's frame backlog, so after the
        # first window nearly every frame event is recycled.
        self._pool = EventPool(max_size=1 << 16)
        self._window_wait: Optional[np.ndarray] = None

        # --- counters -------------------------------------------------
        self.frames_advanced = 0
        self.control_ops = 0
        self.switches = 0
        self.covered_failovers = 0
        self.uncovered_failures = 0
        self.handoffs_out = 0
        self.handoffs_in = 0
        self.unattached_initial = 0

    # ------------------------------------------------------------------
    # Public stepping API
    # ------------------------------------------------------------------
    @property
    def now_ms(self) -> float:
        return self._tick_index * self.tick_ms

    def schedule_node_fail(self, node_gid: int, at_ms: float) -> None:
        """Kill node ``n{node_gid}`` at the tick boundary covering
        ``at_ms`` (rounded up; quantization contract)."""
        local = self._node_local.get(int(node_gid))
        if local is None:
            raise KeyError(f"node n{node_gid} is not on shard {self.shard_id!r}")
        if self.n_ghost[local]:
            raise ValueError(
                f"node n{node_gid} is a ghost on shard {self.shard_id!r}; "
                "schedule the failure on its owning shard"
            )
        tick = max(self._tick_index, int(ceil(at_ms / self.tick_ms - 1e-9)))
        self._agenda.setdefault(tick, []).append(("fail", local))

    def run(self, sim_seconds: float) -> MetroShardReport:
        """Step from now to ``sim_seconds`` and report."""
        if sim_seconds <= 0:
            raise ValueError(f"sim_seconds must be positive: {sim_seconds}")
        self.step_to(sim_seconds * 1000.0)
        return self.report()

    def step_to(self, t_ms: float) -> None:
        """Advance to ``t_ms`` (must be a whole multiple of the tick)."""
        target = round(t_ms / self.tick_ms)
        if abs(target * self.tick_ms - t_ms) > 1e-6:
            raise ValueError(
                f"step_to target {t_ms} is not a multiple of tick {self.tick_ms}"
            )
        while self._tick_index < target:
            self._control(self._tick_index)
            self._advance_frames(self._tick_index)
            self._tick_index += 1

    # ------------------------------------------------------------------
    # Boundary channel (called by the runner at epoch boundaries)
    # ------------------------------------------------------------------
    def finish_epoch(self) -> ShardOutbox:
        """Publish exports + migrations decided during the past epoch."""
        out = ShardOutbox(shard_id=self.shard_id)
        for gid in self._export_gids:
            local = self._node_local[int(gid)]
            out.exports[int(gid)] = (float(self.n_load[local]), bool(self.n_alive[local]))
        for u in sorted(self._pending_handoffs, key=lambda i: int(self.u_gid[i])):
            ghost_local = int(self.u_pending[u])
            record = MigrationRecord(
                user_gid=int(self.u_gid[u]),
                target_gid=int(self.n_gid[ghost_local]),
                from_shard=self.shard_id,
                lat=float(self.u_lat[u]),
                lon=float(self.u_lon[u]),
                phase_ms=float(self.u_phase[u]),
                frames_done=int(self.u_frames[u]),
                frames_lost=int(self.u_lost[u]),
                latency_sum_ms=float(self.u_lat_sum[u]),
                latency_max_ms=float(self.u_lat_max[u]),
            )
            out.migrations.append(record)
            # Detach locally: the user's stats travel with the record,
            # so zero them here to avoid double counting in reports.
            cur = int(self.u_node[u])
            if cur >= 0:
                self.n_load[cur] -= self.fps
            self.u_node[u] = -1
            self.u_active[u] = False
            self.u_pending[u] = -1
            self.u_frames[u] = 0
            self.u_lost[u] = 0
            self.u_lat_sum[u] = 0.0
            self.u_lat_max[u] = 0.0
            self.handoffs_out += 1
        self._pending_handoffs.clear()
        return out

    def apply_inbox(self, inbox: ShardInbox) -> None:
        """Apply ghost refreshes + arriving users (start of an epoch)."""
        for gid in sorted(inbox.ghost_updates):
            local = self._node_local.get(gid)
            if local is None or not self.n_ghost[local]:
                continue
            load, alive = inbox.ghost_updates[gid]
            self.n_load[local] = load
            self.n_alive[local] = alive
        if not inbox.migrations:
            return
        arrivals = sorted(inbox.migrations, key=lambda r: r.user_gid)
        base = self.u_gid.size
        self._append_users(arrivals)
        for i, record in enumerate(arrivals):
            self._admit_migrant(base + i, record)
            self.handoffs_in += 1

    def _append_users(self, records: List[MigrationRecord]) -> None:
        gids = np.array([r.user_gid for r in records], dtype=np.int64)
        lats = np.array([r.lat for r in records])
        lons = np.array([r.lon for r in records])
        self.u_gid = np.concatenate([self.u_gid, gids])
        self.u_lat = np.concatenate([self.u_lat, lats])
        self.u_lon = np.concatenate([self.u_lon, lons])
        self.u_phase = np.concatenate(
            [self.u_phase, np.array([r.phase_ms for r in records])]
        )
        self.u_cell = np.concatenate(
            [
                self.u_cell,
                geohash.encode_cells(lats, lons, self.spec.effective_cell_precision),
            ]
        )
        self.u_node = np.concatenate(
            [self.u_node, np.full(len(records), -1, dtype=np.int64)]
        )
        self.u_base = np.concatenate([self.u_base, np.zeros(len(records))])
        self.u_active = np.concatenate(
            [self.u_active, np.ones(len(records), dtype=bool)]
        )
        self.u_join_tick = np.concatenate(
            [self.u_join_tick, np.full(len(records), self._tick_index, dtype=np.int64)]
        )
        self.u_pending = np.concatenate(
            [self.u_pending, np.full(len(records), -1, dtype=np.int64)]
        )
        self.u_frames = np.concatenate(
            [self.u_frames, np.array([r.frames_done for r in records], dtype=np.int64)]
        )
        self.u_lost = np.concatenate(
            [self.u_lost, np.array([r.frames_lost for r in records], dtype=np.int64)]
        )
        self.u_lat_sum = np.concatenate(
            [self.u_lat_sum, np.array([r.latency_sum_ms for r in records])]
        )
        self.u_lat_max = np.concatenate(
            [self.u_lat_max, np.array([r.latency_max_ms for r in records])]
        )

    def _admit_migrant(self, u: int, record: MigrationRecord) -> None:
        """Attach an arriving user to its handoff target (or re-select
        locally if the target died in transit)."""
        self.control_ops += 1
        target = self._node_local.get(record.target_gid)
        if target is not None and self.n_alive[target] and not self.n_ghost[target]:
            self._attach(u, target)
            if self.trace.enabled:
                self.trace.emit(
                    JoinAccept(self.now_ms, self._user_name(u), self._node_name(target))
                )
            return
        # Target gone: fall back to a local re-selection round.
        best = self._best_candidate(u, exclude=-1, include_ghosts=False)
        if best < 0:
            self.uncovered_failures += 1
            self.trace.emit(UncoveredFailure(self.now_ms, self._user_name(u)))
            return
        self._attach(u, best)
        if self.trace.enabled:
            self.trace.emit(
                JoinAccept(self.now_ms, self._user_name(u), self._node_name(best))
            )

    # ------------------------------------------------------------------
    # Control plane (shared by both stepping modes)
    # ------------------------------------------------------------------
    def _control(self, k: int) -> None:
        t = k * self.tick_ms
        if k == 0:
            self._initial_attach()
        actions = self._agenda.pop(k, None)
        if actions:
            fails = sorted(n for kind, n in actions if kind == "fail")
            detects = sorted(n for kind, n in actions if kind == "detect")
            for n in fails:
                self._fail_node(n, k, t)
            for n in detects:
                self._detect_failure(n, t)
        if k > 0:
            self._selection_round(k, t)

    def _fail_node(self, n: int, k: int, t: float) -> None:
        if not self.n_alive[n]:
            return
        self.control_ops += 1
        self.n_alive[n] = False
        self.trace.emit(NodeFail(t, self._node_name(n)))
        self._agenda.setdefault(k + self._detect_ticks, []).append(("detect", n))

    def _detect_failure(self, n: int, t: float) -> None:
        """Clients of a dead node notice at the quantized detection tick
        and walk to a live candidate (the per-client fallback path)."""
        for u in np.flatnonzero(self.u_node == n):
            self.control_ops += 1
            best = self._best_candidate(int(u), exclude=n, include_ghosts=False)
            if best < 0:
                self.u_node[u] = -1
                self.uncovered_failures += 1
                self.trace.emit(UncoveredFailure(t, self._user_name(int(u))))
                continue
            self.covered_failovers += 1
            self.trace.emit(
                CoveredFailover(t, self._user_name(int(u)), self._node_name(n))
            )
            # The dead node's bookkeeping load is irrelevant; just move.
            self.u_node[u] = -1
            self._attach(int(u), best)

    def _selection_round(self, k: int, t: float) -> None:
        phase = k % self._period_ticks
        due = np.flatnonzero(
            self.u_active
            & (self.u_node >= 0)
            & (self.u_pending < 0)
            & (self.u_gid % self._period_ticks == phase)
        )
        for u in due:
            if k - self.u_join_tick[u] < self._dwell_ticks:
                continue
            self._reselect(int(u), k, t)

    def _reselect(self, u: int, k: int, t: float) -> None:
        self.control_ops += 1
        cur = int(self.u_node[u])
        best = self._best_candidate(u, exclude=-1, include_ghosts=True)
        if best < 0 or best == cur:
            return
        wait = self._node_wait()
        cand_score = self._base_to(u, best) + wait[best]
        cur_score = self.u_base[u] + wait[cur]
        # Hysteresis: absolute + relative margin, as in SelectionMachine.
        threshold = cur_score * (1.0 - self.config.switch_penalty_fraction)
        if cand_score >= min(threshold, cur_score - self.config.switch_penalty_ms):
            return
        if self.n_ghost[best]:
            to_shard = self._ghost_shard[best]
            self.u_pending[u] = best
            self._pending_handoffs.append(u)
            self.trace.emit(
                ShardHandoff(
                    t,
                    self._user_name(u),
                    self.shard_id,
                    to_shard,
                    self._node_name(best),
                )
            )
            return
        self.switches += 1
        self.trace.emit(
            Switch(t, self._user_name(u), self._node_name(cur), self._node_name(best))
        )
        self.n_load[cur] -= self.fps
        self.u_node[u] = -1
        self._attach(u, best)
        self.u_join_tick[u] = k

    # ------------------------------------------------------------------
    # Attachment & candidate machinery
    # ------------------------------------------------------------------
    def _initial_attach(self) -> None:
        """Vectorized t=0 attach: per selection cell, rank the local
        candidates once and deal the cell's users across the TopN
        round-robin (a WRR-flavoured spread)."""
        if self.u_gid.size == 0:
            return
        cells, inverse = np.unique(self.u_cell, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        bounds = np.searchsorted(inverse[order], np.arange(cells.size + 1))
        for ci in range(cells.size):
            users = order[bounds[ci] : bounds[ci + 1]]
            self.control_ops += len(users)
            cand = self._candidates(int(cells[ci]))
            cand = cand[self.n_alive[cand] & ~self.n_ghost[cand]]
            if cand.size == 0:
                self.unattached_initial += len(users)
                continue
            # Rank candidates by predicted latency from the cohort's
            # centroid; deal users over the best TopN.
            clat = float(np.mean(self.u_lat[users]))
            clon = float(np.mean(self.u_lon[users]))
            dist = _haversine_km(clat, clon, self.n_lat[cand], self.n_lon[cand])
            wait = self._node_wait()
            score = (
                RTT_FLOOR_MS
                + 2.0 * dist * MS_PER_KM * PATH_STRETCH
                + _TIER_MS
                + self.n_service[cand]
                + wait[cand]
            )
            ranked_all = cand[np.argsort(score, kind="stable")]
            # Deal over enough of the ranking to carry the cohort's
            # offered load with ~25% headroom (each user individually
            # only ever sees a TopN, but a cohort of same-cell users
            # collectively spreads exactly like the manager's WRR would
            # spread them) — never fewer than TopN nodes.
            capacity = 1000.0 / self.n_service[ranked_all]
            demand = users.size * self.fps
            need = int(np.searchsorted(np.cumsum(capacity), demand * 1.25)) + 1
            width = max(self.config.top_n, min(need, ranked_all.size))
            ranked = ranked_all[: min(width, ranked_all.size)]
            chosen = ranked[np.arange(users.size) % ranked.size]
            self.u_node[users] = chosen
            self.u_base[users] = self._base_vec(users, chosen)
            np.add.at(self.n_load, chosen, self.fps)
            if self.trace.enabled:
                for idx, u in enumerate(users):
                    self.trace.emit(
                        JoinAccept(
                            0.0,
                            self._user_name(int(u)),
                            self._node_name(int(chosen[idx])),
                        )
                    )

    def _attach(self, u: int, n: int) -> None:
        self.u_node[u] = n
        self.u_base[u] = self._base_to(u, n)
        self.n_load[n] += self.fps
        self.u_join_tick[u] = self._tick_index

    def _base_vec(self, users: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Per-frame base latency: expected RTT + transfer + service."""
        dist = _haversine_km(
            self.u_lat[users], self.u_lon[users], self.n_lat[nodes], self.n_lon[nodes]
        )
        return (
            RTT_FLOOR_MS
            + 2.0 * dist * MS_PER_KM * PATH_STRETCH
            + _TIER_MS
            + self.spec.frame_transfer_ms
            + self.n_service[nodes]
        )

    def _base_to(self, u: int, n: int) -> float:
        return float(
            self._base_vec(
                np.array([u], dtype=np.int64), np.array([n], dtype=np.int64)
            )[0]
        )

    def _candidates(self, cell: int) -> np.ndarray:
        """Ascending local node indices in the 3x3 cell neighborhood."""
        cached = self._cell_cands.get(cell)
        if cached is not None:
            return cached
        block = geohash.cell_neighborhood(
            np.array([cell], dtype=np.uint64), self.spec.effective_cell_precision
        )[0]
        parts = [
            self._cell_nodes[int(c)]
            for c in sorted(set(int(c) for c in block))
            if int(c) in self._cell_nodes
        ]
        if parts:
            cand = np.sort(np.concatenate(parts))
        else:
            cand = np.empty(0, dtype=np.int64)
        self._cell_cands[cell] = cand
        return cand

    def _best_candidate(self, u: int, exclude: int, include_ghosts: bool) -> int:
        """Lowest-predicted-latency live candidate for user ``u``
        (stable tie-break on ascending local index), or -1."""
        cand = self._candidates(int(self.u_cell[u]))
        if cand.size == 0:
            return -1
        mask = self.n_alive[cand]
        if exclude >= 0:
            mask &= cand != exclude
        if not include_ghosts:
            mask = mask & ~self.n_ghost[cand]
        cand = cand[mask]
        if cand.size == 0:
            return -1
        wait = self._node_wait()
        score = self._base_vec(np.full(cand.size, u, dtype=np.int64), cand) + wait[cand]
        return int(cand[int(np.argmin(score))])

    def _node_wait(self) -> np.ndarray:
        """Analytic M/D/1 mean queue wait per node at current load."""
        rho = np.clip(self.n_load * self.n_service / 1000.0, 0.0, _RHO_CAP)
        return self.n_service * rho / (2.0 * (1.0 - rho))

    # ------------------------------------------------------------------
    # Frame advancement — the only mode-dependent code
    # ------------------------------------------------------------------
    def _frame_counts(self, t0: float, t1: float) -> Tuple[np.ndarray, np.ndarray]:
        """Per-user (first frame index, count) of frames due in (t0, t1]."""
        m_hi = np.floor((t1 - self.u_phase) / self.interval_ms).astype(np.int64)
        m_lo = np.floor((t0 - self.u_phase) / self.interval_ms).astype(np.int64) + 1
        counts = np.maximum(m_hi - m_lo + 1, 0)
        return m_lo, counts

    def _advance_frames(self, k: int) -> None:
        t0 = k * self.tick_ms
        t1 = t0 + self.tick_ms
        wait = self._node_wait()
        self._window_wait = wait
        if self.batched:
            if self.trace.enabled:
                self._advance_batched_traced(t0, t1, wait)
            else:
                self._advance_batched(t0, t1, wait)
        else:
            self._advance_per_client(t0, t1, wait)

    def _advance_batched(self, t0: float, t1: float, wait: np.ndarray) -> None:
        """The cohort fast path: whole-population array arithmetic."""
        m_lo, counts = self._frame_counts(t0, t1)
        counts = np.where(self.u_active, counts, 0)
        self.frames_advanced += int(counts.sum())
        att = counts > 0
        attached = att & (self.u_node >= 0)
        # Unattached users lose their due frames.
        lost_unatt = att & (self.u_node < 0)
        self.u_lost[lost_unatt] += counts[lost_unatt]
        if not attached.any():
            return
        idx = np.flatnonzero(attached)
        nodes = self.u_node[idx]
        alive = self.n_alive[nodes]
        lat = self.u_base[idx] + wait[nodes]
        kcnt = counts[idx]
        done = idx[alive]
        self.u_frames[done] += kcnt[alive]
        self.u_lat_sum[done] += kcnt[alive] * lat[alive]
        self.u_lat_max[done] = np.maximum(self.u_lat_max[done], lat[alive])
        dead = idx[~alive]
        self.u_lost[dead] += kcnt[~alive]

    def _advance_batched_traced(
        self, t0: float, t1: float, wait: np.ndarray
    ) -> None:
        """Batched mode with capture on: same stat arithmetic as the
        array path (cohort-summed), plus one FrameDone per frame."""
        m_lo, counts = self._frame_counts(t0, t1)
        emit = self.trace.emit
        for u in np.flatnonzero(self.u_active & (counts > 0)):
            kcnt = int(counts[u])
            self.frames_advanced += kcnt
            node = int(self.u_node[u])
            if node < 0:
                self.u_lost[u] += kcnt
                continue
            if not self.n_alive[node]:
                self.u_lost[u] += kcnt
                continue
            lat = float(self.u_base[u]) + float(wait[node])
            self.u_frames[u] += kcnt
            self.u_lat_sum[u] += kcnt * lat
            self.u_lat_max[u] = max(float(self.u_lat_max[u]), lat)
            uname = self._user_name(int(u))
            nname = self._node_name(node)
            lo = int(m_lo[u])
            phase = float(self.u_phase[u])
            for m in range(lo, lo + kcnt):
                due = phase + m * self.interval_ms
                emit(FrameDone(due + lat, uname, nname, m, due, lat))

    def _advance_per_client(self, t0: float, t1: float, wait: np.ndarray) -> None:
        """The reference path: one pooled kernel event per frame through
        the real EventQueue (what cohort batching replaces)."""
        m_lo, counts = self._frame_counts(t0, t1)
        queue = self._queue
        pool = self._pool
        for u in np.flatnonzero(self.u_active & (counts > 0)):
            phase = float(self.u_phase[u])
            lo = int(m_lo[u])
            uu = int(u)
            for m in range(lo, lo + int(counts[u])):
                due = phase + m * self.interval_ms
                queue.push_pooled(
                    pool,
                    due,
                    lambda uu=uu, m=m, due=due: self._frame_event(uu, m, due),
                    label="frame",
                )
        while True:
            event = queue.pop_until(t1)
            if event is None:
                break
            event.callback()
            pool.release(event)

    def _frame_event(self, u: int, m: int, due: float) -> None:
        self.frames_advanced += 1
        node = int(self.u_node[u])
        if node < 0 or not self.n_alive[node]:
            self.u_lost[u] += 1
            return
        assert self._window_wait is not None
        lat = float(self.u_base[u]) + float(self._window_wait[node])
        self.u_frames[u] += 1
        self.u_lat_sum[u] += lat
        self.u_lat_max[u] = max(float(self.u_lat_max[u]), lat)
        if self.trace.enabled:
            self.trace.emit(
                FrameDone(
                    due + lat, self._user_name(u), self._node_name(node), m, due, lat
                )
            )

    # ------------------------------------------------------------------
    # Naming & reporting
    # ------------------------------------------------------------------
    def _node_name(self, local: int) -> str:
        return f"n{self.n_gid[local]}"

    def _user_name(self, local: int) -> str:
        return f"u{self.u_gid[local]}"

    def report(self) -> MetroShardReport:
        active = self.u_active
        return MetroShardReport(
            shard_id=self.shard_id,
            nodes=int((~self.n_ghost).sum()),
            users=int(active.sum()),
            frames_done=int(self.u_frames[active].sum()),
            frames_lost=int(self.u_lost[active].sum()),
            switches=self.switches,
            covered_failovers=self.covered_failovers,
            uncovered_failures=self.uncovered_failures,
            handoffs_out=self.handoffs_out,
            handoffs_in=self.handoffs_in,
            unattached_initial=self.unattached_initial,
            latency_sum_ms=float(self.u_lat_sum[active].sum()),
            latency_max_ms=float(self.u_lat_max[active].max())
            if active.any()
            else 0.0,
            frames_advanced=self.frames_advanced,
            control_ops=self.control_ops,
            pool_acquired=self._pool.acquired,
            pool_recycled=self._pool.recycled,
            trace_events=list(self.trace.events()),
        )
