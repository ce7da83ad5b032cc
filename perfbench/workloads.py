"""The four benchmark workloads.

Each workload turns a seed into inputs (placements, a crash schedule,
a population), hands them to the program through its public API and
measures one *rep*: set-up, then a timed window. A rep also checks the
outputs it can see (frame conservation, counter agreement), and
:meth:`verify` runs one extra, untimed pass with the obs trace captured
and checks it with ``repro.verify``. Why each workload exists and which
layer metrics it should move is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import asyncio
import gc
import math
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from perfbench.spans import SpanRecorder

FPS = 20.0
#: A live client runs a fresh selection round every this many frames:
#: 20 fps x the paper's T_probing of 2 s.
FRAMES_PER_ROUND = 40
#: A sim scenario builds in tens of ms, so each sim rep builds it this
#: many times and reports the median as its set-up time.
BUILDS_PER_REP = 5


@dataclass
class Rep:
    """What one rep measured and saw."""

    setup_s: float
    wall_s: float
    attempted: int
    done: int
    lost: int = 0
    shed: int = 0
    in_flight: int = 0
    #: Per-frame latencies (per-user window means on metro_reselect).
    latencies_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    sim_s: float = 0.0
    #: Frames lost to a cause the workload does not inject.
    failed: int = 0
    #: Set where the mean is not the mean of ``latencies_ms``.
    frame_mean_ms: Optional[float] = None
    #: Simulated outcomes that must repeat exactly for the same seed.
    digest: Dict[str, float] = field(default_factory=dict)
    #: Counters read off the program for the per-layer table.
    program: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def wall_us_per_frame(self) -> float:
        return 1e6 * self.wall_s / max(1, self.attempted)

    @property
    def mean_ms(self) -> float:
        if self.frame_mean_ms is not None:
            return self.frame_mean_ms
        return float(self.latencies_ms.mean()) if len(self.latencies_ms) else 0.0

    def conserve(self, label: str) -> None:
        total = self.done + self.lost + self.shed + self.in_flight
        if total != self.attempted:
            self.problems.append(
                f"{label}: frames not conserved: attempted {self.attempted} != "
                f"done {self.done} + lost {self.lost} + shed {self.shed} + "
                f"in flight {self.in_flight}"
            )


def percentile(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    ordered = np.sort(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def _disc_point(rng: random.Random, center, radius_km: float):
    distance = radius_km * math.sqrt(rng.random())
    bearing = rng.uniform(0.0, 2.0 * math.pi)
    return center.offset_km(distance * math.cos(bearing), distance * math.sin(bearing))


# ----------------------------------------------------------------------
# Per-event simulator
# ----------------------------------------------------------------------
class SimWorkload:
    """A per-event ``EdgeSystem`` built with ``ScenarioBuilder``."""

    #: Wall time follows the host's CPU speed (see ``harness.reference_s``).
    cpu_bound = True

    name = ""
    nodes = 0
    users = 0
    region_km = 0.0
    horizon_ms = 10_000.0
    #: ``control_plane(shards, replicas)``, or None for one manager.
    control_plane: Optional[tuple] = None
    #: Users arrive at seeded times spread over the first this many ms
    #: (0: all start at t = 0).
    arrival_ms = 0.0

    def schedule_faults(self, system, node_ids: List[str], rng: random.Random) -> None:
        """Install the workload's fault schedule (none by default)."""

    def build(self, seed: int, observe: bool = False):
        from repro.api import EndpointSpec, ScenarioBuilder
        from repro.core.config import SystemConfig
        from repro.geo.region import MSP_CENTER
        from repro.nodes.hardware import VOLUNTEER_PROFILES
        from repro.obs.tracer import ListSink

        rng = random.Random(f"{self.name}:{seed}")
        builder = ScenarioBuilder(SystemConfig(seed=seed)).default_node_spec(
            EndpointSpec(MSP_CENTER, uplink_mbps=40.0, downlink_mbps=300.0)
        )
        if self.control_plane is not None:
            shards, replicas = self.control_plane
            builder.control_plane(shards=shards, replicas=replicas)
        if observe:
            builder.observe(sink=ListSink())
        for i in range(self.nodes):
            profile = VOLUNTEER_PROFILES[i % len(VOLUNTEER_PROFILES)]
            builder.node(f"n{i:04d}", profile, point=_disc_point(rng, MSP_CENTER, self.region_km))
        for i in range(self.users):
            builder.client(
                f"u{i:04d}",
                point=_disc_point(rng, MSP_CENTER, self.region_km),
                start=not self.arrival_ms,
            )
        built = builder.build_scenario()
        if self.arrival_ms:
            for user_id in built.user_ids:
                built.system.sim.schedule_at(
                    rng.uniform(0.0, self.arrival_ms), built.system.clients[user_id].start
                )
        self.schedule_faults(built.system, built.node_ids, rng)
        return built

    def rep(self, seed: int, recorder: Optional[SpanRecorder] = None, lag: bool = False) -> Rep:
        setups = []
        for _ in range(BUILDS_PER_REP):
            # Free the previous build (it holds reference cycles), so the
            # extra builds do not raise peak_rss_mb.
            built = None
            gc.collect()
            t0 = perf_counter()
            built = self.build(seed)
            setups.append(perf_counter() - t0)
        system = built.system
        if recorder is not None:
            recorder.start_window()
        events0 = system.sim.events_processed
        t2 = perf_counter()
        system.run_for(self.horizon_ms)
        t3 = perf_counter()
        if recorder is not None:
            recorder.stop_window()
        rep = self._collect(system, setup_s=statistics.median(setups), wall_s=t3 - t2)
        rep.program["sim.events"] = float(system.sim.events_processed - events0)
        rep.digest["sim.events"] = rep.program["sim.events"]
        return rep

    def _collect(self, system, setup_s: float, wall_s: float) -> Rep:
        clients = list(system.clients.values())
        latencies = np.array([x for c in clients for x in c.stats.latencies_ms])
        # Every in-flight frame has exactly one pending kernel event:
        # its uplink arrival or its response.
        in_flight = sum(
            1 for e in system.sim.queue.pending() if e.label.endswith((".uplink", ".resp"))
        )
        # Frames captured while unattached wait in the client backlog;
        # EdgeClient exposes no public view of it.
        backlog = sum(len(c._backlog) for c in clients)
        rep = Rep(
            setup_s=setup_s,
            wall_s=wall_s,
            attempted=sum(c.frame_source.frames_created for c in clients),
            done=sum(c.stats.frames_completed for c in clients),
            lost=sum(c.stats.frames_lost for c in clients),
            in_flight=in_flight + backlog,
            latencies_ms=latencies,
            sim_s=self.horizon_ms / 1000.0,
        )
        rep.conserve(self.name)
        reduced_done = sum(1 for f in system.metrics.frames if f.latency_ms is not None)
        if reduced_done != rep.done or len(system.metrics.frames) - reduced_done != rep.lost:
            rep.problems.append(
                f"{self.name}: metrics collector saw {reduced_done} done / "
                f"{len(system.metrics.frames) - reduced_done} lost, clients "
                f"counted {rep.done} / {rep.lost}"
            )
        rep.failed = self.unexpected_losses(rep)
        rep.digest.update(
            frame_mean_ms=rep.mean_ms,
            frames_done=rep.done,
            frames_lost=rep.lost,
        )
        rep.program["frames_failed_frac"] = rep.lost / max(1, rep.attempted)
        rep.program["wall_s_per_sim_s"] = wall_s / rep.sim_s
        return rep

    def unexpected_losses(self, rep: Rep) -> int:
        return rep.lost

    def verify(self, seed: int, reference: Rep) -> List[str]:
        """Re-run with the obs trace captured; check it and compare."""
        from repro.verify import check_events

        built = self.build(seed, observe=True)
        built.system.run_for(self.horizon_ms)
        rep = self._collect(built.system, setup_s=0.0, wall_s=0.0)
        problems = list(rep.problems)
        if rep.digest != {k: reference.digest[k] for k in rep.digest}:
            problems.append(
                f"{self.name}: capturing the obs trace changed the outcome: "
                f"{rep.digest} vs {reference.digest}"
            )
        events = built.system.trace.sink.events
        problems += [f"{self.name}: {v}" for v in check_events(events)]
        return problems + self.trace_problems(events)

    def trace_problems(self, events: list) -> List[str]:
        """Workload-specific checks of the captured obs trace."""
        return []


class SimDiscovery(SimWorkload):
    name = "sim_discovery"
    nodes = 300
    users = 60
    region_km = 40.0


class SimChurn(SimWorkload):
    name = "sim_churn"
    nodes = 40
    #: 40 users load the 40 nodes to about 40 % of their ~2,000 frames/s,
    #: they arrive over the first 2 s and a node crashes once a second:
    #: at 60 users, all starting at t = 0, or one crash per 0.5 s, the
    #: program's shed stall fails the obs-trace check on some seeds
    #: (README, "A user can stall on a node that sheds every frame").
    users = 40
    arrival_ms = 2_000.0
    region_km = 10.0
    horizon_ms = 40_000.0
    #: 16 shards put a shard boundary at 45 deg N, 2.5 km north of the
    #: region's centre, well inside the 80 km discovery radius, so every
    #: discovery asks two shards and merges; with 4 the whole region
    #: sits in one shard.
    control_plane = (16, 2)
    first_crash_ms = 2_000.0
    crash_every_ms = 1_000.0
    restart_after_ms = 3_000.0
    #: No crash in the last stretch, so the trace does not end in the
    #: middle of a failover.
    settle_ms = 2_000.0

    def schedule_faults(self, system, node_ids: List[str], rng: random.Random) -> None:
        """One crash every ``crash_every_ms``, each restarted later; the
        targets walk a seeded permutation of the nodes, so every node
        crashes about equally often."""
        sim = system.sim

        def crash(node_id: str) -> None:
            if system.nodes[node_id].alive:
                system.fail_node(node_id)
                sim.schedule(self.restart_after_ms, lambda: system.restart_node(node_id))

        order = list(node_ids)
        rng.shuffle(order)
        t = self.first_crash_ms
        i = 0
        while t <= self.horizon_ms - self.settle_ms:
            sim.schedule_at(t, lambda n=order[i % len(order)]: crash(n))
            t += self.crash_every_ms
            i += 1

    def trace_problems(self, events: list) -> List[str]:
        routes = [e for e in events if e.type == "shard_route"]
        crossing = sum(1 for e in routes if e.cross_shard)
        merges = sum(1 for e in events if e.type == "shard_merge")
        if not routes or not crossing or merges != crossing:
            return [
                f"{self.name}: {len(routes)} routed discoveries, {crossing} cross-shard, "
                f"{merges} merges; the workload must exercise cross-shard fan-out and merge"
            ]
        return []

    def unexpected_losses(self, rep: Rep) -> int:
        # Losing frames in flight to a crashed node is what this
        # workload injects; the loss share is reported, not failed.
        return 0


# ----------------------------------------------------------------------
# Live asyncio runtime over loopback TCP
# ----------------------------------------------------------------------
class LiveLoopback:
    """``LocalCluster`` on 127.0.0.1, closed-loop clients on one loop."""

    name = "live_loopback"
    #: Scaling its wall time by the reference loop made its run-to-run
    #: spread wider, not narrower (README, Bounds).
    cpu_bound = False
    #: Modelled processing sleeps scale by this, so they stay well
    #: below the cost of the wire.
    time_scale = 0.001
    #: ``repro.verify`` budgets are model-time budgets scaled by the
    #: trace's time scale. At 0.001 a failover budget is 2 ms of wall
    #: time, less than one unscaled TCP selection round, so the trace
    #: check runs on its own cluster at the runtime's default scale.
    verify_time_scale = 0.05
    verify_seconds = 1.5
    lag_period_s = 0.002

    def __init__(self, clients: int, segment_s: float) -> None:
        self.clients = clients
        self.segment_s = segment_s

    def rep(self, seed: int, recorder: Optional[SpanRecorder] = None, lag: bool = False) -> Rep:
        return asyncio.run(self._segment(seed, recorder, lag, self.time_scale, self.segment_s))

    def verify(self, seed: int, reference: Rep) -> List[str]:
        from repro.verify import check_events

        events: list = []
        rep = asyncio.run(
            self._segment(seed, None, False, self.verify_time_scale, self.verify_seconds, events)
        )
        violations = check_events(events, time_scale=self.verify_time_scale)
        return rep.problems + [f"{self.name}: {v}" for v in violations]

    async def _segment(
        self,
        seed: int,
        recorder: Optional[SpanRecorder],
        lag: bool,
        time_scale: float,
        seconds: float,
        capture: Optional[list] = None,
    ) -> Rep:
        from repro.nodes.hardware import VOLUNTEER_PROFILES
        from repro.obs.tracer import Tracer
        from repro.runtime.launcher import LocalCluster

        t0 = perf_counter()
        tracer = Tracer(enabled=True, capacity=1 << 22) if capture is not None else None
        cluster = LocalCluster(
            VOLUNTEER_PROFILES,
            n_clients=self.clients,
            seed=seed,
            time_scale=time_scale,
            tracer=tracer,
        )
        try:
            await cluster.start()
            for client in cluster.clients:
                await client.select_and_join()
            t1 = perf_counter()
            if recorder is not None:
                recorder.start_window()
            stop_at = t1 + seconds
            lags: List[float] = []
            ticker = asyncio.ensure_future(self._ticker(stop_at, lags)) if lag else None
            spinner = asyncio.ensure_future(self._spin(stop_at))
            loops = await asyncio.gather(*(self._closed_loop(c, stop_at) for c in cluster.clients))
            await spinner
            if ticker is not None:
                await ticker
            t2 = perf_counter()
            if recorder is not None:
                recorder.stop_window()
            processed = sum(edge.frames_processed for edge in cluster.edges)
            if capture is not None:
                capture.extend(tracer.events())
        finally:
            await cluster.stop()

        rep = Rep(setup_s=t1 - t0, wall_s=t2 - t1, attempted=0, done=0)
        latencies: List[float] = []
        rounds: List[float] = []
        for loop in loops:
            # attempted and done are the client's own counters; lost and
            # shed are what the benchmark saw offload_frame return.
            rep.attempted += loop["attempted"]
            rep.done += loop["done"]
            rep.lost += loop["lost"]
            rep.shed += loop["shed"]
            rep.failed += loop["lost"] + loop["shed"] + loop["failed_rounds"]
            rounds += loop["rounds_ms"]
            latencies += loop["latencies_ms"]
            rep.problems += loop["problems"]
        rep.latencies_ms = np.array(latencies)
        rep.conserve(self.name)
        if processed != rep.done:
            rep.problems.append(
                f"{self.name}: edges processed {processed} frames, clients got {rep.done} replies"
            )
        rep.program.update(
            {
                "runtime.frames_shed": float(rep.shed),
                "runtime.loop_lag_p99_ms": percentile(np.array(lags), 99),
                "frames_failed_frac": (rep.lost + rep.shed) / max(1, rep.attempted),
                "live_round_p50_ms": percentile(np.array(rounds), 50),
                "live_round_p99_ms": percentile(np.array(rounds), 99),
            }
        )
        return rep

    async def _closed_loop(self, client, stop_at: float) -> dict:
        """Send the next frame when the last returns; re-select every
        ``FRAMES_PER_ROUND`` frames."""
        out = dict(lost=0, shed=0, failed_rounds=0, rounds_ms=[], latencies_ms=[], problems=[])
        counter0, recorded0 = client._frame_counter, len(client.latencies_ms)
        sent = 0
        while perf_counter() < stop_at:
            if sent and sent % FRAMES_PER_ROUND == 0:
                t = perf_counter()
                try:
                    await client.select_and_join()
                except RuntimeError as exc:
                    out["failed_rounds"] += 1
                    out["problems"].append(f"{self.name}: {exc}")
                    break
                out["rounds_ms"].append(1e3 * (perf_counter() - t))
            failovers = client.failovers
            sent += 1
            latency = await client.offload_frame()
            if latency is not None:
                out["latencies_ms"].append(latency)
            elif client.failovers != failovers:
                out["lost"] += 1
            else:
                out["shed"] += 1
        out["attempted"] = client._frame_counter - counter0
        recorded = client.latencies_ms[recorded0:]
        out["done"] = len(recorded)
        if recorded != out["latencies_ms"]:
            out["problems"].append(
                f"{self.name}: {client.user_id} recorded {len(recorded)} latencies, "
                f"offload_frame returned {len(out['latencies_ms'])} (or different values)"
            )
        return out

    @staticmethod
    async def _spin(stop_at: float) -> None:
        """Keep a callback ready so the event loop never blocks in epoll
        with a timeout: epoll rounds a timeout up to whole milliseconds,
        which turns a modelled sleep of microseconds into one of 1 ms."""
        while perf_counter() < stop_at:
            await asyncio.sleep(0)

    async def _ticker(self, stop_at: float, lags: List[float]) -> None:
        """Benchmark-side event-loop lateness: how late a periodic
        sleeper wakes up."""
        due = perf_counter() + self.lag_period_s
        while due < stop_at:
            await asyncio.sleep(max(0.0, due - perf_counter()))
            now = perf_counter()
            lags.append(1e3 * (now - due))
            due = now + self.lag_period_s


# ----------------------------------------------------------------------
# Metro cohort kernel
# ----------------------------------------------------------------------
class MetroReselect:
    """One-shard ``MetroSimulation`` past ``min_dwell_ms``, re-selecting."""

    #: Wall time follows the host's CPU speed (see ``harness.reference_s``).
    cpu_bound = True

    name = "metro_reselect"
    nodes = 1_000
    users = 10_000
    region_km = 40.0
    #: Past the default ``min_dwell_ms`` (5 s) by one cohort tick, so
    #: every user is eligible to re-select inside the window.
    warmup_ms = 5_250.0
    #: One full default ``T_probing``: each user is due once.
    window_ms = 2_000.0

    def _simulation(self, seed: int):
        from repro.core.config import SystemConfig
        from repro.metro import MetroSimulation, MetroSpec

        spec = MetroSpec(nodes=self.nodes, users=self.users, region_km=self.region_km, fps=FPS)
        return MetroSimulation(spec, SystemConfig(seed=seed))

    def rep(self, seed: int, recorder: Optional[SpanRecorder] = None, lag: bool = False) -> Rep:
        return self._run(seed, recorder)[0]

    def _run(self, seed: int, recorder: Optional[SpanRecorder] = None):
        t0 = perf_counter()
        _, kernels = self._simulation(seed).build_kernels()
        (kernel,) = kernels
        kernel.step_to(self.warmup_ms)
        t1 = perf_counter()
        before = self._counters(kernel)
        if recorder is not None:
            recorder.start_window()
        t2 = perf_counter()
        kernel.step_to(self.warmup_ms + self.window_ms)
        t3 = perf_counter()
        if recorder is not None:
            recorder.stop_window()
        after = self._counters(kernel)
        delta = {k: after[k] - before[k] for k in before}
        frames = delta["u_frames"]
        has_frames = frames > 0
        user_means = delta["u_lat_sum"][has_frames] / frames[has_frames]
        rep = Rep(
            setup_s=t1 - t0,
            wall_s=t3 - t2,
            attempted=int(delta["frames_advanced"]),
            done=int(frames.sum()),
            lost=int(delta["u_lost"].sum()),
            latencies_ms=user_means,
            sim_s=self.window_ms / 1000.0,
            frame_mean_ms=float(delta["u_lat_sum"].sum() / max(1, frames.sum())),
        )
        rep.failed = rep.lost
        rep.conserve(self.name)
        if delta["control_ops"] <= 0:
            rep.problems.append(f"{self.name}: no re-selection control ops in the timed window")
        rep.program.update(
            {
                "metro.control_ops": float(delta["control_ops"]),
                "metro.switches": float(delta["switches"]),
                "metro.frames_advanced": float(delta["frames_advanced"]),
                "metro.handoffs": float(delta["handoffs"]),
                "frames_failed_frac": rep.lost / max(1, rep.attempted),
                "wall_s_per_sim_s": rep.wall_s / rep.sim_s,
            }
        )
        rep.digest.update(
            {
                "metro.switches": float(delta["switches"]),
                "metro.control_ops": float(delta["control_ops"]),
                "frames_done": float(rep.done),
                "frame_mean_ms": rep.mean_ms,
            }
        )
        return rep, kernel.report()

    @staticmethod
    def _counters(kernel) -> Dict[str, np.ndarray]:
        return {
            "u_frames": kernel.u_frames.copy(),
            "u_lost": kernel.u_lost.copy(),
            "u_lat_sum": kernel.u_lat_sum.copy(),
            "control_ops": kernel.control_ops,
            "switches": kernel.switches,
            "frames_advanced": kernel.frames_advanced,
            "handoffs": kernel.handoffs_out + kernel.handoffs_in,
        }

    def verify(self, seed: int, reference: Rep) -> List[str]:
        """Stepping the kernel in two parts must equal the runner's run."""
        rep, mine = self._run(seed)
        theirs = self._simulation(seed).run((self.warmup_ms + self.window_ms) / 1000.0)
        problems = list(rep.problems)
        for key in ("frames_done", "frames_lost", "switches", "latency_sum_ms"):
            if getattr(mine, key) != getattr(theirs, key):
                problems.append(
                    f"{self.name}: {key} differs from MetroSimulation.run: "
                    f"{getattr(mine, key)} vs {getattr(theirs, key)}"
                )
        if rep.digest != reference.digest:
            problems.append(f"{self.name}: same seed, different outcome: {rep.digest} vs {reference.digest}")
        return problems


def make(name: str, cpus: int, segment_s: float):
    """The workload called ``name``; live clients are capped at ``cpus``
    and each live rep runs its closed loop for ``segment_s``."""
    if name == "live_loopback":
        return LiveLoopback(clients=max(1, min(2, cpus)), segment_s=segment_s)
    classes = {c.name: c for c in (SimDiscovery, SimChurn, MetroReselect)}
    if name not in classes:
        raise KeyError(name)
    return classes[name]()


WORKLOADS = ("sim_discovery", "sim_churn", "live_loopback", "metro_reselect")
