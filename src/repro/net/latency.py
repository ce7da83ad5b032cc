"""RTT propagation delay (``D_prop``) models.

Fig. 1 of the paper measures RTT from 15 home-WiFi participants to
(1) five volunteer edge nodes in the same metro, (2) an AWS Local Zone,
and (3) the closest AWS region, and finds volunteers < Local Zone <
cloud. Physical distance explains little of this at metro scale — the
dominant terms are routing-hop count and ISP interconnect overhead. The
models here therefore combine:

``rtt = floor + distance_term + tier_inflation(src) + tier_inflation(dst) + jitter``

with per-tier inflation constants calibrated so sampled distributions
reproduce the ranges in Fig. 1 and Table III (volunteer ≈ 8-20 ms,
Local Zone ≈ 15-30 ms, cloud ≈ 60-80 ms from a metro home connection).
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Tuple

from repro.geo.point import GeoPoint


class NetworkTier(enum.Enum):
    """Coarse class of an endpoint's network attachment.

    The tier determines the fixed routing/interconnect overhead an
    endpoint contributes to any path that touches it.
    """

    HOME_WIFI = "home_wifi"  # residential last mile (users, volunteers)
    METRO_FIBER = "metro_fiber"  # well-connected volunteer (office/dorm)
    LOCAL_ZONE = "local_zone"  # AWS Local Zone style metro DC
    CLOUD = "cloud"  # regional cloud DC, hundreds of km away
    LAN = "lan"  # same-LAN affiliation (dedicated channel)


#: One-way routing inflation (ms) contributed by each endpoint tier.
#: Calibrated to Fig. 1: two HOME_WIFI endpoints in one metro see
#: ~2*3.5 + floor + jitter ≈ 8-16 ms RTT; home->LOCAL_ZONE lands ~15-30;
#: home->CLOUD is dominated by the cloud's distance + backbone overhead.
TIER_INFLATION_MS: Dict[NetworkTier, float] = {
    NetworkTier.HOME_WIFI: 3.5,
    NetworkTier.METRO_FIBER: 1.5,
    # The Local Zone pays an ISP-interconnect detour from residential
    # networks: "its deliverable latency is much higher than the claimed
    # single-digit millisecond level to end users due to the networking
    # overhead within the local ISP network" (§II-A).
    NetworkTier.LOCAL_ZONE: 11.0,
    NetworkTier.CLOUD: 30.0,
    NetworkTier.LAN: 0.2,
}


class JitterModel:
    """Multiplicative-lognormal + additive spike jitter.

    Real home networks show a right-skewed RTT distribution with a long
    tail (WiFi retransmits, bufferbloat). We model a lognormal factor
    around 1.0 plus rare additive spikes.

    Args:
        sigma: lognormal shape; 0 disables the multiplicative part.
        spike_probability: chance a sample carries an additive spike.
        spike_ms: mean of the (exponential) spike magnitude.
    """

    def __init__(
        self,
        sigma: float = 0.15,
        spike_probability: float = 0.01,
        spike_ms: float = 30.0,
    ) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0: {sigma}")
        if not 0.0 <= spike_probability <= 1.0:
            raise ValueError(f"spike_probability must be in [0,1]: {spike_probability}")
        self.sigma = sigma
        self.spike_probability = spike_probability
        self.spike_ms = spike_ms
        # mean of lognormal(mu=0, sigma) is exp(sigma^2/2); divide it out
        # so jitter is mean-preserving.
        self._mean_correction = math.exp(-(sigma**2) / 2.0)

    def apply(self, base_ms: float, rng: random.Random) -> float:
        """Return a jittered sample around ``base_ms`` (mean-preserving)."""
        value = base_ms
        if self.sigma > 0:
            value *= rng.lognormvariate(0.0, self.sigma) * self._mean_correction
        if self.spike_probability > 0 and rng.random() < self.spike_probability:
            value += rng.expovariate(1.0 / self.spike_ms)
        return value


class RttModel(Protocol):
    """Anything that can produce RTT samples between two endpoints.

    Two optional class attributes let :class:`~repro.net.topology.
    NetworkTopology` put a model on its memoized fast path (both default
    to False for models that do not declare them):

    - ``jitter_decomposable``: the model guarantees
      ``sample_rtt_ms(s, d, rng) == jitter.apply(expected_rtt_ms(s, d), rng)``
      (same RNG consumption), so the topology may sample from a cached
      expected value. All built-in models satisfy this.
    - ``cacheable_expected``: ``expected_rtt_ms`` is a pure function of
      the two endpoint identities for the model's lifetime, so the
      topology may memoize it per endpoint pair.
      :class:`MatrixRttModel` does *not* declare this — ``set_rtt`` can
      change pairs after first use.
    """

    def expected_rtt_ms(self, src: "EndpointInfo", dst: "EndpointInfo") -> float:
        """Mean RTT, used by optimal solvers and reports."""
        ...

    def sample_rtt_ms(
        self, src: "EndpointInfo", dst: "EndpointInfo", rng: random.Random
    ) -> float:
        """One jittered RTT sample, used by live probes and requests."""
        ...


@dataclass(frozen=True)
class EndpointInfo:
    """The network-relevant identity of an endpoint.

    Kept separate from higher-level node/user objects so latency models
    depend only on network facts.
    """

    endpoint_id: str
    point: GeoPoint
    tier: NetworkTier = NetworkTier.HOME_WIFI
    #: Optional ISP/affiliation tag: endpoints sharing a tag get the
    #: intra-ISP discount (fewer interconnect hops).
    isp: Optional[str] = None
    #: Per-endpoint access-link overhead (ms, one-way): heterogeneous
    #: last-mile quality (DSL vs cable vs fiber, bad WiFi placement).
    #: This is the dominant source of the RTT heterogeneity Fig. 1
    #: measures across "volunteer-based edge nodes ... with
    #: heterogeneous network access".
    access_extra_ms: float = 0.0


#: :class:`DistanceRttModel` defaults, shared with the metro kernel's
#: vectorized RTT so both compute the same floats.
RTT_FLOOR_MS = 1.0
MS_PER_KM = 0.0075
PATH_STRETCH = 1.6


class DistanceRttModel:
    """RTT from distance, endpoint tiers, ISP affiliation and jitter.

    ``rtt = floor + 2 * distance_km * ms_per_km * path_stretch
            + inflation(src) + inflation(dst) [ - isp_discount ] + jitter``

    Args:
        floor_ms: irreducible stack/serialization floor.
        ms_per_km: one-way propagation per km (speed of light in fiber
            ≈ 0.005 ms/km; effective value is higher due to non-direct
            paths, folded into ``path_stretch``).
        path_stretch: ratio of routed path length to great-circle.
        same_isp_discount_ms: subtracted when both endpoints share an ISP
            tag (models staying inside one local ISP network, the paper's
            "network affiliation" hint).
        jitter: the jitter model, or None for deterministic RTTs.
    """

    jitter_decomposable = True
    cacheable_expected = True

    def __init__(
        self,
        floor_ms: float = RTT_FLOOR_MS,
        ms_per_km: float = MS_PER_KM,
        path_stretch: float = PATH_STRETCH,
        same_isp_discount_ms: float = 2.0,
        tier_inflation_ms: Optional[Dict[NetworkTier, float]] = None,
        jitter: Optional[JitterModel] = None,
    ) -> None:
        if floor_ms < 0 or ms_per_km < 0 or path_stretch < 1.0:
            raise ValueError("invalid DistanceRttModel parameters")
        self.floor_ms = floor_ms
        self.ms_per_km = ms_per_km
        self.path_stretch = path_stretch
        self.same_isp_discount_ms = same_isp_discount_ms
        self.tier_inflation_ms = dict(tier_inflation_ms or TIER_INFLATION_MS)
        self.jitter = jitter if jitter is not None else JitterModel()

    def expected_rtt_ms(self, src: EndpointInfo, dst: EndpointInfo) -> float:
        distance = src.point.distance_km(dst.point)
        rtt = (
            self.floor_ms
            + 2.0 * distance * self.ms_per_km * self.path_stretch
            + self.tier_inflation_ms[src.tier]
            + self.tier_inflation_ms[dst.tier]
            + 2.0 * (src.access_extra_ms + dst.access_extra_ms)
        )
        if src.isp is not None and src.isp == dst.isp:
            rtt = max(self.floor_ms, rtt - self.same_isp_discount_ms)
        return rtt

    def sample_rtt_ms(
        self, src: EndpointInfo, dst: EndpointInfo, rng: random.Random
    ) -> float:
        return self.jitter.apply(self.expected_rtt_ms(src, dst), rng)


class MatrixRttModel:
    """Explicit pairwise base RTTs with jitter on top.

    The paper's emulation "configure[s] the pairwise networking
    performance (latency/bandwidth) using tc with real-world measurement
    data" — this model is that configuration in software. Pairs are
    symmetric unless both directions are set explicitly. A ``default_ms``
    covers unset pairs; self-pairs return ~0.
    """

    jitter_decomposable = True
    # NOT cacheable_expected: set_rtt() may reconfigure pairs anytime.

    def __init__(
        self,
        default_ms: float = 30.0,
        jitter: Optional[JitterModel] = None,
    ) -> None:
        self.default_ms = default_ms
        self.jitter = jitter if jitter is not None else JitterModel(sigma=0.08)
        self._matrix: Dict[Tuple[str, str], float] = {}

    def set_rtt(self, a: str, b: str, rtt_ms: float, symmetric: bool = True) -> None:
        """Set the base RTT between endpoint ids ``a`` and ``b``."""
        if rtt_ms < 0:
            raise ValueError(f"rtt must be >= 0: {rtt_ms}")
        self._matrix[(a, b)] = rtt_ms
        if symmetric:
            self._matrix[(b, a)] = rtt_ms

    def base_rtt_ms(self, a: str, b: str) -> float:
        if a == b:
            return 0.1
        return self._matrix.get((a, b), self.default_ms)

    def expected_rtt_ms(self, src: EndpointInfo, dst: EndpointInfo) -> float:
        return self.base_rtt_ms(src.endpoint_id, dst.endpoint_id)

    def sample_rtt_ms(
        self, src: EndpointInfo, dst: EndpointInfo, rng: random.Random
    ) -> float:
        return self.jitter.apply(self.expected_rtt_ms(src, dst), rng)

    def configured_pairs(self) -> int:
        """Number of directed pairs explicitly configured."""
        return len(self._matrix)


class HashedPairRttModel:
    """Deterministic pseudo-random pairwise base RTTs.

    Like :class:`MatrixRttModel`, but the base RTT of every (unordered)
    endpoint pair is derived by hashing the pair with a seed, uniform in
    ``[min_ms, max_ms]``. This covers experiments where endpoints appear
    dynamically (churned volunteer nodes): any pair that ever comes into
    existence already has a stable, reproducible base RTT — the software
    analogue of the paper's ``tc``-configured pairwise latencies drawn
    from "real-world measurement data" (8-55 ms in §V-D1).
    """

    jitter_decomposable = True
    cacheable_expected = True

    def __init__(
        self,
        min_ms: float = 8.0,
        max_ms: float = 55.0,
        seed: int = 0,
        jitter: Optional[JitterModel] = None,
    ) -> None:
        if not 0 <= min_ms <= max_ms:
            raise ValueError(f"need 0 <= min_ms <= max_ms: {min_ms}, {max_ms}")
        self.min_ms = min_ms
        self.max_ms = max_ms
        self.seed = seed
        self.jitter = jitter if jitter is not None else JitterModel(sigma=0.08)

    def base_rtt_ms(self, a: str, b: str) -> float:
        if a == b:
            return 0.1
        import hashlib

        key = "|".join(sorted((a, b)))
        digest = hashlib.sha256(f"{self.seed}:{key}".encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(2**64)
        return self.min_ms + fraction * (self.max_ms - self.min_ms)

    def expected_rtt_ms(self, src: EndpointInfo, dst: EndpointInfo) -> float:
        return self.base_rtt_ms(src.endpoint_id, dst.endpoint_id)

    def sample_rtt_ms(
        self, src: EndpointInfo, dst: EndpointInfo, rng: random.Random
    ) -> float:
        return self.jitter.apply(self.expected_rtt_ms(src, dst), rng)
