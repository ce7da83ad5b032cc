"""Client-side probe results and the LO/GO overhead computations.

After probing a candidate, the client holds (§IV-D):

- ``LO_j = D_prop_probing + D_proc_probing`` — the Local-view Overhead:
  the latency *this* user would see on candidate ``j``.
- ``GO_j = n × (D_proc_probing − D_proc_current) + LO_j`` — the Global
  Overhead: LO plus the aggregate degradation inflicted on the
  candidate's ``n`` existing users if this user joins.

:class:`ProbeOutcome` packages one candidate's probe; the policy layer
(:mod:`repro.policy`) ranks lists of them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ProbeOutcome:
    """Everything Algorithm 2 learns about one candidate edge node.

    Attributes:
        node_id: the probed candidate.
        d_prop_ms: measured RTT propagation delay (``RTT_probe``).
        d_proc_ms: cached "what-if" processing delay (``Process_probe``).
        seq_num: the node's state sequence number at probe time — echoed
            in the subsequent ``Join()`` for synchronization.
        attached_users: the candidate's current user count ``n``.
        current_proc_ms: processing delay existing users currently see.
        probed_at_ms: client timestamp of the probe.
    """

    node_id: str
    d_prop_ms: float
    d_proc_ms: float
    seq_num: int
    attached_users: int
    current_proc_ms: float
    #: stay-projection from the probe reply (see ProbeReply.stay_ms);
    #: a client substitutes this for ``d_proc_ms`` when ranking the node
    #: it is already attached to.
    stay_ms: float = 0.0
    probed_at_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.d_prop_ms < 0 or self.d_proc_ms < 0:
            raise ValueError("probe delays must be >= 0")
        if self.attached_users < 0:
            raise ValueError(f"attached_users must be >= 0: {self.attached_users}")

    @property
    def local_overhead_ms(self) -> float:
        """``LO_j`` — predicted end-to-end latency for the probing user."""
        return self.d_prop_ms + self.d_proc_ms

    @property
    def degradation_ms(self) -> float:
        """Per-existing-user slowdown if this user joins (never negative).

        The what-if value reflects one *additional* user, so it should
        not undercut what current users already experience; clamping
        guards against measurement noise inverting the difference.
        """
        return max(0.0, self.d_proc_ms - self.current_proc_ms)

    @property
    def global_overhead_ms(self) -> float:
        """``GO_j`` — LO plus total degradation inflicted on existing users."""
        return self.attached_users * self.degradation_ms + self.local_overhead_ms
