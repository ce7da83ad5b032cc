"""The paper's baseline policies, extracted behind the policy API.

They reproduce the pre-policy LO/GO sort exactly — same scores, same
``(score, node_id)`` tie-break, same QoS admission filter — pinned by
the golden-trace parity tests. They carry no state:
:meth:`~repro.policy.base.SelectionPolicy.observe` is a no-op, which
also keeps the hot path free when history is not wanted.
"""

from __future__ import annotations

from typing import ClassVar, Dict, List, Sequence, Tuple

from repro.core.probing import ProbeOutcome
from repro.policy.base import RankingContext, SelectionPolicy

__all__ = [
    "GlobalOverheadPolicy",
    "LocalOverheadPolicy",
    "QosGatedPolicy",
]


class LocalOverheadPolicy(SelectionPolicy):
    """Rank by ``LO_j`` ascending — selfish best latency for this user."""

    name: ClassVar[str] = "lo"

    def score(self, outcome: ProbeOutcome, ctx: RankingContext) -> float:
        return outcome.local_overhead_ms


class GlobalOverheadPolicy(SelectionPolicy):
    """Rank by ``GO_j`` ascending — the paper's average-optimizing
    default (LO plus the degradation the join inflicts on the
    candidate's existing users)."""

    name: ClassVar[str] = "go"

    def score(self, outcome: ProbeOutcome, ctx: RankingContext) -> float:
        return outcome.global_overhead_ms


class QosGatedPolicy(SelectionPolicy):
    """QoS admission on top of any base policy.

    Candidates whose ``LO`` exceeds the bound are filtered before the
    base policy scores the survivors — "first filter out edge candidates
    whose LO violates QoS requirements and then select the node with
    lowest GO". An empty ranking signals the client that no candidate
    can satisfy the requirement.
    """

    name: ClassVar[str] = "qos"

    def __init__(self, base: SelectionPolicy, qos_latency_ms: float) -> None:
        if qos_latency_ms <= 0:
            raise ValueError(f"qos_latency_ms must be positive: {qos_latency_ms}")
        self.base = base
        self.qos_latency_ms = qos_latency_ms

    def eligible(
        self, outcomes: Sequence[ProbeOutcome], ctx: RankingContext
    ) -> List[ProbeOutcome]:
        survivors = [
            o for o in outcomes if o.local_overhead_ms <= self.qos_latency_ms
        ]
        return self.base.eligible(survivors, ctx)

    def score(self, outcome: ProbeOutcome, ctx: RankingContext) -> float:
        return self.base.score(outcome, ctx)

    def order_backups(
        self, ranked_rest: Sequence[ProbeOutcome], ctx: RankingContext
    ) -> Tuple[ProbeOutcome, ...]:
        return self.base.order_backups(ranked_rest, ctx)

    def observe(self, observation: object) -> None:
        self.base.observe(observation)  # type: ignore[arg-type]

    def bind_seed(self, seed: int) -> None:
        self.base.bind_seed(seed)

    def params(self) -> Dict[str, object]:
        return {"base": self.base.name, "qos_latency_ms": self.qos_latency_ms}
