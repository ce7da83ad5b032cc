"""Pluggable client selection policies (``repro.policy``).

The subsystem behind the :class:`~repro.protocol.selection.SelectionMachine`'s
ranking and backup-ordering decisions. See :mod:`repro.policy.base` for
the contract, :mod:`repro.policy.baselines` for the paper's LO/GO/QoS
extracted bit-identically, :mod:`repro.policy.predictive` for the
history-aware policies, and :mod:`repro.policy.registry` for resolving
string specs (``SystemConfig.policy_spec``, sweeps, the CLI).

Quickstart::

    from repro.policy import build_policy, get, policy_names

    policy_names()                 # ['churn', 'ewma', 'go', 'lo', 'reliability']
    get("reliability")             # the factory class
    build_policy("ewma", params={"alpha": 0.5})   # a configured instance
"""

from repro.policy.base import (
    AttachmentObserved,
    CandidateChurn,
    DegradedDiscovery,
    FailoverObserved,
    NodeFailureObserved,
    PolicyObservation,
    ProbeObserved,
    ProbeTimeout,
    Ranking,
    RankingContext,
    SelectionPolicy,
)
from repro.policy.baselines import (
    GlobalOverheadPolicy,
    LocalOverheadPolicy,
    QosGatedPolicy,
)
from repro.policy.predictive import (
    ChurnAwarePolicy,
    EwmaRttPolicy,
    ReliabilityPolicy,
)
from repro.policy.registry import (
    PolicySpec,
    build_policy,
    describe,
    get,
    make,
    policy_names,
    register,
)

__all__ = [
    "AttachmentObserved",
    "CandidateChurn",
    "ChurnAwarePolicy",
    "DegradedDiscovery",
    "EwmaRttPolicy",
    "FailoverObserved",
    "GlobalOverheadPolicy",
    "LocalOverheadPolicy",
    "NodeFailureObserved",
    "PolicyObservation",
    "PolicySpec",
    "ProbeObserved",
    "ProbeTimeout",
    "QosGatedPolicy",
    "Ranking",
    "RankingContext",
    "ReliabilityPolicy",
    "SelectionPolicy",
    "build_policy",
    "describe",
    "get",
    "make",
    "policy_names",
    "register",
]
