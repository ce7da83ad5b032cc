"""String-keyed policy registry.

Sweeps, the CLI and ``SystemConfig.policy_spec`` name policies by
string (``"reliability"``); this registry maps those names to factories
and builds configured instances. Built-ins register at import time so
worker processes resolve the same names (spawn-safe, like the sweep
experiment registry).
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Union

from repro.policy.base import SelectionPolicy
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

__all__ = [
    "PolicyFactory",
    "PolicySpec",
    "build_policy",
    "get",
    "make",
    "policy_names",
    "register",
]

#: Anything :func:`build_policy` accepts: a registry name or a policy
#: instance (used as a prototype — cloned, never shared).
PolicySpec = Union[str, SelectionPolicy]

PolicyFactory = Callable[..., SelectionPolicy]

_REGISTRY: Dict[str, PolicyFactory] = {}
_DESCRIPTIONS: Dict[str, str] = {}


def register(
    name: str,
    factory: PolicyFactory,
    *,
    description: str = "",
    replace: bool = False,
) -> None:
    """Add a policy factory under ``name``.

    Re-registering is refused unless ``replace=True`` — silently
    shadowing a built-in would change what a ``policy_spec`` means.
    """
    if name in _REGISTRY and not replace:
        raise ValueError(f"policy already registered: {name!r}")
    _REGISTRY[name] = factory
    _DESCRIPTIONS[name] = description


def get(name: str) -> PolicyFactory:
    """The factory registered under ``name`` (``repro.policy.get("reliability")``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(
            f"unknown selection policy {name!r}; registered: {known}"
        ) from None


def make(name: str, **params: object) -> SelectionPolicy:
    """A fresh configured instance of the policy named ``name``."""
    return get(name)(**params)


def describe(name: str) -> str:
    """The one-line description registered with ``name``."""
    get(name)
    return _DESCRIPTIONS.get(name, "")


def policy_names() -> List[str]:
    return sorted(_REGISTRY)


def build_policy(
    spec: PolicySpec,
    *,
    params: Optional[Dict[str, object]] = None,
    qos_latency_ms: Optional[float] = None,
    seed: Optional[int] = None,
) -> SelectionPolicy:
    """Resolve any policy spec into a ready per-client instance.

    - A **name** builds a fresh instance from the registry with
      ``params`` as constructor keywords.
    - A **policy object** is treated as a prototype and deep-copied, so
      per-node state is never shared between clients.

    ``qos_latency_ms`` wraps the result in QoS admission (the
    ``SystemConfig.qos_latency_ms`` semantics); ``seed`` hands the
    policy its private random universe.
    """
    policy: SelectionPolicy
    if isinstance(spec, str):
        policy = make(spec, **(params or {}))
    elif isinstance(spec, SelectionPolicy):
        if params:
            raise ValueError(
                "params only apply to registry names; configure the "
                "policy instance directly instead"
            )
        policy = copy.deepcopy(spec)
    else:
        raise TypeError(f"not a policy spec: {spec!r}")
    if qos_latency_ms is not None:
        policy = QosGatedPolicy(policy, qos_latency_ms)
    if seed is not None:
        policy.bind_seed(seed)
    return policy


# ----------------------------------------------------------------------
# Built-ins
# ----------------------------------------------------------------------
register(
    "lo",
    LocalOverheadPolicy,
    description="paper baseline: rank by local overhead LO_j (selfish latency)",
)
register(
    "go",
    GlobalOverheadPolicy,
    description="paper default: rank by global overhead GO_j (average-optimizing)",
)
register(
    "ewma",
    EwmaRttPolicy,
    description="Holt EWMA/trend RTT forecast: rank on predicted RTT-at-join",
)
register(
    "reliability",
    ReliabilityPolicy,
    description="GO with decaying multiplicative penalty for failures/gray behaviour",
)
register(
    "churn",
    ChurnAwarePolicy,
    description="GO ranking with stability-ordered backups (churn-aware failover)",
)
