"""Manager-side selection policies.

- :mod:`~repro.core.policies.global_policies` — filters and sorters that
  produce the coarse TopN candidate list (step 1).
- :mod:`~repro.core.policies.reputation` — manager-side node reputation
  folded into the step-1 ranking.

Client-side ranking over probe outcomes (step 2, §IV-D) lives in
:mod:`repro.policy`.
"""

from repro.core.policies.global_policies import (
    GeoProximityFilter,
    GlobalSelectionPolicy,
    availability_sort_key,
)

__all__ = [
    "GlobalSelectionPolicy",
    "GeoProximityFilter",
    "availability_sort_key",
]
