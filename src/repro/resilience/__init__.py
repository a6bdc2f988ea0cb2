"""``repro.resilience``: fault injection, breakers, and brownouts.

The failure-domain story of the serving stack, in three deterministic
pieces (see ``docs/resilience.md``):

* :class:`ChaosSchedule` / :class:`ChaosCursor` — seeded, virtual-
  clock-driven fault injection (worker death/stall, pipe corruption,
  tier outages, publish failures, latency spikes) behind the
  ``PERCIVAL_CHAOS`` knob, with a bit-identical off-path;
* :class:`TierBreaker` — closed/open/half-open circuit breakers with
  failure-count windows and a deterministic exponential reopen
  schedule, guarding pool dispatch, cascade rule serving, and diff
  inheritance;
* :class:`DegradationController` — the SLO-driven graceful-degradation
  ladder (no diff → no cascade → drop below-fold → shed), stepping
  down on breach and back up on recovery.

The standing invariant all three preserve: a fault may move *where or
whether* work happens — never the value of a served P(ad) — and the
conservation ledger (submitted = answered + shed + failed) balances
under every schedule.
"""

from repro.resilience.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    BreakerSettings,
    TierBreaker,
)
from repro.resilience.chaos import (
    FAULT_LATENCY_SPIKE,
    FAULT_PIPE_CORRUPT,
    FAULT_PUBLISH_FAIL,
    FAULT_TIER_ERROR,
    FAULT_TIER_OUTAGE,
    FAULT_WORKER_DEATH,
    FAULT_WORKER_STALL,
    FAULTS,
    ChaosCursor,
    ChaosEvent,
    ChaosInjectedError,
    ChaosSchedule,
)
from repro.resilience.degrade import (
    LEVELS,
    DegradationController,
    LadderSettings,
    LadderTransition,
)
from repro.resilience.plane import GUARDED_TIERS, ResiliencePlane

__all__ = [
    "BreakerSettings",
    "ChaosCursor",
    "ChaosEvent",
    "ChaosInjectedError",
    "ChaosSchedule",
    "DegradationController",
    "FAULTS",
    "FAULT_LATENCY_SPIKE",
    "FAULT_PIPE_CORRUPT",
    "FAULT_PUBLISH_FAIL",
    "FAULT_TIER_ERROR",
    "FAULT_TIER_OUTAGE",
    "FAULT_WORKER_DEATH",
    "FAULT_WORKER_STALL",
    "GUARDED_TIERS",
    "LEVELS",
    "LadderSettings",
    "LadderTransition",
    "ResiliencePlane",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "TierBreaker",
]
