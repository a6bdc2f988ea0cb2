"""The resilience plane: breakers + degradation ladder, as one object.

:class:`ResiliencePlane` bundles what the serving stack consults on
every request — one :class:`~repro.resilience.breaker.TierBreaker` per
guarded tier (``pool``, ``cascade``, ``diff``) and one
:class:`~repro.resilience.degrade.DegradationController` — plus the
counters a run reports through
:class:`~repro.serve.metrics.ServeStats` (``stats.resilience`` is the
plane itself, the same live-attachment idiom the cascade and diff
stats use).

The plane is deliberately stateful-across-runs, like the cascade's
rule cache: a fleet replay shares one plane across epochs so breakers
tripped at the peak stay tripped into the next epoch.  It is off by
default; :func:`repro.serve.tiers.resolve_tiers` turns it on for chaos
replays and under the ``PERCIVAL_RESILIENCE`` knob, so the plain serving path
stays bit-identical to the pre-resilience stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.resilience.breaker import BreakerSettings, TierBreaker
from repro.resilience.chaos import ChaosEvent
from repro.resilience.degrade import DegradationController, LadderSettings

#: tiers guarded by a circuit breaker (memo stays unguarded: a dict
#: probe has no failure mode worth a breaker in front of it)
GUARDED_TIERS = ("pool", "cascade", "diff")


class ResiliencePlane:
    """Per-tier breakers, the brownout ladder, and their accounting."""

    def __init__(
        self,
        breaker_settings: Optional[BreakerSettings] = None,
        ladder: "LadderSettings | DegradationController | None" = None,
    ) -> None:
        self.breakers: Dict[str, TierBreaker] = {
            tier: TierBreaker(tier, breaker_settings)
            for tier in GUARDED_TIERS
        }
        if isinstance(ladder, DegradationController):
            self.controller = ladder
        else:
            self.controller = DegradationController(ladder)
        #: chaos events observed firing during runs on this plane
        self.chaos_injected = 0
        self.chaos_faults: List[str] = []
        #: tier calls that raised and were absorbed (breaker food)
        self.tier_errors = 0
        #: requests shed by the ladder (drop-below-fold / shed levels),
        #: a subset of the ledger's ``shed`` column
        self.degraded_sheds = 0
        #: flushes routed in-process because the pool breaker was open
        self.pool_bypassed = 0
        #: flushes whose compute raised and settled as explicit failures
        self.failed_batches = 0

    def rebase(self, now_ms: float) -> None:
        """Re-anchor breaker cooldowns and the ladder dwell clock at
        the start of a run whose virtual clock restarted (each fleet
        epoch begins at zero; the plane carries over)."""
        for breaker in self.breakers.values():
            breaker.rebase(now_ms)
        self.controller.rebase(now_ms)

    def note_chaos(self, fired: List[ChaosEvent]) -> None:
        self.chaos_injected += len(fired)
        self.chaos_faults.extend(event.fault for event in fired)

    def breaker_trips(self) -> int:
        return sum(breaker.trips for breaker in self.breakers.values())

    def breaker_states(self) -> Dict[str, str]:
        return {name: b.state for name, b in self.breakers.items()}

    def describe(self) -> str:
        states = ", ".join(
            f"{name}={state}" for name, state in self.breaker_states().items()
        )
        return (
            f"level={self.controller.level_name}"
            f" transitions={len(self.controller.transitions)}"
            f" breakers[{states}]"
            f" chaos={self.chaos_injected}"
            f" tier_errors={self.tier_errors}"
        )
