"""Deterministic fault injection for the serving stack.

A :class:`ChaosSchedule` is an immutable, time-sorted list of
:class:`ChaosEvent`\\ s — *planned* faults at virtual ticks, in the
same discrete-event style the serve loop itself runs on.  A schedule is
pure data; each replay obtains a fresh :class:`ChaosCursor` that walks
the events as the clock advances and applies them:

===============  =======================================================
fault            effect when fired
===============  =======================================================
worker-death     arms one pool worker to exit the next time it receives
                 a sub-batch — the parent sees EOF *mid-gather*, raises
                 ``WorkerPoolError``, and the blocker falls back
                 in-process (the deterministic mid-batch kill)
worker-stall     arms one worker to sleep past the pool timeout before
                 replying (slow-worker timeout path)
pipe-corrupt     makes one worker emit an unsolicited reply, so the
                 parent's next gather is out-of-sync and discards it
publish-fail     the pool's next weight publication raises, and its
                 published fingerprint reads unpublished until then
tier-outage      the named tier (``diff``/``cascade``/``memo``) answers
                 nothing for ``duration_ms`` from the event's tick
tier-error       the named tier's next serving call raises
                 :class:`ChaosInjectedError` (breaker food)
latency-spike    batch compute cost is multiplied by ``magnitude`` for
                 ``duration_ms`` from the event's tick
===============  =======================================================

None of these can change a served P(ad): pool faults reroute the same
batch through the in-process reference path, tier faults skip a cache
in front of that path, and latency spikes scale virtual time only.
What they *do* change is where work happens, when it completes, and —
through the degradation ladder — whether low-priority work is shed,
all of which the conservation ledger accounts for explicitly.

Durations and spike windows anchor on the event's ``at_ms``, not on
the moment the cursor happens to observe it, so a clock that jumps
straight past a short outage correctly sees it already expired.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

FAULT_WORKER_DEATH = "worker-death"
FAULT_WORKER_STALL = "worker-stall"
FAULT_PIPE_CORRUPT = "pipe-corrupt"
FAULT_PUBLISH_FAIL = "publish-fail"
FAULT_TIER_OUTAGE = "tier-outage"
FAULT_TIER_ERROR = "tier-error"
FAULT_LATENCY_SPIKE = "latency-spike"

FAULTS = frozenset(
    {
        FAULT_WORKER_DEATH,
        FAULT_WORKER_STALL,
        FAULT_PIPE_CORRUPT,
        FAULT_PUBLISH_FAIL,
        FAULT_TIER_OUTAGE,
        FAULT_TIER_ERROR,
        FAULT_LATENCY_SPIKE,
    }
)

#: tiers a tier-outage / tier-error may target
TIER_TARGETS = ("diff", "cascade", "memo")


class ChaosInjectedError(RuntimeError):
    """A deliberately injected tier failure (never a real defect)."""


@dataclass(frozen=True)
class ChaosEvent:
    """One planned fault at a virtual tick."""

    at_ms: float
    fault: str
    #: fault-specific: a tier name for tier faults, a worker index
    #: (as a string) for pool faults, unused otherwise
    target: str = ""
    #: window length for tier-outage / latency-spike
    duration_ms: float = 0.0
    #: compute-cost multiplier for latency-spike
    magnitude: float = 4.0

    def __post_init__(self) -> None:
        if self.fault not in FAULTS:
            raise ValueError(f"unknown chaos fault {self.fault!r}")
        if self.at_ms < 0:
            raise ValueError("at_ms must be >= 0")
        if self.duration_ms < 0:
            raise ValueError("duration_ms must be >= 0")
        if self.magnitude <= 0:
            raise ValueError("magnitude must be > 0")
        if self.fault in (FAULT_TIER_OUTAGE, FAULT_TIER_ERROR):
            if self.target not in TIER_TARGETS:
                raise ValueError(
                    f"{self.fault} target must be one of {TIER_TARGETS},"
                    f" got {self.target!r}"
                )

    @property
    def worker_index(self) -> int:
        """Pool-fault worker index (defaults to worker 0)."""
        try:
            return int(self.target or 0)
        except ValueError:
            return 0

    def describe(self) -> str:
        parts = [f"t={self.at_ms:g}ms {self.fault}"]
        if self.target:
            parts.append(f"target={self.target}")
        if self.duration_ms:
            parts.append(f"for {self.duration_ms:g}ms")
        if self.fault == FAULT_LATENCY_SPIKE:
            parts.append(f"x{self.magnitude:g}")
        return " ".join(parts)


class ChaosSchedule:
    """Immutable, sorted fault plan; ``cursor()`` per replay."""

    def __init__(self, events: Sequence[ChaosEvent]) -> None:
        self.events: Tuple[ChaosEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.at_ms, e.fault, e.target))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ChaosEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ChaosSchedule) and self.events == other.events
        )

    def __hash__(self) -> int:
        return hash(self.events)

    def cursor(self) -> "ChaosCursor":
        """A fresh per-replay walker over the schedule."""
        return ChaosCursor(self.events)

    def describe(self) -> str:
        if not self.events:
            return "chaos schedule: (empty)"
        lines = "\n".join(f"  {event.describe()}" for event in self.events)
        return f"chaos schedule ({len(self.events)} events):\n{lines}"

    @classmethod
    def seeded(
        cls,
        seed: int,
        horizon_ms: float = 160.0,
        events: int = 8,
    ) -> "ChaosSchedule":
        """A deterministic pseudo-random fault mix over ``horizon_ms``.

        The same seed always yields the same schedule — this is what
        ``PERCIVAL_CHAOS=<seed>`` resolves to, and what the CI chaos
        leg replays against fault-free goldens.
        """
        if events < 0:
            raise ValueError("events must be >= 0")
        if horizon_ms <= 0:
            raise ValueError("horizon_ms must be > 0")
        rng = random.Random(int(seed))
        faults = sorted(FAULTS)
        planned: List[ChaosEvent] = []
        for _ in range(int(events)):
            fault = rng.choice(faults)
            at_ms = round(rng.uniform(0.0, horizon_ms), 1)
            if fault in (FAULT_TIER_OUTAGE, FAULT_TIER_ERROR):
                target = rng.choice(TIER_TARGETS)
            elif fault in (
                FAULT_WORKER_DEATH,
                FAULT_WORKER_STALL,
                FAULT_PIPE_CORRUPT,
            ):
                target = str(rng.randrange(4))
            else:
                target = ""
            duration_ms = (
                round(rng.uniform(horizon_ms * 0.05, horizon_ms * 0.25), 1)
                if fault in (FAULT_TIER_OUTAGE, FAULT_LATENCY_SPIKE)
                else 0.0
            )
            magnitude = (
                round(rng.uniform(2.0, 8.0), 2)
                if fault == FAULT_LATENCY_SPIKE
                else 1.0
            )
            planned.append(
                ChaosEvent(
                    at_ms=at_ms,
                    fault=fault,
                    target=target,
                    duration_ms=duration_ms,
                    magnitude=magnitude,
                )
            )
        return cls(planned)


class ChaosCursor:
    """Walks one replay through a schedule as its clock advances.

    The serve loop folds :meth:`next_at_ms` into its discrete-event
    candidates and calls :meth:`fire_due` once per iteration, so faults
    land at their planned virtual tick even between arrivals.  Pool
    faults are applied to the attached pool immediately (armed on the
    worker, fired on its next dispatch); tier faults and spikes are
    windows/flags the loop polls via :meth:`tier_out`,
    :meth:`take_tier_error`, and :meth:`latency_multiplier`.
    """

    def __init__(self, events: Sequence[ChaosEvent]) -> None:
        self._events = tuple(events)
        self._index = 0
        #: tier -> outage end (anchored on the event's at_ms)
        self._outages: Dict[str, float] = {}
        #: armed one-shot tier errors, consumed at the next tier call
        self._armed_errors: Dict[str, int] = {}
        #: (spike end, magnitude) windows
        self._spikes: List[Tuple[float, float]] = []
        #: every event fired so far, in firing order
        self.fired: List[ChaosEvent] = []

    def next_at_ms(self) -> Optional[float]:
        if self._index >= len(self._events):
            return None
        return self._events[self._index].at_ms

    def fire_due(
        self, now_ms: float, pool: object = None
    ) -> List[ChaosEvent]:
        """Fire every event with ``at_ms <= now_ms``; returns them."""
        fired: List[ChaosEvent] = []
        while (
            self._index < len(self._events)
            and self._events[self._index].at_ms <= now_ms
        ):
            event = self._events[self._index]
            self._index += 1
            self._apply(event, pool)
            fired.append(event)
            self.fired.append(event)
        return fired

    # ------------------------------------------------------------------
    # Poll surface for the serve loop
    # ------------------------------------------------------------------
    def tier_out(self, tier: str, now_ms: float) -> bool:
        until = self._outages.get(tier)
        return until is not None and now_ms < until

    def take_tier_error(self, tier: str) -> bool:
        """Consume one armed tier error, if any."""
        armed = self._armed_errors.get(tier, 0)
        if armed <= 0:
            return False
        self._armed_errors[tier] = armed - 1
        return True

    def latency_multiplier(self, now_ms: float) -> float:
        """Compute-cost multiplier of the spikes active at ``now_ms``
        (overlapping spikes take the worst one, they do not compound)."""
        self._spikes = [s for s in self._spikes if s[0] > now_ms]
        if not self._spikes:
            return 1.0
        return max(magnitude for _, magnitude in self._spikes)

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _apply(self, event: ChaosEvent, pool: object) -> None:
        if event.fault == FAULT_TIER_OUTAGE:
            until = event.at_ms + event.duration_ms
            self._outages[event.target] = max(
                self._outages.get(event.target, 0.0), until
            )
        elif event.fault == FAULT_TIER_ERROR:
            self._armed_errors[event.target] = (
                self._armed_errors.get(event.target, 0) + 1
            )
        elif event.fault == FAULT_LATENCY_SPIKE:
            self._spikes.append(
                (event.at_ms + event.duration_ms, event.magnitude)
            )
        elif event.fault == FAULT_WORKER_DEATH:
            arm = getattr(pool, "chaos_arm_worker_death", None)
            if arm is not None:
                arm(event.worker_index)
        elif event.fault == FAULT_WORKER_STALL:
            arm = getattr(pool, "chaos_arm_worker_stall", None)
            if arm is not None:
                arm(event.worker_index)
        elif event.fault == FAULT_PIPE_CORRUPT:
            corrupt = getattr(pool, "chaos_corrupt_pipe", None)
            if corrupt is not None:
                corrupt(event.worker_index)
        elif event.fault == FAULT_PUBLISH_FAIL:
            fail = getattr(pool, "chaos_fail_next_publish", None)
            if fail is not None:
                fail()
