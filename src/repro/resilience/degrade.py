"""SLO-driven graceful-degradation ladder for the serve loop.

Under sustained pressure the serving stack should shed *features*
before it sheds *requests*.  :class:`DegradationController` encodes
that policy as a ladder of named brownout levels, each strictly more
austere than the one above:

========  ==================  ============================================
level     name                effect on the serve stack
========  ==================  ============================================
0         normal              everything on
1         no-diff             snapshot/diff tier skipped
2         no-cascade          cascade rule tier (and its audits) skipped
3         drop-below-fold     below-the-fold requests shed at admission
4         shed                every queue-bound request shed (cheap
                              tiers that survive earlier levels may
                              still answer)
========  ==================  ============================================

Stepping down is triggered by an SLO breach — the configured percentile
of recent *computed* latencies over ``slo_ms``, or explicit pressure
(queue overflow shed, breaker trip).  Stepping back up requires the
same window comfortably under ``recover_headroom * slo_ms`` with no
pressure — the two-threshold hysteresis
:class:`~repro.serve.fleet.SLOPolicy` already uses, plus a minimum
dwell per level so the ladder cannot flap within one batch.

Every injected or shed feature moves *where or whether* work happens,
never a served P(ad) — disabling a tier falls back to the next tier's
bit-identical path, and ladder sheds are explicit ledger entries.

Like the rest of the serving layer the controller is pure: all methods
take ``now_ms``, nothing reads a wall clock, and a replay of the same
observation sequence produces the same transitions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List

import numpy as np

LEVELS = (
    "normal",
    "no-diff",
    "no-cascade",
    "drop-below-fold",
    "shed",
)


@dataclass(frozen=True)
class LadderSettings:
    """Breach/recovery thresholds of the degradation ladder."""

    #: total-latency SLO a computed request should meet
    slo_ms: float = 50.0
    #: percentile of the window the SLO is evaluated at
    percentile: float = 95.0
    #: rolling window of computed-request latencies
    window: int = 16
    #: samples required before the window may justify a transition
    min_samples: int = 4
    #: step up only while the percentile sits under this fraction of
    #: the SLO (hysteresis gap against flapping)
    recover_headroom: float = 0.5
    #: minimum time at a level before the next transition
    min_dwell_ms: float = 20.0

    def __post_init__(self) -> None:
        if self.slo_ms <= 0:
            raise ValueError("slo_ms must be > 0")
        if not 0 < self.percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if self.window < 1 or self.min_samples < 1:
            raise ValueError("window and min_samples must be >= 1")
        if not 0.0 < self.recover_headroom < 1.0:
            raise ValueError("recover_headroom must be in (0, 1)")
        if self.min_dwell_ms < 0:
            raise ValueError("min_dwell_ms must be >= 0")


@dataclass(frozen=True)
class LadderTransition:
    """One recorded ladder step (down = degrading, up = recovering)."""

    at_ms: float
    from_level: str
    to_level: str
    reason: str

    @property
    def direction(self) -> str:
        return (
            "down"
            if LEVELS.index(self.to_level) > LEVELS.index(self.from_level)
            else "up"
        )


class DegradationController:
    """Steps the serve stack through brownout levels and back."""

    def __init__(self, settings: LadderSettings | None = None) -> None:
        self.settings = settings or LadderSettings()
        self._level = 0
        self._samples: Deque[float] = deque(maxlen=self.settings.window)
        self._entered_at_ms = 0.0
        #: how far the dwell ledger has counted the current level
        self._booked_at_ms = 0.0
        #: the latest time ``evaluate``/``finalize`` was given
        self._now_ms = 0.0
        #: when the newest window sample was seen (stamped by the next
        #: ``evaluate`` after it arrived) — the window never ages out
        #: by itself, so recency is what distinguishes live evidence
        #: from a stale snapshot of the storm
        self._last_sample_ms = float("-inf")
        self._observed = 0
        self._stamped = 0
        self._pressure_reason = ""
        self.transitions: List[LadderTransition] = []
        #: virtual ms spent at each level (closed by ``finalize``)
        self.dwell_ms: Dict[str, float] = {name: 0.0 for name in LEVELS}

    # ------------------------------------------------------------------
    # Level flags the serve loop consults
    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        return self._level

    @property
    def level_name(self) -> str:
        return LEVELS[self._level]

    @property
    def diff_disabled(self) -> bool:
        return self._level >= 1

    @property
    def cascade_disabled(self) -> bool:
        return self._level >= 2

    @property
    def drop_below_fold(self) -> bool:
        return self._level >= 3

    @property
    def shed_all(self) -> bool:
        return self._level >= 4

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def observe_latency(self, total_ms: float) -> None:
        """One *computed* (lane-occupying) request's total latency.
        Tier hits answer in zero virtual time and are deliberately not
        fed here — they would dilute the window exactly when the
        compute path is drowning."""
        self._samples.append(float(total_ms))
        self._observed += 1

    def observe_pressure(self, reason: str) -> None:
        """An explicit breach signal: a queue-overflow shed, a breaker
        trip — consumed by the next ``evaluate``."""
        self._pressure_reason = reason or "pressure"

    # ------------------------------------------------------------------
    # The policy step
    # ------------------------------------------------------------------
    def evaluate(self, now_ms: float) -> bool:
        """Maybe take one ladder step at ``now_ms``; True on transition.

        Breach (pressure, or window percentile over the SLO) steps one
        level down; a comfortably healthy window — or, at a level where
        nothing computes anymore, a quiet double-dwell — steps one level
        up.  One step per call, ``min_dwell_ms`` apart.
        """
        self._now_ms = now_ms
        if self._observed > self._stamped:
            # samples arrived since the last evaluate: stamp them now
            # (at most one evaluate late — deterministic either way)
            self._last_sample_ms = now_ms
            self._stamped = self._observed
        if now_ms - self._entered_at_ms < self.settings.min_dwell_ms:
            return False
        settings = self.settings
        observed = None
        if len(self._samples) >= settings.min_samples:
            observed = float(
                np.percentile(list(self._samples), settings.percentile)
            )
        pressure = self._pressure_reason
        self._pressure_reason = ""
        if self._level < len(LEVELS) - 1:
            if pressure:
                return self._step(now_ms, +1, pressure)
            if observed is not None and observed > settings.slo_ms:
                return self._step(
                    now_ms,
                    +1,
                    f"p{settings.percentile:g}={observed:.1f}ms"
                    f" > slo {settings.slo_ms:g}ms",
                )
        if self._level > 0 and not pressure:
            if (
                observed is not None
                and observed <= settings.slo_ms * settings.recover_headroom
            ):
                return self._step(
                    now_ms,
                    -1,
                    f"p{settings.percentile:g}={observed:.1f}ms"
                    f" recovered",
                )
            if (
                now_ms - self._entered_at_ms
                >= 2.0 * settings.min_dwell_ms
                and now_ms - self._last_sample_ms
                >= 2.0 * settings.min_dwell_ms
            ):
                # nothing computed at this level for two dwell periods
                # (the window is empty or stale): the only way to learn
                # whether the storm passed is to step up and let work
                # flow again
                return self._step(now_ms, -1, "idle recovery probe")
        return False

    def finalize(self, now_ms: float) -> None:
        """Close the dwell ledger at the end of a run."""
        self.dwell_ms[self.level_name] += max(
            now_ms - self._booked_at_ms, 0.0
        )
        self._booked_at_ms = now_ms
        self._now_ms = now_ms

    def rebase(self, now_ms: float) -> None:
        """Re-anchor the clock for a run whose virtual clock restarted
        (fleet epochs each start at zero).  The old clock's last reading
        becomes ``now_ms`` and every anchor moves by that one offset, so
        the time already spent at the current level, and since the last
        sample, carries over, and the ledger neither loses nor re-counts
        any of it."""
        shift = now_ms - self._now_ms
        self._entered_at_ms += shift
        self._booked_at_ms += shift
        self._last_sample_ms += shift
        self._now_ms = now_ms

    def _step(self, now_ms: float, delta: int, reason: str) -> bool:
        previous = self.level_name
        self.dwell_ms[previous] += max(now_ms - self._booked_at_ms, 0.0)
        self._level += delta
        self._entered_at_ms = now_ms
        self._booked_at_ms = now_ms
        self._samples.clear()
        self.transitions.append(
            LadderTransition(
                at_ms=now_ms,
                from_level=previous,
                to_level=self.level_name,
                reason=reason,
            )
        )
        return True
