"""Fleet-scale serving simulation: diurnal traffic + SLO autoscaling.

PERCIVAL's deployment story is millions of browsers feeding shared
infrastructure, and real ad traffic is neither flat nor uniform: load
swells and ebbs over the day, and at peak a handful of *hot creatives*
(the campaign everyone is being shown) dominate the stream.  This
module replays that shape through the deterministic
:class:`~repro.serve.loop.ServeLoop` one **epoch** at a time and lets an
SLO policy react between epochs — exactly the observe/decide/act cadence
of a production autoscaler, compressed into virtual time.

Per epoch the simulator:

1. synthesizes traffic from the epoch's point on the diurnal curve —
   session count interpolates ``base_sessions → peak_sessions`` on a
   raised-cosine day, and the shared-creative fraction grows with
   ``hot_creative_bias`` toward the peak (hot creatives make memo/
   coalescing *more* effective exactly when load is worst, which is the
   paper's cross-session memoization argument at fleet scale);
2. replays it through a :class:`ServeLoop` pinned to the current lane
   count (and, when the blocker holds a resizable worker pool, resizes
   the pool to match — lanes model capacity, the pool provides it);
3. hands the epoch's :class:`~repro.serve.metrics.ServeStats` to the
   :class:`SLOPolicy`, which scales lanes up on a p99 or shed breach
   and down when the tail has ample headroom.

Everything is seeded: epoch ``e`` of a spec synthesizes from
``spec.seed + e``, so a fleet replay is bit-identical run to run — the
property the test suite pins.  Conservation is checked per epoch and
aggregated: scaling may move the tail, it may never lose a request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from repro.core.blocker import PercivalBlocker
from repro.core.config import ServeSettings
from repro.eval.reporting import format_table
from repro.serve.loop import ServeLoop, ServeReport
from repro.serve.session import TrafficSpec, synthesize_traffic
from repro.serve.tiers import resolve_tiers


@dataclass(frozen=True)
class SLOPolicy:
    """Reactive lane autoscaling against a latency/shed SLO.

    The classic two-threshold controller: scale up one lane when the
    observed p99 total latency breaches ``p99_target_ms`` or any
    request shed; scale down one lane when p99 sits below
    ``scale_down_headroom`` of the target *and* nothing shed — the gap
    between the thresholds is the hysteresis that keeps the fleet from
    flapping.  One step per epoch, clamped to ``[min_lanes,
    max_lanes]``.
    """

    p99_target_ms: float = 25.0
    #: scale down only while p99 < headroom * target (and no sheds)
    scale_down_headroom: float = 0.4
    min_lanes: int = 1
    max_lanes: int = 8

    def __post_init__(self) -> None:
        if self.p99_target_ms <= 0:
            raise ValueError("p99_target_ms must be > 0")
        if not 0.0 < self.scale_down_headroom < 1.0:
            raise ValueError("scale_down_headroom must be in (0, 1)")
        if not 1 <= self.min_lanes <= self.max_lanes:
            raise ValueError("need 1 <= min_lanes <= max_lanes")

    def next_lanes(self, current: int, p99_ms: float, shed: int) -> int:
        """The lane count for the next epoch given this epoch's tail."""
        if shed > 0 or p99_ms > self.p99_target_ms:
            proposed = current + 1
        elif p99_ms < self.p99_target_ms * self.scale_down_headroom:
            proposed = current - 1
        else:
            proposed = current
        return min(max(proposed, self.min_lanes), self.max_lanes)


@dataclass(frozen=True)
class FleetSpec:
    """Shape of a simulated traffic day."""

    #: epochs per replay (one autoscaler observe/act step each)
    epochs: int = 8
    #: concurrent sessions in the quietest epoch
    base_sessions: int = 4
    #: concurrent sessions at the diurnal peak
    peak_sessions: int = 16
    frames_per_session: int = 8
    #: how much the shared-creative fraction grows at peak: at the top
    #: of the curve ``duplicate_fraction`` rises by this much (capped
    #: at 0.9) — the "everyone sees the hot campaign" skew
    hot_creative_bias: float = 0.3
    #: traffic template; per-epoch session count, duplicate fraction,
    #: and seed are derived from it (its own sessions field is ignored)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 1 <= self.base_sessions <= self.peak_sessions:
            raise ValueError("need 1 <= base_sessions <= peak_sessions")
        if self.frames_per_session < 1:
            raise ValueError("frames_per_session must be >= 1")
        if self.hot_creative_bias < 0:
            raise ValueError("hot_creative_bias must be >= 0")

    def diurnal_multiplier(self, epoch: int) -> float:
        """Position on the raised-cosine day curve, in ``[0, 1]``:
        0 at the quiet edges of the day, 1 at the peak epoch."""
        if self.epochs == 1:
            return 1.0
        return 0.5 * (1.0 - math.cos(2.0 * math.pi * epoch / self.epochs))

    def epoch_traffic(self, epoch: int) -> TrafficSpec:
        """The fully-derived traffic spec for ``epoch``."""
        load = self.diurnal_multiplier(epoch)
        sessions = round(
            self.base_sessions
            + (self.peak_sessions - self.base_sessions) * load
        )
        duplicate = min(
            self.traffic.duplicate_fraction
            + self.hot_creative_bias * load,
            0.9,
        )
        return replace(
            self.traffic,
            sessions=max(int(sessions), 1),
            frames_per_session=self.frames_per_session,
            duplicate_fraction=duplicate,
            seed=self.seed + epoch,
        )


@dataclass
class EpochReport:
    """One autoscaler step: the traffic it saw and what it decided."""

    epoch: int
    sessions: int
    offered: int
    lanes: int
    p99_ms: float
    queue_wait_p99_ms: float
    answered: int
    shed: int
    makespan_ms: float
    #: lane count the policy chose for the NEXT epoch
    next_lanes: int
    report: ServeReport
    #: degradation-ladder level at the end of the epoch ("" when the
    #: resilience plane is off)
    brownout_level: str = ""
    #: ladder transitions (down and up) recorded during this epoch
    ladder_transitions: int = 0


@dataclass
class FleetReport:
    """A full simulated day: per-epoch tails plus fleet-wide totals."""

    epochs: List[EpochReport]
    policy: SLOPolicy

    @property
    def offered(self) -> int:
        return sum(e.offered for e in self.epochs)

    @property
    def answered(self) -> int:
        return sum(e.answered for e in self.epochs)

    @property
    def shed(self) -> int:
        return sum(e.shed for e in self.epochs)

    def conserved(self) -> bool:
        """Fleet-wide conservation: scaling decisions may move the
        tail; they may never lose or invent a request."""
        return all(e.report.stats.conserved() for e in self.epochs)

    @property
    def peak_p99_ms(self) -> float:
        return max((e.p99_ms for e in self.epochs), default=0.0)

    @property
    def peak_lanes(self) -> int:
        return max((e.lanes for e in self.epochs), default=0)

    def to_table(self, title: str = "Fleet replay (SLO autoscaler)") -> str:
        rows = [
            (
                str(e.epoch),
                str(e.sessions),
                str(e.offered),
                str(e.lanes),
                f"{e.p99_ms:.2f}",
                f"{e.queue_wait_p99_ms:.2f}",
                str(e.shed),
                str(e.next_lanes),
            )
            for e in self.epochs
        ]
        table = format_table(
            (
                "epoch", "sessions", "offered", "lanes",
                "p99 ms", "qwait p99", "shed", "→ lanes",
            ),
            rows,
        )
        footer = (
            f"offered={self.offered} answered={self.answered} "
            f"shed={self.shed} conserved={self.conserved()} "
            f"peak p99={self.peak_p99_ms:.2f} ms "
            f"(target {self.policy.p99_target_ms:.0f} ms)"
        )
        ladder = sum(e.ladder_transitions for e in self.epochs)
        if ladder or any(e.brownout_level for e in self.epochs):
            levels = " ".join(
                e.brownout_level or "normal" for e in self.epochs
            )
            footer += (
                f"\nbrownout: {ladder} ladder transitions;"
                f" per-epoch levels: {levels}"
            )
        return f"{title}\n{table}\n{footer}"


class FleetSimulator:
    """Replays a diurnal traffic day with SLO-driven lane scaling.

    Deterministic end to end: traffic is seeded per epoch, the serve
    loop is a virtual-clock DES, and the policy is a pure function of
    observed stats — so two runs of the same spec produce identical
    epoch tables, which is what lets a fleet replay serve as a
    regression artifact rather than a demo.
    """

    def __init__(
        self,
        blocker: PercivalBlocker,
        settings: Optional[ServeSettings] = None,
        policy: Optional[SLOPolicy] = None,
        compute_model: Optional[Callable[[int], float]] = None,
        initial_lanes: int = 1,
        cascade: "object | None | bool" = None,
        chaos: "object | None | bool" = None,
        resilience: "object | None | bool" = None,
    ) -> None:
        if initial_lanes < 1:
            raise ValueError("initial_lanes must be >= 1")
        self.blocker = blocker
        self.settings = settings or ServeSettings()
        self.policy = policy or SLOPolicy()
        self.compute_model = compute_model
        self.initial_lanes = initial_lanes
        # Every tier resolves once and is shared by every epoch's
        # ServeLoop.  The compiled rule cache (and its quarantine) and
        # the diff snapshots persist across the whole simulated day —
        # rules learned at dawn serve the peak; the same seeded chaos
        # schedule replays inside every epoch (each run walks it with a
        # fresh cursor over its own clock); and breakers tripped at the
        # peak stay tripped into the next epoch, with the dwell ledger
        # spanning the whole replay.  The differ has no constructor
        # argument here: the blocker's config and PERCIVAL_DIFF decide.
        self.cascade, self.differ, self.chaos, self.resilience = (
            resolve_tiers(
                blocker.classifier.config,
                cascade, None, chaos, resilience,
            )
        )

    def run(self, spec: Optional[FleetSpec] = None) -> FleetReport:
        spec = spec or FleetSpec()
        lanes = min(
            max(self.initial_lanes, self.policy.min_lanes),
            self.policy.max_lanes,
        )
        epochs: List[EpochReport] = []
        for epoch in range(spec.epochs):
            traffic = spec.epoch_traffic(epoch)
            if self.cascade is not None and not traffic.provenance:
                # provenance rides a separate RNG stream, so switching
                # it on leaves the bitmap/arrival trace untouched
                traffic = replace(traffic, provenance=True)
            events = synthesize_traffic(traffic)
            self._resize_pool(lanes)
            transitions_before = (
                len(self.resilience.controller.transitions)
                if self.resilience is not None
                else 0
            )
            loop = ServeLoop(
                self.blocker,
                # pin the epoch's lane count: the policy, not the
                # environment, is the authority during a fleet replay
                replace(self.settings, lanes=lanes),
                compute_model=self.compute_model,
                # `or False`: a resolved None must stay off inside the
                # epoch loop even if the environment knob flips mid-run
                cascade=self.cascade or False,
                differ=self.differ or False,
                chaos=self.chaos or False,
                resilience=self.resilience or False,
            )
            report = loop.run(events)
            stats = report.stats
            p99 = stats.total_ms.p99
            next_lanes = self.policy.next_lanes(lanes, p99, stats.shed)
            epochs.append(
                EpochReport(
                    epoch=epoch,
                    sessions=traffic.sessions,
                    offered=stats.submitted,
                    lanes=lanes,
                    p99_ms=p99,
                    queue_wait_p99_ms=stats.queue_wait_ms.p99,
                    answered=stats.answered,
                    shed=stats.shed,
                    makespan_ms=report.makespan_ms,
                    next_lanes=next_lanes,
                    report=report,
                    brownout_level=(
                        self.resilience.controller.level_name
                        if self.resilience is not None
                        else ""
                    ),
                    ladder_transitions=(
                        len(self.resilience.controller.transitions)
                        - transitions_before
                        if self.resilience is not None
                        else 0
                    ),
                )
            )
            lanes = next_lanes
        return FleetReport(epochs=epochs, policy=self.policy)

    def _resize_pool(self, lanes: int) -> None:
        """Keep the worker pool's capacity in step with the lane count.

        Lanes are the model of capacity; the pool is the capacity.  A
        resize failure (e.g. mid-dispatch) downgrades to the current
        size rather than aborting the replay — the blocker would fall
        back in-process on pool trouble anyway, never mis-classify.
        """
        pool = self.blocker.pool
        resize = getattr(pool, "resize", None)
        if pool is None or resize is None:
            return
        try:
            resize(lanes)
        except Exception:
            pass
