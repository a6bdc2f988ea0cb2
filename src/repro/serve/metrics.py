"""Serving-layer latency and throughput accounting.

Per-request latency is split into the two components that matter for
tuning the micro-batcher: **queue wait** (arrival → flush; grows with
``max_wait_ms`` and shrinks with traffic, because full batches flush
early) and **service** (flush → answer; batch compute plus any time
spent queued behind an earlier batch on the compute lane).  Batch-level
stats record how well coalescing is doing: mean batch size, riders
(fingerprint-coalesced duplicates), and the pool capacity observed at
each flush.

All percentiles are computed on demand from the raw samples — serving
simulations are small enough that exact percentiles beat streaming
sketches on both precision and code size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.eval.reporting import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cascade.router import CascadeStats
    from repro.diff.differ import DiffStats
    from repro.resilience.plane import ResiliencePlane


class LatencySummary:
    """Accumulates latency samples; exact percentiles on demand."""

    def __init__(self) -> None:
        self._samples: List[float] = []

    def add(self, value_ms: float) -> None:
        if value_ms < 0:
            raise ValueError("latency samples cannot be negative")
        self._samples.append(float(value_ms))

    @property
    def count(self) -> int:
        return len(self._samples)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0-100) of the samples; 0.0 when no
        samples have been recorded yet."""
        if not self._samples:
            return 0.0
        return float(np.percentile(self._samples, p))

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return float(np.mean(self._samples))

    @property
    def max(self) -> float:
        if not self._samples:
            return 0.0
        return float(np.max(self._samples))


@dataclass
class ServeStats:
    """Aggregate outcome of a serving run (simulated or real)."""

    submitted: int = 0
    answered: int = 0
    shed: int = 0
    #: requests whose batch's classification raised after it was popped
    #: (the asyncio front's awaiters receive the exception; a guarded
    #: simulator settles them ``failed=True``)
    failed: int = 0
    #: answered from the session's page snapshot (diff tier), before
    #: the request's bitmap was even fingerprinted
    diff_hits: int = 0
    #: answered by a cascade rule tier, bypassing memo and queue both
    rule_hits: int = 0
    #: answered straight from the shared memo, bypassing the queue
    memo_hits: int = 0
    #: duplicate-fingerprint requests that rode along with a queued
    #: leader instead of occupying their own batch slot
    coalesced: int = 0
    batches: int = 0
    #: sum of *unique* requests across flushed batches
    batched_requests: int = 0
    #: virtual compute lanes the run was simulated with (1 = the
    #: serializing pre-lane loop; the asyncio front always reports 1)
    lanes: int = 1
    #: worker-pool capacity observed at each flush (0 = in-process)
    capacity_samples: List[int] = field(default_factory=list)
    #: virtual ms each lane spent computing, keyed by lane index —
    #: utilization skew here means arrivals never overlapped enough to
    #: fill the later lanes
    lane_busy_ms: Dict[int, float] = field(default_factory=dict)
    queue_wait_ms: LatencySummary = field(default_factory=LatencySummary)
    service_ms: LatencySummary = field(default_factory=LatencySummary)
    total_ms: LatencySummary = field(default_factory=LatencySummary)
    #: queue wait split by priority class — the whole point of priority
    #: lanes is that this distribution differs across classes while the
    #: conservation law stays priority-blind
    queue_wait_by_priority: Dict[int, LatencySummary] = field(
        default_factory=dict
    )
    #: router-side cascade accounting, attached when a run serves with
    #: the confidence router enabled (None = cascade off)
    cascade: Optional["CascadeStats"] = None
    #: differ-side accounting, attached when a run serves with the
    #: snapshot/diff layer enabled (None = diff off)
    diff: Optional["DiffStats"] = None
    #: the live resilience plane (breakers + degradation ladder),
    #: attached when a run serves with resilience enabled (None = off)
    resilience: Optional["ResiliencePlane"] = None
    #: tier calls (recall, route, feedback) that raised and were
    #: absorbed instead of taking the request or the flush down
    tier_errors: int = 0

    def record_latency(
        self,
        arrival_ms: float,
        flush_ms: float,
        complete_ms: float,
        priority: int,
    ) -> None:
        """One answered request's queue wait (overall and in its
        priority class), service time and total."""
        wait_ms = flush_ms - arrival_ms
        self.queue_wait_ms.add(wait_ms)
        self.service_ms.add(complete_ms - flush_ms)
        self.total_ms.add(complete_ms - arrival_ms)
        summary = self.queue_wait_by_priority.get(priority)
        if summary is None:
            summary = self.queue_wait_by_priority[priority] = LatencySummary()
        summary.add(wait_ms)

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return self.batched_requests / self.batches

    def conserved(self) -> bool:
        """The serving conservation law: every submitted request was
        answered, explicitly shed, or explicitly failed — nothing lost,
        nothing invented."""
        return self.submitted == self.answered + self.shed + self.failed

    def to_table(self, title: str = "Serving metrics") -> str:
        rows = [
            ("requests submitted", self.submitted),
            ("requests answered", self.answered),
            ("requests shed (backpressure)", self.shed),
            ("requests failed (batch error)", self.failed),
            ("diff hits (snapshot verdict, no hash)", self.diff_hits),
            ("rule hits (cascade, no queue entry)", self.rule_hits),
            ("memo hits (no queue entry)", self.memo_hits),
            ("coalesced duplicates", self.coalesced),
            ("batches flushed", self.batches),
            ("mean batch size", f"{self.mean_batch_size:.2f}"),
            ("compute lanes", self.lanes),
            ("lane busy (ms)",
             " / ".join(
                 f"{self.lane_busy_ms.get(lane, 0.0):.1f}"
                 for lane in range(self.lanes)
             )),
            ("queue wait p50/p95/p99 (ms)",
             f"{self.queue_wait_ms.p50:.2f} / {self.queue_wait_ms.p95:.2f}"
             f" / {self.queue_wait_ms.p99:.2f}"),
            ("service p50/p95/p99 (ms)",
             f"{self.service_ms.p50:.2f} / {self.service_ms.p95:.2f}"
             f" / {self.service_ms.p99:.2f}"),
            ("total p50/p95/p99 (ms)",
             f"{self.total_ms.p50:.2f} / {self.total_ms.p95:.2f}"
             f" / {self.total_ms.p99:.2f}"),
        ]
        for priority in sorted(self.queue_wait_by_priority):
            summary = self.queue_wait_by_priority[priority]
            rows.append(
                (f"queue wait p50/p99 (ms) [prio {priority}]",
                 f"{summary.p50:.2f} / {summary.p99:.2f}"),
            )
        if self.cascade is not None:
            residual = (
                self.batched_requests / self.answered
                if self.answered
                else 0.0
            )
            rows.extend([
                ("cascade micro-rule hits", self.cascade.micro_hits),
                ("cascade filterlist hits", self.cascade.list_hits),
                ("cascade audits (model verify)", self.cascade.audits),
                ("cascade rules compiled", self.cascade.compiled),
                ("cascade rules invalidated", self.cascade.invalidations),
                ("cascade invalidations audit/shadow",
                 f"{self.cascade.audit_invalidations} / "
                 f"{self.cascade.shadow_invalidations}"),
                ("residual CNN fraction", f"{residual:.3f}"),
            ])
        if self.diff is not None:
            rows.extend([
                ("diff recalls (probe/hit)",
                 f"{self.diff.recalls} / {self.diff.recall_hits}"),
                ("diff regions remembered", self.diff.remembered),
            ])
        if self.resilience is not None:
            plane = self.resilience
            controller = plane.controller
            states = " / ".join(
                f"{name}={state}"
                for name, state in plane.breaker_states().items()
            )
            dwell = " / ".join(
                f"{name}={controller.dwell_ms[name]:.1f}"
                for name in controller.dwell_ms
                if controller.dwell_ms[name] > 0.0
            ) or "normal=0.0"
            rows.extend([
                ("brownout level", controller.level_name),
                ("ladder transitions (down/up)",
                 f"{sum(1 for t in controller.transitions if t.direction == 'down')}"
                 f" / "
                 f"{sum(1 for t in controller.transitions if t.direction == 'up')}"),
                ("brownout dwell (ms)", dwell),
                ("breaker states", states),
                ("breaker trips", plane.breaker_trips()),
                ("chaos events injected", plane.chaos_injected),
                ("tier errors absorbed", self.tier_errors),
                ("ladder sheds (of shed)", plane.degraded_sheds),
                ("pool flushes bypassed (breaker)", plane.pool_bypassed),
                ("failed batches", plane.failed_batches),
            ])
        table = format_table(("metric", "value"), rows)
        return f"{title}\n{table}"
