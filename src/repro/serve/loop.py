"""The serving layer: deterministic simulation loop + asyncio front door.

Two drivers share the same :class:`~repro.serve.queue.BatchQueue`,
memoization contract, and metrics:

* :class:`ServeLoop` — a **deterministic** discrete-event simulator on a
  :class:`~repro.utils.clock.VirtualClock` (the same device the
  renderer's ``WorkerLanes`` use).  Classification is *real* — every
  flush calls ``PercivalBlocker.decide_many``, which may scatter across
  the worker pool — but time is virtual, so latency distributions,
  backpressure behaviour, and failure injections replay bit-identically
  run after run.  This is what the property/fault harness and the
  ``serve-sim`` CLI drive.
* :class:`AsyncServeFront` — the ``asyncio`` front door for real
  concurrent callers: ``await front.submit(bitmap)`` resolves to a
  :class:`~repro.core.blocker.BlockDecision` once the request's batch
  flushes.  Its one compute lane is the event-loop thread, so it is
  work-conserving: every enqueue schedules a flush for the loop's next
  idle turn, which drains the queue in batches of at most
  ``max_batch``.  ``max_wait_ms`` shapes the simulator's schedule; in
  the front it is an upper bound an idle loop never reaches.

Compute is modelled as a set of **lanes**.  The simulator sizes the set
from the attached worker pool's capacity (override:
``ServeSettings.lanes`` / ``PERCIVAL_SERVE_LANES``), and a due batch
dispatches as soon as *any* lane is free — so a 2-worker pool really
does overlap two flushes in virtual time instead of serializing them
behind one scalar.  Dispatch tie-breaks on the lowest free lane index,
which keeps the discrete-event schedule fully deterministic; one lane
reproduces the pre-lane serializing loop exactly.

Both drivers serve through one :class:`~repro.serve.tiers.TierChain`
(as does the renderer's bridge), so they resolve duplicate work the
same way, without spending compute on it.  With a :class:`~repro.cascade.CascadeRouter` attached (``cascade=`` /
the ``PERCIVAL_CASCADE`` knob), a request carrying frame provenance is
first offered to the **cascade rule tiers** — a structural verdict
(compiled micro-rule or corroborated filterlist match) answers at
arrival without a memo probe, a queue entry, or lane time, and rule
predictions under audit carry a ticket down the normal path so the
model verdict heals the rule.  Then the classic tiers: a fingerprint
that hits the blocker's **memo** is answered immediately and never
enters the queue (cross-session sharing — the paper's memoized
deployment, lifted above the page), and a fingerprint already
**queued** coalesces onto the queued request as a rider, sharing its
verdict without consuming queue depth or a batch slot.  With a
:class:`~repro.diff.FrameDiffer` attached (``differ=`` / the
``PERCIVAL_DIFF`` knob), one more tier runs in front of all of these:
a request whose ``(session, page, url, content_key)`` matches the
session's stored page snapshot inherits the snapshot's verdict before
the bitmap is even fingerprinted — the O(delta) revisit path.  Tier
order is diff-hit → rule-hit → memo-hit → coalesce → queue; with the
cascade and differ off nothing changes, bit for bit.

Admission control is explicit: a full queue sheds the request — the
simulator records it, the asyncio front raises
:class:`ServeOverloadError` — so overload degrades visibly instead of
growing an unbounded queue.

Both drivers also host the **resilience plane**
(:mod:`repro.resilience`): a seeded chaos schedule (``chaos=`` / the
``PERCIVAL_CHAOS`` knob) injects worker death, tier outages, and
latency spikes at planned virtual ticks; per-tier circuit breakers
stop consulting a failing tier; and the SLO-driven degradation ladder
browns features out (no diff → no cascade → drop below-fold) before
it sheds every queue-bound request.  The standing invariant is the
same one the speed tiers obey: a fault moves *where or whether* work
happens, never the value of a served P(ad), and the conservation
ledger (submitted = answered + shed + failed) balances under every
schedule.  With chaos and resilience off (the default) nothing
changes, bit for bit.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cascade.provenance import FrameProvenance
from repro.cascade.router import CascadeRouter
from repro.core.blocker import BlockDecision, PercivalBlocker
from repro.core.config import ServeSettings, knob
from repro.diff.differ import FrameDiffer
from repro.resilience.chaos import ChaosSchedule
from repro.resilience.plane import ResiliencePlane
from repro.serve.metrics import ServeStats
from repro.serve.queue import PRIORITY_VIEWPORT, BatchQueue, ServeRequest
from repro.serve.tiers import TierChain, _pool_capacity, resolve_tiers
from repro.utils.clock import VirtualClock


class ServeOverloadError(RuntimeError):
    """The request was shed at admission: queue depth is at its bound.

    Explicit backpressure — callers decide whether to retry, degrade
    (render without a verdict, as async mode already does), or surface
    the overload.  The serving layer never queues unboundedly and never
    drops a request silently.
    """


class ServeClosedError(RuntimeError):
    """The front door was closed; the request was never admitted.

    Raised by :meth:`AsyncServeFront.submit` after :meth:`aclose` — a
    closed front has drained its queue and cancelled its scheduled flush,
    so admitting more work could only hang the caller.
    """


@dataclass(frozen=True)
class ArrivalEvent:
    """One simulated request: a frame from a page session."""

    at_ms: float
    session_id: str
    bitmap: np.ndarray
    #: scheduling class (see :mod:`repro.serve.queue`): viewport frames
    #: outrank below-the-fold frames at every pop, subject to aging
    priority: int = PRIORITY_VIEWPORT
    #: renderer-side frame context for the cascade's rule tiers; None
    #: (or a disabled cascade) routes straight to the memo/queue path
    provenance: Optional[FrameProvenance] = None
    #: pre-decode content hash of the frame's encoded bytes; with a
    #: differ attached, the session's page snapshot can answer a
    #: ``(url, content_key)`` revisit before the bitmap is ever
    #: fingerprinted.  "" (or no provenance) skips the diff tier.
    content_key: str = ""


@dataclass
class ServeResult:
    """Outcome of one simulated request."""

    request_id: int
    session_id: str
    key: str
    arrival_ms: float
    priority: int = PRIORITY_VIEWPORT
    decision: Optional[BlockDecision] = None
    shed: bool = False
    #: the request's batch was popped but its classification raised:
    #: settled exactly once with an explicit error, never silently lost
    failed: bool = False
    memo_hit: bool = False
    #: answered by the session's page snapshot (diff tier): the stored
    #: verdict settled the request before fingerprinting — ``key`` is
    #: empty for these, no pixel hash was ever computed
    diff_hit: bool = False
    #: answered by a cascade rule tier (no fingerprint, no memo probe,
    #: no batch slot, no lane time — ``key`` is empty for these too);
    #: ``rule_tier`` names which tier ("micro"/"list")
    rule_hit: bool = False
    rule_tier: str = ""
    #: rode along with an identical queued fingerprint (no batch slot)
    coalesced: bool = False
    flush_ms: float = 0.0
    complete_ms: float = 0.0
    #: compute lane the request's batch occupied (-1 = never batched:
    #: memo hits and sheds don't touch a lane)
    lane: int = -1

    @property
    def queue_wait_ms(self) -> float:
        return self.flush_ms - self.arrival_ms

    @property
    def service_ms(self) -> float:
        return self.complete_ms - self.flush_ms

    @property
    def latency_ms(self) -> float:
        return self.complete_ms - self.arrival_ms


@dataclass
class ServeReport:
    """Everything a simulation run produced, in submission order."""

    results: List[ServeResult]
    stats: ServeStats
    makespan_ms: float

    @property
    def answered(self) -> List[ServeResult]:
        return [r for r in self.results if not r.shed and not r.failed]

    @property
    def shed(self) -> List[ServeResult]:
        return [r for r in self.results if r.shed]

    @property
    def failed(self) -> List[ServeResult]:
        return [r for r in self.results if r.failed]


class BatchComputeModel:
    """Virtual cost of one batched forward, ``setup + n * per_image``.

    Defaults derive from the blocker's calibrated per-image latency so
    a batch of one costs exactly one calibrated classification, and the
    marginal frame costs ``amortization`` of it — the shape the PR 1
    fast-path benchmark measured (batched inference amortizes fixed
    per-call overhead across the batch).
    """

    #: marginal cost of one more frame, as a fraction of the
    #: single-image latency (PR 1 measured >= 4x batched throughput)
    AMORTIZATION = 0.25

    def __init__(self, per_image_ms: float, setup_ms: float) -> None:
        if per_image_ms < 0 or setup_ms < 0:
            raise ValueError("compute-model costs must be non-negative")
        self.per_image_ms = per_image_ms
        self.setup_ms = setup_ms

    @classmethod
    def from_blocker(cls, blocker: PercivalBlocker) -> "BatchComputeModel":
        latency = blocker.calibrated_latency_ms
        return cls(
            per_image_ms=latency * cls.AMORTIZATION,
            setup_ms=latency * (1.0 - cls.AMORTIZATION),
        )

    def __call__(self, batch_size: int) -> float:
        if batch_size <= 0:
            return 0.0
        return self.setup_ms + batch_size * self.per_image_ms


class ServeLoop:
    """Deterministic micro-batching simulator over a virtual clock.

    ``run`` replays a traffic trace (:class:`ArrivalEvent` list) through
    the full serving stack: memo lookup, fingerprint coalescing,
    admission control, deadline/size-based flushing, and one real
    ``decide_many`` per flushed batch.  Batch compute occupies one of
    ``resolved_lanes()`` virtual compute lanes (``compute_model`` prices
    it); with one lane a slow batch visibly delays the batches behind
    it, with ``n`` lanes up to ``n`` flushes overlap — either way the
    p99 tail under load is a property of the trace, not of the host
    machine.
    """

    def __init__(
        self,
        blocker: PercivalBlocker,
        settings: Optional[ServeSettings] = None,
        compute_model: Optional[Callable[[int], float]] = None,
        cascade: "CascadeRouter | None | bool" = None,
        differ: "FrameDiffer | None | bool" = None,
        chaos: "ChaosSchedule | None | bool" = None,
        resilience: "ResiliencePlane | None | bool" = None,
    ) -> None:
        self.blocker = blocker
        self.settings = settings or ServeSettings()
        self.compute_model = (
            compute_model
            if compute_model is not None
            else BatchComputeModel.from_blocker(blocker)
        )
        #: the confidence router, the per-session snapshot differ, the
        #: seeded fault schedule and the breakers + ladder; each None
        #: when off (see :func:`~repro.serve.tiers.resolve_tiers`)
        self.cascade, self.differ, self.chaos, self.resilience = (
            resolve_tiers(
                blocker.classifier.config,
                cascade, differ, chaos, resilience,
            )
        )

    def resolved_lanes(self) -> int:
        """The lane count this loop will simulate with.

        Resolution order: ``settings.lanes`` if pinned, else the
        ``PERCIVAL_SERVE_LANES`` environment knob, else the attached
        worker pool's ``available_capacity`` — so by default the
        simulator overlaps exactly as many flushes as the pool has
        workers to absorb — else 1 (poolless = one in-process lane).
        """
        explicit = knob("PERCIVAL_SERVE_LANES", self.settings.lanes)
        if explicit is not None:
            return explicit
        return max(_pool_capacity(self.blocker.pool), 1)

    def run(self, events: Sequence[ArrivalEvent]) -> ServeReport:
        """Replay ``events`` through the serving stack.

        Discrete-event structure: completed lanes retire first, then
        due batches dispatch onto free lanes (lowest index first —
        deterministic tie-break) until lanes or due batches run out,
        then the clock advances to the earliest of {next arrival,
        earliest busy-lane completion, queue deadline if a lane is
        free}.  Gating dispatch on lane availability is what makes
        overload *visible*: while every lane computes, arrivals pile
        into the queue, and past ``max_depth`` they shed — exactly the
        backpressure a real fixed-capacity server exhibits.  (The queue
        itself still never holds a due request at poll time; that
        contract is property-tested on :class:`BatchQueue` directly.)
        """
        events = sorted(events, key=lambda event: event.at_ms)
        queue = BatchQueue(self.settings)
        clock = VirtualClock()
        cursor = self.chaos.cursor() if self.chaos is not None else None
        plane = self.resilience
        chain = TierChain(
            self.blocker, self.cascade, self.differ, plane, cursor,
            ServeStats(lanes=self.resolved_lanes()),
        )
        stats = chain.stats
        if plane is not None:
            plane.rebase(0.0)
        results: List[ServeResult] = []
        #: which ServeResult belongs to each queued request (leaders
        #: and riders alike), resolved at flush time
        open_results: Dict[int, ServeResult] = {}
        #: virtual time each compute lane frees up (<= now means idle)
        lane_free: List[float] = [0.0] * stats.lanes
        index = 0
        next_id = 0

        while True:
            now = clock.now_ms
            chain.tick(now)
            free_lane = self._lowest_free_lane(lane_free, now)
            if free_lane is not None:
                batch = queue.pop_batch(now)
                if batch is not None:
                    lane_free[free_lane] = self._flush(
                        chain, batch, now, free_lane, open_results
                    )
                    continue
            arrival = events[index].at_ms if index < len(events) else None
            deadline = queue.next_deadline_ms()
            busy = [t for t in lane_free if t > now]
            candidates = [
                t
                for t in (
                    arrival,
                    min(busy) if busy else None,
                    # a deadline is only actionable while a lane is free
                    deadline if free_lane is not None else None,
                )
                if t is not None
            ]
            if not candidates:
                # chaos events past the last unit of work never fire:
                # an empty system has nothing left to perturb
                break
            if cursor is not None:
                # planned chaos ticks join the discrete-event schedule
                # so outage windows open/close and faults arm at their
                # scheduled virtual times, not at the next convenient one
                chaos_at = cursor.next_at_ms()
                if chaos_at is not None:
                    candidates.append(chaos_at)
            next_time = min(candidates)
            clock.advance_to(next_time)
            if arrival is not None and next_time >= arrival:
                event = events[index]
                index += 1
                next_id += 1
                results.append(
                    self._admit(
                        chain, event, next_id, clock.now_ms,
                        queue, open_results,
                    )
                )

        if plane is not None:
            plane.controller.finalize(clock.now_ms)
        return ServeReport(
            results=results, stats=stats, makespan_ms=clock.now_ms
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _lowest_free_lane(
        lane_free: List[float], now_ms: float
    ) -> Optional[int]:
        for lane, free_at in enumerate(lane_free):
            if free_at <= now_ms:
                return lane
        return None

    @staticmethod
    def _admit(
        chain: TierChain,
        event: ArrivalEvent,
        request_id: int,
        now_ms: float,
        queue: BatchQueue,
        open_results: Dict[int, ServeResult],
    ) -> ServeResult:
        chain.stats.submitted += 1
        request = ServeRequest(
            request_id=request_id,
            session_id=event.session_id,
            key="",
            bitmap=event.bitmap,
            arrival_ms=now_ms,
            priority=event.priority,
            provenance=event.provenance,
            content_key=event.content_key,
        )
        answered = chain.answer(request, now_ms)
        result = ServeResult(
            request_id=request_id,
            session_id=event.session_id,
            key=request.key,
            arrival_ms=now_ms,
            priority=event.priority,
        )
        if answered is not None:
            # a cheap tier (or the ladder) settled it at arrival: no
            # queue entry, no batch slot, no lane time
            result.decision = answered.decision
            result.shed = answered.tier == "shed"
            result.diff_hit = answered.tier == "diff"
            result.rule_hit = answered.tier == "rule"
            result.rule_tier = answered.rule_tier
            result.memo_hit = answered.tier == "memo"
            result.flush_ms = result.complete_ms = now_ms
            return result
        outcome = chain.enqueue(request, queue, now_ms)
        if outcome == "shed":
            result.shed = True
            result.flush_ms = result.complete_ms = now_ms
            return result
        result.coalesced = outcome == "coalesced"
        open_results[request_id] = result
        return result

    def _flush(
        self,
        chain: TierChain,
        batch: List[ServeRequest],
        now_ms: float,
        lane: int,
        open_results: Dict[int, ServeResult],
    ) -> float:
        """Dispatch one batch on the free compute lane ``lane``;
        returns the virtual time that lane frees up again."""
        try:
            decisions = chain.compute(batch, now_ms)
        except Exception:
            if not chain.guarded:
                raise
            # explicit failed batch: every member and rider settles
            # exactly once with failed=True, the lane frees at once,
            # and the conservation ledger stays balanced
            for request in batch:
                for settled in (request, *request.coalesced):
                    result = open_results.pop(settled.request_id)
                    result.failed = True
                    result.flush_ms = result.complete_ms = now_ms
                    result.lane = lane
                    chain.stats.failed += 1
            return now_ms
        cost_ms = float(self.compute_model(len(batch)))
        if chain.cursor is not None:
            cost_ms *= chain.cursor.latency_multiplier(now_ms)
        complete_ms = now_ms + cost_ms
        for request, decision in zip(batch, decisions):
            group = (request, *request.coalesced)
            for settled in group:
                result = open_results.pop(settled.request_id)
                result.decision = decision
                result.flush_ms = now_ms
                result.complete_ms = complete_ms
                result.lane = lane
                chain.settled(settled, now_ms, complete_ms)
            chain.feedback(group, decision, now_ms)
        busy = chain.stats.lane_busy_ms
        busy[lane] = busy.get(lane, 0.0) + cost_ms
        return complete_ms


class AsyncServeFront:
    """``asyncio`` front door over the same micro-batching queue.

    ``submit`` returns an awaitable that resolves to the request's
    :class:`BlockDecision`.  Every enqueue schedules a flush callback
    on the event loop (``call_soon``, deferred so a burst of submits
    already on the ready queue gets to enqueue — or shed — before
    compute runs), and that flush drains the queue in batches of at
    most ``max_batch``.  No request waits out ``max_wait_ms`` for
    batch-mates: requests that arrive while a batch computes pile up
    and leave together in the next flush, so batches still grow under
    load.  A full queue raises :class:`ServeOverloadError` —
    backpressure is the caller's signal.

    Batch compute runs inline on the event-loop thread, one batch at a
    time: the blocker's memo and the worker pool's dispatch are not
    reentrant, so real compute parallelism belongs to the
    pool's worker processes (and, in simulation, to
    :class:`ServeLoop`'s lanes).
    """

    def __init__(
        self,
        blocker: PercivalBlocker,
        settings: Optional[ServeSettings] = None,
        cascade: "CascadeRouter | None | bool" = None,
        differ: "FrameDiffer | None | bool" = None,
        chaos: "ChaosSchedule | None | bool" = None,
        resilience: "ResiliencePlane | None | bool" = None,
    ) -> None:
        self.blocker = blocker
        self.settings = settings or ServeSettings()
        #: chaos here runs on the front's real-millisecond clock; the
        #: invariant it exercises is value-independence (every resolved
        #: future's P(ad) is fault-free-identical), not replay timing
        self.cascade, self.differ, self.chaos, self.resilience = (
            resolve_tiers(
                blocker.classifier.config,
                cascade, differ, chaos, resilience,
            )
        )
        self._chain = TierChain(
            blocker, self.cascade, self.differ, self.resilience,
            self.chaos.cursor() if self.chaos is not None else None,
        )
        self.stats = self._chain.stats
        self._queue = BatchQueue(self.settings)
        self._waiters: Dict[int, "asyncio.Future[BlockDecision]"] = {}
        self._flush_handle: Optional[asyncio.Handle] = None
        self._origin_s: Optional[float] = None
        self._next_id = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def submit(
        self,
        bitmap: np.ndarray,
        session_id: str = "session",
        priority: int = PRIORITY_VIEWPORT,
        provenance: Optional[FrameProvenance] = None,
        content_key: str = "",
    ) -> "asyncio.Future[BlockDecision]":
        """One classification request: a future that resolves when its
        batch flushes (or at once, on a cheap tier).

        Admission runs at call time and hands back a plain future, not
        a coroutine, so a burst gathered with ``asyncio.gather`` wraps
        no request in a Task of its own: at 32 px those Tasks were a
        third of the front's per-request cost.  Refusals (a closed
        front, a shed) arrive as the future's exception, so ``await
        front.submit(...)`` raises them as before.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if self._closed:
            future.set_exception(ServeClosedError(
                "AsyncServeFront is closed; no new requests are admitted"
            ))
            return future
        now_ms = self._now_ms(loop)
        chain = self._chain
        chain.tick(now_ms)
        self.stats.submitted += 1
        self._next_id += 1
        request = ServeRequest(
            request_id=self._next_id,
            session_id=session_id,
            key="",
            bitmap=bitmap,
            arrival_ms=now_ms,
            priority=priority,
            provenance=provenance,
            content_key=content_key,
        )
        answered = chain.answer(request, now_ms)
        if answered is not None:
            if answered.tier == "shed":
                future.set_exception(ServeOverloadError(
                    f"request shed at brownout level"
                    f" '{self.resilience.controller.level_name}'"
                ))
            else:
                future.set_result(answered.decision)
            return future
        if chain.enqueue(request, self._queue, now_ms) == "shed":
            future.set_exception(ServeOverloadError(
                f"queue depth {self._queue.depth} at its bound "
                f"({self.settings.max_depth}); request shed"
            ))
            return future
        self._waiters[request.request_id] = future
        # defer to a callback instead of flushing inline: submit
        # returns immediately, and a burst of submits already on the
        # ready queue gets to enqueue (or shed) before the flush runs
        # — admission control stays observable
        self._schedule_flush(loop)
        return future

    async def drain(self) -> None:
        """Flush everything still queued."""
        self._flush(asyncio.get_running_loop())

    async def aclose(self) -> None:
        """Drain queued requests, cancel the scheduled flush, and
        refuse further submits.  Idempotent."""
        self._closed = True
        await self.drain()
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None

    @property
    def depth(self) -> int:
        return self._queue.depth

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _now_ms(self, loop: asyncio.AbstractEventLoop) -> float:
        if self._origin_s is None:
            self._origin_s = loop.time()
        return (loop.time() - self._origin_s) * 1000.0

    def _schedule_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._flush_handle is None:
            self._flush_handle = loop.call_soon(self._run_flush, loop)

    def _run_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        self._flush_handle = None
        try:
            self._flush(loop)
        finally:
            # whatever raised outside compute, a queued request must
            # keep a scheduled flush — an unscheduled one would wait
            # forever
            if self._queue.depth:
                self._schedule_flush(loop)

    def _flush(self, loop: asyncio.AbstractEventLoop) -> None:
        """Drain the queue in batches of at most ``max_batch``, inline
        on the event-loop thread."""
        while True:
            flush_ms = self._now_ms(loop)
            batch = self._queue.pop_batch(flush_ms, force=True)
            if batch is None:
                break
            try:
                decisions = self._chain.compute(batch, flush_ms)
            except Exception as exc:
                self._settle_failure(batch, exc)
                continue
            self._settle_batch(batch, decisions, flush_ms, loop)

    def _settle_batch(
        self,
        batch: List[ServeRequest],
        decisions: Sequence[BlockDecision],
        flush_ms: float,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        chain = self._chain
        complete_ms = self._now_ms(loop)
        try:
            for request, decision in zip(batch, decisions):
                group = (request, *request.coalesced)
                for settled in group:
                    future = self._waiters.pop(settled.request_id, None)
                    if future is not None and not future.done():
                        future.set_result(decision)
                    chain.settled(settled, flush_ms, complete_ms)
                # feedback is guarded: a raising tier write is counted,
                # never allowed to strand a later group's waiters
                chain.feedback(group, decision, complete_ms)
        except Exception as exc:
            # backstop: _settle_failure's pops are idempotent, so a
            # partially settled batch still settles exactly once
            self._settle_failure(batch, exc)
        if self.resilience is not None:
            self.resilience.controller.evaluate(complete_ms)

    def _settle_failure(
        self, batch: List[ServeRequest], exc: Exception
    ) -> None:
        # the batch is already popped (so its leaders have left the
        # queue's coalescing index): its waiters must hear about the
        # failure, not hang.  Pops tolerate absence so this doubles as
        # the exactly-once backstop behind a partially-settled batch.
        for request in batch:
            for settled in (request, *request.coalesced):
                future = self._waiters.pop(settled.request_id, None)
                if future is None:
                    continue
                if not future.done():
                    future.set_exception(exc)
                self.stats.failed += 1
