"""The serve tier chain: the one path every request takes.

PERCIVAL sits at one point in the image pipeline, and every frame takes
the same path past it (§3): diff recall → cascade route → fingerprint →
memo probe → coalesce → queue → compute → feedback.  :class:`TierChain`
is that path, written once for :class:`~repro.serve.loop.ServeLoop`,
:class:`~repro.serve.loop.AsyncServeFront` and
:class:`~repro.serve.session.RenderServeBridge`, with every tier call
behind one resilience wrapper (:meth:`TierChain.guard`).  Each front
keeps only what differs: the loop its virtual clock, lanes and results,
the asyncio front its futures and idle-turn flush, the bridge its
chunked drain.

Tier methods are looked up on their instances at call time, so a
wrapper installed on an instance after the chain is built still sees
every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    TypeVar,
)

from repro.cascade.router import CascadeHit, CascadeRouter
from repro.core.blocker import BlockDecision, PercivalBlocker
from repro.core.config import PercivalConfig, knob
from repro.diff.differ import FrameDiffer
from repro.resilience.chaos import (
    ChaosCursor,
    ChaosInjectedError,
    ChaosSchedule,
)
from repro.resilience.plane import ResiliencePlane
from repro.serve.metrics import ServeStats
from repro.serve.queue import PRIORITY_VIEWPORT, BatchQueue, ServeRequest

T = TypeVar("T")


@dataclass(frozen=True)
class Answer:
    """A request settled before the queue: which tier, with what."""

    #: "diff", "rule" or "memo" — or "shed": the ladder refused it
    tier: str
    decision: Optional[BlockDecision] = None
    #: the rule tier that answered ("micro"/"list"), "" otherwise
    rule_tier: str = ""


class Tiers(NamedTuple):
    """A front's resolved optional tiers; ``None`` = that tier is off."""

    cascade: Optional[CascadeRouter]
    differ: Optional[FrameDiffer]
    chaos: Optional[ChaosSchedule]
    resilience: Optional[ResiliencePlane]


def _tier(name: str, given: Any, kind: type, auto: Callable[[], Any]):
    """One tier argument: ``False`` pins it off, an instance of
    ``kind`` is used as-is, ``None`` defers to ``auto()``."""
    if given is False:
        return None
    if isinstance(given, kind):
        return given
    if given is not None:
        raise TypeError(
            f"{name} must be a {kind.__name__}, None (auto), or False (off)"
        )
    return auto()


def resolve_tiers(
    config: PercivalConfig,
    cascade: "CascadeRouter | None | bool" = None,
    differ: "FrameDiffer | None | bool" = None,
    chaos: "ChaosSchedule | None | bool" = None,
    resilience: "ResiliencePlane | None | bool" = None,
) -> Tiers:
    """Resolve a front's ``cascade=``/``differ=``/``chaos=``/
    ``resilience=`` arguments, once, at construction.

    ``False`` pins a tier off (the bit-identical path without it), an
    instance is used as-is, and ``None`` defers to ``config``'s field,
    then the tier's ``PERCIVAL_*`` knob.  An active chaos schedule
    implies the resilience plane: a replay without breakers or the
    ladder would only measure unmitigated damage.
    """
    router = _tier("cascade", cascade, CascadeRouter, lambda: (
        CascadeRouter.with_default_filterlist(
            confidence=config.cascade_confidence
        )
        if knob("PERCIVAL_CASCADE", config.cascade_enabled)
        else None
    ))
    frame_differ = _tier("differ", differ, FrameDiffer, lambda: (
        FrameDiffer() if knob("PERCIVAL_DIFF", config.diff_enabled) else None
    ))
    schedule = _tier("chaos", chaos, ChaosSchedule, lambda: (
        None
        if (seed := knob("PERCIVAL_CHAOS")) is None
        else ChaosSchedule.seeded(seed)
    ))
    plane = _tier("resilience", resilience, ResiliencePlane, lambda: (
        ResiliencePlane()
        if schedule is not None or knob("PERCIVAL_RESILIENCE")
        else None
    ))
    return Tiers(router, frame_differ, schedule, plane)


def _pool_capacity(pool: object) -> int:
    """Worker slots ``pool`` exposes right now (0 = no pool / no
    capacity signal).  A non-blocking probe: duck-typed on the
    ``available_capacity`` attribute so stub pools, closed pools, and
    ``None`` all read as zero instead of raising."""
    if pool is None:
        return 0
    return int(getattr(pool, "available_capacity", 0) or 0)


def _feed_cascade_once(
    cascade: CascadeRouter,
    group: Sequence[ServeRequest],
    decision: BlockDecision,
) -> None:
    """Feed one model verdict into the cascade exactly once.

    A flush settles a leader plus its coalesced riders, but only one
    verdict was computed for the group — feeding it back once per
    settled request would hand the healer N observations for one
    forward pass, enough to two-strike-invalidate a healthy rule from
    a single frame.  The first open audit ticket in settle order wins
    (leader first, riders in arrival order); with no ticket standing,
    the first request carrying provenance absorbs the verdict.
    """
    for settled in group:
        if settled.audit is not None:
            cascade.reconcile(settled.audit, decision.is_ad)
            return
    for settled in group:
        if settled.provenance is not None:
            cascade.absorb(settled.provenance, decision)
            return


class TierChain:
    """The serve path over one blocker, shared by every front.

    ``stats`` is the run's ledger: the chain attaches the cascade,
    differ and plane accounting to it and counts every tier outcome
    there.  ``plane`` (breakers + ladder) and ``cursor`` (a chaos
    replay) are optional; with neither, every tier call is plain.
    """

    def __init__(
        self,
        blocker: PercivalBlocker,
        cascade: Optional[CascadeRouter] = None,
        differ: Optional[FrameDiffer] = None,
        plane: Optional[ResiliencePlane] = None,
        cursor: Optional[ChaosCursor] = None,
        stats: Optional[ServeStats] = None,
    ) -> None:
        self.blocker = blocker
        self.cascade = cascade
        self.differ = differ
        self.plane = plane
        self.cursor = cursor
        self.stats = stats if stats is not None else ServeStats()
        if cascade is not None:
            self.stats.cascade = cascade.stats
        if differ is not None:
            self.stats.diff = differ.stats
        if plane is not None:
            self.stats.resilience = plane

    @property
    def guarded(self) -> bool:
        """A plane or a chaos cursor is attached: tier failures are
        absorbed rather than raised."""
        return self.plane is not None or self.cursor is not None

    # ------------------------------------------------------------------
    # Resilience gates
    # ------------------------------------------------------------------
    def tick(self, now_ms: float) -> None:
        """Fire the chaos events due by ``now_ms`` and let the ladder
        take its step."""
        plane, cursor = self.plane, self.cursor
        if cursor is not None:
            fired = cursor.fire_due(now_ms, pool=self.blocker.pool)
            if fired and plane is not None:
                plane.note_chaos(fired)
        if plane is not None:
            plane.controller.evaluate(now_ms)

    def guard(
        self,
        tier: str,
        now_ms: float,
        call: Callable[[], T],
        write: bool = False,
    ) -> Optional[T]:
        """``call()`` against speed tier ``tier``, or ``None`` when the
        tier is out.

        Three gates, in order: a chaos outage window over the tier, the
        ladder's brownout of it, and its circuit breaker.  A serving
        call may then meet an injected chaos error; any raise is
        absorbed — counted on the ledger, fed to the breaker as a
        failure — and the tier reads as a miss.  ``write`` marks a
        feedback write, an optimisation for *future* requests: it
        passes the breaker by its non-mutating ``peek`` (the half-open
        probe belongs to the serve path), feeds the breaker nothing,
        and is absorbed even with nothing attached.  With no plane and
        no cursor a serving call is a plain call.
        """
        cursor, plane = self.cursor, self.plane
        if cursor is None and plane is None and not write:
            return call()
        if cursor is not None and cursor.tier_out(tier, now_ms):
            return None
        breaker = None
        if plane is not None:
            controller = plane.controller
            if (tier == "diff" and controller.diff_disabled) or (
                tier == "cascade" and controller.cascade_disabled
            ):
                return None
            breaker = plane.breakers.get(tier)
        if write:
            if breaker is None or breaker.peek(now_ms):
                try:
                    call()
                except Exception:
                    self._absorb()
            return None
        if breaker is not None and not breaker.allow(now_ms):
            return None
        try:
            if cursor is not None and cursor.take_tier_error(tier):
                raise ChaosInjectedError(f"injected {tier} failure")
            result = call()
        except Exception:
            self._absorb()
            self._record(breaker, now_ms, False)
            return None
        self._record(breaker, now_ms, True)
        return result

    def _absorb(self) -> None:
        """Count one absorbed tier failure on the run's ledger (and the
        plane's cumulative one, when attached)."""
        self.stats.tier_errors += 1
        if self.plane is not None:
            self.plane.tier_errors += 1

    def _record(self, breaker, now_ms: float, ok: bool) -> None:
        """Feed one admitted call's outcome to its breaker (if any); a
        trip is also a pressure signal for the degradation ladder."""
        if breaker is None:
            return
        before = breaker.trips
        breaker.record(now_ms, ok)
        if breaker.trips > before:
            self.plane.controller.observe_pressure(
                f"{breaker.name} breaker tripped"
            )

    # ------------------------------------------------------------------
    # Admission: the cheap tiers, then the queue
    # ------------------------------------------------------------------
    def answer(
        self, request: ServeRequest, now_ms: float
    ) -> Optional[Answer]:
        """Settle ``request`` on the cheap tiers, or ``None`` for a miss.

        Order: the session's page snapshot (diff tier, before any
        hashing), the cascade's rule tiers, then the fingerprint and
        the shared memo.  A memo hit feeds its verdict back like a
        computed one.  On a miss ``request.key`` holds the fingerprint
        and ``request.audit`` any open audit ticket.  The ladder sheds
        below-the-fold requests before the tiers (level 3) and
        queue-bound ones after them (level 4): a request a cheap tier
        can answer is never shed.
        """
        plane, stats = self.plane, self.stats
        controller = plane.controller if plane is not None else None
        if (
            controller is not None
            and controller.drop_below_fold
            and request.priority > PRIORITY_VIEWPORT
        ):
            return self._shed()
        differ, cascade = self.differ, self.cascade
        provenance = request.provenance
        if differ is not None and provenance is not None and (
            request.content_key
        ):
            recalled = self.guard("diff", now_ms, lambda: differ.recall(
                request.session_id, provenance.page_domain,
                provenance.url, request.content_key,
                generation=self.blocker.classifier.weights_version,
            ))
            if recalled is not None:
                stats.diff_hits += 1
                return self._instant(request, Answer("diff", recalled))
        if cascade is not None:
            routed = self.guard(
                "cascade", now_ms, lambda: cascade.route(provenance)
            )
            if isinstance(routed, CascadeHit):
                stats.rule_hits += 1
                return self._instant(
                    request, Answer("rule", routed.decision, routed.tier)
                )
            request.audit = routed
        blocker = self.blocker
        if not request.key:
            request.key = blocker.fingerprint(request.bitmap)
        cached = self.guard(
            "memo", now_ms, lambda: blocker.memoized_decision(key=request.key)
        )
        if cached is not None:
            stats.memo_hits += 1
            self.feedback((request,), cached, now_ms)
            return self._instant(request, Answer("memo", cached))
        if controller is not None and controller.shed_all:
            return self._shed()
        return None

    def _instant(self, request: ServeRequest, answer: Answer) -> Answer:
        """Count a tier answer: settled at arrival, zero wait."""
        arrival_ms = request.arrival_ms
        self.stats.answered += 1
        self.stats.record_latency(
            arrival_ms, arrival_ms, arrival_ms, request.priority
        )
        return answer

    def _shed(self) -> Answer:
        """Count a ladder shed: an explicit ledger entry, not a drop."""
        self.stats.shed += 1
        self.plane.degraded_sheds += 1
        return Answer("shed")

    def enqueue(
        self, request: ServeRequest, queue: BatchQueue, now_ms: float
    ) -> str:
        """Queue a missed request: ``"coalesced"`` onto a queued twin
        (no depth, no batch slot), ``"queued"`` as a new leader, or
        ``"shed"`` by a full queue — a pressure signal for the ladder."""
        leader = queue.leader(request.key)
        if leader is not None:
            leader.coalesced.append(request)
            self.stats.coalesced += 1
            return "coalesced"
        if not queue.offer(request, now_ms):
            self.stats.shed += 1
            if self.plane is not None:
                self.plane.controller.observe_pressure("queue overflow shed")
            return "shed"
        return "queued"

    # ------------------------------------------------------------------
    # Compute and settlement
    # ------------------------------------------------------------------
    def compute(
        self, batch: List[ServeRequest], now_ms: float
    ) -> List[BlockDecision]:
        """One ``decide_many`` over ``batch`` behind the pool gate.

        The pool breaker is consulted only when the batch would really
        dispatch to the pool; an open breaker detaches the pool for
        exactly this compute, forcing the in-process path (bit-identical
        verdicts — batch composition invariance).  The blocker heals a
        pool failure silently, so its fallback counter is the breaker's
        only window into whether the pool dispatched.  A raising
        compute counts as a failed batch and re-raises: each front
        settles its members by its own policy.
        """
        blocker, plane, stats = self.blocker, self.plane, self.stats
        pool = blocker.pool
        capacity = _pool_capacity(pool)
        breaker = None
        if (
            plane is not None
            and pool is not None
            and not getattr(pool, "closed", False)
            and len(batch) >= blocker.shard_min_batch
        ):
            breaker = plane.breakers["pool"]
        bypass = breaker is not None and not breaker.allow(now_ms)
        if bypass:
            breaker = None
            blocker.pool = None
            plane.pool_bypassed += 1
        fallbacks_before = blocker.pool_fallbacks
        try:
            decisions = blocker.decide_many(
                [request.bitmap for request in batch],
                keys=[request.key for request in batch],
            )
        except Exception:
            self._record(breaker, now_ms, False)
            if plane is not None:
                plane.failed_batches += 1
                plane.controller.observe_pressure(
                    "batch classification failed"
                )
            raise
        finally:
            if bypass:
                blocker.pool = pool
        self._record(
            breaker, now_ms, blocker.pool_fallbacks == fallbacks_before
        )
        stats.batches += 1
        stats.batched_requests += len(batch)
        stats.capacity_samples.append(capacity)
        return decisions

    def settled(
        self, request: ServeRequest, flush_ms: float, complete_ms: float
    ) -> None:
        """Count one request answered by a computed verdict; its total
        latency is a sample for the ladder's SLO window."""
        self.stats.answered += 1
        self.stats.record_latency(
            request.arrival_ms, flush_ms, complete_ms, request.priority
        )
        if self.plane is not None:
            self.plane.controller.observe_latency(
                complete_ms - request.arrival_ms
            )

    def feedback(
        self,
        group: Sequence[ServeRequest],
        decision: BlockDecision,
        now_ms: float,
    ) -> None:
        """Stream one verdict, settled for every request of ``group``,
        back into the tiers in front of the model.

        Every settled request refreshes its own session's snapshot
        (riders belong to other sessions and pages); the cascade hears
        the verdict once, however many riders shared it.  Each write is
        guarded: a raising tier is absorbed and counted, never allowed
        to take the settled requests or the flush down.
        """
        differ, cascade = self.differ, self.cascade
        if differ is not None:
            generation = self.blocker.classifier.weights_version
            for settled in group:
                provenance = settled.provenance
                if provenance is None or not settled.content_key:
                    continue
                self.guard("diff", now_ms, lambda: differ.remember(
                    settled.session_id, provenance.page_domain,
                    provenance.url, settled.content_key, decision,
                    generation=generation,
                ), write=True)
        if cascade is not None:
            self.guard("cascade", now_ms, lambda: _feed_cascade_once(
                cascade, group, decision
            ), write=True)
