"""Deadline-based micro-batch coalescing with priority classes.

:class:`BatchQueue` is the data structure at the heart of the serving
layer: independent classification requests (from many concurrent page
sessions) enter one at a time and leave as shard-sized batches.  A
batch flushes when the queue reaches ``max_batch`` requests **or** when
its oldest request has waited ``max_wait_ms`` — whichever comes first —
so throughput-friendly batching can never hold a single quiet-hour
request hostage.

Requests carry a **priority class** (lower number = more urgent;
:data:`PRIORITY_VIEWPORT` frames are what the user is looking at right
now, :data:`PRIORITY_BELOW_FOLD` frames are not on screen yet).  A
popped batch is assembled most-urgent-first, FIFO within each class, so
viewport frames jump the line — but never permanently: a queued
request's *effective* priority improves one level per ``aging_ms``
waited, which makes the scheduler starvation-free under a sustained
viewport flood.

The queue is deliberately pure: it never reads a wall clock.  Every
operation takes ``now_ms`` explicitly, so the deterministic virtual-
clock serve loop, the asyncio front door, and the Hypothesis property
suite all drive the *same* code with their own notion of time.  The
``max_wait_ms`` deadline is what the simulator schedules by; the
asyncio front has one compute lane and drains the queue with
``pop_batch(force=True)`` whenever its event loop is idle, so there a
deadline is an upper bound it never reaches.

The queue also owns the coalescing index: ``leader(key)`` is the
queued request with fingerprint ``key``, the one a duplicate rides on.
``offer`` enters an admitted request and ``pop_batch`` removes it, so
a popped request is never a leader.

Admission control is part of the type: ``offer`` refuses requests past
``max_depth`` (counted across every priority class) and counts them as
shed.  A refused request is an explicit backpressure signal to the
caller — the conservation invariant the property suite pins is "every
submitted request is either answered or *visibly* shed", never silently
dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import ServeSettings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cascade.provenance import FrameProvenance
    from repro.cascade.router import CascadeAudit

#: the frame is inside the viewport: the user is looking at the slot,
#: so its verdict gates what they see right now
PRIORITY_VIEWPORT = 0
#: the frame is below the fold: it must be decided before the user
#: scrolls to it, but nothing visible is waiting on it
PRIORITY_BELOW_FOLD = 1


@dataclass
class ServeRequest:
    """One classification request inside the serving layer."""

    request_id: int
    session_id: str
    key: str
    bitmap: np.ndarray
    arrival_ms: float
    #: scheduling class (lower = more urgent); riders coalesced onto
    #: this request are served at this request's priority
    priority: int = PRIORITY_VIEWPORT
    #: requests with the same fingerprint that arrived while this one
    #: was queued; they ride along and share the computed verdict
    #: without consuming queue depth or a batch slot
    coalesced: List["ServeRequest"] = field(default_factory=list)
    #: renderer-side frame context (URL, DOM path, slot shape) the
    #: cascade's structural tiers route on; None = unknown provenance,
    #: the request takes the memo/queue path unconditionally
    provenance: Optional["FrameProvenance"] = None
    #: open audit ticket: a cascade rule predicted this frame and the
    #: model verdict must be reconciled against the rule's health
    audit: Optional["CascadeAudit"] = None
    #: pre-decode content hash of the frame's encoded bytes; with a
    #: differ attached, the computed verdict is streamed into the
    #: session's page snapshot under this key at settle time
    content_key: str = ""


class BatchQueue:
    """Priority-class FIFO queue with deadline-based batch coalescing.

    One FIFO deque per priority class; ``pop_batch`` merges them
    most-urgent-first by ``(effective priority, admission order)``.
    Within a class the head is always the best candidate (earlier
    arrivals have waited at least as long, so they never rank worse),
    which keeps every pop O(batch x classes) and — crucially — keeps
    per-``(session, priority)`` FIFO intact: two frames of one session
    at one priority can never reorder.
    """

    def __init__(self, settings: Optional[ServeSettings] = None) -> None:
        self.settings = settings or ServeSettings()
        #: priority class -> FIFO of (admission seq, request)
        self._classes: Dict[int, Deque[Tuple[int, ServeRequest]]] = {}
        self._depth = 0
        self._seq = 0
        #: requests refused at admission (explicit backpressure)
        self.shed_count = 0
        #: requests accepted over the queue's lifetime
        self.accepted_count = 0
        #: requests handed out in popped batches
        self.flushed_count = 0
        #: fingerprint -> the queued request duplicates coalesce onto
        self._leaders: Dict[str, ServeRequest] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently queued across every priority class
        (coalesced riders excluded)."""
        return self._depth

    def leader(self, key: str) -> Optional[ServeRequest]:
        """The queued request with fingerprint ``key``, or ``None``."""
        return self._leaders.get(key)

    def next_deadline_ms(self) -> Optional[float]:
        """Virtual time by which the oldest request must flush, or
        ``None`` when the queue is empty.  The deadline is priority-
        blind: ``max_wait_ms`` bounds every class's queue wait."""
        oldest = self._oldest_arrival_ms()
        if oldest is None:
            return None
        return oldest + self.settings.max_wait_ms

    def due(self, now_ms: float) -> bool:
        """True when a batch must flush now: a full ``max_batch`` is
        waiting, or the oldest request's deadline has arrived."""
        if not self._depth:
            return False
        if self._depth >= self.settings.max_batch:
            return True
        return now_ms >= self._oldest_arrival_ms() + self.settings.max_wait_ms

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def offer(self, request: ServeRequest, now_ms: float) -> bool:
        """Admit ``request`` at ``now_ms``; ``False`` means it was shed.

        Sheds exactly when the queue already holds ``max_depth``
        requests (summed across priority classes) — bounded memory under
        overload, and the caller gets the backpressure signal
        synchronously (no request ever enters and then disappears).
        Priority buys scheduling order, not admission: an overloaded
        queue sheds a viewport frame as visibly as any other.
        """
        if now_ms < request.arrival_ms:
            raise ValueError("cannot admit a request before it arrives")
        if request.priority < 0:
            raise ValueError("priority must be >= 0")
        if self._depth >= self.settings.max_depth:
            self.shed_count += 1
            return False
        self._seq += 1
        lane = self._classes.setdefault(request.priority, deque())
        lane.append((self._seq, request))
        self._depth += 1
        self.accepted_count += 1
        self._leaders[request.key] = request
        return True

    def pop_batch(
        self, now_ms: float, force: bool = False
    ) -> Optional[List[ServeRequest]]:
        """The next due batch (up to ``max_batch`` requests, assembled
        by ``(effective priority, admission order)``), or ``None`` when
        nothing is due.  ``force=True`` flushes whatever is queued
        regardless of deadlines (drain/shutdown)."""
        if not self._depth:
            return None
        if not force and not self.due(now_ms):
            return None
        batch: List[ServeRequest] = []
        while self._depth and len(batch) < self.settings.max_batch:
            best_rank: Optional[Tuple[int, int]] = None
            best_priority = 0
            for priority, lane in self._classes.items():
                if not lane:
                    continue
                seq, request = lane[0]
                rank = (self.effective_priority(request, now_ms), seq)
                if best_rank is None or rank < best_rank:
                    best_rank = rank
                    best_priority = priority
            _, request = self._classes[best_priority].popleft()
            self._depth -= 1
            if self._leaders.get(request.key) is request:
                del self._leaders[request.key]
            batch.append(request)
        self.flushed_count += len(batch)
        return batch

    # ------------------------------------------------------------------
    # Scheduling policy
    # ------------------------------------------------------------------
    def effective_priority(self, request: ServeRequest, now_ms: float) -> int:
        """``request``'s priority after aging: one level more urgent per
        ``aging_ms`` waited, floored at the most urgent class.  This is
        the starvation-freedom mechanism — any request reaches the top
        class after ``priority * aging_ms`` of waiting, after which only
        strictly older top-class requests outrank it."""
        if request.priority <= 0:
            return request.priority
        waited = max(now_ms - request.arrival_ms, 0.0)
        steps = int(waited // self.settings.aging_ms)
        return max(request.priority - steps, 0)

    def _oldest_arrival_ms(self) -> Optional[float]:
        heads = [
            lane[0][1].arrival_ms
            for lane in self._classes.values()
            if lane
        ]
        if not heads:
            return None
        return min(heads)
