"""Property-based tests of the micro-batching queue (hypothesis).

The laws the serving layer stands on, checked over arbitrary
arrival/poll schedules on a virtual clock:

1. **FIFO** — with uniform priority, batches pop requests in arrival
   order (which implies FIFO per session: a session's frames never
   reorder),
2. **bounded batches** — no popped batch exceeds ``max_batch``,
3. **deadline** — after polling at time ``t``, no request whose
   ``max_wait_ms`` deadline has passed is still queued,
4. **conservation** — every offered request is either admitted (and
   eventually popped exactly once) or shed at admission; nothing is
   lost, duplicated, or silently dropped — and the ledger is
   priority-blind (admission never looks at the class),
5. **priority order** — mixed-priority pops rank by (effective
   priority, admission order), which preserves FIFO within every
   ``(session, priority)`` pair, and aging bounds starvation: a
   request that has waited ``priority * aging_ms`` ranks with the top
   class.
6. **coalescing index** — ``leader(key)`` is ``None`` or a request
   still queued under ``key``: a popped request is never a leader, and
   a full drain leaves every lookup ``None``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import ServeSettings
from repro.core.blocker import BlockDecision
from repro.diff import FrameDiffer
from repro.serve import BatchQueue, ServeRequest

_DUMMY = np.zeros((1, 1, 4), dtype=np.float32)
#: fingerprints of the mixed-priority schedules: few enough to collide
_KEYS = [f"key-{index}" for index in range(4)]

_settings_strategy = st.builds(
    ServeSettings,
    max_batch=st.integers(1, 8),
    max_wait_ms=st.floats(0.0, 10.0, allow_nan=False),
    max_depth=st.integers(8, 24),
)

_priority_settings_strategy = st.builds(
    ServeSettings,
    max_batch=st.integers(1, 8),
    max_wait_ms=st.floats(0.0, 10.0, allow_nan=False),
    max_depth=st.integers(8, 24),
    aging_ms=st.floats(0.5, 16.0, allow_nan=False),
)

# one step per arrival: (virtual gap before it, session id, whether the
# driver polls the queue right after admitting it)
_schedule_strategy = st.lists(
    st.tuples(
        st.floats(0.0, 6.0, allow_nan=False),
        st.integers(0, 3),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)

# mixed-priority schedules add a priority class (0 = viewport urgency,
# up to 2) and a fingerprint from a small pool (so keys repeat while
# queued) to every arrival
_priority_schedule_strategy = st.lists(
    st.tuples(
        st.floats(0.0, 6.0, allow_nan=False),
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(0, 3),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)


def _drain_due(queue, now_ms, popped):
    while True:
        batch = queue.pop_batch(now_ms)
        if batch is None:
            return
        popped.append((now_ms, batch))


def _replay(config, schedule):
    """Drive a queue through the schedule; returns the full history."""
    queue = BatchQueue(config)
    now_ms = 0.0
    offered = []
    admitted = []
    shed = []
    popped = []
    for index, (gap_ms, session, poll) in enumerate(schedule):
        now_ms += gap_ms
        request = ServeRequest(
            request_id=index,
            session_id=f"session-{session}",
            key=f"key-{index}",
            bitmap=_DUMMY,
            arrival_ms=now_ms,
        )
        offered.append(request)
        assert queue.depth <= config.max_depth
        expect_shed = queue.depth >= config.max_depth
        accepted = queue.offer(request, now_ms)
        assert accepted == (not expect_shed)
        (admitted if accepted else shed).append(request)
        if poll:
            _drain_due(queue, now_ms, popped)
    # end of traffic: flush whatever remains, deadline or not
    final = queue.pop_batch(now_ms, force=True)
    while final is not None:
        popped.append((now_ms, final))
        final = queue.pop_batch(now_ms, force=True)
    return queue, offered, admitted, shed, popped


@settings(max_examples=80, deadline=None)
@given(config=_settings_strategy, schedule=_schedule_strategy)
def test_fifo_and_per_session_order(config, schedule):
    _, _, admitted, _, popped = _replay(config, schedule)
    popped_flat = [request for _, batch in popped for request in batch]
    # global FIFO over admitted requests...
    assert [r.request_id for r in popped_flat] == [
        r.request_id for r in admitted
    ]
    # ...which implies FIFO within every session
    for session in {r.session_id for r in admitted}:
        session_popped = [
            r.request_id for r in popped_flat if r.session_id == session
        ]
        assert session_popped == sorted(session_popped)


@settings(max_examples=80, deadline=None)
@given(config=_settings_strategy, schedule=_schedule_strategy)
def test_batches_never_exceed_max_batch(config, schedule):
    _, _, _, _, popped = _replay(config, schedule)
    assert all(len(batch) <= config.max_batch for _, batch in popped)


@settings(max_examples=80, deadline=None)
@given(config=_settings_strategy, schedule=_schedule_strategy)
def test_no_request_held_past_deadline_at_poll(config, schedule):
    """After any poll at time t, everything still queued is within its
    ``max_wait_ms`` budget (and below ``max_batch``) — the queue never
    sits on a due request."""
    queue = BatchQueue(config)
    now_ms = 0.0
    for index, (gap_ms, session, poll) in enumerate(schedule):
        now_ms += gap_ms
        queue.offer(
            ServeRequest(
                request_id=index,
                session_id=f"session-{session}",
                key=f"key-{index}",
                bitmap=_DUMMY,
                arrival_ms=now_ms,
            ),
            now_ms,
        )
        if poll:
            while queue.pop_batch(now_ms) is not None:
                pass
            assert not queue.due(now_ms)
            deadline = queue.next_deadline_ms()
            assert deadline is None or deadline > now_ms


@settings(max_examples=80, deadline=None)
@given(config=_settings_strategy, schedule=_schedule_strategy)
def test_requests_are_conserved(config, schedule):
    queue, offered, admitted, shed, popped = _replay(config, schedule)
    popped_flat = [request for _, batch in popped for request in batch]
    # every offer is accounted for: admitted + shed, no overlap
    assert len(admitted) + len(shed) == len(offered)
    assert {r.request_id for r in admitted}.isdisjoint(
        {r.request_id for r in shed}
    )
    # every admitted request pops exactly once; shed ones never do
    assert sorted(r.request_id for r in popped_flat) == sorted(
        r.request_id for r in admitted
    )
    assert len({r.request_id for r in popped_flat}) == len(popped_flat)
    assert queue.depth == 0


# ----------------------------------------------------------------------
# Priority-class properties
# ----------------------------------------------------------------------
def _replay_priorities(config, schedule):
    """Drive a queue through a mixed-priority schedule.

    Returns the pop history with enough context to check ordering:
    each popped batch is ``(pop_time, [(admission_index, request)])``.
    """
    queue = BatchQueue(config)
    now_ms = 0.0
    offered = []
    admitted = []
    shed = []
    popped = []
    admission_index = {}
    queued = {}

    def check_leaders():
        # the coalescing index only ever names a request still queued
        # under that key, so a popped request is never returned
        for key in _KEYS:
            leader = queue.leader(key)
            assert leader is None or (
                queued.get(leader.request_id) is leader
                and leader.key == key
            )

    def drain(force=False):
        while True:
            batch = queue.pop_batch(now_ms, force=force)
            if batch is None:
                return
            for request in batch:
                del queued[request.request_id]
            check_leaders()
            popped.append(
                (now_ms, [(admission_index[r.request_id], r) for r in batch])
            )

    for index, (gap_ms, session, priority, key, poll) in enumerate(
        schedule
    ):
        now_ms += gap_ms
        request = ServeRequest(
            request_id=index,
            session_id=f"session-{session}",
            key=_KEYS[key],
            bitmap=_DUMMY,
            arrival_ms=now_ms,
            priority=priority,
        )
        offered.append(request)
        expect_shed = queue.depth >= config.max_depth
        accepted = queue.offer(request, now_ms)
        # admission is priority-blind: it sheds exactly on total depth
        assert accepted == (not expect_shed)
        if accepted:
            admission_index[request.request_id] = len(admitted)
            admitted.append(request)
            queued[request.request_id] = request
        else:
            shed.append(request)
        check_leaders()
        if poll:
            drain()
    drain(force=True)
    return queue, offered, admitted, shed, popped


@settings(max_examples=80, deadline=None)
@given(config=_priority_settings_strategy,
       schedule=_priority_schedule_strategy)
def test_batches_rank_by_effective_priority_then_admission(
    config, schedule
):
    """Every popped batch is ordered by (effective priority at pop
    time, admission order) — the queue's published scheduling law."""
    queue, _, _, _, popped = _replay_priorities(config, schedule)
    for pop_ms, entries in popped:
        ranks = [
            (queue.effective_priority(request, pop_ms), admission)
            for admission, request in entries
        ]
        assert ranks == sorted(ranks)


@settings(max_examples=80, deadline=None)
@given(config=_priority_settings_strategy,
       schedule=_priority_schedule_strategy)
def test_per_session_per_priority_fifo(config, schedule):
    """Two frames of one session at one priority never reorder, no
    matter how the classes interleave or age."""
    _, _, admitted, _, popped = _replay_priorities(config, schedule)
    popped_flat = [request for _, entries in popped for _, request in entries]
    pairs = {(r.session_id, r.priority) for r in admitted}
    for session, priority in pairs:
        order = [
            r.request_id
            for r in popped_flat
            if r.session_id == session and r.priority == priority
        ]
        assert order == sorted(order)


@settings(max_examples=80, deadline=None)
@given(config=_priority_settings_strategy,
       schedule=_priority_schedule_strategy)
def test_priority_conservation_and_bounds(config, schedule):
    """Conservation and batch bounds are priority-blind: the ledger
    balances exactly as in the uniform-priority law."""
    queue, offered, admitted, shed, popped = _replay_priorities(
        config, schedule
    )
    popped_flat = [request for _, entries in popped for _, request in entries]
    assert all(len(entries) <= config.max_batch for _, entries in popped)
    assert len(admitted) + len(shed) == len(offered)
    assert sorted(r.request_id for r in popped_flat) == sorted(
        r.request_id for r in admitted
    )
    assert len({r.request_id for r in popped_flat}) == len(popped_flat)
    assert queue.depth == 0
    assert all(queue.leader(key) is None for key in _KEYS)


@settings(max_examples=60, deadline=None)
@given(
    aging_ms=st.floats(0.5, 8.0, allow_nan=False),
    priority=st.integers(1, 3),
    extra_wait=st.floats(0.0, 50.0, allow_nan=False),
)
def test_aging_bounds_starvation(aging_ms, priority, extra_wait):
    """Within ``(priority + 1) * aging_ms`` of waiting, a request ranks
    with the top class — so a sustained flood of urgent arrivals can
    delay it a bounded amount, then only behind strictly older
    top-class work.  (The +1 step absorbs float flooring at the exact
    boundary.)"""
    config = ServeSettings(aging_ms=aging_ms)
    queue = BatchQueue(config)
    request = ServeRequest(
        request_id=0,
        session_id="s",
        key="k",
        bitmap=_DUMMY,
        arrival_ms=0.0,
        priority=priority,
    )
    matured = (priority + 1) * aging_ms + extra_wait
    assert queue.effective_priority(request, matured) == 0
    # and aging never *worsens* a priority, nor goes below the top
    for t in (0.0, aging_ms / 2, matured):
        effective = queue.effective_priority(request, t)
        assert 0 <= effective <= priority


# ----------------------------------------------------------------------
# Extreme aging over diff-generated partial-page streams
# ----------------------------------------------------------------------
#: slot pools small enough that revisits overlap heavily — the regime
#: the diff layer produces: most of a page inherits, a residue enqueues
_SLOT_URLS = [f"https://site.example/slot{i}.png" for i in range(6)]
_SLOT_KEYS = ["ck-ad", "ck-content", "ck-churned"]
#: per-content priority class: ads are viewport-urgent, churned
#: creatives are background — gives every residue stream mixed classes
_SLOT_PRIORITY = {"ck-ad": 0, "ck-content": 1, "ck-churned": 3}

#: a region is ``(url, content_key)``
_region_strategy = st.tuples(
    st.sampled_from(_SLOT_URLS), st.sampled_from(_SLOT_KEYS)
)
_page_strategy = st.lists(_region_strategy, min_size=1, max_size=8)


def _residue_requests(first_visit, second_visit):
    """Run two visits through the differ; the regions of the second
    visit that do not recall become the queue's arrival stream."""
    differ = FrameDiffer()
    differ.commit(
        "s", "page",
        {
            url: (content_key, BlockDecision(
                is_ad=content_key == "ck-ad",
                probability=0.97 if content_key == "ck-ad" else 0.03,
                from_cache=False,
            ))
            for url, content_key in first_visit
        },
        generation=0,
    )
    # one region per URL, the last observation wins (the renderer's
    # image-cache identity); whatever does not recall enqueues
    residue = [
        (url, content_key)
        for url, content_key in dict(second_visit).items()
        if differ.recall("s", "page", url, content_key, generation=0)
        is None
    ]
    return [
        ServeRequest(
            request_id=index,
            session_id="s",
            key=url,
            bitmap=_DUMMY,
            arrival_ms=float(index),
            priority=_SLOT_PRIORITY[content_key],
        )
        for index, (url, content_key) in enumerate(residue)
    ]


@settings(max_examples=80, deadline=None)
@given(
    first_visit=_page_strategy,
    second_visit=_page_strategy,
    aging_ms=st.sampled_from([1e-6, 1e6]),
)
def test_extreme_aging_over_diff_residue_streams(
    first_visit, second_visit, aging_ms
):
    """At both ends of the aging dial the queue stays lawful on the
    partial-page streams the diff layer emits.  ``aging_ms ~ 1e-6``
    collapses every class to the top one — pops are pure admission
    order; ``aging_ms ~ 1e6`` never promotes within the test horizon —
    pops rank by the static class.  Either way the ledger balances."""
    requests = _residue_requests(first_visit, second_visit)
    config = ServeSettings(max_batch=3, max_wait_ms=4.0, aging_ms=aging_ms)
    queue = BatchQueue(config)
    for request in requests:
        assert queue.offer(request, request.arrival_ms)
    drain_ms = (requests[-1].arrival_ms + 1.0) if requests else 1.0
    batches = []
    while True:
        batch = queue.pop_batch(drain_ms, force=True)
        if batch is None:
            break
        batches.append(batch)
    flat = [request for batch in batches for request in batch]
    assert all(len(batch) <= config.max_batch for batch in batches)
    assert sorted(r.request_id for r in flat) == [
        r.request_id for r in requests
    ]
    assert queue.depth == 0
    if aging_ms <= 1e-3:
        # everything matured past every class boundary: strict FIFO
        assert [r.request_id for r in flat] == [
            r.request_id for r in requests
        ]
    else:
        # nothing aged at all: every batch ranks by the static class,
        # FIFO within it
        for batch in batches:
            ranks = [(r.priority, r.request_id) for r in batch]
            assert ranks == sorted(ranks)
