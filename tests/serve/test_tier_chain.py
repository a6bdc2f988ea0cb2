"""One tier chain, three fronts.

``ServeLoop``, ``AsyncServeFront`` and ``RenderServeBridge`` all serve
through :class:`~repro.serve.tiers.TierChain`, so one trace replayed
through each — arrivals spaced so every request settles before the
next one arrives — must come back with bitwise-equal P(ad) and the
same answering tier per request.  Also pinned here: the degradation
ladder's last level sheds only queue-bound requests, on both fronts
that host a resilience plane.
"""

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.cascade import CascadeRouter, FrameProvenance
from repro.core import PercivalBlocker, ServeSettings
from repro.diff import FrameDiffer
from repro.resilience import (
    DegradationController,
    LadderSettings,
    ResiliencePlane,
)
from repro.resilience.degrade import LEVELS
from repro.serve import (
    ArrivalEvent,
    AsyncServeFront,
    RenderServeBridge,
    ServeLoop,
    ServeOverloadError,
    TrafficSpec,
    synthesize_traffic,
)

#: one request per batch, flushed on arrival; with arrivals 10 ms
#: apart and a 1 ms batch, each request settles before the next
SETTINGS = ServeSettings(max_batch=1, max_wait_ms=1.0, max_depth=64, lanes=1)
GAP_MS = 10.0


def _blocker(classifier):
    return PercivalBlocker(classifier, calibrated_latency_ms=1.0)


def _spaced_trace():
    """A provenance-tagged trace with shared creatives (duplicates
    across sessions) and two revisit epochs, re-timed so requests
    never overlap."""
    trace = synthesize_traffic(TrafficSpec(
        sessions=4,
        frames_per_session=8,
        duplicate_fraction=0.4,
        shared_creatives=4,
        provenance=True,
        sites=2,
        revisits=2,
        revisit_churn=0.25,
        seed=5,
    ))
    return [
        replace(event, at_ms=index * GAP_MS)
        for index, event in enumerate(trace)
    ]


def _loop_outcomes(blocker, events, **tiers):
    """(tier, P(ad)) per request through ``ServeLoop``; tier is one of
    diff/rule/memo/model/shed."""
    report = ServeLoop(blocker, SETTINGS, **tiers).run(events)
    outcomes = []
    for result in report.results:
        if result.shed:
            outcomes.append(("shed", None))
            continue
        tier = (
            "diff" if result.diff_hit
            else "rule" if result.rule_hit
            else "memo" if result.memo_hit
            else "model"
        )
        outcomes.append((tier, result.decision.probability))
    return outcomes


def _async_outcomes(blocker, events, **tiers):
    """The same through ``AsyncServeFront``, one awaited submit at a
    time; the answering tier is read off the front's hit counters."""
    front = AsyncServeFront(blocker, SETTINGS, **tiers)
    stats = front.stats

    def counters():
        return (stats.diff_hits, stats.rule_hits, stats.memo_hits)

    async def drive():
        outcomes = []
        for event in events:
            before = counters()
            try:
                decision = await front.submit(
                    event.bitmap,
                    session_id=event.session_id,
                    priority=event.priority,
                    provenance=event.provenance,
                    content_key=event.content_key,
                )
            except ServeOverloadError:
                outcomes.append(("shed", None))
                continue
            moved = [a != b for a, b in zip(counters(), before)]
            tier = (
                "diff" if moved[0]
                else "rule" if moved[1]
                else "memo" if moved[2]
                else "model"
            )
            outcomes.append((tier, decision.probability))
        await front.aclose()
        return outcomes

    return asyncio.run(drive())


def _bridge_outcomes(blocker, events, cascade):
    """The same through ``RenderServeBridge``, the way the renderer's
    async hook drives it: route, and on a miss enqueue and drain."""
    bridge = RenderServeBridge(blocker, SETTINGS, cascade=cascade)
    outcomes = []
    for event in events:
        key = bridge.blocker.fingerprint(event.bitmap)
        answered = bridge.route(
            event.bitmap, key=key, provenance=event.provenance
        )
        if answered is not None:
            outcomes.append((answered.tier, answered.decision.probability))
            continue
        bridge.enqueue(
            event.bitmap, key, event.priority, provenance=event.provenance
        )
        ((decision, _),) = bridge.drain()
        outcomes.append(("model", decision.probability))
    return outcomes


def _router():
    return CascadeRouter.with_default_filterlist()


class TestCrossFrontDifferential:
    def test_three_fronts_agree_with_diff_off(self, untrained_classifier):
        events = _spaced_trace()
        tiers = dict(differ=False, chaos=False, resilience=False)
        loop = _loop_outcomes(
            _blocker(untrained_classifier), events,
            cascade=_router(), **tiers,
        )
        front = _async_outcomes(
            _blocker(untrained_classifier), events,
            cascade=_router(), **tiers,
        )
        bridge = _bridge_outcomes(
            _blocker(untrained_classifier), events, _router()
        )
        assert len(loop) == len(events)
        # bitwise: the same tier answers each request with the same P
        assert front == loop
        assert bridge == loop
        answered_by = {tier for tier, _ in loop}
        assert {"rule", "memo", "model"} <= answered_by

    def test_loop_and_async_agree_with_a_differ(self, untrained_classifier):
        events = _spaced_trace()
        tiers = dict(chaos=False, resilience=False)
        loop = _loop_outcomes(
            _blocker(untrained_classifier), events,
            cascade=_router(), differ=FrameDiffer(), **tiers,
        )
        front = _async_outcomes(
            _blocker(untrained_classifier), events,
            cascade=_router(), differ=FrameDiffer(), **tiers,
        )
        assert front == loop
        answered_by = {tier for tier, _ in loop}
        assert {"diff", "rule", "memo", "model"} <= answered_by


# ----------------------------------------------------------------------
# Ladder level 4 ("shed"): only queue-bound requests shed
# ----------------------------------------------------------------------
def _ladder_pinned_at_shed():
    """A real controller stepped down to level 4 whose dwell is far
    longer than any test, so no evaluate can move it."""
    controller = DegradationController(LadderSettings(min_dwell_ms=1e9))
    for step in range(1, len(LEVELS)):
        controller.observe_pressure("pinned for the test")
        controller.evaluate(step * 1e9)
    controller.rebase(0.0)
    assert controller.level_name == "shed"
    return controller


class _ShedOnly(DegradationController):
    """Level 4's own flag with every cheap tier left on.  The real
    ladder has browned the cascade out by then (level 2), so this is
    what shows a rule hit surviving ``shed_all``."""

    shed_all = True

    def evaluate(self, now_ms):
        return False


def _prov(index):
    return FrameProvenance(
        url=f"https://ads.net.example/serve/c{index:04d}.png",
        page_domain="site0.example",
        width=14,
        height=12,
    )


def _frames(count):
    rng = np.random.default_rng(9)
    return [
        rng.random((12, 14, 4)).astype(np.float32) for _ in range(count)
    ]


@pytest.mark.parametrize("serve", [_loop_outcomes, _async_outcomes],
                         ids=["loop", "async"])
class TestShedLevel:
    def test_pinned_ladder_still_answers_memo_hits(
        self, serve, untrained_classifier
    ):
        memoized, fresh = _frames(2)
        blocker = _blocker(untrained_classifier)
        expected = blocker.decide(memoized).probability
        events = [
            ArrivalEvent(at_ms=0.0, session_id="s0", bitmap=memoized),
            ArrivalEvent(at_ms=GAP_MS, session_id="s0", bitmap=fresh),
        ]
        outcomes = serve(
            blocker, events, cascade=False, differ=False, chaos=False,
            resilience=ResiliencePlane(ladder=_ladder_pinned_at_shed()),
        )
        assert outcomes == [("memo", expected), ("shed", None)]

    def test_shed_all_sheds_only_queue_bound_requests(
        self, serve, untrained_classifier
    ):
        memoized, ruled, fresh = _frames(3)
        blocker = _blocker(untrained_classifier)
        expected = blocker.decide(memoized).probability
        router = CascadeRouter(None, audit_interval=0)
        router.cache.compile_rule(_prov(1).micro_key(), False, 0.25)
        events = [
            ArrivalEvent(at_ms=0.0, session_id="s0", bitmap=memoized),
            ArrivalEvent(
                at_ms=GAP_MS, session_id="s0", bitmap=ruled,
                provenance=_prov(1),
            ),
            ArrivalEvent(at_ms=2 * GAP_MS, session_id="s0", bitmap=fresh),
        ]
        plane = ResiliencePlane(ladder=_ShedOnly())
        outcomes = serve(
            blocker, events, cascade=router, differ=False, chaos=False,
            resilience=plane,
        )
        assert [tier for tier, _ in outcomes] == ["memo", "rule", "shed"]
        assert outcomes[0][1] == expected
        assert outcomes[1][1] == 0.25  # the rule's own P(ad)
        assert plane.degraded_sheds == 1
