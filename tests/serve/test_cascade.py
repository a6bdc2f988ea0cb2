"""Cascade integration with the serve loop: tier order, golden
verdicts, conservation, audit plumbing, fleet persistence."""

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.cascade import CascadeRouter, FrameProvenance
from repro.core import AdClassifier, PercivalBlocker, PercivalConfig, ServeSettings
from repro.serve import (
    ArrivalEvent,
    AsyncServeFront,
    FleetSimulator,
    FleetSpec,
    RenderServeBridge,
    ServeLoop,
    TrafficSpec,
    synthesize_traffic,
)

SETTINGS = ServeSettings(max_batch=16, max_wait_ms=4.0, max_depth=256, lanes=1)
SPEC = TrafficSpec(
    sessions=8,
    frames_per_session=10,
    duplicate_fraction=0.3,
    provenance=True,
    sites=3,
    seed=21,
)


def _blocker():
    return PercivalBlocker(
        AdClassifier(PercivalConfig(calibrated_latency_ms=1.0)),
        calibrated_latency_ms=1.0,
    )


@pytest.fixture()
def traffic():
    return synthesize_traffic(SPEC)


def test_provenance_does_not_perturb_the_trace():
    """The provenance synthesizer draws from its own derived RNG
    stream: bitmaps and arrival times are bit-identical either way."""
    plain = synthesize_traffic(replace(SPEC, provenance=False))
    with_prov = synthesize_traffic(SPEC)
    assert len(plain) == len(with_prov)
    for bare, rich in zip(plain, with_prov):
        assert bare.at_ms == rich.at_ms
        assert bare.session_id == rich.session_id
        assert bare.priority == rich.priority
        np.testing.assert_array_equal(bare.bitmap, rich.bitmap)
        assert bare.provenance is None
        assert rich.provenance is not None


def test_cascade_false_is_the_pre_cascade_path(traffic, monkeypatch):
    """``cascade=False`` pins the router off even when the environment
    says on — results match a run where the knob does not exist."""
    monkeypatch.delenv("PERCIVAL_CASCADE", raising=False)
    baseline = ServeLoop(_blocker(), SETTINGS, cascade=False).run(traffic)
    monkeypatch.setenv("PERCIVAL_CASCADE", "on")
    pinned = ServeLoop(_blocker(), SETTINGS, cascade=False).run(traffic)
    assert pinned.stats.rule_hits == 0
    assert pinned.stats.cascade is None
    assert pinned.makespan_ms == baseline.makespan_ms
    for a, b in zip(baseline.results, pinned.results):
        assert (a.request_id, a.complete_ms, a.decision.is_ad) == (
            b.request_id, b.complete_ms, b.decision.is_ad
        )


def test_cascade_on_changes_no_verdicts(traffic):
    off = ServeLoop(_blocker(), SETTINGS, cascade=False).run(traffic)
    router = CascadeRouter.with_default_filterlist()
    on = ServeLoop(_blocker(), SETTINGS, cascade=router).run(traffic)
    assert off.stats.shed == on.stats.shed == 0
    off_verdicts = {r.request_id: r.decision.is_ad for r in off.results}
    on_verdicts = {r.request_id: r.decision.is_ad for r in on.results}
    assert off_verdicts == on_verdicts
    assert on.stats.rule_hits > 0
    assert on.stats.cascade is router.stats


def test_rule_hits_conserve_and_skip_the_queue(traffic):
    router = CascadeRouter.with_default_filterlist()
    report = ServeLoop(_blocker(), SETTINGS, cascade=router).run(traffic)
    stats = report.stats
    assert stats.conserved()
    rule_results = [r for r in report.results if r.rule_hit]
    assert len(rule_results) == stats.rule_hits == router.stats.rule_hits
    for result in rule_results:
        # answered at arrival: no queue wait, no lane, no memo flag
        assert result.complete_ms == result.arrival_ms
        assert result.lane == -1
        assert not result.memo_hit
        assert result.rule_tier in ("micro", "list")
        assert result.decision.from_cache
    # rule hits never occupy a batch slot (diff_hits covers runs with
    # the PERCIVAL_DIFF tier enabled in front of the cascade)
    assert (
        stats.batched_requests + stats.memo_hits + stats.coalesced
        + stats.rule_hits + stats.diff_hits == stats.answered
    )


def test_rule_tier_wins_over_memo():
    """A key that is both memoized and covered by a serving micro-rule
    is answered by the rule: tier order is rule -> memo -> queue."""
    traffic = synthesize_traffic(SPEC)
    router = CascadeRouter.with_default_filterlist()
    blocker = _blocker()
    first = ServeLoop(blocker, SETTINGS, cascade=router).run(traffic)
    # replay the same trace through the same warm blocker + router:
    # every key is now memoized AND most sources hold micro-rules
    second = ServeLoop(blocker, SETTINGS, cascade=router).run(traffic)
    assert second.stats.rule_hits > first.stats.rule_hits
    # a rule hit is answered before the fingerprint (its result key is
    # ""), so hash the matching events' bitmaps; the trace is already
    # in arrival order, which is the order results come back in
    rule_keys = {
        blocker.fingerprint(event.bitmap)
        for event, result in zip(traffic, second.results)
        if result.rule_hit
    }
    memoized = [k for k in rule_keys
                if blocker.memoized_decision(key=k) is not None]
    # the memo would have answered these — the rule tier got there first
    assert memoized


def test_audits_reconcile_through_the_memo_path():
    """An audited prediction that lands on a memoized key still feeds
    the model verdict back to the rule's health ledger."""
    traffic = synthesize_traffic(SPEC)
    router = CascadeRouter(None, audit_interval=2)  # micro tier only
    blocker = _blocker()
    ServeLoop(blocker, SETTINGS, cascade=router).run(traffic)
    ServeLoop(blocker, SETTINGS, cascade=router).run(traffic)
    assert router.stats.audits > 0
    audited = [r for r in (router.cache.get(k) for k in
                           list(router.cache._rules)) if r.audits > 0]
    assert audited
    # the untrained model always agrees with its own compiled rules
    assert all(r.agreements >= r.audits > 0 or r.agreements > 0
               for r in audited)
    assert router.stats.invalidations == 0


def test_fleet_simulator_persists_the_rule_cache_across_epochs():
    spec = FleetSpec(
        epochs=3,
        base_sessions=4,
        peak_sessions=8,
        frames_per_session=8,
        seed=11,
    )
    router = CascadeRouter.with_default_filterlist()
    simulator = FleetSimulator(
        _blocker(),
        replace(SETTINGS, max_depth=512),
        cascade=router,
    )
    report = simulator.run(spec)
    assert report.conserved()
    assert simulator.cascade is router  # one router for the whole day
    assert router.stats.routed > 0
    # rules compiled in early epochs serve later ones
    assert router.stats.rule_hits > 0
    assert router.cache.serving_count > 0


def test_async_front_routes_through_the_cascade(traffic):
    router = CascadeRouter.with_default_filterlist()
    front = AsyncServeFront(_blocker(), SETTINGS, cascade=router)

    async def drive():
        decisions = []
        for event in traffic:
            decisions.append(await front.submit(
                event.bitmap,
                session_id=event.session_id,
                provenance=event.provenance,
            ))
        await front.aclose()
        return decisions

    decisions = asyncio.run(drive())
    assert len(decisions) == len(traffic)
    assert all(d is not None for d in decisions)
    assert front.stats.conserved()
    assert front.stats.rule_hits > 0
    assert front.stats.cascade is router.stats

    # verdict parity with the cascade-free front on the same stream
    plain_front = AsyncServeFront(_blocker(), SETTINGS, cascade=False)

    async def drive_plain():
        outcomes = []
        for event in traffic:
            outcomes.append(await plain_front.submit(
                event.bitmap, session_id=event.session_id
            ))
        await plain_front.aclose()
        return outcomes

    plain = asyncio.run(drive_plain())
    assert [d.is_ad for d in decisions] == [d.is_ad for d in plain]


def _coalesced_audit_setup():
    """A serving micro-rule whose every hit audits, plus N arrivals of
    one identical frame: one leader, N-1 coalesced riders, every one
    of them carrying its own audit ticket into the same flush."""
    rng = np.random.default_rng(17)
    bitmap = rng.random((32, 32, 4)).astype(np.float32)
    provenance = FrameProvenance(
        url="https://ads.net.example/serve/c0001.png",
        page_domain="site0.example",
        width=320,
        height=100,
    )
    router = CascadeRouter(None, audit_interval=1, invalidate_after=2)
    # the rule predicts "ad"; the untrained model will answer "not ad",
    # so every healer observation on this rule is a disagreement
    rule = router.cache.compile_rule(provenance.micro_key(), True, 0.99)
    events = [
        ArrivalEvent(
            at_ms=0.0, session_id=f"s{i}", bitmap=bitmap,
            provenance=provenance,
        )
        for i in range(4)
    ]
    return router, rule, events


def test_coalesced_riders_feed_the_healer_once_per_verdict():
    """Regression: a flush settling one computed verdict across a
    leader and its coalesced riders must produce exactly ONE healer
    observation — not one per rider.  Before the fix, four riders of a
    disagreeing frame meant four disagreements from a single model
    verdict, enough to invalidate a healthy rule in one flush."""
    router, rule, events = _coalesced_audit_setup()
    report = ServeLoop(_blocker(), SETTINGS, cascade=router).run(events)
    stats = report.stats
    assert stats.conserved()
    assert stats.coalesced == 3 and stats.batched_requests == 1
    assert rule.audits == 4  # every arrival was audited at route time
    # one computed verdict -> one observation, rider count irrelevant
    assert rule.agreements + rule.disagreements == 1
    assert rule.disagreements == 1
    assert not rule.invalidated, (
        "a single verdict must never count as repeated drift"
    )
    assert router.stats.audit_invalidations == 0


def test_coalesced_riders_feed_the_healer_once_async():
    """The asyncio front's settle path obeys the same law."""
    router, rule, events = _coalesced_audit_setup()
    front = AsyncServeFront(_blocker(), SETTINGS, cascade=router)

    async def drive():
        results = await asyncio.gather(*[
            front.submit(
                event.bitmap,
                session_id=event.session_id,
                provenance=event.provenance,
            )
            for event in events
        ])
        await front.aclose()
        return results

    decisions = asyncio.run(drive())
    assert len(decisions) == len(events)
    assert front.stats.conserved()
    assert front.stats.coalesced == 3
    assert rule.agreements + rule.disagreements == 1
    assert not rule.invalidated


def test_bridge_queues_the_request_its_tiers_audited():
    """A bridge miss queues the very request the tiers probed, so the
    rule's open audit ticket rides it into the drain."""
    router, rule, events = _coalesced_audit_setup()
    bridge = RenderServeBridge(_blocker(), SETTINGS, cascade=router)
    event = events[0]
    assert bridge.submit(event.bitmap, provenance=event.provenance) is None
    assert rule.audits == 1
    (queued,) = bridge._pending
    assert queued.bitmap is event.bitmap
    assert queued.key == bridge.blocker.fingerprint(event.bitmap)
    assert queued.audit is not None
    assert queued.audit.rule_key == rule.key
    bridge.drain()
    assert rule.agreements + rule.disagreements == 1


def test_coalesced_riders_feed_the_healer_once_bridge():
    """The renderer bridge's drain obeys the same law: four enqueued
    copies of one audited frame in one chunk are one computed verdict,
    so one healer observation."""
    router, rule, events = _coalesced_audit_setup()
    bridge = RenderServeBridge(_blocker(), SETTINGS, cascade=router)
    for event in events:
        key = bridge.blocker.fingerprint(event.bitmap)
        assert bridge.submit(
            event.bitmap, key, provenance=event.provenance
        ) is None
    decisions = bridge.drain()
    assert len(decisions) == len(events)
    assert bridge.batches_flushed == 1
    assert rule.audits == 4
    assert rule.agreements + rule.disagreements == 1
    assert not rule.invalidated
    assert router.stats.audit_invalidations == 0
