"""The deterministic chaos plane: seeded schedules, cursor window
semantics, environment resolution, and the standing serve invariant —
an injected fault moves *where or whether* work happens, never the
value of a served P(ad)."""

import numpy as np
import pytest

from repro.core import (
    InferenceWorkerPool,
    PercivalBlocker,
    ServeSettings,
)
from repro.resilience import (
    ChaosEvent,
    ChaosSchedule,
    ResiliencePlane,
)
from repro.serve import ArrivalEvent, ServeLoop
from repro.serve.tiers import resolve_tiers

SETTINGS = ServeSettings(max_batch=4, max_wait_ms=2.0, max_depth=256, lanes=1)


def _blocker(classifier, **kwargs):
    kwargs.setdefault("calibrated_latency_ms", 2.0)
    return PercivalBlocker(classifier, **kwargs)


def _frames(count, seed=0, size=(12, 14)):
    rng = np.random.default_rng(seed)
    return [
        rng.random((*size, 4)).astype(np.float32) for _ in range(count)
    ]


def _steady_events(frames, gap_ms=1.0, session="s0"):
    return [
        ArrivalEvent(at_ms=index * gap_ms, session_id=session, bitmap=frame)
        for index, frame in enumerate(frames)
    ]


def _served(report):
    """(request_id, probability) for every answered request."""
    return [
        (r.request_id, r.decision.probability)
        for r in report.results
        if r.decision is not None
    ]


class TestEventValidation:
    def test_rejects_malformed_events(self):
        with pytest.raises(ValueError):
            ChaosEvent(at_ms=0.0, fault="meteor-strike")
        with pytest.raises(ValueError):
            ChaosEvent(at_ms=-1.0, fault="latency-spike")
        with pytest.raises(ValueError):
            ChaosEvent(at_ms=0.0, fault="tier-outage", target="pool")
        with pytest.raises(ValueError):
            ChaosEvent(at_ms=0.0, fault="latency-spike", magnitude=0.0)

    def test_worker_index_parses_target(self):
        assert ChaosEvent(at_ms=0.0, fault="worker-death").worker_index == 0
        assert ChaosEvent(
            at_ms=0.0, fault="worker-death", target="3"
        ).worker_index == 3


class TestScheduleDeterminism:
    def test_same_seed_same_schedule(self):
        assert ChaosSchedule.seeded(7) == ChaosSchedule.seeded(7)
        assert ChaosSchedule.seeded(7) != ChaosSchedule.seeded(8)

    def test_events_are_time_sorted(self):
        schedule = ChaosSchedule([
            ChaosEvent(at_ms=30.0, fault="latency-spike", duration_ms=5.0),
            ChaosEvent(at_ms=10.0, fault="tier-outage", target="memo",
                       duration_ms=5.0),
        ])
        assert [event.at_ms for event in schedule] == [10.0, 30.0]
        assert "chaos schedule (2 events)" in schedule.describe()

    def test_cursors_are_independent_replays(self):
        schedule = ChaosSchedule.seeded(3)
        first, second = schedule.cursor(), schedule.cursor()
        first.fire_due(1e9)
        assert len(first.fired) == len(schedule)
        assert second.next_at_ms() == schedule.events[0].at_ms
        assert second.fired == []


class TestCursorWindows:
    def test_outage_anchors_on_the_event_tick(self):
        """A clock that jumps straight past a short outage must see it
        already expired — windows anchor on at_ms, not observation."""
        cursor = ChaosSchedule([
            ChaosEvent(at_ms=10.0, fault="tier-outage", target="memo",
                       duration_ms=5.0),
        ]).cursor()
        cursor.fire_due(40.0)  # observed late
        assert not cursor.tier_out("memo", 40.0)
        # a second replay observed on time sees the window open
        cursor = ChaosSchedule([
            ChaosEvent(at_ms=10.0, fault="tier-outage", target="memo",
                       duration_ms=5.0),
        ]).cursor()
        cursor.fire_due(10.0)
        assert cursor.tier_out("memo", 12.0)
        assert not cursor.tier_out("memo", 15.0)

    def test_overlapping_outages_max_merge(self):
        cursor = ChaosSchedule([
            ChaosEvent(at_ms=0.0, fault="tier-outage", target="diff",
                       duration_ms=20.0),
            ChaosEvent(at_ms=5.0, fault="tier-outage", target="diff",
                       duration_ms=5.0),
        ]).cursor()
        cursor.fire_due(5.0)
        assert cursor.tier_out("diff", 15.0)  # the longer window rules

    def test_tier_errors_are_consumed_one_shot(self):
        cursor = ChaosSchedule([
            ChaosEvent(at_ms=0.0, fault="tier-error", target="cascade"),
        ]).cursor()
        cursor.fire_due(0.0)
        assert cursor.take_tier_error("cascade")
        assert not cursor.take_tier_error("cascade")
        assert not cursor.take_tier_error("diff")

    def test_latency_spikes_take_the_worst_and_expire(self):
        cursor = ChaosSchedule([
            ChaosEvent(at_ms=0.0, fault="latency-spike", duration_ms=10.0,
                       magnitude=4.0),
            ChaosEvent(at_ms=2.0, fault="latency-spike", duration_ms=20.0,
                       magnitude=2.0),
        ]).cursor()
        cursor.fire_due(2.0)
        assert cursor.latency_multiplier(5.0) == 4.0   # worst, not product
        assert cursor.latency_multiplier(15.0) == 2.0  # first expired
        assert cursor.latency_multiplier(30.0) == 1.0


def resolve_chaos(chaos, config):
    """The chaos tier a front resolves for ``chaos=``."""
    return resolve_tiers(config, chaos=chaos).chaos


def resolve_resilience(resilience, config, chaos_active=False):
    """The plane a front resolves for ``resilience=``, with or without
    an active chaos schedule beside it."""
    chaos = ChaosSchedule.seeded(0) if chaos_active else False
    return resolve_tiers(config, chaos=chaos, resilience=resilience).resilience


class TestEnvironmentResolution:
    def test_resolve_chaos_off_paths(self, untrained_classifier, monkeypatch):
        config = untrained_classifier.config
        monkeypatch.delenv("PERCIVAL_CHAOS", raising=False)
        assert resolve_chaos(None, config) is None
        assert resolve_chaos(False, config) is None
        monkeypatch.setenv("PERCIVAL_CHAOS", "off")
        assert resolve_chaos(None, config) is None
        monkeypatch.setenv("PERCIVAL_CHAOS", "23")
        assert resolve_chaos(False, config) is None  # pinned off wins

    def test_resolve_chaos_env_seed(self, untrained_classifier, monkeypatch):
        config = untrained_classifier.config
        monkeypatch.setenv("PERCIVAL_CHAOS", "23")
        assert resolve_chaos(None, config) == ChaosSchedule.seeded(23)
        schedule = ChaosSchedule.seeded(1)
        assert resolve_chaos(schedule, config) is schedule
        with pytest.raises(TypeError):
            resolve_chaos("on", config)

    def test_resolve_resilience_paths(
        self, untrained_classifier, monkeypatch
    ):
        config = untrained_classifier.config
        monkeypatch.delenv("PERCIVAL_RESILIENCE", raising=False)
        assert resolve_resilience(None, config) is None
        assert resolve_resilience(None, config, chaos_active=True) is not None
        assert resolve_resilience(False, config, chaos_active=True) is None
        monkeypatch.setenv("PERCIVAL_RESILIENCE", "on")
        assert resolve_resilience(None, config) is not None
        plane = ResiliencePlane()
        assert resolve_resilience(plane, config) is plane

    def test_serve_loop_picks_up_the_env_knob(
        self, untrained_classifier, monkeypatch
    ):
        monkeypatch.setenv("PERCIVAL_CHAOS", "5")
        loop = ServeLoop(_blocker(untrained_classifier), SETTINGS)
        assert loop.chaos == ChaosSchedule.seeded(5)
        assert loop.resilience is not None  # chaos implies the plane

    def test_chaos_off_is_byte_identical_to_the_seed_path(
        self, untrained_classifier, monkeypatch
    ):
        """``PERCIVAL_CHAOS=off`` (and unset) replay the exact same
        trace as a loop built before the chaos plane existed."""
        events = _steady_events(_frames(10, seed=4), gap_ms=0.7)
        monkeypatch.delenv("PERCIVAL_CHAOS", raising=False)
        baseline = ServeLoop(
            _blocker(untrained_classifier), SETTINGS
        ).run(events)
        monkeypatch.setenv("PERCIVAL_CHAOS", "off")
        pinned = ServeLoop(
            _blocker(untrained_classifier), SETTINGS
        ).run(events)
        assert pinned.makespan_ms == baseline.makespan_ms
        assert [
            (r.request_id, r.flush_ms, r.complete_ms,
             r.decision.probability)
            for r in pinned.results
        ] == [
            (r.request_id, r.flush_ms, r.complete_ms,
             r.decision.probability)
            for r in baseline.results
        ]


class TestServeInvariants:
    def test_memo_outage_moves_hits_not_values(self, untrained_classifier):
        """A memo blackout forces re-computation of duplicates the memo
        would have answered — fewer memo hits, identical verdicts."""
        frames = _frames(4, seed=9)
        events = _steady_events(frames, gap_ms=1.0) + [
            ArrivalEvent(at_ms=60.0 + i, session_id="later", bitmap=frame)
            for i, frame in enumerate(frames)
        ]
        fault_free = ServeLoop(
            _blocker(untrained_classifier), SETTINGS,
            chaos=False, resilience=False,
        ).run(events)
        assert fault_free.stats.memo_hits == len(frames)
        blackout = ChaosSchedule([
            ChaosEvent(at_ms=50.0, fault="tier-outage", target="memo",
                       duration_ms=100.0),
        ])
        chaotic = ServeLoop(
            _blocker(untrained_classifier), SETTINGS, chaos=blackout,
        ).run(events)
        assert chaotic.stats.memo_hits == 0
        assert chaotic.stats.conserved()
        assert _served(chaotic) == _served(fault_free)

    def test_latency_spike_stretches_time_not_verdicts(
        self, untrained_classifier
    ):
        events = _steady_events(_frames(12, seed=2), gap_ms=0.5)
        fault_free = ServeLoop(
            _blocker(untrained_classifier), SETTINGS,
            compute_model=lambda n: 2.0, chaos=False, resilience=False,
        ).run(events)
        spike = ChaosSchedule([
            ChaosEvent(at_ms=0.0, fault="latency-spike", duration_ms=50.0,
                       magnitude=8.0),
        ])
        chaotic = ServeLoop(
            _blocker(untrained_classifier), SETTINGS,
            compute_model=lambda n: 2.0, chaos=spike,
        ).run(events)
        assert chaotic.makespan_ms > fault_free.makespan_ms
        assert chaotic.stats.conserved()
        assert _served(chaotic) == _served(fault_free)

    def test_worker_death_falls_back_with_identical_verdicts(
        self, untrained_classifier
    ):
        """The planned mid-batch kill: the armed worker dies on its
        next dispatch, the blocker falls back in-process exactly once,
        and no served value moves."""
        frames = _frames(8, seed=5)
        events = [
            ArrivalEvent(at_ms=0.0, session_id="s0", bitmap=frame)
            for frame in frames
        ]
        reference = ServeLoop(
            _blocker(untrained_classifier), SETTINGS,
            chaos=False, resilience=False,
        ).run(events)
        kill = ChaosSchedule([
            ChaosEvent(at_ms=0.0, fault="worker-death", target="0"),
        ])
        with InferenceWorkerPool(num_workers=2, timeout_s=10.0) as pool:
            pool.publish(untrained_classifier)
            blocker = _blocker(
                untrained_classifier, pool=pool, shard_min_batch=4
            )
            report = ServeLoop(blocker, SETTINGS, chaos=kill).run(events)
            assert blocker.pool_fallbacks == 1
        assert report.stats.conserved()
        assert _served(report) == _served(reference)

    def test_publish_failure_heals_without_changing_verdicts(
        self, untrained_classifier
    ):
        frames = _frames(8, seed=6)
        events = [
            ArrivalEvent(at_ms=0.0, session_id="s0", bitmap=frame)
            for frame in frames
        ]
        reference = ServeLoop(
            _blocker(untrained_classifier), SETTINGS,
            chaos=False, resilience=False,
        ).run(events)
        fail_publish = ChaosSchedule([
            ChaosEvent(at_ms=0.0, fault="publish-fail"),
        ])
        with InferenceWorkerPool(num_workers=2, timeout_s=10.0) as pool:
            blocker = _blocker(
                untrained_classifier, pool=pool, shard_min_batch=4
            )
            report = ServeLoop(
                blocker, SETTINGS, chaos=fail_publish
            ).run(events)
            assert blocker.pool_fallbacks >= 1
        assert report.stats.conserved()
        assert _served(report) == _served(reference)
