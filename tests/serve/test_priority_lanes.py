"""Multi-lane scheduling and priority classes in :class:`ServeLoop`.

The lane contract: lanes change *when* batches compute (up to ``n``
flushes overlap in virtual time), never *what* any verdict is and never
the conservation ledger.  One lane reproduces the pre-lane serializing
loop exactly; the dispatch tie-break (lowest free lane index) keeps
every multi-lane schedule bit-identical run to run.
"""

import numpy as np
import pytest

from repro.core import PercivalBlocker, ServeSettings
from repro.serve import (
    PRIORITY_BELOW_FOLD,
    PRIORITY_VIEWPORT,
    ArrivalEvent,
    RenderServeBridge,
    ServeLoop,
    TrafficSpec,
    synthesize_traffic,
)
from repro.serve.loop import _pool_capacity


def _blocker(classifier, **kwargs):
    kwargs.setdefault("calibrated_latency_ms", 4.0)
    return PercivalBlocker(classifier, **kwargs)


def _heavy_trace(seed=77):
    """Enough concurrent sessions that batches genuinely queue up."""
    return synthesize_traffic(TrafficSpec(
        sessions=12, frames_per_session=6, mean_gap_ms=0.5,
        session_stagger_ms=0.25, seed=seed,
    ))


class _StubPool:
    def __init__(self, capacity):
        self.available_capacity = capacity


class TestLaneResolution:
    def test_settings_pin_wins_over_env(
        self, untrained_classifier, monkeypatch
    ):
        monkeypatch.setenv("PERCIVAL_SERVE_LANES", "7")
        loop = ServeLoop(
            _blocker(untrained_classifier), ServeSettings(lanes=2)
        )
        assert loop.resolved_lanes() == 2

    def test_env_wins_over_pool_capacity(
        self, untrained_classifier, monkeypatch
    ):
        monkeypatch.setenv("PERCIVAL_SERVE_LANES", "3")
        blocker = _blocker(untrained_classifier)
        blocker.pool = _StubPool(capacity=5)
        assert ServeLoop(blocker).resolved_lanes() == 3

    def test_pool_capacity_sizes_lanes_by_default(
        self, untrained_classifier, monkeypatch
    ):
        monkeypatch.delenv("PERCIVAL_SERVE_LANES", raising=False)
        blocker = _blocker(untrained_classifier)
        blocker.pool = _StubPool(capacity=4)
        assert ServeLoop(blocker).resolved_lanes() == 4

    def test_poolless_defaults_to_one_lane(
        self, untrained_classifier, monkeypatch
    ):
        monkeypatch.delenv("PERCIVAL_SERVE_LANES", raising=False)
        assert ServeLoop(_blocker(untrained_classifier)).resolved_lanes() == 1

    def test_pool_capacity_probe(self):
        assert _pool_capacity(None) == 0
        assert _pool_capacity(object()) == 0
        assert _pool_capacity(_StubPool(capacity=3)) == 3
        assert _pool_capacity(_StubPool(capacity=0)) == 0


class TestMultiLaneScheduling:
    def test_multi_lane_replays_bit_identically(self, untrained_classifier):
        events = _heavy_trace()
        settings = ServeSettings(
            max_batch=8, max_wait_ms=1.0, max_depth=128, lanes=3
        )
        runs = [
            ServeLoop(_blocker(untrained_classifier), settings).run(events)
            for _ in range(2)
        ]
        assert runs[0].makespan_ms == runs[1].makespan_ms
        assert [
            (r.request_id, r.flush_ms, r.complete_ms, r.lane, r.shed)
            for r in runs[0].results
        ] == [
            (r.request_id, r.flush_ms, r.complete_ms, r.lane, r.shed)
            for r in runs[1].results
        ]

    def test_lanes_overlap_and_shrink_the_makespan(
        self, untrained_classifier
    ):
        events = _heavy_trace()
        def run(lanes):
            return ServeLoop(
                _blocker(untrained_classifier),
                ServeSettings(
                    max_batch=8, max_wait_ms=1.0, max_depth=256, lanes=lanes
                ),
            ).run(events)
        single = run(1)
        double = run(2)
        assert single.stats.conserved() and double.stats.conserved()
        assert not single.stats.shed and not double.stats.shed
        # both lanes actually carried work...
        assert set(double.stats.lane_busy_ms) == {0, 1}
        assert all(v > 0 for v in double.stats.lane_busy_ms.values())
        # ...and overlapping them compressed virtual time
        assert double.makespan_ms < single.makespan_ms

    def test_verdicts_identical_across_lane_counts(
        self, untrained_classifier
    ):
        events = _heavy_trace(seed=13)
        reports = {}
        for lanes in (1, 3):
            report = ServeLoop(
                _blocker(untrained_classifier),
                ServeSettings(
                    max_batch=8, max_wait_ms=1.0, max_depth=256, lanes=lanes
                ),
            ).run(events)
            assert report.stats.conserved() and not report.stats.shed
            reports[lanes] = report
        for one, three in zip(
            reports[1].results, reports[3].results
        ):
            assert one.request_id == three.request_id
            assert one.key == three.key
            np.testing.assert_array_equal(
                one.decision.probability, three.decision.probability
            )
            assert one.decision.is_ad == three.decision.is_ad

    def test_single_lane_serializes_on_lane_zero(self, untrained_classifier):
        report = ServeLoop(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=4, max_wait_ms=1.0, lanes=1),
        ).run(_heavy_trace(seed=3))
        batched = [r for r in report.results if r.lane >= 0]
        assert batched and all(r.lane == 0 for r in batched)
        # memo hits / sheds never occupy a lane
        assert all(
            r.lane == -1 for r in report.results if r.memo_hit or r.shed
        )
        # one lane never overlaps: completions are monotone
        flushes = sorted(
            {(r.flush_ms, r.complete_ms) for r in batched}
        )
        for (_, done), (started, _) in zip(flushes, flushes[1:]):
            assert started >= done


class TestPriorityScheduling:
    def test_viewport_batch_preempts_older_below_fold(
        self, untrained_classifier
    ):
        """While the single lane is busy with a warmup batch, two
        below-the-fold frames queue, then two viewport frames.  When
        the lane frees, it must serve the viewport pair ahead of the
        strictly older fold pair (aging disabled by a huge ``aging_ms``
        so the classes cannot blur)."""
        rng = np.random.default_rng(21)
        frames = [
            rng.random((12, 14, 4)).astype(np.float32) for _ in range(6)
        ]
        warmup = [
            ArrivalEvent(
                at_ms=0.0, session_id="warmup", bitmap=frames[index],
                priority=PRIORITY_VIEWPORT,
            )
            for index in range(2)
        ]
        fold = [
            ArrivalEvent(
                at_ms=0.2 + 0.1 * index,
                session_id="fold",
                bitmap=frames[2 + index],
                priority=PRIORITY_BELOW_FOLD,
            )
            for index in range(2)
        ]
        viewport = [
            ArrivalEvent(
                at_ms=0.5 + 0.1 * index,
                session_id="viewport",
                bitmap=frames[4 + index],
                priority=PRIORITY_VIEWPORT,
            )
            for index in range(2)
        ]
        report = ServeLoop(
            _blocker(untrained_classifier),
            ServeSettings(
                max_batch=2, max_wait_ms=10.0, max_depth=64,
                lanes=1, aging_ms=10_000.0,
            ),
        ).run(warmup + fold + viewport)
        assert report.stats.conserved() and not report.stats.shed
        flush_of = {
            session: min(
                r.flush_ms
                for r in report.results
                if r.session_id == session
            )
            for session in ("warmup", "fold", "viewport")
        }
        # warmup held the lane past every later arrival...
        assert flush_of["warmup"] == 0.0
        # ...and the freed lane served viewport before the older fold
        assert flush_of["viewport"] < flush_of["fold"]

    def test_queue_wait_tracked_per_priority(self, untrained_classifier):
        events = synthesize_traffic(TrafficSpec(
            sessions=8, frames_per_session=8, viewport_frames=4,
            mean_gap_ms=0.5, seed=9,
        ))
        assert {e.priority for e in events} == {
            PRIORITY_VIEWPORT, PRIORITY_BELOW_FOLD
        }
        report = ServeLoop(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=8, max_wait_ms=1.0, lanes=1),
        ).run(events)
        assert report.stats.conserved()
        by_priority = report.stats.queue_wait_by_priority
        assert set(by_priority) == {PRIORITY_VIEWPORT, PRIORITY_BELOW_FOLD}
        answered = len(report.answered)
        assert sum(s.count for s in by_priority.values()) == answered


class TestBridgeDrainOrder:
    def test_drain_is_viewport_first_then_submit_order(
        self, untrained_classifier, monkeypatch
    ):
        """The bridge drains by ``(priority, submit sequence)`` in
        ``max_batch`` chunks, whatever order the page decoded in."""
        blocker = _blocker(untrained_classifier)
        bridge = RenderServeBridge(blocker, ServeSettings(max_batch=2))
        rng = np.random.default_rng(5)
        frames = [rng.random((12, 14, 4)).astype(np.float32)
                  for _ in range(4)]
        batches = []
        decide_many = blocker.decide_many

        def spy(bitmaps, keys=None):
            batches.append([
                next(i for i, frame in enumerate(frames) if frame is bitmap)
                for bitmap in bitmaps
            ])
            return decide_many(bitmaps, keys=keys)

        monkeypatch.setattr(blocker, "decide_many", spy)
        for frame, priority in zip(frames, (
            PRIORITY_BELOW_FOLD, PRIORITY_VIEWPORT,
            PRIORITY_BELOW_FOLD, PRIORITY_VIEWPORT,
        )):
            assert bridge.submit(frame, priority=priority) is None
        assert len(bridge.drain()) == 4
        assert batches == [[1, 3], [0, 2]]
