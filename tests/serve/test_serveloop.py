"""Deterministic serving simulations + the asyncio front door.

The contract: the serving layer changes *when* and *in what grouping*
classifications run — never what any verdict is, and never whether a
request gets an answer.  Every simulation here replays bit-identically
and is checked for conservation (answered + shed == submitted).
"""

import asyncio

import numpy as np
import pytest

from repro.core import PercivalBlocker, ServeSettings, knob
from repro.serve import (
    ArrivalEvent,
    AsyncServeFront,
    BatchComputeModel,
    LatencySummary,
    ServeLoop,
    ServeOverloadError,
    TrafficSpec,
    synthesize_traffic,
)


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


class TestServeLoopSimulation:
    def test_replays_bit_identically(self, untrained_classifier):
        events = synthesize_traffic(TrafficSpec(
            sessions=3, frames_per_session=5, seed=11,
        ))
        settings = ServeSettings(max_batch=4, max_wait_ms=2.0, max_depth=16)
        first = ServeLoop(
            _blocker(untrained_classifier), settings
        ).run(events)
        second = ServeLoop(
            _blocker(untrained_classifier), settings
        ).run(events)
        assert first.makespan_ms == second.makespan_ms
        assert [
            (r.request_id, r.flush_ms, r.complete_ms, r.shed)
            for r in first.results
        ] == [
            (r.request_id, r.flush_ms, r.complete_ms, r.shed)
            for r in second.results
        ]

    def test_verdicts_match_unbatched_reference(self, untrained_classifier):
        events = synthesize_traffic(TrafficSpec(
            sessions=4, frames_per_session=6, seed=5,
        ))
        report = ServeLoop(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=8, max_wait_ms=3.0, max_depth=64),
        ).run(events)
        assert report.stats.conserved()
        assert not report.stats.shed
        reference = _blocker(untrained_classifier)
        for event, result in zip(
            sorted(events, key=lambda e: e.at_ms), report.results
        ):
            expected = reference.decide(event.bitmap)
            assert result.decision.is_ad == expected.is_ad
            assert result.decision.probability == expected.probability

    def test_batches_coalesce_and_respect_max_batch(
        self, untrained_classifier
    ):
        frames = _frames(20, seed=3)
        events = _steady_events(frames, gap_ms=0.1)
        blocker = _blocker(untrained_classifier)
        report = ServeLoop(
            blocker, ServeSettings(max_batch=6, max_wait_ms=5.0, max_depth=64)
        ).run(events)
        assert report.stats.batches >= 2
        assert 1.0 < report.stats.mean_batch_size <= 6.0
        # every classification went through the blocker exactly once
        assert blocker.classifications == len(frames)

    def test_memo_answers_duplicates_across_sessions(
        self, untrained_classifier
    ):
        frames = _frames(4, seed=9)
        early = [
            ArrivalEvent(at_ms=i * 1.0, session_id="page-a", bitmap=f)
            for i, f in enumerate(frames)
        ]
        # far enough later that page-a's batches have completed
        late = [
            ArrivalEvent(at_ms=100.0 + i * 1.0, session_id="page-b", bitmap=f)
            for i, f in enumerate(frames)
        ]
        blocker = _blocker(untrained_classifier)
        report = ServeLoop(
            blocker, ServeSettings(max_batch=4, max_wait_ms=2.0, max_depth=32)
        ).run(early + late)
        assert report.stats.memo_hits == len(frames)
        assert blocker.classifications == len(frames)
        hits = [r for r in report.results if r.memo_hit]
        assert {r.session_id for r in hits} == {"page-b"}
        # memo hits answer instantly: no queue wait, no compute
        assert all(r.latency_ms == 0.0 for r in hits)

    def test_in_window_duplicates_ride_along(self, untrained_classifier):
        frame = _frames(1, seed=21)[0]
        events = [
            ArrivalEvent(at_ms=0.0, session_id="a", bitmap=frame),
            ArrivalEvent(at_ms=0.5, session_id="b", bitmap=frame),
            ArrivalEvent(at_ms=1.0, session_id="c", bitmap=frame),
        ]
        blocker = _blocker(untrained_classifier)
        report = ServeLoop(
            blocker,
            ServeSettings(max_batch=8, max_wait_ms=4.0, max_depth=32),
        ).run(events)
        assert blocker.classifications == 1
        assert report.stats.coalesced == 2
        assert report.stats.batches == 1
        decisions = [r.decision for r in report.results]
        assert all(d.probability == decisions[0].probability for d in decisions)
        # riders complete when their leader's batch completes
        assert len({r.complete_ms for r in report.results}) == 1

    def test_overload_sheds_explicitly_and_conserves(
        self, untrained_classifier
    ):
        # a hostile burst: everything lands at t=0 while each batch
        # takes long enough that the queue saturates behind the lane
        frames = _frames(64, seed=7)
        events = [
            ArrivalEvent(at_ms=0.0, session_id=f"s{i % 8}", bitmap=f)
            for i, f in enumerate(frames)
        ]
        report = ServeLoop(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=4, max_wait_ms=1.0, max_depth=8),
            compute_model=lambda n: 50.0,
        ).run(events)
        assert report.stats.shed > 0
        assert report.stats.conserved()
        shed = report.shed
        assert all(r.decision is None for r in shed)
        answered = report.answered
        assert all(r.decision is not None for r in answered)
        assert len(answered) + len(shed) == len(frames)

    def test_slow_batch_delays_the_tail_not_the_verdicts(
        self, untrained_classifier
    ):
        frames = _frames(24, seed=13)
        events = _steady_events(frames, gap_ms=1.0)
        costs = iter([2.0, 200.0] + [2.0] * 100)

        def spiky_model(batch_size):
            return next(costs)

        blocker = _blocker(untrained_classifier)
        report = ServeLoop(
            blocker,
            # lanes pinned to 1: the monotone-completion assertion below
            # is the *single-lane* head-of-line contract (multi-lane
            # runs overtake slow batches by design)
            ServeSettings(
                max_batch=8, max_wait_ms=2.0, max_depth=64, lanes=1
            ),
            compute_model=spiky_model,
        ).run(events)
        assert report.stats.conserved()
        assert not report.stats.shed
        # the first batch answered before the spike; everything behind
        # the slow batch waited at least its 200 ms on the lane
        latencies = [r.latency_ms for r in report.results]
        assert min(latencies) < 10.0
        assert report.stats.total_ms.max >= 200.0
        # completions stay monotone in flush order (single compute lane)
        flushed = sorted(
            (r for r in report.results if not r.memo_hit),
            key=lambda r: r.flush_ms,
        )
        completes = [r.complete_ms for r in flushed]
        assert completes == sorted(completes)

    def test_quiet_traffic_never_waits_past_deadline(
        self, untrained_classifier
    ):
        # sparse arrivals, fast compute: the max_wait deadline is the
        # only flush trigger, and it is honoured exactly
        frames = _frames(6, seed=17)
        events = _steady_events(frames, gap_ms=50.0)
        settings = ServeSettings(max_batch=8, max_wait_ms=3.0, max_depth=16)
        report = ServeLoop(
            _blocker(untrained_classifier),
            settings,
            compute_model=lambda n: 1.0,
        ).run(events)
        waits = [r.queue_wait_ms for r in report.results]
        assert all(w == pytest.approx(settings.max_wait_ms) for w in waits)

    def test_latency_split_queue_wait_vs_compute(self, untrained_classifier):
        frames = _frames(8, seed=23)
        events = _steady_events(frames, gap_ms=0.5)
        report = ServeLoop(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=8, max_wait_ms=10.0, max_depth=32),
            compute_model=lambda n: 7.0,
        ).run(events)
        for result in report.results:
            assert result.service_ms == pytest.approx(7.0)
            assert result.latency_ms == pytest.approx(
                result.queue_wait_ms + result.service_ms
            )


class TestBatchComputeModel:
    def test_single_frame_costs_one_calibrated_latency(
        self, untrained_classifier
    ):
        blocker = _blocker(untrained_classifier, calibrated_latency_ms=11.0)
        model = BatchComputeModel.from_blocker(blocker)
        assert model(1) == pytest.approx(11.0)
        # marginal frames amortize: batch of 8 well under 8 singles
        assert model(8) < 8 * model(1) / 2
        assert model(0) == 0.0

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            BatchComputeModel(per_image_ms=-1.0, setup_ms=0.0)


class TestAsyncServeFront:
    def test_concurrent_submits_batch_and_match_reference(
        self, untrained_classifier
    ):
        frames = _frames(20, seed=31)
        front = AsyncServeFront(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=8, max_wait_ms=5.0, max_depth=64),
        )

        async def drive():
            tasks = [
                front.submit(frame, session_id=f"s{i % 4}")
                for i, frame in enumerate(frames)
            ]
            decisions = await asyncio.gather(*tasks)
            await front.aclose()
            return decisions

        decisions = asyncio.run(drive())
        reference = _blocker(untrained_classifier)
        for frame, decision in zip(frames, decisions):
            assert decision.probability == reference.decide(frame).probability
        assert front.stats.conserved()
        assert front.stats.batches <= len(frames) // 2
        assert front.stats.answered == len(frames)

    def test_duplicate_submits_share_compute(self, untrained_classifier):
        frame = _frames(1, seed=37)[0]
        blocker = _blocker(untrained_classifier)
        front = AsyncServeFront(
            blocker, ServeSettings(max_batch=4, max_wait_ms=2.0, max_depth=32)
        )

        async def drive():
            first = await asyncio.gather(
                *[front.submit(frame) for _ in range(4)]
            )
            # a later wave hits the now-filled memo
            second = await asyncio.gather(
                *[front.submit(frame) for _ in range(3)]
            )
            await front.aclose()
            return first, second

        first, second = asyncio.run(drive())
        assert blocker.classifications == 1
        assert front.stats.coalesced == 3
        assert front.stats.memo_hits == 3
        assert all(d.probability == first[0].probability for d in first)
        assert all(d.from_cache for d in second)

    def test_overload_raises_explicit_backpressure(
        self, untrained_classifier
    ):
        frames = _frames(40, seed=41)
        front = AsyncServeFront(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=4, max_wait_ms=2.0, max_depth=8),
        )

        async def drive():
            results = await asyncio.gather(
                *[front.submit(frame) for frame in frames],
                return_exceptions=True,
            )
            await front.aclose()
            return results

        results = asyncio.run(drive())
        shed = [r for r in results if isinstance(r, ServeOverloadError)]
        answered = [r for r in results if not isinstance(r, Exception)]
        assert shed, "burst past max_depth must shed"
        assert len(shed) + len(answered) == len(frames)
        assert front.stats.conserved()

    def test_batch_failure_propagates_and_unblocks_the_key(
        self, untrained_classifier
    ):
        """A classification error inside a flush must reach the
        awaiters (never strand them) and release the fingerprints, so
        the same frame classifies fine once the blocker recovers."""
        frame = _frames(1, seed=47)[0]
        blocker = _blocker(untrained_classifier)
        front = AsyncServeFront(
            blocker, ServeSettings(max_batch=2, max_wait_ms=1.0, max_depth=16)
        )
        healthy_decide_many = blocker.decide_many
        blocker.decide_many = lambda *a, **k: (_ for _ in ()).throw(
            RuntimeError("classifier exploded")
        )

        async def drive():
            failures = await asyncio.gather(
                front.submit(frame), front.submit(frame),
                return_exceptions=True,
            )
            blocker.decide_many = healthy_decide_many
            recovered = await front.submit(frame)
            await front.aclose()
            return failures, recovered

        failures, recovered = asyncio.run(drive())
        assert all(
            isinstance(f, RuntimeError) and "exploded" in str(f)
            for f in failures
        )
        assert front.stats.failed == 2
        assert front.stats.conserved()
        assert recovered.probability == _blocker(
            untrained_classifier
        ).decide(frame).probability

    def test_deadline_timer_flushes_partial_batches(
        self, untrained_classifier
    ):
        frames = _frames(3, seed=43)
        front = AsyncServeFront(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=64, max_wait_ms=5.0, max_depth=128),
        )

        async def drive():
            # far fewer than max_batch: one idle-loop flush takes all
            # three, without waiting out max_wait_ms
            return await asyncio.wait_for(
                asyncio.gather(*[front.submit(f) for f in frames]),
                timeout=5.0,
            )

        decisions = asyncio.run(drive())
        assert len(decisions) == 3
        assert front.stats.batches == 1


class TestServeKnobs:
    def test_explicit_settings_win(self, untrained_classifier, monkeypatch):
        monkeypatch.setenv("PERCIVAL_SERVE_MAX_BATCH", "99")
        explicit = ServeSettings(max_batch=4)
        loop = ServeLoop(_blocker(untrained_classifier), explicit)
        assert loop.settings is explicit

    def test_env_knobs_resolve(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_SERVE_MAX_BATCH", "32")
        monkeypatch.setenv("PERCIVAL_SERVE_MAX_WAIT_MS", "7.5")
        monkeypatch.setenv("PERCIVAL_SERVE_MAX_DEPTH", "256")
        settings = ServeSettings.from_env()
        assert settings.max_batch == 32
        assert settings.max_wait_ms == 7.5
        assert settings.max_depth == 256

    def test_defaults_when_unset(self, monkeypatch):
        for name in (
            "PERCIVAL_SERVE_MAX_BATCH",
            "PERCIVAL_SERVE_MAX_WAIT_MS",
            "PERCIVAL_SERVE_MAX_DEPTH",
            "PERCIVAL_SERVE_AGING_MS",
            "PERCIVAL_SERVE_LANES",
        ):
            monkeypatch.delenv(name, raising=False)
        assert ServeSettings.from_env() == ServeSettings()
        assert knob("PERCIVAL_SERVE_LANES") is None

    def test_invalid_env_raises_with_name(self, monkeypatch):
        # a parse error, a floor error, and a cross-field error
        # (max_depth defaults to 128 < 200) all name the variable
        for raw in ("lots", "0", "200"):
            monkeypatch.setenv("PERCIVAL_SERVE_MAX_BATCH", raw)
            with pytest.raises(ValueError, match="PERCIVAL_SERVE_MAX_BATCH"):
                ServeSettings.from_env()

    def test_lanes_env_knob(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_SERVE_LANES", "3")
        assert knob("PERCIVAL_SERVE_LANES") == 3
        # an explicit setting always wins over the environment
        assert knob("PERCIVAL_SERVE_LANES", 5) == 5
        monkeypatch.setenv("PERCIVAL_SERVE_LANES", "auto")
        assert knob("PERCIVAL_SERVE_LANES") is None
        monkeypatch.setenv("PERCIVAL_SERVE_LANES", "0")
        with pytest.raises(ValueError, match="PERCIVAL_SERVE_LANES"):
            knob("PERCIVAL_SERVE_LANES")
        monkeypatch.setenv("PERCIVAL_SERVE_LANES", "many")
        with pytest.raises(ValueError, match="PERCIVAL_SERVE_LANES"):
            knob("PERCIVAL_SERVE_LANES")

    def test_aging_env_knob(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_SERVE_AGING_MS", "2.5")
        assert ServeSettings.from_env().aging_ms == 2.5

    def test_invalid_combinations_rejected(self):
        with pytest.raises(ValueError):
            ServeSettings(max_batch=0)
        with pytest.raises(ValueError):
            ServeSettings(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            ServeSettings(max_batch=8, max_depth=4)
        with pytest.raises(ValueError):
            ServeSettings(lanes=0)
        with pytest.raises(ValueError):
            ServeSettings(aging_ms=0.0)


class TestLatencySummary:
    def test_percentiles(self):
        summary = LatencySummary()
        for value in range(1, 101):
            summary.add(float(value))
        assert summary.p50 == pytest.approx(50.5)
        assert summary.p99 == pytest.approx(99.01)
        assert summary.count == 100
        assert summary.max == 100.0

    def test_empty_summary_is_zero(self):
        summary = LatencySummary()
        assert summary.p50 == 0.0
        assert summary.mean == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencySummary().add(-1.0)
