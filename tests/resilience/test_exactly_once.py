"""Exactly-once settlement under mid-flush failure.

A popped batch settles a leader plus its coalesced riders.  The
regression surface: a ``decide_many`` that raises after the pop, or a
tier feedback write (``differ.remember`` / cascade feed) that raises
after some of the group already settled.  Every future and every
simulated result must resolve exactly once — answered, failed, or
shed — and the ledger must balance."""

import asyncio

import numpy as np
import pytest

from repro.core import PercivalBlocker, ServeSettings
from repro.diff import FrameDiffer
from repro.resilience import ChaosSchedule, ResiliencePlane
from repro.serve import (
    ArrivalEvent,
    AsyncServeFront,
    ServeLoop,
)

SETTINGS = ServeSettings(max_batch=4, max_wait_ms=2.0, max_depth=32, lanes=1)


def _blocker(classifier, **kwargs):
    kwargs.setdefault("calibrated_latency_ms", 2.0)
    return PercivalBlocker(classifier, **kwargs)


def _frames(count, seed=0, size=(12, 14)):
    rng = np.random.default_rng(seed)
    return [
        rng.random((*size, 4)).astype(np.float32) for _ in range(count)
    ]


class TestServeLoopFailedBatches:
    def test_failed_batch_settles_leader_and_riders_exactly_once(
        self, untrained_classifier, monkeypatch
    ):
        """decide_many raising mid-flush (with the resilience plane on)
        settles every member — including coalesced riders — as an
        explicit failure, frees the lane, and balances the ledger."""
        frames = _frames(3, seed=1)
        events = [
            ArrivalEvent(at_ms=0.0, session_id="s0", bitmap=frames[0]),
            # same bitmap, same tick: coalesces as a rider
            ArrivalEvent(at_ms=0.0, session_id="s1", bitmap=frames[0]),
            ArrivalEvent(at_ms=0.1, session_id="s0", bitmap=frames[1]),
            ArrivalEvent(at_ms=0.2, session_id="s0", bitmap=frames[2]),
        ]
        blocker = _blocker(untrained_classifier)

        def broken(*args, **kwargs):
            raise RuntimeError("injected mid-flush failure")

        monkeypatch.setattr(blocker, "decide_many", broken)
        # tiers and chaos pinned off: the counter assertions below are
        # exact, and must hold under any ambient PERCIVAL_* knobs
        report = ServeLoop(
            blocker, SETTINGS, cascade=False, differ=False,
            chaos=False, resilience=ResiliencePlane(),
        ).run(events)
        stats = report.stats
        assert stats.conserved()
        assert stats.failed == len(events)
        assert stats.answered == 0
        assert stats.resilience.failed_batches >= 1
        for result in report.results:
            assert result.failed and not result.shed
            assert result.decision is None
            assert result.lane == 0  # the batch did occupy a lane
        # the run terminated: the lane was freed despite the failure
        assert report.makespan_ms < 60.0

    def test_unprotected_loop_keeps_raising(
        self, untrained_classifier, monkeypatch
    ):
        """With chaos and resilience both off, the pre-resilience
        exception semantics hold: a raising flush propagates."""
        blocker = _blocker(untrained_classifier)

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(blocker, "decide_many", broken)
        loop = ServeLoop(blocker, SETTINGS, chaos=False, resilience=False)
        with pytest.raises(RuntimeError, match="boom"):
            loop.run([
                ArrivalEvent(at_ms=0.0, session_id="s0",
                             bitmap=_frames(1)[0]),
            ])


class TestAsyncFrontExactlyOnce:
    def test_decide_failure_rejects_leader_and_riders_exactly_once(
        self, untrained_classifier, monkeypatch
    ):
        """Every awaiter of a failed batch — riders included — gets
        the exception exactly once, the coalescing index is clean, and a
        later duplicate submit is a fresh leader, not an orphan."""
        frames = _frames(2, seed=2)
        blocker = _blocker(untrained_classifier)
        front = AsyncServeFront(
            blocker, SETTINGS, cascade=False, differ=False, chaos=False,
        )
        real_decide = blocker.decide_many
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected decide failure")
            return real_decide(*args, **kwargs)

        monkeypatch.setattr(blocker, "decide_many", flaky)

        async def drive():
            outcomes = await asyncio.gather(
                front.submit(frames[0], session_id="a"),
                front.submit(frames[0], session_id="b"),  # rider
                front.submit(frames[1], session_id="a"),
                return_exceptions=True,
            )
            assert all(
                isinstance(outcome, RuntimeError) for outcome in outcomes
            )
            for frame in frames:
                key = blocker.fingerprint(frame)
                assert front._queue.leader(key) is None
            assert front._waiters == {}
            # the key is free again: a retry computes normally
            retry = await front.submit(frames[0], session_id="a")
            await front.aclose()
            return retry

        retry = asyncio.run(drive())
        assert retry.probability == _blocker(
            untrained_classifier
        ).decide(frames[0]).probability
        stats = front.stats
        assert stats.failed == 3
        assert stats.coalesced == 1
        assert stats.conserved()

    def test_raising_remember_cannot_orphan_a_rider(
        self, untrained_classifier, monkeypatch
    ):
        """The satellite regression: differ.remember raising during
        settle must not strand any future — all waiters resolve with
        the decision, and the failure is absorbed and counted."""
        frames = _frames(1, seed=3)
        differ = FrameDiffer()

        def broken_remember(*args, **kwargs):
            raise RuntimeError("snapshot store exploded")

        monkeypatch.setattr(differ, "remember", broken_remember)
        from repro.cascade import FrameProvenance

        prov = FrameProvenance(
            url="https://site0.test/slot0/ad.png",
            page_domain="site0.test",
            tag="img",
            css_classes=("banner",),
            width=12,
            height=14,
        )
        front = AsyncServeFront(
            _blocker(untrained_classifier), SETTINGS,
            cascade=False, differ=differ, chaos=False,
        )

        async def drive():
            first, second = await asyncio.gather(
                front.submit(frames[0], session_id="a", provenance=prov,
                             content_key="ck-0"),
                front.submit(frames[0], session_id="b", provenance=prov,
                             content_key="ck-0"),  # rider
            )
            await front.aclose()
            return first, second

        first, second = asyncio.run(drive())
        assert first.probability == second.probability
        stats = front.stats
        assert stats.answered == 2
        assert stats.failed == 0
        assert stats.conserved()
        # both remember attempts (leader + rider) were absorbed
        assert stats.tier_errors == 2

    def test_chaos_front_survives_a_dying_settle_path(
        self, untrained_classifier, monkeypatch
    ):
        """Belt and braces: with a chaos cursor attached, a raising
        feedback write still cannot take the flush down or starve the
        deadline timer — later submits keep being answered."""
        frames = _frames(4, seed=4)
        differ = FrameDiffer()
        monkeypatch.setattr(
            differ, "remember",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("x")),
        )
        from repro.cascade import FrameProvenance

        front = AsyncServeFront(
            _blocker(untrained_classifier), SETTINGS,
            cascade=False, differ=differ, chaos=ChaosSchedule([]),
        )

        async def drive():
            decisions = []
            for index, frame in enumerate(frames):
                prov = FrameProvenance(
                    url=f"https://site0.test/slot{index}/ad.png",
                    page_domain="site0.test",
                    tag="img",
                    css_classes=("banner",),
                    width=12,
                    height=14,
                )
                decisions.append(await front.submit(
                    frame, session_id="s0", provenance=prov,
                    content_key=f"ck-{index}",
                ))
            await front.aclose()
            return decisions

        decisions = asyncio.run(drive())
        assert len(decisions) == len(frames)
        assert front.stats.answered == len(frames)
        assert front.stats.conserved()
        assert front.stats.tier_errors == len(frames)
