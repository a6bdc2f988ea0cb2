"""Edge cases of the asyncio front door: timer races, close, failures.

The contract under stress: no matter how the ``max_wait_ms`` timer, the
deferred-flush callback, and ``aclose()`` interleave, every admitted
request resolves exactly once (decision or exception — never a hang),
and the conservation ledger balances.  A batch whose compute raises
fails its waiters, and the front keeps serving the next batch.
"""

import asyncio

import numpy as np
import pytest

from repro.core import PercivalBlocker, ServeSettings
from repro.serve import AsyncServeFront, ServeClosedError


def _blocker(classifier, **kwargs):
    kwargs.setdefault("calibrated_latency_ms", 1.0)
    return PercivalBlocker(classifier, **kwargs)


def _frames(count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.random((12, 14, 4)).astype(np.float32) for _ in range(count)
    ]


class TestTimerEdges:
    def test_deadline_fires_while_flush_already_scheduled(
        self, untrained_classifier
    ):
        """``max_wait_ms=0`` puts the deadline timer and the full-batch
        flush callback on the event loop in the same tick; whichever
        runs second must find the queue empty and do nothing — not
        double-flush, not hang the leftover request."""
        front = AsyncServeFront(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=2, max_wait_ms=0.0, max_depth=16),
        )

        async def drive():
            decisions = await asyncio.gather(
                *(front.submit(frame) for frame in _frames(3))
            )
            await front.aclose()
            return decisions

        decisions = asyncio.run(drive())
        assert len(decisions) == 3
        assert all(d is not None for d in decisions)
        assert front.stats.conserved()
        assert front.stats.answered == 3

    def test_timer_survives_partial_flush_and_fires_later(
        self, untrained_classifier
    ):
        """A full batch flushes immediately; the straggler left behind
        must still be flushed by the (already armed) deadline timer."""
        front = AsyncServeFront(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=2, max_wait_ms=5.0, max_depth=16),
        )

        async def drive():
            tasks = [
                asyncio.ensure_future(front.submit(frame))
                for frame in _frames(3, seed=4)
            ]
            done = await asyncio.wait_for(asyncio.gather(*tasks), timeout=5.0)
            await front.aclose()
            return done

        decisions = asyncio.run(drive())
        assert len(decisions) == 3
        assert front.stats.batches == 2
        assert front.stats.conserved()

    def test_aclose_with_armed_timer_resolves_the_straggler(
        self, untrained_classifier
    ):
        """Closing while a partial batch sits behind a long timer must
        force-flush it (the waiter resolves, never hangs) and disarm
        the timer."""
        front = AsyncServeFront(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=8, max_wait_ms=60_000.0, max_depth=16),
        )

        async def drive():
            task = asyncio.ensure_future(
                front.submit(_frames(1, seed=2)[0])
            )
            await asyncio.sleep(0)  # let submit enqueue + arm the timer
            assert front._timer is not None
            assert front.depth == 1
            await front.aclose()
            return await asyncio.wait_for(task, timeout=1.0)

        decision = asyncio.run(drive())
        assert decision is not None
        assert front._timer is None
        assert front.depth == 0
        assert front.stats.conserved()

    def test_submit_after_close_raises_cleanly(self, untrained_classifier):
        front = AsyncServeFront(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=2, max_wait_ms=1.0),
        )

        async def drive():
            await front.aclose()
            with pytest.raises(ServeClosedError):
                await front.submit(_frames(1)[0])
            # nothing was admitted, so the ledger never moved
            assert front.stats.submitted == 0
            await front.aclose()  # idempotent

        asyncio.run(drive())


class TestExecutorMode:
    """The flush's batch compute raises: that batch's waiters hear the
    error, and the next batch computes normally, inline as every flush
    does."""

    def test_executor_failure_propagates_then_recovers(
        self, untrained_classifier
    ):
        blocker = _blocker(untrained_classifier)
        front = AsyncServeFront(
            blocker,
            ServeSettings(max_batch=2, max_wait_ms=0.5, max_depth=16),
        )
        healthy = blocker.decide_many
        calls = {"n": 0}

        def flaky(bitmaps, keys=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("worker fleet fell over")
            return healthy(bitmaps, keys=keys)

        blocker.decide_many = flaky
        frames = _frames(4, seed=8)

        async def drive():
            first = await asyncio.gather(
                front.submit(frames[0]), front.submit(frames[1]),
                return_exceptions=True,
            )
            second = await asyncio.gather(
                front.submit(frames[2]), front.submit(frames[3]),
            )
            await front.aclose()
            return first, second

        failures, recovered = asyncio.run(drive())
        assert all(isinstance(f, RuntimeError) for f in failures)
        assert all(d is not None for d in recovered)
        assert front.stats.failed == 2
        assert front.stats.answered == 2
        assert front.stats.conserved()
