"""Edge cases of the asyncio front door: flush scheduling, close,
failures.

The front is work-conserving: every enqueue schedules one deferred
flush, which drains the queue in batches of at most ``max_batch`` as
soon as the event loop is idle — no request waits out ``max_wait_ms``.
The contract under stress: no matter how submits, the deferred-flush
callback and ``aclose()`` interleave, every admitted request resolves
exactly once (decision or exception — never a hang), and the
conservation ledger balances.  A batch whose compute raises fails its
waiters, and the front keeps serving the next batch.
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
        """``max_wait_ms=0`` makes every request due at once; three
        submits from one burst still share a single scheduled flush,
        which serves them all — no double flush, no hung leftover
        request."""
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
        """A burst one past ``max_batch``: the flush serves the full
        batch, then the straggler left behind as a second batch in the
        same callback — it never waits for its ``max_wait_ms``."""
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

    def test_aclose_with_scheduled_flush_resolves_the_straggler(
        self, untrained_classifier
    ):
        """Closing while a queued request's flush is still scheduled
        must force-flush it (the waiter resolves, never hangs) and
        cancel the scheduled flush, so nothing stays on the loop."""
        front = AsyncServeFront(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=8, max_wait_ms=60_000.0, max_depth=16),
        )

        async def drive():
            # submit admits at call time: the request is queued and its
            # flush scheduled before the loop runs again
            pending = front.submit(_frames(1, seed=2)[0])
            assert front._flush_handle is not None
            assert front.depth == 1
            await front.aclose()
            return await asyncio.wait_for(pending, timeout=1.0)

        decision = asyncio.run(drive())
        assert decision is not None
        assert front._flush_handle is None
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


class TestIdleFlush:
    """Work conservation: the one compute lane never idles while a
    request is queued, and bursts still batch."""

    def test_lone_submit_does_not_wait_out_max_wait(
        self, untrained_classifier
    ):
        front = AsyncServeFront(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=8, max_wait_ms=60_000.0, max_depth=16),
        )

        async def drive():
            decision = await asyncio.wait_for(
                front.submit(_frames(1, seed=3)[0]), timeout=2.0
            )
            await front.aclose()
            return decision

        assert asyncio.run(drive()) is not None
        assert front.stats.batches == 1
        assert front.stats.conserved()

    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_one_burst_within_max_batch_is_one_batch(
        self, untrained_classifier, count
    ):
        front = AsyncServeFront(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=8, max_wait_ms=60_000.0, max_depth=16),
        )

        async def drive():
            decisions = await asyncio.wait_for(
                asyncio.gather(
                    *(front.submit(frame) for frame in _frames(count, seed=5))
                ),
                timeout=2.0,
            )
            await front.aclose()
            return decisions

        assert len(asyncio.run(drive())) == count
        assert front.stats.batches == 1
        assert front.stats.answered == count
        assert front.stats.conserved()

    def test_overfull_burst_drains_in_one_flush_callback(
        self, untrained_classifier
    ):
        max_batch = 4
        front = AsyncServeFront(
            _blocker(untrained_classifier),
            ServeSettings(
                max_batch=max_batch, max_wait_ms=60_000.0, max_depth=16
            ),
        )
        run_flush = front._run_flush
        callbacks = []

        def counted(loop):
            callbacks.append(front.depth)
            run_flush(loop)

        front._run_flush = counted
        frames = _frames(2 * max_batch + 1, seed=6)

        async def drive():
            decisions = await asyncio.wait_for(
                asyncio.gather(*(front.submit(frame) for frame in frames)),
                timeout=2.0,
            )
            await front.aclose()
            return decisions

        assert len(asyncio.run(drive())) == len(frames)
        assert callbacks == [len(frames)]
        assert front.stats.batches == 3
        assert front.stats.conserved()

    def test_raise_outside_compute_strands_no_waiter(
        self, untrained_classifier
    ):
        """A flush that raises before compute (here: the first
        ``pop_batch``) re-schedules itself while requests are queued;
        the next flush serves every waiter."""
        front = AsyncServeFront(
            _blocker(untrained_classifier),
            ServeSettings(max_batch=2, max_wait_ms=60_000.0, max_depth=16),
        )
        pop_batch = front._queue.pop_batch
        raised = []

        def flaky(now_ms, force=False):
            if not raised:
                raised.append(now_ms)
                raise RuntimeError("scheduler hiccup")
            return pop_batch(now_ms, force=force)

        front._queue.pop_batch = flaky
        reported = []

        async def drive():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context["exception"])
            )
            decisions = await asyncio.wait_for(
                asyncio.gather(
                    *(front.submit(frame) for frame in _frames(3, seed=9))
                ),
                timeout=2.0,
            )
            await front.aclose()
            return decisions

        decisions = asyncio.run(drive())
        assert all(d is not None for d in decisions)
        assert len(raised) == 1
        assert [str(exc) for exc in reported] == ["scheduler hiccup"]
        assert front.stats.answered == 3
        assert front.stats.failed == 0
        assert front.stats.conserved()


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
