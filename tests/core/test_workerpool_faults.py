"""Failure injection for the worker pool under the serving layer.

The serving stack multiplies the pool's failure surface: batches now
arrive from a queue that must conserve requests, weights can republish
(including a precision flip) *between* flushes, and a worker can die
while a flush is mid-scatter.  The invariants under test:

* verdicts never differ from the in-process reference, whatever fails,
* the blocker's fallback path fires exactly once per injected failure
  (``PercivalBlocker.pool_fallbacks`` is the observable),
* overload sheds explicitly and conserves requests,
* ``available_capacity`` tells the serving layer the truth: zero when
  closed, unpublished, or mid-dispatch,
* a keyless pooled ``decide_many`` (hash phase, then score phase)
  survives a fault armed before either phase the same way, and leaks no
  shared-memory segment,
* a chaos stall costs a fraction of a second, not the pool timeout,
* a stalled worker whose parent is killed exits instead of outliving
  it.
"""

import glob
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.core import (
    AdClassifier,
    InferenceWorkerPool,
    PercivalBlocker,
    PercivalConfig,
    ServeSettings,
    WorkerPoolError,
)
from repro.serve import ArrivalEvent, ServeLoop


def _frames(count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.random((10, 12, 4)).astype(np.float32) for _ in range(count)
    ]


def _burst(frames, start_ms=0.0, session="page"):
    return [
        ArrivalEvent(at_ms=start_ms, session_id=session, bitmap=frame)
        for frame in frames
    ]


def _reference_probabilities(classifier, frames):
    reference = PercivalBlocker(classifier, calibrated_latency_ms=1.0)
    return [reference.decide(frame).probability for frame in frames]


def _served_blocker(classifier, pool, shard_min_batch=4):
    return PercivalBlocker(
        classifier,
        calibrated_latency_ms=1.0,
        pool=pool,
        shard_min_batch=shard_min_batch,
    )


class _FailingPool:
    """Duck-typed pool wrapper that fails N scatters, then recovers."""

    def __init__(self, pool, failures):
        self._pool = pool
        self.failures_left = failures
        self.calls = 0

    @property
    def closed(self):
        return self._pool.closed

    @property
    def published_fingerprint(self):
        return self._pool.published_fingerprint

    @property
    def available_capacity(self):
        return self._pool.available_capacity

    def publish(self, classifier):
        return self._pool.publish(classifier)

    def ad_probabilities(self, bitmaps, select=None):
        self.calls += 1
        if self.failures_left > 0:
            self.failures_left -= 1
            raise WorkerPoolError("injected mid-batch failure")
        return self._pool.ad_probabilities(bitmaps, select)


class TestWorkerDeathUnderServeLoop:
    def test_death_mid_batch_falls_back_once_with_identical_verdicts(
        self, untrained_classifier, monkeypatch
    ):
        """A worker killed mid-batch degrades that one flush to the
        in-process path — one fallback, zero changed verdicts — and the
        pool heals for the next flush."""
        frames = _frames(8, seed=1)
        later = _frames(8, seed=2)
        with InferenceWorkerPool(num_workers=2, timeout_s=10.0) as pool:
            pool.publish(untrained_classifier)
            blocker = _served_blocker(untrained_classifier, pool)
            loop = ServeLoop(
                blocker,
                ServeSettings(max_batch=8, max_wait_ms=1.0, max_depth=32),
            )

            victim = pool._workers[0].process
            victim.terminate()
            victim.join()
            # freeze self-healing so the death is seen mid-batch
            with monkeypatch.context() as frozen:
                frozen.setattr(pool, "_sync_workers", lambda: None)
                report = loop.run(_burst(frames))
            assert blocker.pool_fallbacks == 1
            assert report.stats.conserved()
            served = [r.decision.probability for r in report.results]
            assert served == _reference_probabilities(
                untrained_classifier, frames
            )

            # healing unfrozen: the next serve wave respawns the worker
            # and shards again without further fallbacks
            second = loop.run(_burst(later))
            assert blocker.pool_fallbacks == 1
            assert second.stats.conserved()
            assert pool.alive_workers == 2

    def test_injected_failure_fires_fallback_exactly_once(
        self, untrained_classifier
    ):
        """Four pool-routed batches, one injected failure: exactly one
        fallback, and all 16 verdicts equal the reference."""
        frames = _frames(16, seed=3)
        with InferenceWorkerPool(num_workers=2) as inner:
            inner.publish(untrained_classifier)
            pool = _FailingPool(inner, failures=1)
            blocker = _served_blocker(untrained_classifier, pool)
            report = ServeLoop(
                blocker,
                ServeSettings(max_batch=4, max_wait_ms=1.0, max_depth=32),
                compute_model=lambda n: 0.5,
            ).run(_burst(frames))
        assert pool.calls == 4
        assert blocker.pool_fallbacks == 1
        assert report.stats.conserved()
        served = [r.decision.probability for r in report.results]
        assert served == _reference_probabilities(
            untrained_classifier, frames
        )


class TestQueueOverflowUnderPool:
    def test_overflow_sheds_explicitly_and_answers_the_rest(
        self, untrained_classifier
    ):
        """Filling the queue past the admission bound sheds visibly;
        every admitted request still gets the reference verdict."""
        frames = _frames(48, seed=5)
        with InferenceWorkerPool(num_workers=2) as pool:
            pool.publish(untrained_classifier)
            blocker = _served_blocker(untrained_classifier, pool)
            report = ServeLoop(
                blocker,
                ServeSettings(max_batch=4, max_wait_ms=1.0, max_depth=8),
                compute_model=lambda n: 40.0,  # slow lane -> backlog
            ).run(_burst(frames))
        assert report.stats.shed > 0
        assert report.stats.conserved()
        assert blocker.pool_fallbacks == 0
        expected = _reference_probabilities(untrained_classifier, frames)
        for event_index, result in enumerate(report.results):
            if result.shed:
                assert result.decision is None
            else:
                assert result.decision.probability == expected[event_index]


class TestPrecisionRepublishMidStream:
    def test_precision_flip_between_flushes_republishes_and_requotes(
        self,
    ):
        """Flipping storage precision between serve waves must ship a
        fresh publication (new fingerprint), clear the memo generation
        (no stale fp32 verdicts served), and keep every verdict equal
        to the in-process reference at the *new* precision."""
        classifier = AdClassifier(PercivalConfig(precision="fp32"))
        frames = _frames(8, seed=7)
        with InferenceWorkerPool(num_workers=2) as pool:
            pool.publish(classifier)
            fp32_fingerprint = pool.published_fingerprint
            blocker = _served_blocker(classifier, pool)
            loop = ServeLoop(
                blocker,
                ServeSettings(max_batch=8, max_wait_ms=1.0, max_depth=32),
            )
            first = loop.run(_burst(frames))
            assert first.stats.memo_hits == 0

            # mid-stream precision flip: same weights, new storage form
            classifier.precision = "fp16"
            classifier.invalidate_plan()

            second = loop.run(_burst(frames))
            assert pool.published_fingerprint != fp32_fingerprint
            assert (
                pool.published_fingerprint
                == classifier.weights_fingerprint()
            )
            # the memo generation rolled: the same frames were NOT
            # served from fp32-era cache entries
            assert second.stats.memo_hits == 0
            assert blocker.pool_fallbacks == 0
            served = [r.decision.probability for r in second.results]
            reference = AdClassifier(PercivalConfig(precision="fp16"))
            assert served == _reference_probabilities(reference, frames)


class TestNonBlockingCapacity:
    def test_capacity_states(self, untrained_classifier):
        pool = InferenceWorkerPool(num_workers=2)
        try:
            assert pool.available_capacity == 0  # nothing published
            pool.publish(untrained_classifier)
            assert pool.available_capacity == 2
            assert not pool.dispatching
        finally:
            pool.close()
        assert pool.available_capacity == 0  # closed

    def test_capacity_is_zero_mid_dispatch(
        self, untrained_classifier, monkeypatch
    ):
        """While a scatter/gather is in flight the pool reports no
        spare capacity — the serving layer never double-books it."""
        with InferenceWorkerPool(num_workers=2) as pool:
            pool.publish(untrained_classifier)
            observed = []
            original = pool._recv

            def spying_recv(worker):
                observed.append(pool.available_capacity)
                return original(worker)

            monkeypatch.setattr(pool, "_recv", spying_recv)
            rng = np.random.default_rng(0)
            size = untrained_classifier.config.input_size
            batch = rng.standard_normal((4, 4, size, size)).astype(
                np.float32
            )
            pool.predict_proba(batch)
            assert observed and all(value == 0 for value in observed)
            assert pool.available_capacity == 2  # free again after

    def test_serve_loop_records_capacity_per_flush(
        self, untrained_classifier
    ):
        frames = _frames(8, seed=11)
        with InferenceWorkerPool(num_workers=2) as pool:
            pool.publish(untrained_classifier)
            blocker = _served_blocker(untrained_classifier, pool)
            report = ServeLoop(
                blocker,
                ServeSettings(max_batch=8, max_wait_ms=1.0, max_depth=32),
            ).run(_burst(frames))
        assert report.stats.capacity_samples == [2]


class TestFallbackCounterBaseline:
    def test_healthy_pool_never_increments_fallbacks(
        self, untrained_classifier
    ):
        frames = _frames(12, seed=13)
        with InferenceWorkerPool(num_workers=2) as pool:
            pool.publish(untrained_classifier)
            blocker = _served_blocker(untrained_classifier, pool)
            blocker.decide_many(frames)
        assert blocker.pool_fallbacks == 0

    def test_poolless_blocker_never_counts_fallbacks(
        self, untrained_classifier
    ):
        blocker = PercivalBlocker(
            untrained_classifier, calibrated_latency_ms=1.0
        )
        blocker.decide_many(_frames(6, seed=17))
        assert blocker.pool_fallbacks == 0


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


_ARM = {
    "death": lambda pool: pool.chaos_arm_worker_death(0),
    "stall": lambda pool: pool.chaos_arm_worker_stall(0),
    "corrupt": lambda pool: pool.chaos_corrupt_pipe(0),
}


class TestTwoPhaseFaults:
    """Chaos armed before the hashing phase, or between it and the
    scoring phase, of a keyless pooled ``decide_many``."""

    @pytest.mark.parametrize("fault", sorted(_ARM))
    @pytest.mark.parametrize("phase", ["before-hashing", "between-phases"])
    def test_fault_falls_back_once_and_heals(
        self, untrained_classifier, monkeypatch, fault, phase
    ):
        frames = _frames(12, seed=21)
        frames[-1] = frames[0].copy()  # a duplicate across the lanes
        later = _frames(12, seed=22)
        segments_before = _shm_segments()
        reference = PercivalBlocker(untrained_classifier, calibrated_latency_ms=1.0)
        with InferenceWorkerPool(num_workers=2, timeout_s=1.0) as pool:
            pool.publish(untrained_classifier)
            blocker = _served_blocker(untrained_classifier, pool)
            # one known frame, so the probe has a hit to serve too
            blocker.decide_many([frames[5]])
            reference.decide_many([frames[5]])
            hashed = []
            serial_fingerprint = blocker.fingerprint

            def counting_fingerprint(bitmap):
                hashed.append(bitmap)
                return serial_fingerprint(bitmap)

            monkeypatch.setattr(blocker, "fingerprint", counting_fingerprint)
            if phase == "before-hashing":
                assert _ARM[fault](pool)
            else:
                probe = blocker._probe

                def arm_then_probe(keys):
                    assert pool.dispatching
                    assert _ARM[fault](pool)
                    return probe(keys)

                monkeypatch.setattr(blocker, "_probe", arm_then_probe)
            decisions = blocker.decide_many(frames)
            assert blocker.pool_fallbacks == 1
            assert not pool.dispatching
            assert decisions == reference.decide_many(frames)
            assert list(blocker._memo.items()) == list(reference._memo.items())
            assert blocker.classifications == reference.classifications
            # the fallback after a finished hashing phase reuses its keys
            assert len(hashed) == (len(frames) if phase == "before-hashing" else 0)

            # the faulted worker is replaced and the next call is clean
            monkeypatch.undo()
            assert blocker.decide_many(later) == reference.decide_many(later)
            assert blocker.pool_fallbacks == 1
            assert pool.alive_workers == 2
            names = [pool._segment.name, pool._frames.name]
        for name in names:
            assert not glob.glob(f"/dev/shm/{name.lstrip('/')}")
        assert _shm_segments() <= segments_before


class TestChaosStallCost:
    def test_fired_stall_costs_under_two_seconds(self, untrained_classifier):
        """At the pool's default 60 s timeout, a chaos stall still ends
        in one fallback with reference verdicts, and a healed pool, in
        well under the timeout: the parent's wait on a stalling worker
        is half the stall."""
        frames, later = _frames(8, seed=31), _frames(8, seed=32)
        reference = PercivalBlocker(untrained_classifier, calibrated_latency_ms=1.0)
        with InferenceWorkerPool(num_workers=2) as pool:
            pool.publish(untrained_classifier)
            blocker = _served_blocker(untrained_classifier, pool)
            assert pool.chaos_arm_worker_stall(0)
            started = time.monotonic()
            decisions = blocker.decide_many(frames)
            elapsed = time.monotonic() - started
            assert elapsed < 2.0
            assert blocker.pool_fallbacks == 1
            assert decisions == reference.decide_many(frames)
            # the stalled worker was discarded and is replaced
            assert blocker.decide_many(later) == reference.decide_many(later)
            assert blocker.pool_fallbacks == 1
            assert pool.alive_workers == 2


#: owns a 1-worker pool, arms a 30 s stall, prints the worker's pid and
#: starts a call the worker stalls on
_STALLED_OWNER = """
import numpy as np
from repro.core import (
    AdClassifier, InferenceWorkerPool, PercivalBlocker, PercivalConfig,
)
classifier = AdClassifier(PercivalConfig())
pool = InferenceWorkerPool(num_workers=1, timeout_s=60.0)
pool.publish(classifier)
assert pool.chaos_arm_worker_stall(0, 30.0)
print(pool._workers[0].process.pid, flush=True)
blocker = PercivalBlocker(
    classifier, calibrated_latency_ms=1.0, pool=pool, shard_min_batch=1
)
rng = np.random.default_rng(0)
blocker.decide_many(
    [rng.random((10, 12, 4)).astype(np.float32) for _ in range(4)]
)
"""


def _running(pid):
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestOrphanedWorker:
    def test_stalled_worker_exits_when_its_parent_is_killed(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        owner = subprocess.Popen(
            [sys.executable, "-c", _STALLED_OWNER],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            worker = int(owner.stdout.readline())
            time.sleep(1.0)  # the call reaches the worker and stalls
            assert _running(worker)
        finally:
            owner.kill()
            owner.wait(timeout=10)
            owner.stdout.close()
        deadline = time.monotonic() + 5.0
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphaned = _running(worker)
        if orphaned:
            os.kill(worker, signal.SIGKILL)
        assert not orphaned
