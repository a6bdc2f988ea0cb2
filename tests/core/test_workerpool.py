"""Multiprocess inference sharding: equivalence and failure modes.

The contract under test: sharding changes *where* a probability is
computed, never its value — worker death, a closed pool, or a disabled
knob (``PERCIVAL_WORKERS=0``) must all degrade to the single-process
fast path with identical verdicts.
"""

import numpy as np
import pytest

from repro.core import (
    AdClassifier,
    InferenceWorkerPool,
    ModelStore,
    PercivalBlocker,
    PercivalConfig,
    WorkerPoolError,
    configured_worker_count,
)


def _nchw_batch(classifier, count, seed=0):
    rng = np.random.default_rng(seed)
    size = classifier.config.input_size
    return rng.standard_normal((count, 4, size, size)).astype(np.float32)


def _bitmaps(count, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.random((10, 12, 4)).astype(np.float32) for _ in range(count)]


@pytest.fixture()
def pool(untrained_classifier):
    pool = InferenceWorkerPool(num_workers=2)
    pool.publish(untrained_classifier)
    yield pool
    pool.close()


class TestShardedEquivalence:
    def test_matches_in_process_probabilities(self, pool, untrained_classifier):
        batch = _nchw_batch(untrained_classifier, 9)
        sharded = pool.predict_proba(batch)
        serial = untrained_classifier.predict_proba_tensor(batch)
        assert sharded.dtype == np.float32
        assert np.allclose(sharded, serial, atol=1e-6)

    def test_batch_smaller_than_worker_count(self, pool, untrained_classifier):
        batch = _nchw_batch(untrained_classifier, 1)
        sharded = pool.predict_proba(batch)
        serial = untrained_classifier.predict_proba_tensor(batch)
        assert sharded.shape == (1,)
        assert np.allclose(sharded, serial, atol=1e-6)

    def test_empty_batch(self, pool, untrained_classifier):
        size = untrained_classifier.config.input_size
        empty = np.empty((0, 4, size, size), dtype=np.float32)
        result = pool.predict_proba(empty)
        assert result.shape == (0,)
        assert result.dtype == np.float32

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bitwise_equal_to_fast_path(self, untrained_classifier, workers):
        # 0 through 2N + 1 frames over N + 1 lanes: empty, fewer frames
        # than lanes, and up to two frames per lane
        with InferenceWorkerPool(num_workers=workers) as pool:
            pool.publish(untrained_classifier)
            for count in range(2 * workers + 2):
                batch = _nchw_batch(untrained_classifier, count, seed=count)
                sharded = pool.predict_proba(batch)
                serial = untrained_classifier.predict_proba_tensor(batch)
                assert sharded.dtype == np.float32
                assert sharded.shape == (count,)
                assert np.array_equal(sharded, serial), count

    def test_republish_same_weights_is_noop(self, pool, untrained_classifier):
        first = pool.published_fingerprint
        assert pool.publish(untrained_classifier) == first
        assert pool.published_fingerprint == first


class TestParentLane:
    """The parent computes the last of N + 1 shards while the N
    workers compute theirs, from the same published bytes."""

    def test_worker_death_while_parent_computes_falls_back_once(
        self, untrained_classifier
    ):
        pool = InferenceWorkerPool(num_workers=1, timeout_s=10.0)
        try:
            pool.publish(untrained_classifier)
            lane = pool._lane
            compute = lane.predict_proba_tensor
            seen_dead = []

            def wait_for_death_then_compute(batch):
                # the armed worker exits on its shard; hold the parent's
                # shard until it has, so the death lands mid-compute
                victim = pool._workers[0].process
                victim.join(timeout=5.0)
                seen_dead.append(not victim.is_alive())
                return compute(batch)

            lane.predict_proba_tensor = wait_for_death_then_compute
            blocker = PercivalBlocker(
                untrained_classifier,
                calibrated_latency_ms=1.0,
                pool=pool,
                shard_min_batch=4,
            )
            reference = PercivalBlocker(untrained_classifier, calibrated_latency_ms=1.0)
            assert pool.chaos_arm_worker_death(0)
            bitmaps = _bitmaps(8)
            decisions = blocker.decide_many(bitmaps)
            assert seen_dead == [True]
            assert blocker.pool_fallbacks == 1
            assert [d.probability for d in decisions] == [
                e.probability for e in reference.decide_many(bitmaps)
            ]
            lane.predict_proba_tensor = compute
            # the next call respawns the worker and runs clean
            fresh = _bitmaps(8, seed=11)
            decisions = blocker.decide_many(fresh)
            assert blocker.pool_fallbacks == 1
            assert pool.respawns == 1
            assert pool.alive_workers == 1
            assert [d.probability for d in decisions] == [
                e.probability for e in reference.decide_many(fresh)
            ]
        finally:
            pool.close()

    def test_capacity_counts_workers_only(self, pool, untrained_classifier):
        lane = pool._lane
        compute = lane.predict_proba_tensor
        during = []

        def spy(batch):
            during.append((pool.dispatching, pool.available_capacity))
            return compute(batch)

        lane.predict_proba_tensor = spy
        assert pool.available_capacity == pool.num_workers == 2
        pool.predict_proba(_nchw_batch(untrained_classifier, 9))
        assert during == [(True, 0)]
        assert pool.available_capacity == 2
        assert not pool.dispatching

    def test_lane_error_drains_workers_before_propagating(
        self, pool, untrained_classifier
    ):
        lane = pool._lane
        compute = lane.predict_proba_tensor

        def broken(batch):
            raise MemoryError("parent lane out of memory")

        lane.predict_proba_tensor = broken
        batch = _nchw_batch(untrained_classifier, 9)
        with pytest.raises(MemoryError):
            pool.predict_proba(batch)
        assert not pool.dispatching
        lane.predict_proba_tensor = compute
        # the workers' replies were drained: the next gather is in sync
        assert np.array_equal(
            pool.predict_proba(batch),
            untrained_classifier.predict_proba_tensor(batch),
        )
        assert pool.alive_workers == 2
        assert pool.respawns == 0

    def _loaded_pair(self, tmp_path):
        """A classifier and the batch it scores, plus donor weights on
        disk that score that batch differently."""
        classifier = AdClassifier(PercivalConfig())
        donor = AdClassifier(PercivalConfig(seed=5))
        path = str(tmp_path / "donor.npz")
        donor.save(path)
        batch = _nchw_batch(classifier, 9)
        assert not np.array_equal(
            classifier.predict_proba_tensor(batch),
            donor.predict_proba_tensor(batch),
        )
        return classifier, path, batch

    def test_publish_after_load_moves_every_lane(self, tmp_path):
        classifier, path, batch = self._loaded_pair(tmp_path)
        with InferenceWorkerPool(num_workers=2) as pool:
            pool.publish(classifier)
            stale_lane = pool._lane
            classifier.load(path)
            pool.publish(classifier)
            assert pool._lane is not stale_lane
            # 9 frames over 3 lanes: every lane scores three of them
            assert np.array_equal(
                pool.predict_proba(batch), classifier.predict_proba_tensor(batch)
            )

    def test_load_without_publish_mixes_no_weights(self, tmp_path):
        classifier, path, batch = self._loaded_pair(tmp_path)
        published = classifier.predict_proba_tensor(batch)
        with InferenceWorkerPool(num_workers=2) as pool:
            pool.publish(classifier)
            classifier.load(path)
            assert np.array_equal(pool.predict_proba(batch), published)

    def test_close_drops_the_lane(self, untrained_classifier):
        pool = InferenceWorkerPool(num_workers=1)
        pool.publish(untrained_classifier)
        assert pool._lane is not None
        pool.close()
        assert pool._lane is None


class TestFailureModes:
    def test_dead_worker_is_respawned(self, pool, untrained_classifier):
        batch = _nchw_batch(untrained_classifier, 6)
        victim = pool._workers[0].process
        victim.terminate()
        victim.join()
        sharded = pool.predict_proba(batch)
        serial = untrained_classifier.predict_proba_tensor(batch)
        assert np.allclose(sharded, serial, atol=1e-6)
        assert pool.alive_workers == 2

    def test_death_mid_batch_raises_not_corrupts(
        self, untrained_classifier, monkeypatch
    ):
        pool = InferenceWorkerPool(num_workers=2, timeout_s=10.0)
        try:
            pool.publish(untrained_classifier)
            victim = pool._workers[0].process
            victim.terminate()
            victim.join()
            # freeze self-healing so the death looks mid-batch
            monkeypatch.setattr(pool, "_sync_workers", lambda: None)
            with pytest.raises(WorkerPoolError):
                pool.predict_proba(_nchw_batch(untrained_classifier, 6))
        finally:
            pool.close()

    def test_blocker_falls_back_on_dead_pool(self, untrained_classifier, monkeypatch):
        """A worker dying mid-batch must not change any verdict."""
        pool = InferenceWorkerPool(num_workers=2, timeout_s=10.0)
        try:
            pool.publish(untrained_classifier)
            victim = pool._workers[0].process
            victim.terminate()
            victim.join()
            monkeypatch.setattr(pool, "_sync_workers", lambda: None)
            blocker = PercivalBlocker(
                untrained_classifier,
                calibrated_latency_ms=1.0,
                pool=pool,
                shard_min_batch=4,
            )
            reference = PercivalBlocker(untrained_classifier, calibrated_latency_ms=1.0)
            bitmaps = _bitmaps(6)
            decisions = blocker.decide_many(bitmaps)
            expected = reference.decide_many(bitmaps)
            assert [d.is_ad for d in decisions] == [e.is_ad for e in expected]
            assert np.allclose(
                [d.probability for d in decisions],
                [e.probability for e in expected],
                atol=1e-6,
            )
            assert blocker.classifications == len(bitmaps)
        finally:
            pool.close()

    def test_pool_recovers_after_out_of_sync_reply(self, pool, untrained_classifier):
        """One bad batch must not poison the pipes for the next one."""
        batch = _nchw_batch(untrained_classifier, 6)
        # inject an orphan task directly: its reply will desync the pipe
        pool._workers[0].conn.send(("run", 999_999, batch[:1]))
        with pytest.raises(WorkerPoolError):
            pool.predict_proba(batch)
        sharded = pool.predict_proba(batch)  # pipes are clean again
        serial = untrained_classifier.predict_proba_tensor(batch)
        assert np.allclose(sharded, serial, atol=1e-6)
        assert pool.alive_workers == 2

    def test_blocker_falls_back_on_failed_republication(self, tmp_path, monkeypatch):
        """A publication failure (e.g. /dev/shm full) must degrade to
        in-process inference, not crash decide_many."""
        classifier = AdClassifier(PercivalConfig())
        pool = InferenceWorkerPool(num_workers=1)
        try:
            pool.publish(classifier)
            donor = AdClassifier(PercivalConfig(seed=5))
            path = str(tmp_path / "donor.npz")
            donor.save(path)
            classifier.load(path)  # fingerprint now differs from published

            def broken_pack(export, buffer):
                raise OSError("No space left on device")

            monkeypatch.setattr(classifier, "pack_weights_into", broken_pack)
            blocker = PercivalBlocker(
                classifier,
                calibrated_latency_ms=1.0,
                pool=pool,
                shard_min_batch=1,
            )
            reference = PercivalBlocker(classifier, calibrated_latency_ms=1.0)
            bitmaps = _bitmaps(4)
            decisions = blocker.decide_many(bitmaps)
            expected = reference.decide_many(bitmaps)
            assert [d.probability for d in decisions] == [
                e.probability for e in expected
            ]
        finally:
            pool.close()

    def test_blocker_falls_back_on_closed_pool(self, untrained_classifier):
        pool = InferenceWorkerPool(num_workers=1)
        pool.publish(untrained_classifier)
        pool.close()
        blocker = PercivalBlocker(
            untrained_classifier,
            calibrated_latency_ms=1.0,
            pool=pool,
            shard_min_batch=1,
        )
        decisions = blocker.decide_many(_bitmaps(3))
        assert len(decisions) == 3
        assert blocker.classifications == 3

    def test_small_batches_never_touch_the_pool(self, untrained_classifier):
        class ExplodingPool:
            closed = False
            published_fingerprint = "irrelevant"

            def publish(self, classifier):
                raise AssertionError("publish must not be called")

            def predict_proba(self, batch):
                raise AssertionError("predict_proba must not be called")

        blocker = PercivalBlocker(
            untrained_classifier,
            calibrated_latency_ms=1.0,
            pool=ExplodingPool(),
            shard_min_batch=64,
        )
        decisions = blocker.decide_many(_bitmaps(5))
        assert len(decisions) == 5


class TestTeardown:
    def test_close_is_idempotent(self, untrained_classifier):
        pool = InferenceWorkerPool(num_workers=1)
        pool.publish(untrained_classifier)
        pool.close()
        pool.close()
        assert pool.closed
        assert pool.alive_workers == 0

    def test_closed_pool_raises(self, untrained_classifier):
        pool = InferenceWorkerPool(num_workers=1)
        pool.publish(untrained_classifier)
        pool.close()
        with pytest.raises(WorkerPoolError):
            pool.predict_proba(_nchw_batch(untrained_classifier, 2))
        with pytest.raises(WorkerPoolError):
            pool.publish(untrained_classifier)

    def test_context_manager_closes(self, untrained_classifier):
        with InferenceWorkerPool(num_workers=1) as pool:
            pool.publish(untrained_classifier)
            pool.predict_proba(_nchw_batch(untrained_classifier, 2))
        assert pool.closed

    def test_shared_segment_unlinked_on_close(self, untrained_classifier):
        from multiprocessing import shared_memory

        pool = InferenceWorkerPool(num_workers=1)
        pool.publish(untrained_classifier)
        name = pool._segment.name
        pool.close()
        assert pool._segment is None
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestResize:
    """The autoscaling hook: capacity follows the lane count, verdicts
    never move."""

    def test_grow_spawns_workers_and_keeps_verdicts(self, untrained_classifier):
        batch = _nchw_batch(untrained_classifier, 9)
        with InferenceWorkerPool(num_workers=1) as pool:
            pool.publish(untrained_classifier)
            before = pool.predict_proba(batch)
            assert pool.resize(3) == 3
            assert pool.num_workers == 3
            assert pool.available_capacity == 3
            after = pool.predict_proba(batch)
        assert np.array_equal(before, after)

    def test_shrink_stops_highest_indexed_workers(self, untrained_classifier):
        batch = _nchw_batch(untrained_classifier, 9)
        with InferenceWorkerPool(num_workers=3) as pool:
            pool.publish(untrained_classifier)
            before = pool.predict_proba(batch)
            assert pool.resize(1) == 1
            assert pool.alive_workers == 1
            assert pool.available_capacity == 1
            after = pool.predict_proba(batch)
        assert np.array_equal(before, after)

    def test_resize_before_publish_defers_spawning(self, untrained_classifier):
        with InferenceWorkerPool(num_workers=1) as pool:
            assert pool.resize(2) == 2
            assert pool.num_workers == 2
            pool.publish(untrained_classifier)
            assert pool.available_capacity == 2

    def test_rejects_invalid_and_closed(self, untrained_classifier):
        pool = InferenceWorkerPool(num_workers=1)
        pool.publish(untrained_classifier)
        with pytest.raises(ValueError):
            pool.resize(0)
        pool.close()
        with pytest.raises(WorkerPoolError):
            pool.resize(2)

    def test_rejects_resize_mid_dispatch(self, untrained_classifier):
        """An in-flight batch's scatter order is already fixed; the
        resize must refuse rather than tear workers out from under it."""
        with InferenceWorkerPool(num_workers=1) as pool:
            pool.publish(untrained_classifier)
            pool._dispatching = True
            try:
                with pytest.raises(WorkerPoolError):
                    pool.resize(2)
            finally:
                pool._dispatching = False
            assert pool.num_workers == 1


class TestConfigKnob:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_WORKERS", "7")
        assert configured_worker_count(2) == 2
        assert configured_worker_count(0) == 0

    def test_env_integer(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_WORKERS", "3")
        assert configured_worker_count() == 3

    def test_env_auto_is_cores_minus_one(self, monkeypatch):
        import os

        monkeypatch.setenv("PERCIVAL_WORKERS", "auto")
        assert configured_worker_count() == max((os.cpu_count() or 1) - 1, 0)

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_WORKERS", "many")
        with pytest.raises(ValueError):
            configured_worker_count()

    def test_negative_clamps_to_zero(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_WORKERS", "-2")
        assert configured_worker_count() == 0

    def test_cache_key_ignores_deployment_knobs(self):
        base = PercivalConfig()
        tuned = PercivalConfig(num_workers=4, shard_min_batch=8)
        assert base.cache_key() == tuned.cache_key()


class TestModelStorePool:
    def test_workers_zero_disables_sharding(
        self, monkeypatch, untrained_classifier, tmp_path
    ):
        monkeypatch.setenv("PERCIVAL_WORKERS", "0")
        store = ModelStore(cache_dir=str(tmp_path))
        assert store.worker_pool(untrained_classifier) is None

    def test_workers_zero_reproduces_single_process_path(
        self, monkeypatch, untrained_classifier, tmp_path
    ):
        """PERCIVAL_WORKERS=0 must walk exactly the PR 1 code path."""
        monkeypatch.setenv("PERCIVAL_WORKERS", "0")
        store = ModelStore(cache_dir=str(tmp_path))
        pool = store.worker_pool(untrained_classifier)
        blocker = PercivalBlocker(
            untrained_classifier, calibrated_latency_ms=1.0, pool=pool
        )
        assert blocker.pool is None
        bitmaps = _bitmaps(4)
        decisions = blocker.decide_many(bitmaps)
        reference = PercivalBlocker(untrained_classifier, calibrated_latency_ms=1.0)
        singles = [reference.decide(bitmap) for bitmap in bitmaps]
        assert [d.probability for d in decisions] == [s.probability for s in singles]
        assert blocker.classifications == len(bitmaps)

    def test_pool_shared_and_shut_down(self, untrained_classifier, tmp_path):
        store = ModelStore(cache_dir=str(tmp_path))
        pool = store.worker_pool(untrained_classifier, num_workers=1)
        again = store.worker_pool(untrained_classifier, num_workers=1)
        assert pool is again
        store.shutdown_pool()
        store.shutdown_pool()
        assert pool.closed

    def test_republish_after_load_ships_new_weights(
        self, untrained_classifier, tmp_path
    ):
        store = ModelStore(cache_dir=str(tmp_path))
        classifier = AdClassifier(untrained_classifier.config)
        try:
            pool = store.worker_pool(classifier, num_workers=1)
            stale = pool.published_fingerprint
            donor = AdClassifier(
                PercivalConfig(seed=untrained_classifier.config.seed + 9)
            )
            path = str(tmp_path / "donor.npz")
            donor.save(path)
            classifier.load(path)
            pool = store.worker_pool(classifier, num_workers=1)
            assert pool.published_fingerprint != stale
            assert pool.published_fingerprint == classifier.weights_fingerprint()
            batch = _nchw_batch(classifier, 5)
            assert np.allclose(
                pool.predict_proba(batch),
                classifier.predict_proba_tensor(batch),
                atol=1e-6,
            )
        finally:
            store.shutdown_pool()
