"""Multiprocess inference sharding: equivalence and failure modes.

The contract under test: sharding changes *where* a probability is
computed, never its value — worker death, a closed pool, or a disabled
knob (``PERCIVAL_WORKERS=0``) must all degrade to the single-process
fast path with identical verdicts.
"""

import gc
import glob
import itertools
import multiprocessing as mp
import os
import sys
from multiprocessing import shared_memory

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
    preprocess_batch,
)
from repro.core.workerpool import _split, _worker_main
from repro.utils.hashing import image_fingerprint


def _nchw_batch(classifier, count, seed=0):
    rng = np.random.default_rng(seed)
    size = classifier.config.input_size
    return rng.standard_normal((count, 4, size, size)).astype(np.float32)


def _bitmaps(count, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.random((10, 12, 4)).astype(np.float32) for _ in range(count)]


def _mixed_bitmaps(count, seed=3):
    """Bitmaps of every shape the decode step hands over: RGBA and RGB,
    float32 and float64, contiguous and strided views."""
    rng = np.random.default_rng(seed)
    frames = []
    for index in range(count):
        kind = index % 4
        if kind == 0:
            frame = rng.random((10 + index, 12, 4)).astype(np.float32)
        elif kind == 1:
            frame = rng.random((9, 14 + index, 3)).astype(np.float32)
        elif kind == 2:
            frame = rng.random((24, 20 + index, 4)).astype(np.float32)[::2, ::-1]
            assert not frame.flags.c_contiguous
        else:
            frame = rng.random((16, 16, 4))  # float64
        frames.append(frame)
    return frames


def _probabilities(decisions):
    return [decision.probability for decision in decisions]


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
            # keyed, so the worker's first sub-batch is a scoring one
            # (a keyless call would meet the death in its hashing phase,
            # before the parent computes; test_workerpool_faults.py arms
            # it between the phases too)
            keys = [PercivalBlocker.fingerprint(bitmap) for bitmap in bitmaps]
            decisions = blocker.decide_many(bitmaps, keys=keys)
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


class TestBitmapPath:
    """``ad_probabilities``: every lane preprocesses its own share, the
    workers reading theirs from the pool's frame segment."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bitwise_equal_to_poolless_decide_many(
        self, untrained_classifier, workers
    ):
        size = untrained_classifier.config.input_size
        with InferenceWorkerPool(num_workers=workers) as pool:
            pool.publish(untrained_classifier)
            pooled = PercivalBlocker(
                untrained_classifier,
                calibrated_latency_ms=1.0,
                pool=pool,
                shard_min_batch=1,
            )
            for count in range(2 * workers + 2):
                bitmaps = _mixed_bitmaps(count, seed=count)
                reference = PercivalBlocker(
                    untrained_classifier, calibrated_latency_ms=1.0
                )
                assert _probabilities(pooled.decide_many(bitmaps)) == (
                    _probabilities(reference.decide_many(bitmaps))
                ), count
                # the tensor path over the parent-preprocessed batch
                # shards the same way, so it agrees bit for bit too
                direct = pool.ad_probabilities(bitmaps)
                assert direct.dtype == np.float32
                assert direct.shape == (count,)
                assert np.array_equal(
                    direct, pool.predict_proba(preprocess_batch(bitmaps, size))
                ), count
            assert pooled.pool_fallbacks == 0
            assert pool._frames is not None

    def test_segment_grows_by_doubling_and_never_shrinks(
        self, untrained_classifier
    ):
        rng = np.random.default_rng(0)

        def frames(count, side):
            return [
                rng.random((side, side, 4)).astype(np.float32)
                for _ in range(count)
            ]

        def check(bitmaps):
            expected = untrained_classifier.ad_probabilities(bitmaps)
            assert np.array_equal(pool.ad_probabilities(bitmaps), expected)

        with InferenceWorkerPool(num_workers=1) as pool:
            pool.publish(untrained_classifier)
            assert pool._frames is None  # created lazily
            check(frames(4, 8))
            first = pool._frames
            first_name, first_size = first.name, first.size
            # the worker's two frames no longer fit: the segment doubles
            # until they do, and the old one is unlinked
            check(frames(4, 40))
            grown = pool._frames
            assert grown.name != first_name
            ratio = grown.size // first_size
            assert grown.size == ratio * first_size
            assert ratio >= 2 and ratio & (ratio - 1) == 0
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=first_name)
            # a smaller batch reuses the grown segment
            check(frames(4, 8))
            assert pool._frames is grown
            assert pool.respawns == 0

    def test_segment_creation_failure_falls_back(
        self, untrained_classifier, monkeypatch
    ):
        from repro.core import workerpool

        def no_space(*args, **kwargs):
            raise OSError("No space left on device")

        with InferenceWorkerPool(num_workers=1) as pool:
            pool.publish(untrained_classifier)
            blocker = PercivalBlocker(
                untrained_classifier,
                calibrated_latency_ms=1.0,
                pool=pool,
                shard_min_batch=1,
            )
            reference = PercivalBlocker(
                untrained_classifier, calibrated_latency_ms=1.0
            )
            bitmaps = _mixed_bitmaps(4)
            with monkeypatch.context() as patched:
                patched.setattr(workerpool.shared_memory, "SharedMemory", no_space)
                decisions = blocker.decide_many(bitmaps)
            assert blocker.pool_fallbacks == 1
            assert not pool.dispatching
            assert _probabilities(decisions) == _probabilities(
                reference.decide_many(bitmaps)
            )

    @pytest.mark.parametrize("fault", ["death", "stall", "corrupt"])
    def test_chaos_during_bitmap_scatter_falls_back_once(
        self, untrained_classifier, fault
    ):
        with InferenceWorkerPool(num_workers=2, timeout_s=1.0) as pool:
            pool.publish(untrained_classifier)
            blocker = PercivalBlocker(
                untrained_classifier,
                calibrated_latency_ms=1.0,
                pool=pool,
                shard_min_batch=4,
            )
            reference = PercivalBlocker(
                untrained_classifier, calibrated_latency_ms=1.0
            )
            armed = {
                "death": pool.chaos_arm_worker_death,
                "stall": pool.chaos_arm_worker_stall,
                "corrupt": pool.chaos_corrupt_pipe,
            }[fault](0)
            assert armed
            bitmaps = _mixed_bitmaps(8, seed=1)
            decisions = blocker.decide_many(bitmaps)
            assert blocker.pool_fallbacks == 1
            assert _probabilities(decisions) == _probabilities(
                reference.decide_many(bitmaps)
            )
            # the faulted worker is replaced and the next call is clean
            fresh = _mixed_bitmaps(8, seed=2)
            decisions = blocker.decide_many(fresh)
            assert blocker.pool_fallbacks == 1
            assert pool.alive_workers == 2
            assert _probabilities(decisions) == _probabilities(
                reference.decide_many(fresh)
            )

    def test_call_while_dispatching_raises(self, pool, untrained_classifier):
        """A call arriving mid-dispatch must not overwrite the frames a
        worker may still be reading."""
        bitmaps = _mixed_bitmaps(9)
        lane = pool._lane
        compute = lane.predict_proba_tensor
        refused = []

        def reenter(batch):
            segment = pool._frames.name
            for call in (
                lambda: pool.ad_probabilities(_mixed_bitmaps(9, seed=5)),
                lambda: pool.predict_proba(batch),
            ):
                with pytest.raises(WorkerPoolError):
                    call()
                refused.append(pool.dispatching)
            assert pool._frames.name == segment
            return compute(batch)

        lane.predict_proba_tensor = reenter
        got = pool.ad_probabilities(bitmaps)
        assert refused == [True, True]
        assert not pool.dispatching
        assert np.array_equal(got, untrained_classifier.ad_probabilities(bitmaps))


class TestKeylessTwoPhase:
    """A pooled ``decide_many``, keyless and keyed.  Keyless: every lane
    hashes its own share, the memo is probed between the phases, and
    every lane scores the misses in its own share.  Keyed (the serve
    fronts' path): the memo misses go to the lanes to score.  Either
    way bitwise equal to the pool-less call in keys, probabilities,
    ``from_cache``, ``classifications`` and memo order."""

    @staticmethod
    def _compare(pool, classifier, frames, seeded=(), keyed=False):
        """Run ``frames`` through a pooled and a pool-less blocker whose
        memos were seeded alike, with precomputed keys when ``keyed``;
        returns the request kinds of each pooled scatter."""
        pooled = PercivalBlocker(
            classifier, calibrated_latency_ms=1.0, pool=pool, shard_min_batch=1
        )
        reference = PercivalBlocker(classifier, calibrated_latency_ms=1.0)
        for blocker in (pooled, reference):
            blocker.decide_many(list(seeded))
        keys = [image_fingerprint(frame) for frame in frames] if keyed else None
        phases = []
        scatter_gather = pool._scatter_gather

        def counting(messages, own, workers=None):
            phases.append([message[0] for message in messages])
            return scatter_gather(messages, own, workers)

        pool._scatter_gather = counting
        try:
            got = pooled.decide_many(frames, keys)
        finally:
            del pool._scatter_gather
        assert got == reference.decide_many(frames)
        assert list(pooled._memo.items()) == list(reference._memo.items())
        assert pooled.classifications == reference.classifications
        assert pooled.pool_fallbacks == 0
        assert not pool.dispatching
        return phases

    @staticmethod
    def _shares(count, workers):
        *shares, own = _split(range(count), workers + 1)
        return [share for share in shares if len(share)], own

    @pytest.mark.parametrize("workers", [1, 2])
    def test_duplicates_spanning_shares(self, untrained_classifier, workers):
        with InferenceWorkerPool(num_workers=workers) as pool:
            pool.publish(untrained_classifier)
            for count, keyed in itertools.product(
                range(2 * workers + 2), (False, True)
            ):
                frames = _mixed_bitmaps(count, seed=count)
                shares, own = self._shares(count, workers)
                if len(own) and shares:
                    # the parent's last frame repeats the first worker's
                    # first frame (an equal copy, not the same object)
                    frames[own[-1]] = frames[0].copy()
                phases = self._compare(
                    pool, untrained_classifier, frames, keyed=keyed
                )
                # an empty call is under shard_min_batch: no pool call;
                # a keyed one skips the hashing phase
                hashing = [] if keyed else [{"fingerprint"}]
                assert [set(phase) for phase in phases] == (
                    hashing + [{"frames"}] if count else []
                ), (count, keyed)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memo_hits_in_every_share(self, untrained_classifier, workers):
        with InferenceWorkerPool(num_workers=workers) as pool:
            pool.publish(untrained_classifier)
            for count, keyed in itertools.product(
                range(2 * workers + 2), (False, True)
            ):
                frames = _mixed_bitmaps(count, seed=count + 40)
                shares, own = self._shares(count, workers)
                # the first frame of every lane's share is already known
                seeded = [frames[share[0]] for share in (*shares, own) if len(share)]
                self._compare(pool, untrained_classifier, frames, seeded, keyed)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_frame_hits_ends_after_hashing(
        self, untrained_classifier, workers
    ):
        with InferenceWorkerPool(num_workers=workers) as pool:
            pool.publish(untrained_classifier)
            for count, keyed in itertools.product(
                range(1, 2 * workers + 2), (False, True)
            ):
                frames = _mixed_bitmaps(count, seed=count + 80)
                phases = self._compare(
                    pool, untrained_classifier, frames, frames, keyed
                )
                # a keyed call with no misses never reaches the pool
                expected = [] if keyed else [["fingerprint"] * min(count, workers)]
                assert phases == expected, (count, keyed)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pooled_keys_equal_image_fingerprint(
        self, untrained_classifier, workers
    ):
        """RGBA, RGB, strided views and float64 bitmaps in every lane's
        share hash to the in-process key."""
        frames = _mixed_bitmaps(4 * (workers + 1), seed=9)
        seen = []
        with InferenceWorkerPool(num_workers=workers) as pool:
            pool.publish(untrained_classifier)
            assert pool.ad_probabilities(frames, seen.append) is None
            assert not pool.dispatching
        assert seen == [[image_fingerprint(frame) for frame in frames]]

    def test_scores_only_the_selected_frames(self, pool, untrained_classifier):
        frames = _mixed_bitmaps(9, seed=12)
        selected = [0, 2, 3, 7, 8]
        got = pool.ad_probabilities(frames, lambda keys: selected)
        expected = untrained_classifier.ad_probabilities(
            [frames[index] for index in selected]
        )
        assert got.dtype == np.float32
        assert np.array_equal(got, expected)


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

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(),
        reason="workers must inherit the patched import",
    )
    def test_failed_publication_leaves_pipes_in_sync(
        self, tmp_path, untrained_classifier, monkeypatch
    ):
        """Every stale worker's plan reply is read, even after the first
        one fails, so none is left to desync the next call."""
        flag = tmp_path / "weights-importable"
        parent = os.getpid()
        build = AdClassifier.from_plan_export.__func__

        def worker_fails_until_flag(cls, export, buffer):
            if os.getpid() != parent and not flag.exists():
                raise RuntimeError("import failed")
            return build(cls, export, buffer)

        monkeypatch.setattr(
            AdClassifier, "from_plan_export", classmethod(worker_fails_until_flag)
        )
        with InferenceWorkerPool(num_workers=2) as pool:
            with pytest.raises(WorkerPoolError):
                pool.publish(untrained_classifier)
            flag.touch()
            batch = _nchw_batch(untrained_classifier, 6)
            assert np.array_equal(
                pool.predict_proba(batch),
                untrained_classifier.predict_proba_tensor(batch),
            )
            assert pool.respawns == 0
            assert pool.alive_workers == 2

    def test_corrupt_pipe_during_republication_falls_back_once(self, tmp_path):
        """An out-of-sync reply to a plan fails the publication like a
        batch: one fallback with reference verdicts, the worker is
        discarded and replaced, and the next call is pooled and clean."""
        segments_before = set(glob.glob("/dev/shm/psm_*"))
        classifier = AdClassifier(PercivalConfig())
        donor = AdClassifier(PercivalConfig(seed=5))
        path = str(tmp_path / "donor.npz")
        donor.save(path)
        reference = PercivalBlocker(classifier, calibrated_latency_ms=1.0)
        with InferenceWorkerPool(num_workers=2, timeout_s=10.0) as pool:
            pool.publish(classifier)
            blocker = PercivalBlocker(
                classifier, calibrated_latency_ms=1.0, pool=pool, shard_min_batch=4
            )
            victim = pool._workers[0].process
            assert pool.chaos_corrupt_pipe(0)
            classifier.load(path)  # the next call re-publishes
            frames = _mixed_bitmaps(8, seed=31)
            assert blocker.decide_many(frames) == reference.decide_many(frames)
            assert blocker.pool_fallbacks == 1
            assert not victim.is_alive()
            assert not pool.dispatching

            later = _mixed_bitmaps(8, seed=32)
            assert blocker.decide_many(later) == reference.decide_many(later)
            assert blocker.pool_fallbacks == 1
            assert pool.respawns == 1
            assert pool.alive_workers == 2
            assert victim not in [worker.process for worker in pool._workers]
            assert pool.published_fingerprint == classifier.weights_fingerprint()
        assert set(glob.glob("/dev/shm/psm_*")) <= segments_before

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

            def ad_probabilities(self, bitmaps, select=None):
                raise AssertionError("ad_probabilities must not be called")

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
        pool = InferenceWorkerPool(num_workers=1)
        pool.publish(untrained_classifier)
        pool.ad_probabilities(_bitmaps(4))
        names = [pool._segment.name, pool._frames.name]
        pool.close()
        assert pool._segment is None and pool._frames is None
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_pool_cycles_leak_no_descriptors(self, untrained_classifier):
        """create -> publish -> ad_probabilities -> close, five times
        (one with a killed worker the next call respawns), must leave
        the process holding exactly the descriptors it held before.  A
        pipe left open is otherwise invisible: nothing fails until the
        process runs out of descriptors."""

        def cycle(kill: bool) -> None:
            pool = InferenceWorkerPool(num_workers=2, timeout_s=10.0)
            try:
                pool.publish(untrained_classifier)
                if kill:
                    victim = pool._workers[0].process
                    victim.terminate()
                    victim.join()
                pool.ad_probabilities(_bitmaps(6))
                if kill:
                    assert pool.respawns == 1
            finally:
                pool.close()

        def open_descriptors() -> int:
            gc.collect()
            return len(os.listdir("/proc/self/fd"))

        cycle(kill=False)  # first use starts the shared-memory tracker
        before = open_descriptors()
        for index in range(5):
            cycle(kill=index == 2)
        assert open_descriptors() <= before


def _private_mb() -> float:
    """This process's private memory (clean + dirty), in MiB."""
    private_kb = 0
    with open("/proc/self/smaps_rollup", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                private_kb += int(line.split()[1])
    return private_kb / 1024.0


def _serve_then_collect(conn, report) -> None:
    """A forked worker's life, then a full collection: reports the
    freeze count and private memory before and after that collection."""
    _worker_main(conn, ())
    before = _private_mb()
    gc.collect()
    report.send((gc.get_freeze_count(), before, _private_mb()))
    report.close()


class TestInheritedHeap:
    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods()
        or not os.path.exists("/proc/self/smaps_rollup"),
        reason="needs fork and /proc/self/smaps_rollup",
    )
    def test_full_collection_leaves_inherited_pages_shared(self):
        """A worker freezes what it inherited, so a full collection in
        it walks none of the parent's objects.  Unfrozen, that walk
        writes every inherited object's GC header, and copy-on-write
        duplicates the parent's object pages in the worker."""
        heap = [[index] for index in range(500_000)]
        heap_mb = len(heap) * sys.getsizeof(heap[0]) / 2**20
        ctx = mp.get_context("fork")
        conn, child_conn = ctx.Pipe()
        report_recv, report_send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_serve_then_collect, args=(child_conn, report_send)
        )
        try:
            process.start()
            child_conn.close()
            report_send.close()
            conn.send(("stop",))
            assert report_recv.poll(60.0), "worker never reported"
            frozen, before_mb, after_mb = report_recv.recv()
        finally:
            conn.close()
            report_recv.close()
            process.join(10.0)
            if process.is_alive():
                process.kill()
                process.join()
        assert frozen >= len(heap)
        assert after_mb - before_mb < heap_mb / 8


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
