"""Classifier fast-path routing, plan invalidation, batched verdicts."""

import numpy as np
import pytest

from repro.core import AdClassifier, PercivalBlocker


@pytest.fixture()
def bitmaps(rng):
    return [rng.random((12, 16, 4)).astype(np.float32) for _ in range(6)]


class TestClassifierFastPath:
    def test_plan_compiles_lazily(self, untrained_classifier):
        assert untrained_classifier.inference_plan is not None

    def test_fast_path_matches_reference(self, reference_classifier, rng):
        size = reference_classifier.config.input_size
        batch = rng.standard_normal((5, 4, size, size)).astype(np.float32)
        reference = reference_classifier.predict_proba_tensor(
            batch, fast_path=False
        )
        fast = reference_classifier.predict_proba_tensor(
            batch, fast_path=True
        )
        # tolerance widens with the storage precision in effect
        # (PERCIVAL_PRECISION matrix entries run this same suite)
        tolerance = reference_classifier.fast_path_tolerance
        assert np.abs(reference - fast).max() < tolerance

    def test_probabilities_stay_float32(self, reference_classifier, rng):
        size = reference_classifier.config.input_size
        batch = rng.standard_normal((3, 4, size, size)).astype(np.float32)
        for fast_path in (False, True):
            probabilities = reference_classifier.predict_proba_tensor(
                batch, fast_path=fast_path
            )
            assert probabilities.dtype == np.float32

    def test_empty_batch_both_paths(self, untrained_classifier):
        size = untrained_classifier.config.input_size
        empty = np.empty((0, 4, size, size), dtype=np.float32)
        for fast_path in (False, True):
            probabilities = untrained_classifier.predict_proba_tensor(
                empty, fast_path=fast_path
            )
            assert probabilities.shape == (0,)
            assert probabilities.dtype == np.float32

    def test_load_invalidates_plan(self, reference_classifier, tmp_path):
        path = str(tmp_path / "weights.npz")
        reference_classifier.save(path)
        fresh = AdClassifier(reference_classifier.config)
        stale_plan = fresh.inference_plan
        fresh.load(path)
        assert fresh.inference_plan is not stale_plan

    def test_invalidate_plan_recompiles(self, untrained_classifier):
        first = untrained_classifier.inference_plan
        untrained_classifier.invalidate_plan()
        second = untrained_classifier.inference_plan
        assert first is not second

    def test_loaded_weights_flow_into_plan(self, reference_classifier,
                                           tmp_path, rng):
        path = str(tmp_path / "weights.npz")
        reference_classifier.save(path)
        fresh = AdClassifier(reference_classifier.config)
        size = fresh.config.input_size
        batch = rng.standard_normal((2, 4, size, size)).astype(np.float32)
        before = fresh.predict_proba_tensor(batch)
        fresh.load(path)
        after = fresh.predict_proba_tensor(batch)
        assert not np.array_equal(before, after)
        assert np.abs(
            after - reference_classifier.predict_proba_tensor(batch)
        ).max() < 1e-5


class TestDecideMany:
    def test_matches_single_decides(self, reference_classifier, bitmaps):
        batched = PercivalBlocker(reference_classifier,
                                  calibrated_latency_ms=11.0)
        singles = PercivalBlocker(reference_classifier,
                                  calibrated_latency_ms=11.0)
        batched_decisions = batched.decide_many(bitmaps)
        for bitmap, decision in zip(bitmaps, batched_decisions):
            single = singles.decide(bitmap)
            assert single.is_ad == decision.is_ad
            assert single.probability == pytest.approx(
                decision.probability, abs=1e-5
            )

    def test_fills_memo(self, reference_classifier, bitmaps):
        blocker = PercivalBlocker(reference_classifier,
                                  calibrated_latency_ms=11.0)
        first = blocker.decide_many(bitmaps)
        assert not any(d.from_cache for d in first)
        assert blocker.classifications == len(bitmaps)
        second = blocker.decide_many(bitmaps)
        assert all(d.from_cache for d in second)
        assert blocker.classifications == len(bitmaps)

    def test_duplicates_classified_once(self, reference_classifier,
                                        bitmaps):
        blocker = PercivalBlocker(reference_classifier,
                                  calibrated_latency_ms=11.0)
        decisions = blocker.decide_many([bitmaps[0], bitmaps[1],
                                         bitmaps[0]])
        assert blocker.classifications == 2
        assert decisions[0].probability == decisions[2].probability

    def test_empty_input(self, reference_classifier):
        blocker = PercivalBlocker(reference_classifier,
                                  calibrated_latency_ms=11.0)
        assert blocker.decide_many([]) == []
        assert blocker.classifications == 0

    def test_precomputed_keys(self, reference_classifier, bitmaps):
        blocker = PercivalBlocker(reference_classifier,
                                  calibrated_latency_ms=11.0)
        keys = [blocker.fingerprint(bitmap) for bitmap in bitmaps]
        decisions = blocker.decide_many(bitmaps, keys=keys)
        assert len(decisions) == len(bitmaps)
        for key, decision in zip(keys, decisions):
            assert blocker.memoized_decision(key=key).is_ad == decision.is_ad

    def test_mismatched_keys_rejected(self, reference_classifier,
                                      bitmaps):
        blocker = PercivalBlocker(reference_classifier,
                                  calibrated_latency_ms=11.0)
        with pytest.raises(ValueError):
            blocker.decide_many(bitmaps, keys=["only-one"])

    def test_memo_capacity_respected(self, reference_classifier, rng):
        blocker = PercivalBlocker(
            reference_classifier, calibrated_latency_ms=11.0,
            memo_capacity=2,
        )
        blocker.decide_many([
            rng.random((8, 8, 4)).astype(np.float32) for _ in range(5)
        ])
        assert blocker.memo_size == 2


class TestKeyedEntryPoints:
    def test_decide_with_key_skips_rehash(self, reference_classifier,
                                          bitmaps):
        blocker = PercivalBlocker(reference_classifier,
                                  calibrated_latency_ms=11.0)
        key = blocker.fingerprint(bitmaps[0])
        first = blocker.decide(bitmaps[0], key=key)
        assert not first.from_cache
        again = blocker.decide(bitmaps[0], key=key)
        assert again.from_cache
        # the same memo entry serves the un-keyed path too
        assert blocker.decide(bitmaps[0]).from_cache

    def test_memoized_decision_with_key(self, reference_classifier,
                                        bitmaps):
        blocker = PercivalBlocker(reference_classifier,
                                  calibrated_latency_ms=11.0)
        key = blocker.fingerprint(bitmaps[0])
        assert blocker.memoized_decision(key=key) is None
        decision = blocker.decide(bitmaps[0], key=key)
        cached = blocker.memoized_decision(key=key)
        assert cached.is_ad == decision.is_ad
        assert cached.probability == decision.probability
