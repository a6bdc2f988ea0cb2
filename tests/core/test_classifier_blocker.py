"""AdClassifier and PercivalBlocker behaviour (uses the cached model)."""

import numpy as np
import pytest

from repro.core import AdClassifier, PercivalBlocker, PercivalConfig
from repro.browser.skia import SkImageInfo
from repro.synth.adgen import AdSpec, generate_ad
from repro.synth.contentgen import ContentKind, generate_content
from repro.utils.rng import spawn_rng


@pytest.fixture(scope="module")
def overt_ad():
    return generate_ad(spawn_rng(0, "ad"), AdSpec(cue_strength=1.0))


@pytest.fixture(scope="module")
def photo():
    return generate_content(spawn_rng(0, "photo"), kind=ContentKind.PHOTO)


class TestAdClassifier:
    def test_probability_in_unit_interval(
        self, reference_classifier, overt_ad
    ):
        p = reference_classifier.ad_probability(overt_ad)
        assert 0.0 <= p <= 1.0

    def test_detects_overt_ad(self, reference_classifier, overt_ad):
        assert reference_classifier.is_ad(overt_ad)

    def test_passes_photo(self, reference_classifier, photo):
        assert not reference_classifier.is_ad(photo)

    def test_batch_matches_single(self, reference_classifier, overt_ad,
                                  photo):
        batch = reference_classifier.ad_probabilities([overt_ad, photo])
        assert batch[0] == pytest.approx(
            reference_classifier.ad_probability(overt_ad), abs=1e-5
        )
        assert batch[1] == pytest.approx(
            reference_classifier.ad_probability(photo), abs=1e-5
        )

    def test_empty_batch(self, reference_classifier):
        assert reference_classifier.ad_probabilities([]).shape == (0,)

    def test_threshold_changes_verdict(self, photo, reference_classifier):
        # a lenient threshold below the photo's score flips the verdict
        p = reference_classifier.ad_probability(photo)
        lenient = AdClassifier(
            PercivalConfig(ad_threshold=max(p / 2, 1e-9)),
            network=reference_classifier.network,
        )
        assert lenient.is_ad(photo)

    def test_save_load_roundtrip(self, reference_classifier, tmp_path,
                                 overt_ad):
        path = str(tmp_path / "model.npz")
        reference_classifier.save(path)
        fresh = AdClassifier(reference_classifier.config)
        fresh.load(path)
        assert fresh.ad_probability(overt_ad) == pytest.approx(
            reference_classifier.ad_probability(overt_ad), abs=1e-6
        )

    def test_model_size_reported(self, reference_classifier):
        assert reference_classifier.model_size_mb > 0

    def test_latency_positive(self, reference_classifier):
        assert reference_classifier.measured_latency_ms(repeats=1) > 0

    def test_latency_times_the_served_frame(self, reference_classifier, monkeypatch):
        # the calibration times the decoder's 8-bit RGBA frame, so it
        # pays the same uint8 -> float conversion a served frame pays
        seen = []
        real_is_ad = reference_classifier.is_ad

        def spy(bitmap):
            seen.append(bitmap)
            return real_is_ad(bitmap)

        monkeypatch.setattr(reference_classifier, "is_ad", spy)
        reference_classifier.measured_latency_ms(repeats=1)
        assert seen
        for bitmap in seen:
            assert bitmap.dtype == np.uint8
            assert bitmap.ndim == 3 and bitmap.shape[2] == 4


class TestPercivalBlocker:
    def test_implements_renderer_protocol(self, reference_classifier,
                                          overt_ad):
        blocker = PercivalBlocker(reference_classifier,
                                  calibrated_latency_ms=11.0)
        info = SkImageInfo(width=overt_ad.shape[1],
                           height=overt_ad.shape[0])
        assert blocker.classify_bitmap(overt_ad, info) is True
        assert blocker.classify_cost_ms(info) == 11.0

    def test_memoization_caches_verdicts(self, reference_classifier,
                                         overt_ad):
        blocker = PercivalBlocker(reference_classifier,
                                  calibrated_latency_ms=11.0)
        first = blocker.decide(overt_ad)
        second = blocker.decide(overt_ad)
        assert not first.from_cache
        assert second.from_cache
        assert first.is_ad == second.is_ad
        assert blocker.classifications == 1

    def test_memoized_decision_lookup(self, reference_classifier,
                                      overt_ad, photo):
        blocker = PercivalBlocker(reference_classifier,
                                  calibrated_latency_ms=11.0)
        assert blocker.memoized_decision(overt_ad) is None
        blocker.decide(overt_ad)
        cached = blocker.memoized_decision(overt_ad)
        assert cached.is_ad is True
        assert cached.from_cache
        assert blocker.memoized_decision(photo) is None

    def test_memo_capacity_evicts_lru(self, reference_classifier, rng):
        blocker = PercivalBlocker(
            reference_classifier, calibrated_latency_ms=11.0,
            memo_capacity=2,
        )
        bitmaps = [
            rng.random((8, 8, 4)).astype(np.float32) for _ in range(3)
        ]
        for bitmap in bitmaps:
            blocker.decide(bitmap)
        assert blocker.memo_size == 2
        assert blocker.memoized_decision(bitmaps[0]) is None

    def test_clear_memo(self, reference_classifier, overt_ad):
        blocker = PercivalBlocker(reference_classifier,
                                  calibrated_latency_ms=11.0)
        blocker.decide(overt_ad)
        blocker.clear_memo()
        assert blocker.memo_size == 0

    def test_calibration_falls_back_to_measurement(
        self, reference_classifier
    ):
        blocker = PercivalBlocker(reference_classifier)
        assert blocker.calibrated_latency_ms > 0
