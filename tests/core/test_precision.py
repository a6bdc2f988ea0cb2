"""The precision pipeline end to end: knob -> artifact -> plan ->
shared-memory workers.

The contract under test: ``PERCIVAL_PRECISION`` selects *storage* only
— compute stays fp32 — and fp32 reproduces the pre-precision pipeline
bit for bit.  Quantized exports round-trip through the worker-pool
manifest so every worker computes over exactly the bytes the parent
compiled with.
"""

import numpy as np
import pytest

from repro.core import (
    AdClassifier,
    InferenceWorkerPool,
    PercivalBlocker,
    PercivalConfig,
    knob,
)
from repro.core.classifier import PrecisionRejectedError


def _nchw(classifier, count, seed=0):
    rng = np.random.default_rng(seed)
    size = classifier.config.input_size
    return rng.standard_normal((count, 4, size, size)).astype(np.float32)


class TestConfiguredPrecision:
    def test_default_is_fp32(self, monkeypatch):
        monkeypatch.delenv("PERCIVAL_PRECISION", raising=False)
        assert knob("PERCIVAL_PRECISION") == "fp32"

    def test_env_sets_precision(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_PRECISION", "int8")
        assert knob("PERCIVAL_PRECISION") == "int8"

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_PRECISION", "int8")
        assert knob("PERCIVAL_PRECISION", "fp16") == "fp16"

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_PRECISION", "int4")
        with pytest.raises(ValueError):
            knob("PERCIVAL_PRECISION")

    def test_empty_env_is_fp32(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_PRECISION", "")
        assert knob("PERCIVAL_PRECISION") == "fp32"

    def test_config_field_resolves(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_PRECISION", "fp16")
        env_driven = AdClassifier(PercivalConfig())
        pinned = AdClassifier(PercivalConfig(precision="fp32"))
        assert env_driven.precision == "fp16"
        assert pinned.precision == "fp32"

    def test_cache_key_ignores_precision(self):
        base = PercivalConfig()
        quantized = PercivalConfig(
            precision="int8", quantization_drift_tolerance=0.5
        )
        assert base.cache_key() == quantized.cache_key()


class TestPrecisionFingerprints:
    def test_fingerprints_diverge_per_precision(self):
        fp32 = AdClassifier(PercivalConfig(precision="fp32"))
        int8 = AdClassifier(
            PercivalConfig(precision="int8"), network=fp32.network
        )
        assert fp32.weights_fingerprint() != int8.weights_fingerprint()

    def test_fp32_is_bit_for_bit_the_default_pipeline(self, monkeypatch):
        monkeypatch.delenv("PERCIVAL_PRECISION", raising=False)
        shared = AdClassifier(PercivalConfig())
        pinned = AdClassifier(
            PercivalConfig(precision="fp32"), network=shared.network
        )
        batch = _nchw(shared, 4)
        assert np.array_equal(
            shared.predict_proba_tensor(batch),
            pinned.predict_proba_tensor(batch),
        )


class TestCalibrationGate:
    def test_quantized_precision_adopted_when_drift_small(self):
        classifier = AdClassifier(PercivalConfig(precision="int8"))
        # untrained nets may legitimately reject; the adopted artifact
        # must match whatever effective_precision reports either way
        artifact = classifier.weight_artifact()
        assert artifact.precision == classifier.effective_precision

    def test_impossible_tolerance_falls_back_to_fp32(self):
        classifier = AdClassifier(PercivalConfig(
            precision="int8", quantization_drift_tolerance=0.0,
        ))
        assert classifier.effective_precision == "fp32"
        assert classifier.weight_artifact().precision == "fp32"
        assert classifier.fast_path_tolerance == 1e-5

    def test_gate_raises_internally(self):
        classifier = AdClassifier(PercivalConfig(
            precision="int8", quantization_drift_tolerance=0.0,
        ))
        from repro.nn.artifact import WeightArtifact

        candidate = WeightArtifact.from_network(classifier.network, "int8")
        with pytest.raises(PrecisionRejectedError):
            classifier._calibrate_artifact(candidate)

    def test_gated_drift_bound_holds_on_calibration_batch(self):
        classifier = AdClassifier(PercivalConfig(precision="int8"))
        if classifier.effective_precision != "int8":
            pytest.skip("gate rejected int8 on this seed")
        reference = AdClassifier(
            PercivalConfig(precision="fp32"), network=classifier.network
        )
        batch = classifier.calibration_batch()
        drift = np.abs(
            classifier.predict_proba_tensor(batch)
            - reference.predict_proba_tensor(batch)
        ).max()
        assert drift <= classifier.config.quantization_drift_tolerance


@pytest.mark.parametrize("precision", ["fp16", "int8"])
class TestQuantizedExportRoundTrip:
    def test_manifest_rows_and_buffer_shrink(self, precision):
        quantized = AdClassifier(PercivalConfig(precision=precision))
        fp32 = AdClassifier(
            PercivalConfig(precision="fp32"), network=quantized.network
        )
        if quantized.effective_precision != precision:
            pytest.skip("gate rejected the precision on this seed")
        export = quantized.export_plan()
        assert export.precision == precision
        assert export.total_bytes < fp32.export_plan().total_bytes
        dtypes = {np.dtype(row[2]) for row in export.manifest}
        if precision == "fp16":
            assert dtypes == {np.dtype(np.float16)}
        else:
            # int8 weights with per-channel scales; biases stay fp32
            assert dtypes == {np.dtype(np.int8), np.dtype(np.float32)}

    def test_from_plan_export_matches_parent_exactly(self, precision):
        parent = AdClassifier(PercivalConfig(precision=precision))
        export = parent.export_plan()
        buffer = bytearray(export.total_bytes)
        parent.pack_weights_into(export, buffer)
        worker = AdClassifier.from_plan_export(export, buffer)
        assert worker.precision == export.precision
        assert worker.effective_precision == export.precision
        batch = _nchw(parent, 6)
        assert np.array_equal(
            worker.predict_proba_tensor(batch),
            parent.predict_proba_tensor(batch),
        )

    def test_pool_publish_then_compile_matches_parent(self, precision):
        parent = AdClassifier(PercivalConfig(precision=precision))
        batch = _nchw(parent, 6)
        with InferenceWorkerPool(num_workers=2) as pool:
            pool.publish(parent)
            assert pool.published_fingerprint == parent.weights_fingerprint()
            sharded = pool.predict_proba(batch)
        assert np.allclose(
            sharded, parent.predict_proba_tensor(batch),
            atol=1e-7, rtol=0.0,
        )

    def test_stale_export_rejected_by_pack(self, precision, tmp_path):
        parent = AdClassifier(PercivalConfig(precision=precision))
        export = parent.export_plan()
        donor = AdClassifier(PercivalConfig(seed=parent.config.seed + 1))
        path = str(tmp_path / "donor.npz")
        donor.save(path)
        parent.load(path)  # export fingerprint is now stale
        buffer = bytearray(export.total_bytes)
        with pytest.raises(ValueError):
            parent.pack_weights_into(export, buffer)


class TestMemoGenerations:
    def test_memo_cleared_when_weights_replaced(self, tmp_path):
        classifier = AdClassifier(PercivalConfig())
        blocker = PercivalBlocker(classifier, calibrated_latency_ms=1.0)
        rng = np.random.default_rng(3)
        bitmap = rng.random((10, 12, 4)).astype(np.float32)
        blocker.decide(bitmap)
        assert blocker.memo_size == 1
        donor = AdClassifier(PercivalConfig(seed=9))
        path = str(tmp_path / "donor.npz")
        donor.save(path)
        classifier.load(path)  # bumps weights_version
        assert blocker.memoized_decision(bitmap) is None
        decision = blocker.decide(bitmap)
        assert not decision.from_cache
        assert blocker.classifications == 2

    def test_memo_survives_unchanged_weights(self):
        classifier = AdClassifier(PercivalConfig())
        blocker = PercivalBlocker(classifier, calibrated_latency_ms=1.0)
        rng = np.random.default_rng(4)
        bitmap = rng.random((10, 12, 4)).astype(np.float32)
        blocker.decide(bitmap)
        assert blocker.decide(bitmap).from_cache
