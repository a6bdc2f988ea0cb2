"""Bitmap preprocessing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from repro.browser.codecs import ImageFormat, decode_image, encode_image
from repro.core import InferenceWorkerPool, PercivalBlocker
from repro.core.preprocessing import preprocess_batch, preprocess_bitmap


def _reference_tensor(bitmap, size):
    """Preprocessing spelled out step by step on scipy's resize: RGB
    gains an opaque alpha, the frame is zoomed and clipped, then
    transposed to CHW and centered."""
    if bitmap.shape[2] == 3:
        alpha = np.ones(bitmap.shape[:2] + (1,), dtype=bitmap.dtype)
        bitmap = np.concatenate([bitmap, alpha], axis=2)
    if bitmap.shape[:2] == (size, size):
        resized = bitmap.astype(np.float32)
    else:
        zoom = (size / bitmap.shape[0], size / bitmap.shape[1], 1.0)
        resized = ndimage.zoom(bitmap, zoom, order=1, mode="nearest")
        resized = np.clip(resized, 0.0, 1.0).astype(np.float32)
    tensor = resized.transpose(2, 0, 1).astype(np.float32)
    return (tensor - 0.5) * 2.0


class TestPreprocessBitmap:
    def test_output_shape(self, rng):
        bitmap = rng.random((50, 30, 4)).astype(np.float32)
        tensor = preprocess_bitmap(bitmap, 32)
        assert tensor.shape == (4, 32, 32)

    def test_rgb_gets_alpha(self, rng):
        bitmap = rng.random((20, 20, 3)).astype(np.float32)
        tensor = preprocess_bitmap(bitmap, 16)
        assert tensor.shape == (4, 16, 16)
        # alpha channel normalized from 1.0 -> 1.0 after centering
        assert np.allclose(tensor[3], (1.0 - 0.5) * 2.0)

    def test_normalized_range(self, rng):
        bitmap = rng.random((20, 20, 4)).astype(np.float32)
        tensor = preprocess_bitmap(bitmap, 16)
        assert tensor.min() >= -1.0 - 1e-5
        assert tensor.max() <= 1.0 + 1e-5

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            preprocess_bitmap(np.zeros((4, 4)), 16)

    def test_bad_channels_rejected(self):
        with pytest.raises(ValueError):
            preprocess_bitmap(np.zeros((4, 4, 2)), 16)

    def test_paper_input_size_supported(self, rng):
        bitmap = rng.random((300, 250, 4)).astype(np.float32)
        tensor = preprocess_bitmap(bitmap, 224)
        assert tensor.shape == (4, 224, 224)


class TestPreprocessBatch:
    def test_stacks(self, rng):
        bitmaps = [
            rng.random((10 + i, 20, 4)).astype(np.float32)
            for i in range(3)
        ]
        batch = preprocess_batch(bitmaps, 16)
        assert batch.shape == (3, 4, 16, 16)

    def test_empty_batch(self):
        batch = preprocess_batch([], 16)
        assert batch.shape == (0, 4, 16, 16)
        assert batch.dtype == np.float32

    def test_bitwise_equal_to_stacked_singles_and_reference(self, rng):
        bitmaps = [
            rng.random((60, 72, 4)).astype(np.float32),
            rng.random((7, 250, 4)).astype(np.float32),
            rng.random((20, 20, 3)).astype(np.float32),
            rng.random((16, 16, 4)).astype(np.float32),
            rng.random((33, 9, 4)),
        ]
        for size in (16, 32):
            batch = preprocess_batch(bitmaps, size)
            stacked = np.stack([preprocess_bitmap(b, size) for b in bitmaps])
            reference = np.stack([_reference_tensor(b, size) for b in bitmaps])
            assert batch.dtype == np.float32
            np.testing.assert_array_equal(
                batch.view(np.uint32), stacked.view(np.uint32)
            )
            np.testing.assert_array_equal(
                batch.view(np.uint32), reference.view(np.uint32)
            )


class TestDecodedFrames:
    """Decoded frames arrive as the decoder's ``uint8`` bytes; their
    tensors are bitwise those of ``frame.astype(np.float32) / 255.0``,
    the floats the decoder used to hand over."""

    @settings(max_examples=40, deadline=None)
    @given(
        height=st.integers(1, 120), width=st.integers(1, 120),
        channels=st.sampled_from([3, 4]), size=st.sampled_from([32, 224]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_uint8_frame_matches_its_float_conversion(
        self, height, width, channels, size, seed
    ):
        rng = np.random.default_rng(seed)
        frame = rng.integers(0, 256, (height, width, channels), np.uint8)
        as_float = frame.astype(np.float32) / 255.0
        single = preprocess_bitmap(frame, size)
        np.testing.assert_array_equal(
            single.view(np.uint32),
            preprocess_bitmap(as_float, size).view(np.uint32),
        )
        batch = preprocess_batch([frame, as_float], size)
        np.testing.assert_array_equal(
            batch[0].view(np.uint32), single.view(np.uint32)
        )
        np.testing.assert_array_equal(
            batch[1].view(np.uint32), single.view(np.uint32)
        )

    def test_rgb_uint8_frame_gets_an_opaque_alpha(self, rng):
        # the frame becomes floats before the alpha plane joins it, so
        # alpha reads 1.0, not 1/255
        frame = rng.integers(0, 256, (20, 20, 3), np.uint8)
        tensor = preprocess_bitmap(frame, 16)
        assert np.all(tensor[3] == (1.0 - 0.5) * 2.0)

    def test_keyless_pooled_decide_many_matches_in_process(
        self, untrained_classifier
    ):
        rng = np.random.default_rng(11)
        formats = list(ImageFormat)
        frames = [
            decode_image(encode_image(
                rng.random((8 + index, 12, 4)).astype(np.float32),
                formats[index % len(formats)],
            ))
            for index in range(12)
        ]
        assert all(frame.dtype == np.uint8 for frame in frames)
        with InferenceWorkerPool(num_workers=1) as pool:
            pool.publish(untrained_classifier)
            pooled = PercivalBlocker(
                untrained_classifier, calibrated_latency_ms=1.0,
                pool=pool, shard_min_batch=1,
            )
            reference = PercivalBlocker(
                untrained_classifier, calibrated_latency_ms=1.0
            )
            got = pooled.decide_many(frames)
            want = reference.decide_many(frames)
            assert pooled.pool_fallbacks == 0
        assert [d.probability for d in got] == [
            d.probability for d in want
        ]
        assert list(pooled._memo.items()) == list(reference._memo.items())
