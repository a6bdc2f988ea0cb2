"""Bitmap preprocessing."""

import numpy as np
import pytest
from scipy import ndimage

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
