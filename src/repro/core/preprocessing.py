"""Bitmap preprocessing for the classifier.

The paper's pipeline: "PERCIVAL reads the image, scales it
to 224x224x4 ..., creates a tensor, and passes it through the CNN"
(§3.3).  Preprocessing accepts whatever the decode step hands over —
8-bit (``uint8``) or float [0, 1] pixels, RGBA or RGB, any spatial
size — and produces the fixed-size CHW tensor the network expects,
normalized to zero-centered range.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.synth.drawing import resize_bitmap

#: Normalization: decoded pixels are [0, 1]; center to [-1, 1].
_CENTER = 0.5
_SCALE = 2.0


def _preprocess_into(
    bitmap: np.ndarray, input_size: int, out: np.ndarray
) -> None:
    """Write one decoded bitmap (H, W, C) into ``out`` (4, S, S).

    A ``uint8`` frame (the decoder's bytes) becomes float32 here, with
    the expression the decoder once applied, so its tensor is bitwise
    that of the float frame.  The CHW transpose and the centering
    happen in the write itself, in float32, so no per-frame tensor is
    materialized.
    """
    if bitmap.ndim != 3:
        raise ValueError("expected (H, W, C) bitmap")
    if bitmap.dtype == np.uint8:
        bitmap = bitmap.astype(np.float32) / 255.0
    if bitmap.shape[2] == 3:
        alpha = np.ones(bitmap.shape[:2] + (1,), dtype=bitmap.dtype)
        bitmap = np.concatenate([bitmap, alpha], axis=2)
    elif bitmap.shape[2] != 4:
        raise ValueError(f"unsupported channel count {bitmap.shape[2]}")
    resized = resize_bitmap(bitmap, input_size, input_size)
    np.subtract(resized.transpose(2, 0, 1), _CENTER, out=out)
    np.multiply(out, _SCALE, out=out)


def preprocess_bitmap(bitmap: np.ndarray, input_size: int) -> np.ndarray:
    """One decoded bitmap (H, W, C) -> network tensor (4, S, S)."""
    tensor = np.empty((4, input_size, input_size), dtype=np.float32)
    _preprocess_into(bitmap, input_size, tensor)
    return tensor


def preprocess_batch(
    bitmaps: Sequence[np.ndarray], input_size: int
) -> np.ndarray:
    """Preprocess bitmaps straight into one NCHW batch; equal, bit for
    bit, to stacking ``preprocess_bitmap`` of each."""
    batch = np.empty(
        (len(bitmaps), 4, input_size, input_size), dtype=np.float32
    )
    for bitmap, tensor in zip(bitmaps, batch):
        _preprocess_into(bitmap, input_size, tensor)
    return batch
