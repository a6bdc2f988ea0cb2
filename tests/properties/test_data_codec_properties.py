"""Property-based tests: codecs round-trip, dataset invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.browser.codecs import (
    ImageFormat,
    _to_uint8,
    decode_image,
    encode_image,
)
from repro.data.dataset import LabeledImageDataset
from repro.synth.drawing import resize_bitmap


@settings(max_examples=20, deadline=None)
@given(
    height=st.integers(2, 24), width=st.integers(2, 24),
    seed=st.integers(0, 10_000),
    fmt=st.sampled_from([ImageFormat.RAW, ImageFormat.RLE,
                         ImageFormat.DEFLATE]),
)
def test_lossless_codecs_roundtrip_any_size(height, width, seed, fmt):
    rng = np.random.default_rng(seed)
    pixels = rng.random((height, width, 4)).astype(np.float32)
    decoded = decode_image(encode_image(pixels, fmt))
    assert decoded.dtype == np.uint8
    np.testing.assert_array_equal(decoded, _to_uint8(pixels))


@settings(max_examples=20, deadline=None)
@given(
    height=st.integers(2, 40), width=st.integers(2, 40),
    target_h=st.integers(2, 40), target_w=st.integers(2, 40),
    seed=st.integers(0, 10_000),
)
def test_resize_always_exact_target(height, width, target_h, target_w,
                                    seed):
    rng = np.random.default_rng(seed)
    img = rng.random((height, width, 4)).astype(np.float32)
    out = resize_bitmap(img, target_h, target_w)
    assert out.shape == (target_h, target_w, 4)
    assert out.min() >= 0.0 and out.max() <= 1.0


@settings(max_examples=20, deadline=None)
@given(
    n_ads=st.integers(1, 20), n_nonads=st.integers(1, 20),
    seed=st.integers(0, 1000),
)
def test_balancing_always_equalizes(n_ads, n_nonads, seed):
    total = n_ads + n_nonads
    rng = np.random.default_rng(seed)
    data = LabeledImageDataset(
        rng.random((total, 4, 2, 2)).astype(np.float32),
        np.array([1] * n_ads + [0] * n_nonads, dtype=np.int64),
    )
    balanced = data.balanced(seed=seed)
    assert balanced.num_ads == balanced.num_nonads
    assert balanced.num_ads == min(n_ads, n_nonads)


@settings(max_examples=20, deadline=None)
@given(
    count=st.integers(2, 30), fraction=st.floats(0.1, 0.9),
    seed=st.integers(0, 1000),
)
def test_split_partitions_exactly(count, fraction, seed):
    rng = np.random.default_rng(seed)
    data = LabeledImageDataset(
        rng.random((count, 4, 2, 2)).astype(np.float32),
        rng.integers(0, 2, count).astype(np.int64),
        [{"i": i} for i in range(count)],
    )
    first, second = data.split(fraction, seed=seed)
    assert len(first) + len(second) == count
    ids = sorted(
        [m["i"] for m in first.metadata] + [m["i"] for m in second.metadata]
    )
    assert ids == list(range(count))
