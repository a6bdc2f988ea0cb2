"""Skia analog classes: deferred decoding and the PERCIVAL hook."""

import numpy as np
import pytest

from repro.browser.codecs import ImageFormat, encode_image
from repro.browser.skia import (
    BitmapImage,
    DecodingImageGenerator,
    SkImage,
    SkImageInfo,
)


@pytest.fixture()
def encoded(rng):
    pixels = rng.random((10, 8, 4)).astype(np.float32)
    return encode_image(pixels, ImageFormat.DEFLATE)


class TestDecodingImageGenerator:
    def test_populates_bitmap(self, encoded):
        generator = DecodingImageGenerator(encoded)
        bitmap = np.zeros((10, 8, 4), dtype=np.uint8)
        blocked = generator.on_get_pixels(bitmap)
        assert not blocked
        assert bitmap.any()
        assert generator.decode_count == 1

    def test_shape_mismatch_rejected(self, encoded):
        generator = DecodingImageGenerator(encoded)
        with pytest.raises(ValueError):
            generator.on_get_pixels(np.zeros((4, 4, 4), dtype=np.uint8))

    def test_hook_sees_unmodified_pixels(self, encoded):
        seen = {}

        def hook(bitmap, info):
            seen["mean"] = float(bitmap.mean())
            seen["info"] = info
            return False

        generator = DecodingImageGenerator(encoded)
        bitmap = np.zeros((10, 8, 4), dtype=np.uint8)
        generator.on_get_pixels(bitmap, hook)
        assert seen["mean"] == pytest.approx(float(bitmap.mean()))
        assert seen["info"] == SkImageInfo(width=8, height=10)

    def test_blocking_clears_buffer(self, encoded):
        generator = DecodingImageGenerator(encoded)
        bitmap = np.zeros((10, 8, 4), dtype=np.uint8)
        blocked = generator.on_get_pixels(bitmap, lambda b, i: True)
        assert blocked
        assert not bitmap.any()  # the frame never reaches the screen


class TestBitmapImage:
    def test_deferred_until_ensure(self, encoded):
        image = BitmapImage(encoded)
        assert not image.is_decoded
        decoded = image.ensure_decoded()
        assert image.is_decoded
        # the decoder's 8-bit RGBA, not floats
        assert decoded.dtype == np.uint8
        assert decoded.shape == (10, 8, 4)

    def test_decode_happens_once(self, encoded):
        image = BitmapImage(encoded)
        calls = []
        hook = lambda b, i: calls.append(1) and False  # noqa: E731
        image.ensure_decoded(hook)
        image.ensure_decoded(hook)
        assert len(calls) == 1
        assert image.sk_image.generator.decode_count == 1

    def test_blocked_flag_persists(self, encoded):
        image = BitmapImage(encoded)
        image.ensure_decoded(lambda b, i: True)
        assert image.blocked
        cleared = image.ensure_decoded()
        assert cleared.dtype == np.uint8
        assert not cleared.any()

    @pytest.mark.parametrize("decoded_first", [False, True])
    def test_settled_block_is_a_cleared_uint8_frame(
        self, encoded, decoded_first
    ):
        image = BitmapImage(encoded)
        if decoded_first:
            image.decode_only()
        image.settle_verdict(True)
        assert image.blocked
        settled = image.ensure_decoded()
        assert settled.dtype == np.uint8
        assert settled.shape == (10, 8, 4)
        assert not settled.any()

    def test_info_from_sk_image(self, encoded):
        image = BitmapImage(encoded)
        assert image.sk_image.info.pixel_count == 80


class TestSkImage:
    def test_wraps_encoded(self, encoded):
        sk = SkImage(encoded)
        assert sk.encoded is encoded
        assert sk.info.width == encoded.width
